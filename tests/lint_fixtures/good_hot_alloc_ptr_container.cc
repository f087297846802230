// p5lint fixture — analysis-only, never compiled.
// GOOD twin of bad_hot_alloc_ptr_container.cc: the helper reached
// through the vector of unique_ptr counts in place — no allocation, no
// findings.

#include <memory>
#include <vector>

namespace fixture {

struct Unit
{
    void step();

    unsigned steps_ = 0;
};

struct Cluster
{
    P5_HOT_PATH void run();

    std::vector<std::unique_ptr<Unit>> units_;
};

void
Unit::step()
{
    ++steps_;
}

void
Cluster::run()
{
    for (auto &unit : units_)
        unit->step();
}

} // namespace fixture
