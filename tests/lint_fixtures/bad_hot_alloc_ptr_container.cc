// p5lint fixture — analysis-only, never compiled.
// BAD: a P5_HOT_PATH root reaches an allocating helper through a loop
// over a vector of unique_ptr.  The element type of
// `std::vector<std::unique_ptr<Unit>>` must be parsed with balanced
// brackets so `unit->step()` resolves to Unit::step, and p5lint flags
// hot_path_no_alloc and nothing else.

#include <memory>
#include <vector>

namespace fixture {

struct Unit
{
    void step();

    std::vector<int> log_;
};

struct Cluster
{
    P5_HOT_PATH void run();

    std::vector<std::unique_ptr<Unit>> units_;
};

void
Unit::step()
{
    log_.push_back(1); // allocates: reachable from the hot root
}

void
Cluster::run()
{
    for (auto &unit : units_)
        unit->step();
}

} // namespace fixture
