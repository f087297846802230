// p5lint fixture — analysis-only, never compiled.
// GOOD twin of bad_hot_alloc_unbraced.cc: the helper reached through
// the unbraced `if` and the unique_ptr writes a fixed ring in place —
// no allocation, no findings.

#include <array>
#include <memory>

namespace fixture {

struct Sink
{
    void record(int v);

    std::array<int, 64> events_{};
    unsigned next_ = 0;
};

struct HotLog
{
    P5_HOT_PATH void tick();

    std::unique_ptr<Sink> sink_;
    bool on_ = true;
};

void
Sink::record(int v)
{
    events_[next_ % 64] = v;
    ++next_;
}

void
HotLog::tick()
{
    if (on_)
        sink_->record(42);
}

} // namespace fixture
