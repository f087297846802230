// p5lint fixture — analysis-only, never compiled.
// BAD: a P5_HOT_PATH root reaches an allocating helper through a call
// on a smart pointer inside an unbraced `if`.  The receiver of
// `sink_->record()` must be resolved past the `if (...)` head and
// through the unique_ptr, so p5lint flags hot_path_no_alloc and
// nothing else.

#include <memory>
#include <vector>

namespace fixture {

struct Sink
{
    void record(int v);

    std::vector<int> events_;
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
    events_.push_back(v); // allocates: reachable from the hot root
}

void
HotLog::tick()
{
    if (on_)
        sink_->record(42);
}

} // namespace fixture
