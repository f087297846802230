/**
 * @file
 * Ready-instruction queues.
 *
 * Instructions whose operands are available wait here, one queue per
 * functional-unit class, ordered oldest-first by dispatch stamp across
 * both threads. Entries are (tid, seq, epoch) references validated by the
 * core at pop time, so squashed instructions simply evaporate.
 */

#ifndef P5SIM_CORE_ISSUE_QUEUE_HH
#define P5SIM_CORE_ISSUE_QUEUE_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "isa/op_class.hh"

namespace p5 {

/** Reference to an in-flight instruction awaiting issue. */
struct ReadyRef
{
    std::uint64_t stamp = 0; ///< global dispatch order (issue priority)
    ThreadId tid = 0;
    SeqNum seq = 0;
    std::uint64_t epoch = 0; ///< thread squash epoch at dispatch
    std::uint32_t slot = 0;  ///< window-slot hint for O(1) resolve
};

/** Oldest-first (smallest stamp) ordering for the ready heaps. */
struct ReadyRefLater
{
    bool
    operator()(const ReadyRef &a, const ReadyRef &b) const
    {
        return a.stamp > b.stamp;
    }
};

/**
 * Per-FuClass oldest-first ready queues.
 *
 * Each queue is a binary heap over a plain vector (std::push_heap /
 * std::pop_heap) rather than std::priority_queue, so observers — the
 * p5check flow checker in particular — can walk the live entries
 * without disturbing them.
 */
class IssueQueue
{
  public:
    IssueQueue();

    /** Enqueue a ready instruction for its unit class. */
    void push(FuClass fc, const ReadyRef &ref);

    bool empty(FuClass fc) const;

    std::size_t size(FuClass fc) const;

    /** Peek the oldest entry; queue must be non-empty. */
    const ReadyRef &top(FuClass fc) const;

    /** Remove the oldest entry; queue must be non-empty. */
    ReadyRef pop(FuClass fc);

    /** Drop everything (between runs). */
    void clear();

    /** Total entries across all classes. */
    std::size_t totalSize() const;

    /** Live entries of @p fc in heap order (observers only). */
    const std::vector<ReadyRef> &
    entries(FuClass fc) const
    {
        return queues_[static_cast<int>(fc)];
    }

    /**
     * Checkpoint field walk (ckpt_state.cc): every heap array verbatim
     * (heap order preserved).
     */
    template <class Ar> void ckptFields(Ar &ar);

  private:
    std::vector<ReadyRef> queues_[static_cast<int>(FuClass::NumFuClasses)];
};

} // namespace p5

#endif // P5SIM_CORE_ISSUE_QUEUE_HH
