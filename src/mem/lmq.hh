/**
 * @file
 * Load-miss queue (LMQ / MSHR) model.
 *
 * POWER5's LMQ has eight entries shared by both threads; a load that
 * misses L1D needs an entry for the duration of the miss, which bounds
 * memory-level parallelism and creates contention between a memory-bound
 * thread and its sibling. The balancer watches per-thread occupancy as
 * its "too many outstanding L2 misses" signal.
 *
 * Entries are modeled as busy *windows* [start, release): a load whose
 * translation is still walking occupies its entry only once the cache
 * access begins (on real hardware the load is rejected and reissued
 * after the walk, holding no LMQ entry meanwhile). When all entries are
 * busy the new miss *queues*: its window is pushed back to the first
 * point where an entry frees.
 */

#ifndef P5SIM_MEM_LMQ_HH
#define P5SIM_MEM_LMQ_HH

#include <vector>

#include "common/annotate.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace p5 {

/** Shared load-miss queue with per-thread occupancy accounting. */
class Lmq
{
  public:
    explicit Lmq(int entries);

    /**
     * Reserve an entry for thread @p tid over [@p start_cycle,
     * @p release_cycle), queueing (delaying the window) while the queue
     * is full.
     *
     * @return the actual start cycle (>= start_cycle).
     */
    Cycle reserve(ThreadId tid, Cycle now, Cycle start_cycle,
                  Cycle release_cycle);

    /**
     * Adjust the release cycle of the most recently reserved window
     * (once the actual miss latency is known).
     */
    void updateLastRelease(Cycle release_cycle);

    /** Entries busy at @p now. */
    int occupancy(Cycle now);

    /** Entries of @p tid busy at @p now. */
    int occupancyOf(ThreadId tid, Cycle now);

    /**
     * Side-effect-free forms of occupancy()/occupancyOf() for
     * observers (p5check): count windows covering @p now without
     * recycling released entries.
     */
    int busyAt(Cycle now) const;
    int busyOfAt(ThreadId tid, Cycle now) const;

    /**
     * Earliest cycle after @p now at which occupancy can change (a
     * pending window starts or a busy one releases), or never_cycle.
     * Fast-forward next-event contract: busyAt()/busyOfAt() are
     * constant over (now, nextEventCycle(now)).
     */
    P5_PROBE_PURE Cycle nextEventCycle(Cycle now) const;

    /** Release everything belonging to @p tid (squash support). */
    void releaseThread(ThreadId tid);

    /** Release all entries. */
    void reset();

    int capacity() const { return capacity_; }
    std::uint64_t allocations() const { return allocations_.value(); }

    /** Misses that had to wait for a free entry. */
    std::uint64_t queuedMisses() const { return queuedMisses_.value(); }

    /** Total cycles misses spent waiting for entries. */
    std::uint64_t queuedCycles() const { return queuedCycles_.value(); }

    void registerStats(StatGroup &group) const;

    /**
     * Checkpoint field walk (ckpt_state.cc): the busy windows, in order,
     * and the counters.
     */
    template <class Ar> void ckptFields(Ar &ar);

  private:
    struct Window
    {
        ThreadId tid = 0;
        Cycle startCycle = 0;
        Cycle releaseCycle = 0;
    };

    void recycle(Cycle now);
    int overlapping(Cycle start_cycle, Cycle release_cycle) const;

    int capacity_;
    std::vector<Window> windows_;
    Counter allocations_;
    Counter queuedMisses_;
    Counter queuedCycles_;
};

} // namespace p5

#endif // P5SIM_MEM_LMQ_HH
