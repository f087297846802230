/**
 * @file
 * Global Completion Table (the POWER5 reorder buffer).
 *
 * The GCT is a pool of group entries shared by both threads; each group
 * holds up to groupSize consecutive instructions of one thread. Decode
 * dispatches one group per cycle; commit retires the oldest group of a
 * thread once all of its instructions have finished. Per-thread occupancy
 * is what the dynamic resource balancer watches.
 */

#ifndef P5SIM_CORE_GCT_HH
#define P5SIM_CORE_GCT_HH

#include "common/ring_deque.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace p5 {

/** One GCT group: instructions [startSeq, startSeq + count) of a thread. */
struct GctGroup
{
    SeqNum startSeq = 0;
    int count = 0;
};

/** The shared GCT. */
class Gct
{
  public:
    explicit Gct(int num_groups);

    /** Total group capacity. */
    int capacity() const { return capacity_; }

    /** Groups currently allocated (both threads). */
    int
    occupancy() const
    {
        return static_cast<int>(groups_[0].size() + groups_[1].size());
    }

    /** Groups currently allocated by @p tid. */
    int
    occupancyOf(ThreadId tid) const
    {
        return static_cast<int>(groups_[static_cast<size_t>(tid)].size());
    }

    bool hasFreeGroup() const { return occupancy() < capacity_; }

    /** Allocate a group; panics if full (caller checks hasFreeGroup). */
    void allocate(ThreadId tid, SeqNum start_seq, int count);

    /** @return the oldest group of @p tid; panics if none. */
    const GctGroup &oldest(ThreadId tid) const;

    bool
    empty(ThreadId tid) const
    {
        return groups_[static_cast<size_t>(tid)].empty();
    }

    /** Retire the oldest group of @p tid. */
    void popOldest(ThreadId tid);

    /**
     * Squash: drop all groups of @p tid whose instructions are entirely
     * after @p last_good_seq and truncate the group that straddles it.
     */
    void squash(ThreadId tid, SeqNum last_good_seq);

    /**
     * Squash every instruction of @p tid with seq >= @p first_bad_seq
     * (the underflow-safe form used for dispatch flushes).
     */
    void squashFrom(ThreadId tid, SeqNum first_bad_seq);

    /** Drop every group of @p tid. */
    void clearThread(ThreadId tid);

    /** Iterate over @p tid's groups, oldest first. */
    const RingDeque<GctGroup> &
    groupsOf(ThreadId tid) const
    {
        return groups_[static_cast<size_t>(tid)];
    }

    std::uint64_t allocated() const { return allocated_.value(); }
    std::uint64_t retired() const { return retired_.value(); }

    void registerStats(StatGroup &group) const;

    /**
     * Checkpoint field walk (ckpt_state.cc): both threads' group rings,
     * oldest first, and the counters.
     */
    template <class Ar> void ckptFields(Ar &ar);

  private:
    int capacity_;
    RingDeque<GctGroup> groups_[num_hw_threads];
    Counter allocated_;
    Counter retired_;
};

} // namespace p5

#endif // P5SIM_CORE_GCT_HH
