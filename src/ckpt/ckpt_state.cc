/**
 * @file
 * Architectural-state serialization for every checkpointable component.
 *
 * Each component has one field walk, `template <class Ar> void
 * ckptFields(Ar &ar)`, defined here and nowhere else: it names every
 * field once, in stream order, with its wire width. Run over a
 * CkptSaver it writes the stream, run over a CkptLoader it restores
 * from it, so the two directions cannot disagree on order or width.
 * SmtCore::saveState()/restoreState() are the only entry points (and
 * the only p5lint serialize roots); the whole byte stream can be
 * audited in this one translation unit. Three contracts hold
 * throughout:
 *
 *  1. The stream is a pure function of simulated state. Every field is
 *     written individually in a fixed order through the archives'
 *     little-endian primitives; no struct is ever written via memcpy
 *     (padding bytes are indeterminate) and no unordered container is
 *     ever iterated (there are none in the saved state — heaps are
 *     explicit vectors, maps are std::map).
 *
 *  2. Restore reproduces *physical* layout wherever physical-slot
 *     handles exist. The in-flight window ring is saved slot-by-slot
 *     (vacant slots included) together with its head index, so the slot
 *     hints recorded in ready-queue and completion-heap entries resolve
 *     to the same slots after restore; stats stay bit-identical by
 *     construction rather than by luck. Structures nothing points into
 *     (GCT group rings) are saved logically.
 *
 *  3. The only direction-specific code is an `if constexpr
 *     (Ar::loading)` branch where restore must rebuild a container's
 *     shape or re-seat a cursor before the shared field list runs.
 *
 * Configuration is deliberately NOT in the stream: a checkpoint is only
 * ever restored into a core built with the same params and programs,
 * which the warm-phase fingerprint in the checkpoint key guarantees.
 * Geometry fields (ar.geom) double as sanity checks and fatal() on
 * mismatch.
 */

#include "branch/bht.hh"
#include "ckpt/ckpt_io.hh"
#include "common/log.hh"
#include "core/balancer.hh"
#include "core/decode_arbiter.hh"
#include "core/fu_pool.hh"
#include "core/gct.hh"
#include "core/issue_queue.hh"
#include "core/lsu.hh"
#include "core/smt_core.hh"
#include "core/thread_state.hh"
#include "mem/cache.hh"
#include "mem/hierarchy.hh"
#include "mem/lmq.hh"
#include "mem/tlb.hh"

namespace p5 {

namespace {

/**
 * The element count of vector @p v; loading resizes @p v to the saved
 * count so the element walk that follows overwrites every entry.
 */
template <class Ar, class V>
void
vectorSize(Ar &ar, V &v)
{
    std::uint64_t n = v.size();
    ar.u64(n);
    if constexpr (Ar::loading)
        v.resize(static_cast<std::size_t>(n));
}

/** Every Counter of a per-thread or per-class array, in index order. */
template <class Ar, class Counters>
void
counterArray(Ar &ar, Counters &counters)
{
    for (Counter &c : counters)
        ar.counter(c);
}

} // namespace

// --- Cache ------------------------------------------------------------

template <class Ar>
void
Cache::ckptFields(Ar &ar)
{
    ar.geom("cache lines", lines_.size());
    for (Line &line : lines_) {
        ar.u64(line.tag);
        ar.b(line.valid);
        ar.u64(line.lastUse);
    }
    ar.u64(useClock_);
    ar.u64(nextFree_);
    ar.counter(hits_);
    ar.counter(misses_);
    ar.counter(insertions_);
    ar.counter(evictions_);
}

// --- Tlb --------------------------------------------------------------

template <class Ar>
void
Tlb::ckptFields(Ar &ar)
{
    ar.geom("TLB entries", entries_.size());
    for (Entry &e : entries_) {
        ar.u64(e.vpn);
        ar.b(e.valid);
        ar.u64(e.lastUse);
    }
    ar.u64(useClock_);
    ar.counter(hits_);
    ar.counter(misses_);
}

// --- Bht --------------------------------------------------------------

template <class Ar>
void
Bht::ckptFields(Ar &ar)
{
    ar.geom("BHT counters", counters_.size());
    for (std::uint8_t &c : counters_)
        ar.u8(c);
    ar.counter(lookups_);
    ar.counter(correct_);
    ar.counter(mispredicts_);
}

// --- Lmq --------------------------------------------------------------

template <class Ar>
void
Lmq::ckptFields(Ar &ar)
{
    // Window order matters: updateLastRelease() targets the newest
    // reservation and recycle() compacts in place, so the vector is
    // reproduced verbatim.
    vectorSize(ar, windows_);
    for (Window &win : windows_) {
        ar.i32(win.tid);
        ar.u64(win.startCycle);
        ar.u64(win.releaseCycle);
    }
    ar.counter(allocations_);
    ar.counter(queuedMisses_);
    ar.counter(queuedCycles_);
}

// --- FuPool -----------------------------------------------------------

template <class Ar>
void
FuPool::ckptFields(Ar &ar)
{
    for (int fc = 0; fc < static_cast<int>(FuClass::NumFuClasses); ++fc) {
        std::vector<Cycle> &units = busyUntil_[fc];
        ar.geom("FU units", units.size());
        for (Cycle &c : units)
            ar.u64(c);
        ar.counter(acquisitions_[fc]);
    }
}

// --- IssueQueue -------------------------------------------------------

template <class Ar>
void
IssueQueue::ckptFields(Ar &ar)
{
    // Each queue is an explicit binary heap over a vector; saving the
    // array verbatim preserves the exact heap layout, so post-restore
    // pops break stamp ties (there are none — stamps are unique) and
    // sift elements identically.
    for (std::vector<ReadyRef> &q : queues_) {
        vectorSize(ar, q);
        for (ReadyRef &ref : q) {
            ar.u64(ref.stamp);
            ar.i32(ref.tid);
            ar.u64(ref.seq);
            ar.u64(ref.epoch);
            ar.u32(ref.slot);
        }
    }
}

// --- Gct --------------------------------------------------------------

template <class Ar>
void
Gct::ckptFields(Ar &ar)
{
    // Nothing holds physical-slot handles into the group rings, so
    // logical (oldest-first) serialization suffices.
    for (RingDeque<GctGroup> &ring : groups_) {
        std::uint64_t n = ring.size();
        ar.u64(n);
        if constexpr (Ar::loading) {
            ring.clear();
            for (std::uint64_t i = 0; i < n; ++i)
                ring.pushSlot();
        }
        for (GctGroup &g : ring) {
            ar.u64(g.startSeq);
            ar.i32(g.count);
        }
    }
    ar.counter(allocated_);
    ar.counter(retired_);
}

// --- Lsu --------------------------------------------------------------

template <class Ar>
void
Lsu::ckptFields(Ar &ar)
{
    ar.u64(walkerNextFree_);
    for (Cycle &c : lastWalkRequest_)
        ar.u64(c);
    for (Cycle &c : walkUntil_)
        ar.u64(c);
    ar.i32(walkerTid_);
    ar.u64(walkerServiceUntil_);
    ar.u64(portNextFree_);
    counterArray(ar, loads_);
    counterArray(ar, stores_);
    counterArray(ar, walks_);
    counterArray(ar, levelCounts_);
}

// --- Balancer ---------------------------------------------------------

template <class Ar>
void
Balancer::ckptFields(Ar &ar)
{
    counterArray(ar, gctBlocks_);
    counterArray(ar, lmqBlocks_);
    counterArray(ar, tlbBlocks_);
    counterArray(ar, flushes_);
}

// --- DecodeArbiter ----------------------------------------------------

template <class Ar>
void
DecodeArbiter::ckptFields(Ar &ar)
{
    counterArray(ar, granted_);
    counterArray(ar, forfeited_);
    counterArray(ar, reassigned_);
}

// --- MemBackside / CacheHierarchy -------------------------------------

template <class Ar>
void
MemBackside::ckptFields(Ar &ar)
{
    l2_.ckptFields(ar);
    l3_.ckptFields(ar);
    ar.u64(dramNextFree_);
}

template <class Ar>
void
CacheHierarchy::ckptFields(Ar &ar)
{
    if (backside_ != ownedBackside_.get()) {
        if constexpr (Ar::loading)
            fatal("restoring into a shared-backside hierarchy is not "
                  "supported");
        else
            fatal("checkpointing a shared-backside hierarchy is not "
                  "supported (the snapshot would tear chip-wide state)");
    }
    l1d_.ckptFields(ar);
    for (std::unique_ptr<Tlb> &tlb : tlbs_)
        tlb->ckptFields(ar);
    backside_->ckptFields(ar);
    counterArray(ar, tlbMisses_);
    counterArray(ar, l1Misses_);
    counterArray(ar, beyondL2_);
}

// --- ThreadState ------------------------------------------------------

namespace {

template <class Ar>
void
dynInstrFields(Ar &ar, DynInstr &di)
{
    ar.i32(di.tid);
    ar.u64(di.seq);
    ar.enum8(di.op);
    ar.i32(di.dst);
    ar.i32(di.src0);
    ar.i32(di.src1);
    ar.u64(di.addr);
    ar.b(di.branchTaken);
    ar.b(di.branchPredictedTaken);
    ar.i32(di.prioNopReg);
    ar.u64(di.pc);
    ar.enum8(di.phase);
    ar.u64(di.completeCycle);
}

template <class Ar>
void
inFlightFields(Ar &ar, InFlight &e)
{
    dynInstrFields(ar, e.di);
    ar.enum8(e.phase);
    ar.i32(e.pendingSrcs);
    ar.u64(e.epoch);
    ar.u64(e.stamp);
    ar.b(e.inReadyQueue);
    std::uint64_t n = e.dependents.size();
    ar.u64(n);
    if constexpr (Ar::loading) {
        e.dependents.clear();
        e.dependents.reserve(static_cast<std::size_t>(n));
        for (std::uint64_t i = 0; i < n; ++i)
            e.dependents.push_back(InFlightRef{});
    }
    for (InFlightRef &dep : e.dependents) {
        ar.u32(dep.slot);
        ar.u64(dep.seq);
        ar.u64(dep.epoch);
    }
}

} // namespace

template <class Ar>
void
ThreadState::ckptFields(Ar &ar)
{
    bool was_attached = attached();
    ar.b(was_attached);
    if constexpr (Ar::loading) {
        if (was_attached != attached())
            fatal("checkpoint thread-attachment mismatch on thread %d "
                  "(checkpoint key bug?)", tid_);
    }
    if (!was_attached)
        return;

    // The window ring, physically: every slot verbatim (vacant ones
    // carry deterministic leftovers from this run and are overwritten
    // field-wise before any reuse), so the slot hints held by the
    // ready queues and the completion heap stay valid after restore.
    std::uint64_t cap = window.capacity();
    std::uint64_t head = window.headIndex();
    std::uint64_t size = window.size();
    ar.u64(cap);
    if constexpr (Ar::loading) {
        window.reserve(static_cast<std::size_t>(cap));
        expectGeom("window capacity", cap, window.capacity());
    }
    ar.u64(head);
    ar.u64(size);
    for (std::size_t phys = 0; phys < cap; ++phys)
        inFlightFields(ar, window.slotAt(phys));
    if constexpr (Ar::loading)
        window.setShape(static_cast<std::size_t>(head),
                        static_cast<std::size_t>(size));

    for (RenameEntry &re : renameMap) {
        ar.b(re.valid);
        ar.u64(re.seq);
        ar.u64(re.epoch);
    }

    ar.u64(epoch);
    ar.u64(decodeBlockedUntil);
    ar.enum8(privilege);
    ar.u64(committed);
    ar.u64(executionsCompleted);
    ar.u64(lastExecutionCycle);
    std::uint64_t next_seq = stream_->nextSeq();
    ar.u64(next_seq);
    if constexpr (Ar::loading)
        stream_->seekTo(next_seq);

    ar.counter(committedCtr);
    ar.counter(squashedCtr);
    ar.counter(mispredictsCtr);
    ar.counter(prioNopsApplied);
    ar.counter(prioNopsIgnored);
}

// --- SmtCore ----------------------------------------------------------

template <class Ar>
void
SmtCore::ckptFields(Ar &ar)
{
    ar.u64(cycle_);
    ar.u64(dispatchStamp_);
    ar.u64(idleSkipped_);
    ar.u64(ffProbes_);
    ar.b(tickProgress_);
    ar.u32(idleStreak_);

    for (std::unique_ptr<ThreadState> &ts : threads_)
        ts->ckptFields(ar);

    hierarchy_.ckptFields(ar);
    lmq_.ckptFields(ar);
    lsu_.ckptFields(ar);
    bht_.ckptFields(ar);
    gct_.ckptFields(ar);
    fuPool_.ckptFields(ar);
    readyQ_.ckptFields(ar);
    arbiter_.ckptFields(ar);
    balancer_.ckptFields(ar);

    // The completion heap array verbatim (heap layout preserved).
    vectorSize(ar, completions_);
    for (Completion &c : completions_) {
        ar.u64(c.cycle);
        ar.i32(c.tid);
        ar.u64(c.seq);
        ar.u64(c.epoch);
        ar.u32(c.slot);
    }

    counterArray(ar, decoded_);
    counterArray(ar, stallBalancer_);
    counterArray(ar, stallRedirect_);
    counterArray(ar, stallGct_);
    counterArray(ar, flushedInstrs_);
}

void
SmtCore::saveState(CkptWriter &w) const
{
    // One walk serves both directions, so it takes the core mutably;
    // over a CkptSaver it only reads the fields it is handed. The named
    // local keeps the call resolvable for p5lint's serialize audit.
    SmtCore &self = const_cast<SmtCore &>(*this);
    CkptSaver ar(w);
    self.ckptFields(ar);
}

void
SmtCore::restoreState(CkptReader &r)
{
    CkptLoader ar(r);
    ckptFields(ar);
}

} // namespace p5
