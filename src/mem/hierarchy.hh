/**
 * @file
 * Cache hierarchy: per-core L1D + D-TLBs in front of a (possibly shared)
 * L2/L3/DRAM backside.
 *
 * POWER5-ish defaults: 32 KiB 4-way L1D (2 cycles), 1.875 MiB 10-way L2
 * (13 cycles), 36 MiB 12-way L3 (87 cycles), DRAM at 230 cycles. On the
 * real chip L2, L3 and memory are shared by both cores; p5sim models that
 * by letting two CacheHierarchy front-ends share one MemBackside. Each
 * level below L1 has a service-bandwidth gate, so co-running memory-bound
 * threads contend — the effect behind the paper's Table 3 degradations.
 */

#ifndef P5SIM_MEM_HIERARCHY_HH
#define P5SIM_MEM_HIERARCHY_HH

#include <array>
#include <memory>

#include "common/annotate.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "mem/cache.hh"
#include "mem/tlb.hh"

namespace p5 {

/** The level that serviced a memory access. */
enum class MemLevel : std::uint8_t { L1, L2, L3, Mem };

/** Human-readable level name. */
const char *memLevelName(MemLevel level);

/** Hierarchy configuration. */
struct P5_CONFIG_STRUCT HierarchyParams
{
    CacheParams l1d{"l1d", 32 * 1024, 4, 128, 2, 1};
    CacheParams l2{"l2", 2 * 1024 * 1024, 16, 128, 13, 4};
    CacheParams l3{"l3", 32 * 1024 * 1024, 16, 256, 87, 10};
    TlbParams tlb{"dtlb", 1024, 4, 4096, 150};
    int dramLatency = 230;
    int dramServiceGap = 24;
};

/** Timing outcome of one data access. */
struct MemAccessResult
{
    /** Cycle the data is available (load) / the access retires (store). */
    Cycle doneCycle = 0;
    MemLevel level = MemLevel::L1;
    bool tlbMiss = false;
};

/**
 * The L2/L3/DRAM side of the memory system, shared chip-wide.
 */
class MemBackside
{
  public:
    explicit MemBackside(const HierarchyParams &params);

    /**
     * Service an L1 miss issued at @p now that becomes serviceable at
     * @p ready (>= now; later when translation is still walking).
     *
     * @param beyond_l2 set to true when L2 missed too.
     */
    MemAccessResult access(Addr addr, Cycle now, Cycle ready,
                           bool *beyond_l2);

    /** Level that @p addr would hit below L1; no side effects. */
    MemLevel probeLevel(Addr addr) const;

    /** Drop all cached state and bandwidth gates (not stats). */
    void flushAll();

    Cache &l2() { return l2_; }
    Cache &l3() { return l3_; }

    void registerStats(StatGroup &group) const;

    /**
     * Checkpoint field walk (ckpt_state.cc): L2/L3 contents and the DRAM
     * bandwidth gate.
     */
    template <class Ar> void ckptFields(Ar &ar);

  private:
    HierarchyParams params_;
    Cache l2_;
    Cache l3_;
    Cycle dramNextFree_ = 0;
};

/** The per-core front-end (L1D + per-thread D-TLBs) of the hierarchy. */
class CacheHierarchy
{
  public:
    /**
     * @param shared backside to share with other cores, or nullptr to
     *        own a private one.
     */
    explicit CacheHierarchy(const HierarchyParams &params,
                            MemBackside *shared = nullptr);

    /**
     * Perform a data access for thread @p tid at cycle @p now.
     *
     * Fills all levels on the way back (inclusive hierarchy) and charges
     * TLB-walk and service-bandwidth delays. (The core's LSU uses
     * accessCaches() instead and arbitrates walks itself.)
     */
    MemAccessResult access(ThreadId tid, Addr addr, bool is_store,
                           Cycle now);

    /**
     * Cache-only access path (no TLB): the request is issued at @p now
     * and becomes serviceable at @p ready. Used by the LSU, which
     * handles translation and the shared table-walk engine itself.
     */
    MemAccessResult accessCaches(ThreadId tid, Addr addr, bool is_store,
                                 Cycle now, Cycle ready);

    /** Level that @p addr would hit, with no side effects on state. */
    MemLevel probeLevel(Addr addr) const;

    /** Whether the next access by @p tid to @p addr would miss the TLB. */
    bool wouldTlbMiss(ThreadId tid, Addr addr) const;

    /** Drop all cached state (lines, TLB entries, bandwidth gates). */
    void flushAll();

    Cache &l1d() { return l1d_; }
    const Cache &l1d() const { return l1d_; }
    MemBackside &backside() { return *backside_; }
    Tlb &tlb(ThreadId tid) { return *tlbs_[static_cast<size_t>(tid)]; }

    const HierarchyParams &params() const { return params_; }

    /** Per-thread event counts, used by the balancer and stats. */
    std::uint64_t
    tlbMissesOf(ThreadId tid) const
    {
        return tlbMisses_[static_cast<size_t>(tid)].value();
    }
    std::uint64_t
    l1MissesOf(ThreadId tid) const
    {
        return l1Misses_[static_cast<size_t>(tid)].value();
    }
    /** Accesses that missed in L2 (serviced by L3 or DRAM). */
    std::uint64_t
    beyondL2Of(ThreadId tid) const
    {
        return beyondL2_[static_cast<size_t>(tid)].value();
    }

    void registerStats(StatGroup &group) const;

    /**
     * Checkpoint field walk (ckpt_state.cc): L1D, both TLBs, the backside
     * through backside_ and the per-thread miss counters. @pre the
     * backside is private to this hierarchy (checkpointing rejects
     * shared-backside chips).
     */
    template <class Ar> void ckptFields(Ar &ar);

  private:
    HierarchyParams params_;
    Cache l1d_;
    std::array<std::unique_ptr<Tlb>, num_hw_threads> tlbs_;
    std::unique_ptr<MemBackside> ownedBackside_;
    MemBackside *backside_;

    std::array<Counter, num_hw_threads> tlbMisses_;
    std::array<Counter, num_hw_threads> l1Misses_;
    std::array<Counter, num_hw_threads> beyondL2_;
};

} // namespace p5

#endif // P5SIM_MEM_HIERARCHY_HH
