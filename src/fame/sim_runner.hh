/**
 * @file
 * SimRunner: executes batches of SimJobs across a thread pool, with a
 * keyed result cache.
 *
 * The cache is keyed by SimJob::key(), so any configuration simulates at
 * most once per process no matter how many producers ask for it — the
 * (4,4) baselines shared by Table 3 and Figs. 2-4 are the headline case.
 * Duplicates *within* one batch are also coalesced: the first occurrence
 * runs, the rest wait on its future. The cache is a ClaimMap (the same
 * claim-once protocol the CkptManager uses for warm-ups); a job that
 * throws abandons its key, so a later batch runs it afresh. Cache
 * hit/miss counters are exposed for tests and JSON reports. Each batch
 * runs as one JobGraph over a pool sized to the batch.
 *
 * Correctness under concurrency: a job executes with zero shared mutable
 * state (it builds its own programs and its own core; the only process
 * globals it touches — the log level and warn counter — are atomic), so
 * results are bit-identical regardless of worker count or scheduling
 * order. tests/test_sim_runner.cc asserts jobs=1 == jobs=8.
 */

#ifndef P5SIM_FAME_SIM_RUNNER_HH
#define P5SIM_FAME_SIM_RUNNER_HH

#include <vector>

#include "common/claim_map.hh"
#include "fame/sim_job.hh"

namespace p5 {

class CkptManager;
class ResultStore;
struct StoreProvenance;

/**
 * Process-lifetime map from job key to completed (or running) result:
 * a ClaimMap whose claimant executes the job.
 */
class ResultCache : public ClaimMap<SimResult>
{
  public:
    /** The per-process cache used by the experiment producers. */
    static ResultCache &process();
};

/** Runs SimJob batches over a worker pool, through a ResultCache. */
class SimRunner
{
  public:
    /**
     * @param jobs worker threads; 0 selects the hardware concurrency.
     * @param cache result cache; nullptr selects ResultCache::process().
     */
    explicit SimRunner(unsigned jobs = 0, ResultCache *cache = nullptr);

    /**
     * Attach a persistent result store beneath the in-process cache.
     * Every executed storable job is written through as it completes
     * (so a killed sweep keeps its finished points); when
     * @p read_through is set, a cache miss first consults the store
     * and a valid stored result is served without simulating.
     */
    void setStore(ResultStore *store, bool read_through);

    /**
     * Attach a checkpoint manager: FAME jobs executed by this runner
     * warm through it (at most one simulated warm-up per warm key;
     * siblings fork the snapshot). nullptr — the default — warms every
     * job inline. Stats are bit-identical either way; only wall-clock
     * changes. Not owned; must outlive the runner.
     */
    void setCheckpoints(CkptManager *ckpts) { checkpoints_ = ckpts; }

    /**
     * Execute @p batch and return results in batch order. Every unique
     * key is executed at most once (per process, via the cache); an
     * exception from a job is rethrown here after the batch drains.
     *
     * @p provenance, when given, must parallel @p batch; entry i is
     * stamped into the store file of batch[i] (write-through only).
     */
    std::vector<SimResult>
    run(const std::vector<SimJob> &batch,
        const std::vector<StoreProvenance> *provenance = nullptr);

    /** Convenience single-job run (still cached). */
    SimResult runOne(const SimJob &job);

    unsigned jobs() const { return jobs_; }
    ResultCache &cache() { return *cache_; }
    ResultStore *store() { return store_; }
    CkptManager *checkpoints() { return checkpoints_; }

  private:
    unsigned jobs_;
    ResultCache *cache_;
    ResultStore *store_ = nullptr;
    bool storeReadThrough_ = false;
    CkptManager *checkpoints_ = nullptr;
};

} // namespace p5

#endif // P5SIM_FAME_SIM_RUNNER_HH
