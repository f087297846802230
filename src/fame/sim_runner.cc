#include "fame/sim_runner.hh"

#include <algorithm>

#include "common/job_graph.hh"
#include "common/log.hh"
#include "common/thread_pool.hh"
#include "store/result_store.hh"

namespace p5 {

ResultCache &
ResultCache::process()
{
    static ResultCache cache;
    return cache;
}

SimRunner::SimRunner(unsigned jobs, ResultCache *cache)
    : jobs_(jobs ? jobs : ThreadPool::defaultWorkers()),
      cache_(cache ? cache : &ResultCache::process())
{}

void
SimRunner::setStore(ResultStore *store, bool read_through)
{
    store_ = store;
    storeReadThrough_ = store ? read_through : false;
}

std::vector<SimResult>
SimRunner::run(const std::vector<SimJob> &batch,
               const std::vector<StoreProvenance> *provenance)
{
    struct Pending
    {
        const SimJob *job;
        std::string key;
        ResultCache::Claim claim;
        const StoreProvenance *prov;
    };

    if (provenance && provenance->size() != batch.size())
        panic("provenance vector (%zu) does not parallel batch (%zu)",
              provenance->size(), batch.size());

    // Claim every job up front; duplicates (within the batch or from
    // earlier batches) resolve to the same future and never re-run.
    std::vector<std::shared_future<SimResult>> futures;
    futures.reserve(batch.size());
    std::vector<Pending> toRun;
    for (std::size_t i = 0; i < batch.size(); ++i) {
        const SimJob &job = batch[i];
        std::string key = job.key();
        ResultCache::Claim claim = cache_->claim(key);
        futures.push_back(claim.future);
        if (claim.claimed)
            toRun.push_back(Pending{
                &job, std::move(key), std::move(claim),
                provenance ? &(*provenance)[i] : nullptr});
    }

    static const StoreProvenance no_provenance;
    auto executeOne = [this](Pending &p) {
        try {
            // Beneath the in-process cache: a stored result satisfies
            // the claim without simulating (read-through), and a fresh
            // result is published as soon as it exists (write-through),
            // so a killed sweep keeps every finished point.
            SimResult result;
            if (store_ && storeReadThrough_ &&
                store_->load(*p.job, result)) {
                p.claim.promise->set_value(std::move(result));
                return;
            }
            result = p.job->execute(checkpoints_);
            if (store_)
                store_->put(*p.job, result,
                            p.prov ? *p.prov : no_provenance);
            p.claim.promise->set_value(std::move(result));
        } catch (...) {
            // Don't poison the cache with the failure; rethrow to the
            // batch's caller through the future.
            cache_->abandon(p.key);
            p.claim.promise->set_exception(std::current_exception());
        }
    };

    if (!toRun.empty()) {
        if (jobs_ == 1 || toRun.size() == 1) {
            // Serial path: no pool, deterministic submission order.
            for (Pending &p : toRun)
                executeOne(p);
        } else {
            const unsigned workers = static_cast<unsigned>(std::min(
                static_cast<std::size_t>(jobs_), toRun.size()));
            ThreadPool pool(workers);
            JobGraph graph;
            for (Pending &p : toRun)
                graph.add([&executeOne, &p] { executeOne(p); });
            graph.run(pool);
        }
    }

    std::vector<SimResult> results;
    results.reserve(batch.size());
    for (auto &future : futures)
        results.push_back(future.get()); // rethrows job exceptions
    return results;
}

SimResult
SimRunner::runOne(const SimJob &job)
{
    return run({job}).front();
}

} // namespace p5
