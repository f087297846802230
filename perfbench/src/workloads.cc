/**
 * @file
 * The four benchmark workloads. Why each exists — which layer does most
 * of its work and which layers it bypasses — is recorded in
 * perfbench/README.md; the seed changes only point order, the stored
 * subset (sweep_store) and the thread-mix permutation order
 * (chip_alloc), never the set of points the golden file covers.
 */

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <set>
#include <sstream>

#include "bench.hh"
#include "ckpt/ckpt.hh"
#include "ckpt/ckpt_io.hh"
#include "ckpt/ckpt_manager.hh"
#include "common/job_graph.hh"
#include "common/rng.hh"
#include "common/thread_pool.hh"
#include "config/config.hh"
#include "core/chip.hh"
#include "fame/sim_runner.hh"
#include "program/trace.hh"
#include "sched/alloc_engine.hh"
#include "sched/workload.hh"
#include "store/result_store.hh"
#include "ubench/ubench.hh"

namespace fs = std::filesystem;

namespace p5bench {

namespace {

using p5::CkptManager;
using p5::CkptStore;
using p5::ResultStore;
using p5::SimJob;
using p5::SimResult;
using p5::SmtCore;

/** Seeded Fisher-Yates permutation of 0..n-1. */
std::vector<std::size_t>
seededOrder(std::size_t n, std::uint64_t seed)
{
    std::vector<std::size_t> order(n);
    for (std::size_t i = 0; i < n; ++i)
        order[i] = i;
    p5::Rng rng(seed);
    for (std::size_t i = n; i > 1; --i)
        std::swap(order[i - 1], order[rng.below(i)]);
    return order;
}

/**
 * The seeded order as one part of a run sees it: rotated to start
 * part/parts of the way through, so the parts of a run together cover
 * the order evenly.
 */
std::vector<std::size_t>
partOrder(std::size_t n, const RunContext &ctx)
{
    std::vector<std::size_t> order = seededOrder(n, ctx.seed);
    std::rotate(order.begin(), order.begin() + ctx.part * n / ctx.parts,
                order.end());
    return order;
}

std::vector<std::pair<int, int>>
allPriorityPairs()
{
    std::vector<std::pair<int, int>> pairs;
    for (int p = 1; p <= 6; ++p)
        for (int s = 1; s <= 6; ++s)
            pairs.emplace_back(p, s);
    return pairs;
}

// --- simulated-work counters of the traced phase -----------------------

/** Monotonic counters of a set of cores at one instant. */
struct CoreSnapshot
{
    std::uint64_t cycles = 0;
    std::uint64_t skipped = 0;
    std::uint64_t probes = 0;
    std::uint64_t l1dHits = 0;
    std::uint64_t l1dMisses = 0;
    std::uint64_t l2Hits = 0;
    std::uint64_t l2Misses = 0;
    std::uint64_t lmqAllocs = 0;
    std::uint64_t lmqQueued = 0;

    /** A single core with its own L2 (the FAME workloads). */
    void
    add(const SmtCore &core)
    {
        addCore(core);
        l2Hits += stat(core, "l2.hits");
        l2Misses += stat(core, "l2.misses");
    }

    /** Every core of a chip plus the L2 they share. */
    void
    add(p5::Chip &chip)
    {
        for (int c = 0; c < chip.numCores(); ++c)
            addCore(chip.core(c));
        l2Hits += chip.backside().l2().hits();
        l2Misses += chip.backside().l2().misses();
    }

  private:
    static std::uint64_t
    stat(const SmtCore &core, const char *name)
    {
        return static_cast<std::uint64_t>(core.stats().value(name));
    }

    void
    addCore(const SmtCore &core)
    {
        cycles += core.cycle();
        skipped += core.idleCyclesSkipped();
        probes += core.fastForwardProbes();
        l1dHits += stat(core, "l1d.hits");
        l1dMisses += stat(core, "l1d.misses");
        lmqAllocs += stat(core, "lmq.allocations");
        lmqQueued += stat(core, "lmq.queuedMisses");
    }
};

/** What the traced phase simulated, summed over its operations. */
struct CoreCounters
{
    CoreSnapshot delta;
    std::uint64_t committed = 0;
    double advanceSeconds = 0.0; ///< host time spent advancing cores

    void
    add(const CoreSnapshot &a, const CoreSnapshot &b,
        std::uint64_t instrs, double seconds)
    {
        delta.cycles += b.cycles - a.cycles;
        delta.skipped += b.skipped - a.skipped;
        delta.probes += b.probes - a.probes;
        delta.l1dHits += b.l1dHits - a.l1dHits;
        delta.l1dMisses += b.l1dMisses - a.l1dMisses;
        delta.l2Hits += b.l2Hits - a.l2Hits;
        delta.l2Misses += b.l2Misses - a.l2Misses;
        delta.lmqAllocs += b.lmqAllocs - a.lmqAllocs;
        delta.lmqQueued += b.lmqQueued - a.lmqQueued;
        committed += instrs;
        advanceSeconds += seconds;
    }

    void
    emit(MetricSink &sink) const
    {
        const auto ratio = [](std::uint64_t a, std::uint64_t b) {
            return b ? static_cast<double>(a) / static_cast<double>(b)
                     : 0.0;
        };
        const std::uint64_t ticked = delta.cycles - delta.skipped;
        sink.add("core.sim_cycles", static_cast<double>(delta.cycles),
                 "count");
        sink.add("core.committed_instrs", static_cast<double>(committed),
                 "count");
        sink.add("core.busy_ns_per_cycle",
                 ticked ? advanceSeconds * 1e9 / static_cast<double>(ticked)
                        : 0.0,
                 "ns");
        sink.add("core.ff_skip_share", ratio(delta.skipped, delta.cycles),
                 "ratio");
        sink.add("core.ff_probes_per_kcycle",
                 1e3 * ratio(delta.probes, delta.cycles), "1/kcycle");
        sink.add("mem.l1d_miss_rate",
                 ratio(delta.l1dMisses, delta.l1dHits + delta.l1dMisses),
                 "ratio");
        sink.add("mem.l2_miss_rate",
                 ratio(delta.l2Misses, delta.l2Hits + delta.l2Misses),
                 "ratio");
        sink.add("mem.lmq_full_share",
                 ratio(delta.lmqQueued, delta.lmqAllocs), "ratio");
    }
};

std::uint64_t
accountedInstrs(const p5::FameResult &r)
{
    std::uint64_t n = 0;
    for (const auto &t : r.thread)
        n += t.accountedInstrs;
    return n;
}

// --- FAME sweeps: cpu_matrix, mem_matrix, sweep_store ------------------

/**
 * A fresh core with a job's two programs attached at the canonical warm
 * priority: the state runFame starts every point from.
 */
struct PairCore
{
    PairCore(const SimJob &job, Tracer *tracer) : core(job.core)
    {
        {
            Scope s(tracer, "program.build");
            primary = job.primary.build();
        }
        {
            Scope s(tracer, "program.build");
            secondary = job.secondary.build();
        }
        core.attachThread(0, primary.get(), p5::canonical_warm_priority);
        core.attachThread(1, secondary.get(), p5::canonical_warm_priority);
    }

    std::unique_ptr<p5::InstrSource> primary;
    std::unique_ptr<p5::InstrSource> secondary;
    SmtCore core; ///< declared last: destroyed before its programs
};

/** One pair-mix of a sweep: two programs plus, optionally, a config. */
struct MixDef
{
    std::string label; ///< golden-key prefix
    p5::ProgramSpec primary;
    p5::ProgramSpec secondary;
    p5::ExpConfig config; ///< core + FAME params and the config tags
};

/** One point: a job plus its identity in the golden file. */
struct Point
{
    SimJob job;
    std::string key;
    p5::StoreProvenance prov;
};

/** Shape of a FAME sweep workload. */
struct SweepShape
{
    unsigned workers = 1;
    std::size_t batch = 1;       ///< points per closed-loop submission
    std::uint64_t tracedOps = 0; ///< points in the traced phase
    bool store = false;          ///< sweep_store: resumable store mode
};

/**
 * A closed-loop FAME sweep. Points run in a seeded order, a batch at a
 * time, through SimRunner (untraced) or through the same public calls
 * made one by one with spans around them (traced). Each pass over the
 * point set uses a fresh result cache, so every pass simulates again;
 * warm images from setup are reused by every pass.
 */
class FameSweep : public Workload
{
  public:
    FameSweep(const RunContext &ctx, SweepShape shape)
        : ctx_(ctx), shape_(shape)
    {}

    ~FameSweep() override
    {
        resultStore_.reset();
        ckptStore_.reset();
        if (!storeDir_.empty()) {
            std::error_code ec;
            fs::remove_all(storeDir_, ec);
        }
    }

    void
    setup(Tracer *tracer) override
    {
        Scope setup(tracer, "setup");
        if (shape_.store)
            openStores(tracer);
        const std::vector<MixDef> mixes = defineMixes();
        buildPoints(mixes);
        order_ = partOrder(points_.size(), ctx_);
        ckpts_ = std::make_unique<CkptManager>();
        if (ckptStore_)
            ckpts_->setStore(ckptStore_.get());
        // One warm-up per mix (per warm key): every timed point forks.
        std::set<std::string> warmed;
        for (const Point &pt : points_)
            if (warmed.insert(pt.job.warmKey()).second)
                warm(pt.job, tracer);
        if (shape_.store)
            publishSeededShare();
    }

    Delivery
    step(Tracer *tracer, double &untimed_s) override
    {
        if (cursor_ == 0) {
            const Clock::time_point t0 = Clock::now();
            beginPass(tracer);
            untimed_s += secondsBetween(t0, Clock::now());
        }
        std::vector<const Point *> batch;
        for (std::size_t i = 0; i < shape_.batch && cursor_ < order_.size();
             ++i, ++cursor_)
            batch.push_back(&points_[order_[cursor_]]);
        if (cursor_ == order_.size())
            cursor_ = 0;

        const std::uint64_t quarantined_before =
            resultStore_ ? resultStore_->quarantined() : 0;
        const std::vector<SimResult> results =
            tracer ? tracedBatch(batch, *tracer) : runnerBatch(batch);
        Delivery d = check(batch, results);
        if (resultStore_)
            d.failed += resultStore_->quarantined() - quarantined_before;
        return d;
    }

    Delivery setupDelivery() const override { return setupDelivery_; }

    std::uint64_t tracedOps() const override { return shape_.tracedOps; }

    void
    layerMetrics(const Tracer &tracer, MetricSink &sink) const override
    {
        counters_.emit(sink);
        sink.timing("program.build_ms", tracer.durationsMs("program.build"));
        sink.timing("fame.point_ms", tracer.durationsMs("fame.point"));
        sink.timing("fame.measure_ms", tracer.durationsMs("fame.measure"));
        sink.timing("fame.warm_ms", tracer.durationsMs("fame.warm"));
        sink.timing("ckpt.save_ms", tracer.durationsMs("ckpt.save"));
        sink.timing("ckpt.restore_ms", tracer.durationsMs("ckpt.restore"));
        sink.add("ckpt.warms",
                 static_cast<double>(tracer.durationsMs("fame.warm").size()),
                 "count");
        sink.add("ckpt.forks",
                 static_cast<double>(
                     tracer.durationsMs("ckpt.restore").size()),
                 "count");
        sink.add("ckpt.image_mb",
                 static_cast<double>(imageBytes_.load()) / 1e6,
                 "MB");
        if (shape_.workers > 1) {
            double point_s = 0.0;
            for (double ms : tracer.durationsMs("fame.point"))
                point_s += ms / 1e3;
            double batch_s = 0.0;
            for (double ms : tracer.durationsMs("fame.runner.batch"))
                batch_s += ms / 1e3;
            sink.add("fame.runner.busy_share",
                     batch_s > 0.0 ? point_s / (shape_.workers * batch_s)
                                   : 0.0,
                     "ratio");
            sink.add("fame.runner.cache_hits",
                     static_cast<double>(cacheHits_), "count");
        }
        if (shape_.store) {
            sink.timing("store.load_ms", tracer.durationsMs("store.load"));
            sink.timing("store.put_ms", tracer.durationsMs("store.put"));
            sink.timing("ckpt.store_load_ms",
                        tracer.durationsMs("ckpt.store_load"));
            sink.timing("program.trace_dump_ms",
                        tracer.durationsMs("program.trace_dump"));
            sink.timing("program.trace_load_ms",
                        tracer.durationsMs("program.trace_load"));
            sink.add("program.trace_bytes",
                     static_cast<double>(traceBytes_), "bytes");
            sink.add("store.hits", static_cast<double>(storeHits_), "count");
            sink.add("store.misses", static_cast<double>(storeMisses_),
                     "count");
            sink.add("store.writes", static_cast<double>(storeWrites_),
                     "count");
            sink.add("store.quarantined",
                     static_cast<double>(resultStore_->quarantined()),
                     "count");
            sink.add("store.bytes_per_point", storeBytesPerPoint(), "bytes");
        }
    }

    void
    recordGolden(Golden &out) override
    {
        if (shape_.store)
            openStores(nullptr);
        buildPoints(defineMixes());
        CkptManager ckpts;
        p5::ResultCache cache;
        p5::SimRunner runner(shape_.workers, &cache);
        runner.setCheckpoints(&ckpts);
        std::vector<SimJob> jobs;
        for (const Point &pt : points_)
            jobs.push_back(pt.job);
        const std::vector<SimResult> results = runner.run(jobs);
        for (std::size_t i = 0; i < points_.size(); ++i)
            out.set(points_[i].key, goldenText(results[i].fame));
    }

  protected:
    /** The workload's pair-mixes (with their config axis values). */
    virtual std::vector<MixDef> defineMixes() = 0;

    /** Priority pairs every mix is measured at. */
    virtual std::vector<std::pair<int, int>>
    priorityPairs() const
    {
        return allPriorityPairs();
    }

    /** sweep_store only: trace path of a dumped benchmark. */
    std::string
    tracePath(p5::UbenchId id) const
    {
        return storeDir_ + "/traces/" + p5::ubenchName(id) + ".p5t";
    }

    /** sweep_store only: dump (and validate by loading) the traces. */
    void
    dumpTraces(const std::vector<p5::UbenchId> &ids, double scale,
               std::uint64_t executions, Tracer *tracer)
    {
        fs::create_directories(storeDir_ + "/traces");
        for (p5::UbenchId id : ids) {
            std::unique_ptr<p5::InstrSource> prog;
            {
                Scope s(tracer, "program.build");
                prog = p5::ProgramSpec::ubench(id, scale).build();
            }
            {
                Scope s(tracer, "program.trace_dump");
                p5::dumpTrace(*prog, executions, tracePath(id));
            }
            {
                Scope s(tracer, "program.trace_load");
                const auto loaded = p5::loadTrace(tracePath(id));
                traceBytes_ += loaded->header().bytes;
            }
        }
    }

    const RunContext &ctx_;

  private:
    void
    openStores(Tracer *tracer)
    {
        // A fresh store per run: a directory left by a killed run is
        // removed, never resumed from.
        storeDir_ = ctx_.workDir + "/sweep_store";
        fs::remove_all(storeDir_);
        fs::create_directories(storeDir_);
        traceBytes_ = 0;
        prepareTraces(tracer);
        Scope s(tracer, "store.open");
        resultStore_ = std::make_unique<ResultStore>(storeDir_ + "/results");
        ckptStore_ = std::make_unique<CkptStore>(storeDir_ + "/ckpt");
    }

    /** Hook for sweep_store to dump its traces before mixes exist. */
    virtual void prepareTraces(Tracer *) {}

    void
    buildPoints(const std::vector<MixDef> &mixes)
    {
        points_.clear();
        for (const MixDef &mix : mixes) {
            for (const auto &[p, s] : priorityPairs()) {
                Point pt;
                pt.job = SimJob::famePair(mix.primary, mix.secondary, p, s,
                                          mix.config.core, mix.config.fame);
                pt.job.configTag = mix.config.configTag;
                pt.job.warmTag = mix.config.warmTag;
                pt.key = mix.label + "@" + std::to_string(p) + "," +
                         std::to_string(s);
                pt.prov.seed = ctx_.seed;
                pt.prov.sweep = {{"point", pt.key}};
                points_.push_back(std::move(pt));
            }
        }
    }

    /** Warm one mix through the checkpoint manager (mirrors runFame). */
    void
    warm(const SimJob &job, Tracer *tracer)
    {
        PairCore pc(job, tracer);
        SmtCore &core = pc.core;
        p5::FameRunner runner(job.fame);
        const std::string key = job.warmKey();
        ckpts_->acquire(key, [&]() {
            {
                Scope s(tracer, "fame.warm");
                runner.runWarmup(core);
            }
            return snapshot(core, key, tracer);
        });
    }

    p5::Checkpoint
    snapshot(const SmtCore &core, const std::string &key, Tracer *tracer)
    {
        Scope s(tracer, "ckpt.save");
        p5::Checkpoint ck;
        ck.warmKey = key;
        ck.fingerprint = p5::ckptFingerprintHex(key);
        ck.warmCycles = core.cycle();
        p5::CkptWriter w;
        core.saveState(w);
        ck.state = w.data();
        imageBytes_ = ck.state.size();
        return ck;
    }

    /**
     * sweep_store set-up: split the points into four seeded quarters
     * and simulate and publish the quarter the first pass resumes from.
     */
    void
    publishSeededShare()
    {
        const std::vector<std::size_t> pick =
            seededOrder(points_.size(), ctx_.seed ^ 0x5701ed5eedULL);
        quarterOf_.assign(points_.size(), 0);
        for (std::size_t i = 0; i < pick.size(); ++i)
            quarterOf_[pick[i]] = i * store_quarters / pick.size();
        passIndex_ = 0;
        std::vector<const Point *> batch;
        for (std::size_t i = 0; i < points_.size(); ++i)
            if (quarterOf_[i] == storedQuarter())
                batch.push_back(&points_[i]);
        p5::ResultCache cache;
        p5::SimRunner runner(shape_.workers, &cache);
        runner.setStore(resultStore_.get(), false);
        runner.setCheckpoints(ckpts_.get());
        std::vector<SimJob> jobs;
        std::vector<p5::StoreProvenance> prov;
        for (const Point *pt : batch) {
            jobs.push_back(pt->job);
            prov.push_back(pt->prov);
        }
        setupDelivery_ = check(batch, runner.run(jobs, &prov));
    }

    /**
     * The quarter stored when the current pass starts. It rotates from
     * pass to pass (and from part to part), so a run resumes from every
     * quarter about equally often: which points are free to deliver
     * moves sim_mips, and a single seeded quarter would make that a
     * property of the seed.
     */
    std::size_t
    storedQuarter() const
    {
        return (ctx_.part + passIndex_) % store_quarters;
    }

    /** Start a pass: fresh result cache; sweep_store also rewinds. */
    void
    beginPass(const Tracer *tracer)
    {
        cache_ = std::make_unique<p5::ResultCache>();
        if (!shape_.store)
            return;
        // Cut the store back to this pass's stored quarter (the last
        // pass left every point in it), and forget in-memory warm
        // images so the first point of each mix restores from the
        // CkptStore.
        for (std::size_t i = 0; i < points_.size(); ++i)
            if (quarterOf_[i] != storedQuarter())
                fs::remove(resultStore_->pathFor(
                    ResultStore::fingerprintHex(points_[i].job)));
        ++passIndex_;
        // The traced path loads from the CkptStore itself, inside a
        // span, so its manager gets no store of its own.
        ckpts_ = std::make_unique<CkptManager>();
        if (!tracer)
            ckpts_->setStore(ckptStore_.get());
    }

    std::vector<SimResult>
    runnerBatch(const std::vector<const Point *> &batch)
    {
        p5::SimRunner runner(shape_.workers, cache_.get());
        runner.setCheckpoints(ckpts_.get());
        std::vector<SimJob> jobs;
        std::vector<p5::StoreProvenance> prov;
        for (const Point *pt : batch) {
            jobs.push_back(pt->job);
            prov.push_back(pt->prov);
        }
        if (!resultStore_)
            return runner.run(jobs);
        runner.setStore(resultStore_.get(), true);
        return runner.run(jobs, &prov);
    }

    /**
     * SimRunner::run made of the same public calls with a span around
     * each: claim in the result cache, read through the store, execute
     * on the worker pool, write through.
     */
    std::vector<SimResult>
    tracedBatch(const std::vector<const Point *> &batch, Tracer &tracer)
    {
        Scope scope(&tracer, "fame.runner.batch");
        const int batch_span = Tracer::current();
        std::vector<std::shared_future<SimResult>> futures;
        std::vector<std::pair<const Point *, p5::ResultCache::Claim>> run;
        for (const Point *pt : batch) {
            p5::ResultCache::Claim claim = cache_->claim(pt->job.key());
            futures.push_back(claim.future);
            if (claim.claimed)
                run.emplace_back(pt, std::move(claim));
            else
                ++cacheHits_;
        }
        auto one = [&](std::pair<const Point *, p5::ResultCache::Claim> &r) {
            Tracer::adopt(batch_span);
            SimResult result;
            bool stored = false;
            if (resultStore_) {
                Scope s(&tracer, "store.load");
                stored = resultStore_->load(r.first->job, result);
            }
            if (stored) {
                ++storeHits_;
            } else {
                if (resultStore_)
                    ++storeMisses_;
                result = executeTraced(r.first->job, tracer);
                if (resultStore_) {
                    Scope s(&tracer, "store.put");
                    resultStore_->put(r.first->job, result, r.first->prov);
                    ++storeWrites_;
                }
            }
            r.second.promise->set_value(std::move(result));
            Tracer::adopt(-1);
        };
        if (shape_.workers == 1 || run.size() <= 1) {
            for (auto &r : run)
                one(r);
            Tracer::adopt(batch_span);
        } else {
            p5::ThreadPool pool(static_cast<unsigned>(
                std::min<std::size_t>(shape_.workers, run.size())));
            p5::JobGraph graph;
            for (auto &r : run)
                graph.add([&one, &r] { one(r); });
            graph.run(pool);
        }
        std::vector<SimResult> results;
        for (auto &f : futures)
            results.push_back(f.get());
        return results;
    }

    /** SimJob::execute for a FAME pair, one span per layer call. */
    SimResult
    executeTraced(const SimJob &job, Tracer &tracer)
    {
        Scope point(&tracer, "fame.point");
        SimResult res;
        res.kind = job.kind;
        res.rngSeed = job.rngSeed();
        PairCore pc(job, &tracer);
        SmtCore &core = pc.core;
        p5::FameRunner runner(job.fame);
        const std::string key = job.warmKey();
        bool from_store = false;
        const CkptManager::Acquired acq =
            ckpts_->acquire(key, [&]() -> p5::Checkpoint {
                p5::Checkpoint ck;
                if (ckptStore_) {
                    Scope s(&tracer, "ckpt.store_load");
                    if (ckptStore_->load(key, ck)) {
                        from_store = true;
                        return ck;
                    }
                }
                {
                    Scope s(&tracer, "fame.warm");
                    runner.runWarmup(core);
                }
                ck = snapshot(core, key, &tracer);
                if (ckptStore_)
                    ckptStore_->put(ck);
                return ck;
            });
        if (!acq.created || from_store) {
            Scope s(&tracer, "ckpt.restore");
            p5::CkptReader r(acq.ckpt->state);
            core.restoreState(r);
            r.expectEnd();
        }
        core.setPriorityPair(job.prioPrimary, job.prioSecondary);
        CoreSnapshot before, after;
        before.add(core);
        const Clock::time_point t0 = Clock::now();
        {
            Scope s(&tracer, "fame.measure");
            res.fame = runner.measure(core, 0);
        }
        const double seconds = secondsBetween(t0, Clock::now());
        after.add(core);
        std::lock_guard<std::mutex> lock(countersMutex_);
        counters_.add(before, after, accountedInstrs(res.fame), seconds);
        return res;
    }

    Delivery
    check(const std::vector<const Point *> &batch,
          const std::vector<SimResult> &results) const
    {
        Delivery d;
        for (std::size_t i = 0; i < batch.size(); ++i) {
            ++d.ops;
            d.instrs += accountedInstrs(results[i].fame);
            if (!ctx_.golden->matches(batch[i]->key,
                                      goldenText(results[i].fame)))
                ++d.failed;
        }
        return d;
    }

    double
    storeBytesPerPoint() const
    {
        std::uintmax_t bytes = 0;
        std::size_t files = 0;
        for (const Point &pt : points_) {
            std::error_code ec;
            const std::uintmax_t n = fs::file_size(
                resultStore_->pathFor(ResultStore::fingerprintHex(pt.job)),
                ec);
            if (!ec) {
                bytes += n;
                ++files;
            }
        }
        return files ? static_cast<double>(bytes) / static_cast<double>(files)
                     : 0.0;
    }

    SweepShape shape_;
    std::vector<Point> points_;
    std::vector<std::size_t> order_;
    std::size_t cursor_ = 0;
    std::unique_ptr<CkptManager> ckpts_;
    std::unique_ptr<p5::ResultCache> cache_;
    Delivery setupDelivery_;

    // sweep_store state.
    std::string storeDir_;
    std::unique_ptr<ResultStore> resultStore_;
    std::unique_ptr<CkptStore> ckptStore_;
    static constexpr std::size_t store_quarters = 4;
    std::vector<std::size_t> quarterOf_; ///< per point: its quarter
    std::size_t passIndex_ = 0;
    std::uint64_t traceBytes_ = 0;

    // Traced-phase observations.
    mutable std::mutex countersMutex_;
    CoreCounters counters_;
    std::atomic<std::size_t> imageBytes_{0};
    std::uint64_t cacheHits_ = 0;
    std::atomic<std::uint64_t> storeHits_{0};
    std::atomic<std::uint64_t> storeMisses_{0};
    std::atomic<std::uint64_t> storeWrites_{0};
};

MixDef
ubenchMix(p5::UbenchId a, p5::UbenchId b, const p5::FameParams &fame)
{
    MixDef m;
    m.label = std::string(p5::ubenchName(a)) + "+" + p5::ubenchName(b);
    m.primary = p5::ProgramSpec::ubench(a);
    m.secondary = p5::ProgramSpec::ubench(b);
    m.config.fame = fame;
    return m;
}

/**
 * The compute-bound pair at the paper's FAME defaults, one worker. One
 * mix keeps a pass (36 points, about 7 s here) well inside a timed
 * phase: with cpu_int+cpu_fp and lng_chain_cpuint+ldint_l1 added, a
 * pass took about 29 s and per-point MIPS ranged 0.33-5.7, so the seed
 * decided which part of the pass a run finished and moved sim_mips by
 * itself.
 */
class CpuMatrix : public FameSweep
{
  public:
    explicit CpuMatrix(const RunContext &ctx)
        : FameSweep(ctx, SweepShape{1, 1, 36, false})
    {}

  protected:
    std::vector<MixDef>
    defineMixes() override
    {
        return {ubenchMix(p5::UbenchId::CpuInt, p5::UbenchId::CpuInt,
                          p5::FameParams{})};
    }
};

/** Memory-bound pairs with a deep warm-up, two workers. */
class MemMatrix : public FameSweep
{
  public:
    explicit MemMatrix(const RunContext &ctx)
        : FameSweep(ctx, SweepShape{2, 4, 72, false})
    {}

  protected:
    std::vector<MixDef>
    defineMixes() override
    {
        using p5::UbenchId;
        // The deep warm-up of the `ckpt:` perf case: warm-up dominates
        // a cold run, and each measured window is short.
        p5::FameParams deep;
        deep.warmupRepetitions = 160;
        deep.minRepetitions = 3;
        deep.maiv = 0.10;
        return {ubenchMix(UbenchId::LdintMem, UbenchId::LdintMem, deep),
                ubenchMix(UbenchId::LdintMem, UbenchId::LdfpMem, deep)};
    }
};

/**
 * A resumable sweep over trace-replayed programs and a DRAM-latency
 * config axis, through a fresh ResultStore + CkptStore per run.
 */
class SweepStore : public FameSweep
{
  public:
    explicit SweepStore(const RunContext &ctx)
        : FameSweep(ctx, SweepShape{2, 4, 72, true})
    {}

  protected:
    void
    prepareTraces(Tracer *tracer) override
    {
        dumpTraces(traced_, trace_scale, trace_executions, tracer);
    }

    std::vector<MixDef>
    defineMixes() override
    {
        using p5::UbenchId;
        const std::pair<UbenchId, UbenchId> pairs[] = {
            {UbenchId::CpuInt, UbenchId::LdintL2},
            {UbenchId::LdintL2, UbenchId::LdintMem}};
        std::vector<MixDef> mixes;
        for (const auto &[a, b] : pairs) {
            for (const char *latency : {"230", "345"}) {
                MixDef m;
                p5::ConfigTree tree(m.config);
                m.config.fame = p5::ExpConfig::fast().fame;
                tree.set("core.mem.dram_latency", latency);
                tree.set("workload.trace", tracePath(a));
                tree.set("workload.trace_secondary", tracePath(b));
                tree.validate();
                tree.stampTag();
                m.primary = p5::ProgramSpec::trace(m.config.workloadTrace);
                m.secondary =
                    p5::ProgramSpec::trace(m.config.workloadTraceSecondary);
                m.label = std::string("trace:") + p5::ubenchName(a) +
                          "+trace:" + p5::ubenchName(b) +
                          "|core.mem.dram_latency=" + latency;
                mixes.push_back(std::move(m));
            }
        }
        return mixes;
    }

    std::vector<std::pair<int, int>>
    priorityPairs() const override
    {
        std::vector<std::pair<int, int>> pairs;
        for (int p = 1; p <= 6; ++p)
            for (int s : {2, 4, 6})
                pairs.emplace_back(p, s);
        return pairs;
    }

  private:
    static constexpr double trace_scale = 0.5;
    static constexpr std::uint64_t trace_executions = 8;
    const std::vector<p5::UbenchId> traced_ = {
        p5::UbenchId::CpuInt, p5::UbenchId::LdintL2, p5::UbenchId::LdintMem};
};

// --- chip_alloc ---------------------------------------------------------

/**
 * 4 cores, 8 threads (4 cpu_int + 4 ldint_mem) under the symbiosis
 * policy, one AllocEngine::run call per quantum. A study is a fixed
 * number of quanta on a fresh chip for one thread-mix permutation; the
 * timed phase runs studies back to back in seeded permutation order.
 */
class ChipAlloc : public Workload
{
  public:
    explicit ChipAlloc(const RunContext &ctx) : ctx_(ctx)
    {
        sched_.policy = p5::AllocPolicy::Symbiosis;
        order_ = partOrder(permutations().size(), ctx_);
    }

    void
    setup(Tracer *tracer) override
    {
        Scope setup(tracer, "setup");
        startStudy(permutations()[order_[0]], tracer);
        // Warm-up quanta until the policy has its full history.
        for (int q = 0; q < sched_.historyQuanta; ++q) {
            const Delivery d = quantum(tracer);
            setupDelivery_.ops += d.ops;
            setupDelivery_.failed += d.failed;
            setupDelivery_.instrs += d.instrs;
        }
    }

    Delivery
    step(Tracer *tracer, double & /*untimed_s*/) override
    {
        if (quantumIndex_ == study_quanta) {
            nextStudy_ = (nextStudy_ + 1) % order_.size();
            startStudy(permutations()[order_[nextStudy_]], tracer);
        }
        return quantum(tracer);
    }

    Delivery setupDelivery() const override { return setupDelivery_; }

    std::uint64_t
    tracedOps() const override
    {
        return study_quanta - static_cast<std::uint64_t>(sched_.historyQuanta);
    }

    void
    layerMetrics(const Tracer &tracer, MetricSink &sink) const override
    {
        counters_.emit(sink);
        sink.timing("program.build_ms", tracer.durationsMs("program.build"));
        sink.timing("sched.quantum_ms", tracer.durationsMs("sched.quantum"));
        sink.add("sched.migrations", static_cast<double>(migrations_),
                 "count");
        sink.add("sched.agg_ipc",
                 chipCycles_ ? static_cast<double>(counters_.committed) /
                                   static_cast<double>(chipCycles_)
                             : 0.0,
                 "ipc");
    }

    void
    recordGolden(Golden &out) override
    {
        for (const std::string &perm : permutations()) {
            startStudy(perm, nullptr);
            for (std::uint64_t q = 0; q < study_quanta; ++q) {
                const p5::AllocRunResult r = engine_->run(sched_.quantum);
                out.set(goldenKey(perm, q), goldenText(r));
            }
        }
    }

    /** Thread-mix permutations: C = cpu_int, M = ldint_mem. */
    static const std::vector<std::string> &
    permutations()
    {
        static const std::vector<std::string> perms = {
            "CMCMCMCM", "CCMMCCMM", "CCCCMMMM",
            "MCMCMCMC", "CMMCCMMC", "MMMMCCCC"};
        return perms;
    }

  private:
    static constexpr std::uint64_t study_quanta = 100;
    static constexpr int num_cores = 4;
    /** Engine seed: a constant, so results depend only on the mix. */
    static constexpr std::uint64_t engine_seed = 1;

    static std::string
    goldenKey(const std::string &perm, std::uint64_t q)
    {
        std::ostringstream os;
        os << perm << "/q" << q;
        return os.str();
    }

    void
    startStudy(const std::string &perm, Tracer *tracer)
    {
        engine_.reset();
        chip_.reset();
        workload_ = std::make_unique<p5::Workload>();
        for (char c : perm) {
            Scope s(tracer, "program.build");
            workload_->add(p5::ProgramSpec::ubench(
                c == 'C' ? p5::UbenchId::CpuInt : p5::UbenchId::LdintMem));
        }
        p5::ChipParams params;
        params.numCores = num_cores;
        chip_ = std::make_unique<p5::Chip>(params);
        engine_ = std::make_unique<p5::AllocEngine>(*chip_, *workload_,
                                                    sched_, engine_seed);
        perm_ = perm;
        quantumIndex_ = 0;
    }

    Delivery
    quantum(Tracer *tracer)
    {
        CoreSnapshot before, after;
        if (tracer)
            before.add(*chip_);
        const Clock::time_point t0 = Clock::now();
        p5::AllocRunResult r;
        {
            Scope s(tracer, "sched.quantum");
            r = engine_->run(sched_.quantum);
        }
        if (tracer) {
            const double seconds = secondsBetween(t0, Clock::now());
            after.add(*chip_);
            counters_.add(before, after, r.committed, seconds);
            migrations_ += r.migrations;
            chipCycles_ += r.cycles;
        }
        Delivery d;
        d.ops = 1;
        d.instrs = r.committed;
        if (r.checkViolations != 0 ||
            !ctx_.golden->matches(goldenKey(perm_, quantumIndex_),
                                  goldenText(r)))
            d.failed = 1;
        ++quantumIndex_;
        return d;
    }

    const RunContext &ctx_;
    p5::SchedParams sched_;
    std::vector<std::size_t> order_;
    std::size_t nextStudy_ = 0;
    std::unique_ptr<p5::Workload> workload_;
    std::unique_ptr<p5::Chip> chip_;
    std::unique_ptr<p5::AllocEngine> engine_;
    std::string perm_;
    std::uint64_t quantumIndex_ = 0;
    Delivery setupDelivery_;

    CoreCounters counters_;
    std::uint64_t migrations_ = 0;
    std::uint64_t chipCycles_ = 0;
};

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "cpu_matrix", "mem_matrix", "chip_alloc", "sweep_store"};
    return names;
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name, const RunContext &ctx)
{
    if (name == "cpu_matrix")
        return std::make_unique<CpuMatrix>(ctx);
    if (name == "mem_matrix")
        return std::make_unique<MemMatrix>(ctx);
    if (name == "chip_alloc")
        return std::make_unique<ChipAlloc>(ctx);
    if (name == "sweep_store")
        return std::make_unique<SweepStore>(ctx);
    return nullptr;
}

} // namespace p5bench
