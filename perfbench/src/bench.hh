/**
 * @file
 * Shared pieces of the p5sim host-speed benchmark: quantiles with their
 * sample count, per-workload peak-RSS attribution, the in-memory span
 * recorder used by the traced run, golden-result checking, and the
 * workload interface the timed loop drives.
 *
 * Everything here sits outside the simulator: the benchmark calls the
 * public API of fame, ckpt, store, program and sched and times those
 * calls from its own files.
 */

#ifndef P5BENCH_BENCH_HH
#define P5BENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "fame/fame.hh"
#include "sched/alloc_result.hh"

namespace p5bench {

using Clock = std::chrono::steady_clock;

/** Seconds between two steady-clock points. */
double secondsBetween(Clock::time_point a, Clock::time_point b);

// --- statistics --------------------------------------------------------

/** A percentile summary that always carries its sample count. */
struct Quantiles
{
    std::size_t n = 0;
    double p50 = 0.0;
    double p90 = 0.0;
};

/**
 * Linear-interpolation percentiles (numpy's default rule) of
 * @p samples. An empty input yields n == 0 and zero percentiles.
 */
Quantiles quantiles(std::vector<double> samples);

// --- peak resident set -------------------------------------------------

/**
 * Resident-set high-water mark of one workload run. reset() clears the
 * kernel's per-process peak (/proc/self/clear_refs), so a workload run
 * after another in the same process reports only its own peak.
 */
class PeakRss
{
  public:
    /** Clear the process peak; false when the kernel refuses. */
    static bool reset();

    /** Current process peak (VmHWM) in MB; 0 when unreadable. */
    static double peakMb();
};

// --- tracing -----------------------------------------------------------

/** One recorded span: a timed call into a layer's public function. */
struct Span
{
    std::string name;
    int parent = -1; ///< index of the enclosing span, -1 at the root
    Clock::time_point start;
    Clock::time_point end;
};

/**
 * Keeps every span of a traced run in memory until the run ends.
 * Thread-safe; the current span of each thread becomes the parent of
 * the next span that thread opens unless a parent is given.
 */
class Tracer
{
  public:
    int begin(const std::string &name, int parent);
    void end(int id);

    std::vector<Span> spans() const;

    /** Durations in ms of every span named @p name. */
    std::vector<double> durationsMs(const std::string &name) const;

    /**
     * Self time in seconds per span name: each span's duration minus
     * the part of its interval its child spans cover (children that
     * overlap each other, as on a worker pool, count once).
     */
    std::map<std::string, double> selfSeconds() const;

    /** The calling thread's innermost open span (-1 when none). */
    static int current();

    /** Make @p id the calling thread's parent for new spans. */
    static void adopt(int id);

  private:
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
};

/**
 * RAII span. With a null tracer it does nothing, so untraced and
 * traced runs share one code path up to the recorder.
 */
class Scope
{
  public:
    Scope(Tracer *tracer, const char *name);
    ~Scope();
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer *tracer_;
    int id_ = -1;
    int saved_ = -1;
};

// --- golden results ----------------------------------------------------

/** Canonical text of a FAME result: per-thread executions, accounted
 *  cycles, accounted instructions, then total cycles. */
std::string goldenText(const p5::FameResult &r);

/** Canonical text of one chip quantum: per-thread committed
 *  instructions, migrations, aggregate IPC (exact decimal). */
std::string goldenText(const p5::AllocRunResult &r);

/** Committed golden values keyed by point identity. */
class Golden
{
  public:
    /** Load "key<TAB>value" lines; '#' lines are comments. */
    bool load(const std::string &path, std::string *error);

    /** True when @p key exists and its value equals @p text. */
    bool matches(const std::string &key, const std::string &text) const;

    std::size_t size() const { return values_.size(); }

    void set(const std::string &key, const std::string &text);

    /** Write every entry, sorted by key, after a comment header. */
    bool save(const std::string &path, const std::string &header) const;

  private:
    std::map<std::string, std::string> values_;
};

// --- workloads ---------------------------------------------------------

/** Operations one timed step delivered. */
struct Delivery
{
    std::uint64_t ops = 0;    ///< points, or quanta on chip_alloc
    std::uint64_t failed = 0; ///< golden mismatches, quarantines
    std::uint64_t instrs = 0; ///< simulated instructions delivered
};

/** A named metric with its unit. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** Collects per-layer metrics; timings get p50, p90 and n. */
class MetricSink
{
  public:
    void add(const std::string &name, double value,
             const std::string &unit);
    /** Emit NAME.p50, NAME.p90 (unit ms) and NAME.n for @p ms. */
    void timing(const std::string &name, const std::vector<double> &ms);

    const std::vector<Metric> &metrics() const { return metrics_; }

  private:
    std::vector<Metric> metrics_;
};

/** Per-run inputs every workload receives. */
struct RunContext
{
    std::uint64_t seed = 1;
    const Golden *golden = nullptr;
    /** Private scratch directory inside the checkout (sweep_store). */
    std::string workDir;
    /**
     * This process's share of a run: part @c part of @c parts. Parts
     * start the seeded order at different points (see partOrder).
     */
    std::size_t part = 0;
    std::size_t parts = 1;
};

/**
 * One benchmark workload. The timed loop calls setup() once, then step()
 * in a closed loop: each step submits one batch and returns only when
 * every operation of it has completed and been checked.
 */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Everything before the first timed operation. */
    virtual void setup(Tracer *tracer) = 0;

    /**
     * Deliver the next batch. @p tracer selects the instrumented
     * execution path (null = the library's own SimRunner/AllocEngine
     * path). Work that restores the post-setup state between passes
     * is reported through @p untimed_s and excluded from the timing.
     */
    virtual Delivery step(Tracer *tracer, double &untimed_s) = 0;

    /** Operations whose results were checked during setup. */
    virtual Delivery setupDelivery() const { return {}; }

    /** Fixed operation count of the traced phase. */
    virtual std::uint64_t tracedOps() const = 0;

    /** Per-layer metrics after a traced phase. */
    virtual void layerMetrics(const Tracer &tracer,
                              MetricSink &sink) const = 0;

    /** Simulate the full point set and record its golden values. */
    virtual void recordGolden(Golden &out) = 0;
};

/** Factory by workload name; null for an unknown name. */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       const RunContext &ctx);

/** Names of every workload, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

} // namespace p5bench

#endif // P5BENCH_BENCH_HH
