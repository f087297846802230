/**
 * @file
 * p5bench: the host-speed benchmark program.
 *
 *   p5bench --workload NAME --seed N --seconds S --trace 0|1
 *           [--part K/N] --golden-dir DIR --work-dir DIR
 *   p5bench --workload NAME --record-golden FILE
 *
 * Untraced (--trace 0): set up, then run closed-loop batches for S
 * seconds and report sim_mips, setup_s and peak_rss_mb, plus the raw
 * sim_instrs and timed_s that perfbench/run.py sums over the parts of
 * one run (--part K/N, see RunContext).
 *
 * Traced (--trace 1): run a fixed number of operations untraced, then
 * the same operations on a fresh set-up with a span around every layer
 * call, and report the per-layer metrics and the tracing overhead.
 *
 * The last stdout line is the JSON result.
 */

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>

#include <unistd.h>

#include "bench.hh"

using namespace p5bench;

namespace {

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string goldenDir = "perfbench/golden";
    std::string workDir;
    std::string recordGolden;
    std::size_t part = 0;
    std::size_t parts = 1;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "p5bench: " << why << "\n"
              << "usage: p5bench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--part K/N] [--golden-dir DIR] "
                 "[--work-dir DIR]\n"
              << "       p5bench --workload NAME --record-golden FILE\n";
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const std::string value = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            a.workload = value;
        } else if (flag == "--seed") {
            a.seed = std::strtoull(value.c_str(), &end, 10);
            if (value.empty() || *end)
                usage("bad --seed '" + value + "'");
        } else if (flag == "--seconds") {
            a.seconds = std::strtod(value.c_str(), &end);
            if (value.empty() || *end || !(a.seconds > 0.0))
                usage("bad --seconds '" + value + "'");
        } else if (flag == "--trace") {
            if (value != "0" && value != "1")
                usage("--trace takes 0 or 1");
            a.trace = value == "1";
        } else if (flag == "--part") {
            const std::size_t slash = value.find('/');
            const std::string k = value.substr(0, slash);
            const std::string n =
                slash == std::string::npos ? "" : value.substr(slash + 1);
            a.part = std::strtoull(k.c_str(), &end, 10);
            const bool k_ok = !k.empty() && !*end;
            a.parts = std::strtoull(n.c_str(), &end, 10);
            if (!k_ok || n.empty() || *end || a.parts == 0 ||
                a.part >= a.parts)
                usage("bad --part '" + value + "'");
        } else if (flag == "--golden-dir") {
            a.goldenDir = value;
        } else if (flag == "--work-dir") {
            a.workDir = value;
        } else if (flag == "--record-golden") {
            a.recordGolden = value;
        } else {
            usage("unknown flag " + flag);
        }
    }
    if (a.workload.empty())
        usage("--workload is required");
    return a;
}

void
accumulate(Delivery &total, const Delivery &d)
{
    total.ops += d.ops;
    total.failed += d.failed;
    total.instrs += d.instrs;
}

/** Closed loop until @p seconds of timed work or @p max_ops operations. */
Delivery
runLoop(Workload &w, Tracer *tracer, double seconds, std::uint64_t max_ops,
        double &timed_s)
{
    Delivery total;
    double untimed = 0.0;
    const Clock::time_point start = Clock::now();
    do {
        accumulate(total, w.step(tracer, untimed));
        timed_s = secondsBetween(start, Clock::now()) - untimed;
    } while (timed_s < seconds && total.ops < max_ops);
    return total;
}

void
printJson(const Delivery &d, const std::vector<Metric> &metrics)
{
    std::string out = "{\"correct\": ";
    out += (d.failed == 0 && d.ops > 0) ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(d.ops);
    out += ", \"failed\": " + std::to_string(d.failed);
    out += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        char value[64];
        std::snprintf(value, sizeof value, "%.17g", metrics[i].value);
        out += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
               value + ", \"unit\": \"" + metrics[i].unit + "\"}";
    }
    out += "}}";
    std::cout << out << std::endl;
}

int
runUntraced(const Args &a, const RunContext &ctx)
{
    PeakRss::reset();
    std::unique_ptr<Workload> w = makeWorkload(a.workload, ctx);
    const Clock::time_point t0 = Clock::now();
    w->setup(nullptr);
    const double setup_s = secondsBetween(t0, Clock::now());
    Delivery total = w->setupDelivery();
    double timed_s = 0.0;
    const Delivery timed = runLoop(*w, nullptr, a.seconds, UINT64_MAX,
                                   timed_s);
    accumulate(total, timed);
    const double peak = PeakRss::peakMb();
    w.reset();

    MetricSink sink;
    sink.add("sim_mips", static_cast<double>(timed.instrs) / timed_s / 1e6,
             "MIPS");
    sink.add("setup_s", setup_s, "s");
    sink.add("peak_rss_mb", peak, "MB");
    sink.add("sim_instrs", static_cast<double>(timed.instrs), "count");
    sink.add("timed_s", timed_s, "s");
    printJson(total, sink.metrics());
    return 0;
}

int
runTraced(const Args &a, const RunContext &ctx)
{
    Delivery total;
    double plain_s = 0.0;
    std::uint64_t ops = 0;
    double plain_mips = 0.0;
    {
        std::unique_ptr<Workload> w = makeWorkload(a.workload, ctx);
        w->setup(nullptr);
        accumulate(total, w->setupDelivery());
        ops = w->tracedOps();
        const Delivery d = runLoop(*w, nullptr, 1e30, ops, plain_s);
        accumulate(total, d);
        plain_mips = static_cast<double>(d.instrs) / plain_s / 1e6;
    }

    Tracer tracer;
    std::unique_ptr<Workload> w = makeWorkload(a.workload, ctx);
    w->setup(&tracer);
    accumulate(total, w->setupDelivery());
    double traced_s = 0.0;
    const Delivery d = runLoop(*w, &tracer, 1e30, ops, traced_s);
    accumulate(total, d);
    const double traced_mips = static_cast<double>(d.instrs) / traced_s / 1e6;

    MetricSink sink;
    w->layerMetrics(tracer, sink);
    for (const auto &[name, s] : tracer.selfSeconds())
        sink.add("self_s." + name, s, "s");
    sink.add("trace.spans", static_cast<double>(tracer.spans().size()),
             "count");
    sink.add("trace.sim_mips_untraced", plain_mips, "MIPS");
    sink.add("trace.sim_mips_traced", traced_mips, "MIPS");
    sink.add("trace.overhead_share", 1.0 - traced_mips / plain_mips,
             "ratio");
    printJson(total, sink.metrics());
    return 0;
}

int
recordGolden(const Args &a, RunContext &ctx)
{
    Golden empty;
    ctx.golden = &empty;
    std::unique_ptr<Workload> w = makeWorkload(a.workload, ctx);
    Golden out;
    w->recordGolden(out);
    w.reset();
    const std::string header =
        "# p5bench golden results for " + a.workload +
        ": point identity<TAB>simulated result.\n"
        "# Regenerate with: p5bench --workload " + a.workload +
        " --record-golden FILE\n";
    if (!out.save(a.recordGolden, header)) {
        std::cerr << "p5bench: cannot write " << a.recordGolden << "\n";
        return 1;
    }
    std::cerr << "p5bench: wrote " << out.size() << " golden entries to "
              << a.recordGolden << "\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args a = parseArgs(argc, argv);
    bool known = false;
    for (const std::string &name : workloadNames())
        known = known || name == a.workload;
    if (!known)
        usage("unknown workload '" + a.workload + "'");

    RunContext ctx;
    ctx.seed = a.seed;
    ctx.part = a.part;
    ctx.parts = a.parts;
    ctx.workDir = a.workDir.empty()
                      ? ".bench_work/p5bench-" + std::to_string(::getpid())
                      : a.workDir;
    std::filesystem::create_directories(ctx.workDir);

    int rc = 0;
    if (!a.recordGolden.empty()) {
        rc = recordGolden(a, ctx);
    } else {
        Golden golden;
        std::string error;
        if (!golden.load(a.goldenDir + "/" + a.workload + ".golden",
                         &error)) {
            std::cerr << "p5bench: " << error << "\n";
            rc = 1;
        } else {
            ctx.golden = &golden;
            rc = a.trace ? runTraced(a, ctx) : runUntraced(a, ctx);
        }
    }
    std::error_code ec;
    std::filesystem::remove_all(ctx.workDir, ec);
    return rc;
}
