/**
 * @file
 * Tests of the benchmark's own helpers: quantiles, golden checking,
 * sweep_store's private store directory, and peak-RSS attribution.
 *
 *   cmake --build .bench_build --target p5bench_tests
 *   ctest --test-dir .bench_build
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <memory>
#include <thread>

#include "bench.hh"

namespace fs = std::filesystem;

namespace p5bench {
namespace {

TEST(Quantiles, ReportSampleCount)
{
    const Quantiles q = quantiles({5, 1, 4, 2, 3, 6, 7, 8, 9, 10});
    EXPECT_EQ(q.n, 10u);
    EXPECT_DOUBLE_EQ(q.p50, 5.5);
    EXPECT_DOUBLE_EQ(q.p90, 9.1);

    const Quantiles empty = quantiles({});
    EXPECT_EQ(empty.n, 0u);

    MetricSink sink;
    sink.timing("x_ms", {1.0, 2.0, 3.0});
    ASSERT_EQ(sink.metrics().size(), 3u);
    EXPECT_EQ(sink.metrics()[2].name, "x_ms.n");
    EXPECT_EQ(sink.metrics()[2].value, 3.0);

    MetricSink none;
    none.timing("y_ms", {});
    EXPECT_TRUE(none.metrics().empty()); // omitted, not reported as 0
}

TEST(Golden, PerturbedFameResultFails)
{
    p5::FameResult r;
    r.thread[0] = {true, 12, 34567, 8900};
    r.thread[1] = {true, 3, 34000, 1200};
    r.totalCycles = 40000;
    Golden g;
    g.set("cpu_int+cpu_int@6,2", goldenText(r));
    EXPECT_TRUE(g.matches("cpu_int+cpu_int@6,2", goldenText(r)));
    EXPECT_FALSE(g.matches("cpu_int+cpu_int@2,6", goldenText(r)));

    p5::FameResult bad = r;
    bad.thread[1].accountedCycles += 1;
    EXPECT_FALSE(g.matches("cpu_int+cpu_int@6,2", goldenText(bad)));
    bad = r;
    bad.totalCycles -= 1;
    EXPECT_FALSE(g.matches("cpu_int+cpu_int@6,2", goldenText(bad)));
}

TEST(Golden, PerturbedQuantumFails)
{
    p5::AllocRunResult r;
    r.threads.resize(8);
    for (std::size_t t = 0; t < 8; ++t)
        r.threads[t].committed = 1000 + t;
    r.migrations = 2;
    r.aggregateIpc = 4.1071;
    Golden g;
    g.set("CMCMCMCM/q7", goldenText(r));
    p5::AllocRunResult bad = r;
    bad.aggregateIpc = std::nextafter(r.aggregateIpc, 5.0);
    EXPECT_FALSE(g.matches("CMCMCMCM/q7", goldenText(bad)));
    bad = r;
    bad.migrations = 3;
    EXPECT_FALSE(g.matches("CMCMCMCM/q7", goldenText(bad)));
}

/** Golden from the committed file, with every value altered. */
Golden
perturbed(const std::string &path)
{
    std::ifstream in(path);
    Golden g;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        const std::size_t tab = line.find('\t');
        g.set(line.substr(0, tab), line.substr(tab + 1) + "0");
    }
    return g;
}

TEST(Golden, WorkloadCountsMismatchesAsFailedOperations)
{
    const std::string path =
        std::string(P5BENCH_GOLDEN_DIR) + "/chip_alloc.golden";
    Golden good;
    ASSERT_TRUE(good.load(path, nullptr));
    const Golden bad = perturbed(path);
    const Golden *const goldens[] = {&good, &bad};

    for (const Golden *g : goldens) {
        RunContext ctx;
        ctx.seed = 5;
        ctx.golden = g;
        std::unique_ptr<Workload> w = makeWorkload("chip_alloc", ctx);
        w->setup(nullptr);
        double untimed = 0.0;
        const Delivery d = w->step(nullptr, untimed);
        const Delivery s = w->setupDelivery();
        EXPECT_EQ(s.ops, 4u);
        EXPECT_EQ(d.ops, 1u);
        const std::uint64_t expect = g == &good ? 0 : 1;
        EXPECT_EQ(d.failed, expect);
        EXPECT_EQ(s.failed, expect * s.ops);
    }
}

std::size_t
countResultFiles(const fs::path &dir)
{
    std::size_t n = 0;
    for (const auto &e : fs::recursive_directory_iterator(dir))
        if (e.is_regular_file() && e.path().extension() == ".json" &&
            e.path().filename() != "store_meta.json")
            ++n;
    return n;
}

TEST(SweepStore, FreshStorePerRunAndNothingLeftBehind)
{
    const fs::path work = fs::path(testing::TempDir()) / "p5bench_sweep";
    fs::remove_all(work);
    // A store left by a killed run must not be resumed from.
    const fs::path stale = work / "sweep_store" / "results" / "00";
    fs::create_directories(stale);
    std::ofstream(stale / "0000000000000000-v1.json") << "{}";

    Golden golden;
    ASSERT_TRUE(golden.load(
        std::string(P5BENCH_GOLDEN_DIR) + "/sweep_store.golden", nullptr));
    RunContext ctx;
    ctx.seed = 9;
    ctx.golden = &golden;
    ctx.workDir = work.string();
    {
        std::unique_ptr<Workload> w = makeWorkload("sweep_store", ctx);
        w->setup(nullptr);
        // Only the seeded share published during set-up: 72 points / 4.
        EXPECT_EQ(countResultFiles(work / "sweep_store" / "results"), 18u);
        EXPECT_EQ(w->setupDelivery().ops, 18u);
        EXPECT_EQ(w->setupDelivery().failed, 0u);
        double untimed = 0.0;
        const Delivery d = w->step(nullptr, untimed);
        EXPECT_EQ(d.ops, 4u);
        EXPECT_EQ(d.failed, 0u);
    }
    EXPECT_FALSE(fs::exists(work / "sweep_store"));
    fs::remove_all(work);
}

TEST(PeakRss, AttributedToOneWorkload)
{
    ASSERT_TRUE(PeakRss::reset());
    const double base = PeakRss::peakMb();
    {
        constexpr std::size_t bytes = 128u << 20;
        std::unique_ptr<char[]> big(new char[bytes]);
        for (std::size_t i = 0; i < bytes; i += 4096)
            big[i] = 1;
        EXPECT_GT(PeakRss::peakMb(), base + 100.0);
    }
    // The next workload starts from a reset peak: the 128 MB above
    // must not carry over.
    ASSERT_TRUE(PeakRss::reset());
    EXPECT_LT(PeakRss::peakMb(), base + 64.0);
}

TEST(Tracer, SelfTimeExcludesChildren)
{
    Tracer t;
    {
        Scope parent(&t, "parent");
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        Scope child(&t, "child");
        std::this_thread::sleep_for(std::chrono::milliseconds(40));
    }
    const std::vector<Span> spans = t.spans();
    ASSERT_EQ(spans.size(), 2u);
    EXPECT_EQ(spans[1].parent, 0);
    const auto self = t.selfSeconds();
    EXPECT_GE(self.at("child"), 0.040);
    EXPECT_GE(self.at("parent"), 0.019);
    EXPECT_LT(self.at("parent"), self.at("child"));
}

} // namespace
} // namespace p5bench
