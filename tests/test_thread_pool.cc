/**
 * @file
 * Tests for the common concurrency layer: ThreadPool (result delivery,
 * exception propagation, saturation), JobGraph (dependency ordering,
 * failure containment) and the thread safety of the log globals.
 */

#include <array>
#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/job_graph.hh"
#include "common/log.hh"
#include "common/thread_pool.hh"

namespace p5 {
namespace {

TEST(ThreadPool, DeliversResultsInSubmissionOrder)
{
    ThreadPool pool(4);
    std::vector<std::future<int>> futures;
    for (int i = 0; i < 64; ++i)
        futures.push_back(pool.submit([i] { return i * i; }));
    for (int i = 0; i < 64; ++i)
        EXPECT_EQ(futures[static_cast<size_t>(i)].get(), i * i);
}

TEST(ThreadPool, ZeroWorkersSelectsHardwareConcurrency)
{
    ThreadPool pool(0);
    EXPECT_EQ(pool.workers(), ThreadPool::defaultWorkers());
    EXPECT_GE(pool.workers(), 1u);
}

TEST(ThreadPool, PropagatesExceptionsThroughFutures)
{
    ThreadPool pool(2);
    auto ok = pool.submit([] { return 7; });
    auto bad = pool.submit(
        []() -> int { throw std::runtime_error("job failed"); });
    EXPECT_EQ(ok.get(), 7);
    EXPECT_THROW(bad.get(), std::runtime_error);
    // The pool survives a throwing task.
    EXPECT_EQ(pool.submit([] { return 1; }).get(), 1);
}

TEST(ThreadPool, SaturationRunsEveryTask)
{
    // Far more tasks than workers; every task must run exactly once.
    ThreadPool pool(3);
    std::atomic<int> ran{0};
    std::vector<std::future<void>> futures;
    for (int i = 0; i < 500; ++i)
        futures.push_back(pool.submit([&ran] {
            ran.fetch_add(1);
        }));
    for (auto &f : futures)
        f.get();
    EXPECT_EQ(ran.load(), 500);
}

TEST(ThreadPool, DestructorDrainsQueuedTasks)
{
    std::atomic<int> ran{0};
    {
        ThreadPool pool(1);
        for (int i = 0; i < 32; ++i)
            pool.submit([&ran] {
                std::this_thread::sleep_for(std::chrono::microseconds(100));
                ran.fetch_add(1);
            });
    }
    EXPECT_EQ(ran.load(), 32);
}

TEST(JobGraph, RespectsDependencyOrder)
{
    ThreadPool pool(4);
    JobGraph graph;
    std::atomic<int> stamp{0};
    std::array<int, 4> when{};

    // d depends on b and c, which both depend on a.
    auto a = graph.add([&] { when[0] = stamp.fetch_add(1); });
    auto b = graph.add([&] { when[1] = stamp.fetch_add(1); }, {a});
    auto c = graph.add([&] { when[2] = stamp.fetch_add(1); }, {a});
    graph.add([&] { when[3] = stamp.fetch_add(1); }, {b, c});
    graph.run(pool);

    EXPECT_LT(when[0], when[1]);
    EXPECT_LT(when[0], when[2]);
    EXPECT_GT(when[3], when[1]);
    EXPECT_GT(when[3], when[2]);
}

TEST(JobGraph, FailureSkipsDependentsAndRethrows)
{
    ThreadPool pool(2);
    JobGraph graph;
    std::atomic<bool> dependent_ran{false};
    auto bad = graph.add([] { throw std::runtime_error("node failed"); });
    graph.add([&] { dependent_ran = true; }, {bad});
    EXPECT_THROW(graph.run(pool), std::runtime_error);
    EXPECT_FALSE(dependent_ran.load());
}

TEST(JobGraph, ParallelRootsAllRun)
{
    ThreadPool pool(4);
    JobGraph graph;
    std::atomic<int> ran{0};
    for (int i = 0; i < 100; ++i)
        graph.add([&ran] { ran.fetch_add(1); });
    graph.run(pool);
    EXPECT_EQ(ran.load(), 100);
}

TEST(Log, WarnCountAndLevelAreThreadSafe)
{
    // Concurrent simulations warn() and read the log level from many
    // threads; hammer both and check no update is lost. (Run silent so
    // the test log stays readable.)
    const LogLevel prev = setLogLevel(LogLevel::Silent);
    const std::uint64_t before = warnCount();

    constexpr int threads = 8;
    constexpr int perThread = 250;
    std::vector<std::thread> workers;
    for (int t = 0; t < threads; ++t)
        workers.emplace_back([] {
            for (int i = 0; i < perThread; ++i) {
                warn("concurrent warn %d", i);
                (void)logLevel();
            }
        });
    for (auto &w : workers)
        w.join();

    EXPECT_EQ(warnCount() - before,
              static_cast<std::uint64_t>(threads) * perThread);
    setLogLevel(prev);
}

} // namespace
} // namespace p5
