/**
 * @file
 * Tests for the common concurrency layer: ThreadPool (result delivery,
 * exception propagation, saturation), JobGraph (every task runs, the
 * first failure is rethrown after the batch drains), ClaimMap (one
 * claimant per key, shared value and failure, abandon un-poisons) and
 * the thread safety of the log globals.
 */

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/claim_map.hh"
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

TEST(JobGraph, FailureRethrowsAfterDrain)
{
    ThreadPool pool(2);
    JobGraph graph;
    std::atomic<int> ran{0};
    for (int i = 0; i < 20; ++i)
        graph.add([&ran, i] {
            if (i == 3)
                throw std::runtime_error("task failed");
            ran.fetch_add(1);
        });
    EXPECT_THROW(graph.run(pool), std::runtime_error);
    // The failure stops nothing: every other task still ran.
    EXPECT_EQ(ran.load(), 19);
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

TEST(ClaimMap, ConcurrentClaimantsShareOneValue)
{
    ClaimMap<int> map;
    constexpr int threads = 8;
    std::atomic<int> claimants{0};
    std::vector<int> seen(threads, -1);
    std::vector<std::thread> workers;
    for (int t = 0; t < threads; ++t)
        workers.emplace_back([&, t] {
            ClaimMap<int>::Claim c = map.claim("key");
            if (c.claimed) {
                claimants.fetch_add(1);
                c.promise->set_value(42);
            }
            seen[static_cast<std::size_t>(t)] = c.future.get();
        });
    for (auto &w : workers)
        w.join();

    EXPECT_EQ(claimants.load(), 1);
    for (int v : seen)
        EXPECT_EQ(v, 42);
    EXPECT_EQ(map.misses(), 1u);
    EXPECT_EQ(map.hits(), static_cast<std::uint64_t>(threads - 1));
    EXPECT_EQ(map.size(), 1u);
}

TEST(ClaimMap, AbandonUnpoisonsTheKey)
{
    ClaimMap<int> map;
    ClaimMap<int>::Claim first = map.claim("key");
    ASSERT_TRUE(first.claimed);
    first.promise->set_exception(
        std::make_exception_ptr(std::runtime_error("failed")));
    map.abandon("key");
    EXPECT_EQ(map.size(), 0u);

    // The next claim is a fresh miss, not the stored failure.
    ClaimMap<int>::Claim second = map.claim("key");
    EXPECT_TRUE(second.claimed);
    second.promise->set_value(7);
    EXPECT_EQ(second.future.get(), 7);
    EXPECT_EQ(map.misses(), 2u);
    EXPECT_EQ(map.hits(), 0u);
}

TEST(ClaimMap, ExceptionReachesEveryWaiter)
{
    ClaimMap<int> map;
    ClaimMap<int>::Claim owner = map.claim("key");
    ASSERT_TRUE(owner.claimed);

    constexpr int waiters = 4;
    std::atomic<int> failed{0};
    std::vector<std::thread> workers;
    for (int t = 0; t < waiters; ++t)
        workers.emplace_back([&] {
            ClaimMap<int>::Claim c = map.claim("key");
            EXPECT_FALSE(c.claimed);
            try {
                c.future.get();
            } catch (const std::runtime_error &) {
                failed.fetch_add(1);
            }
        });
    // Wait until every waiter holds the entry before failing it.
    while (map.hits() < static_cast<std::uint64_t>(waiters))
        std::this_thread::yield();
    owner.promise->set_exception(
        std::make_exception_ptr(std::runtime_error("claimant failed")));
    for (auto &w : workers)
        w.join();
    EXPECT_EQ(failed.load(), waiters);
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
