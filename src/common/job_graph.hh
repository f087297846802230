/**
 * @file
 * A batch of independent tasks executed over a ThreadPool.
 *
 * Tasks are void() callables with no ordering between them: run()
 * submits them all, so the pool stays saturated until the batch drains.
 */

#ifndef P5SIM_COMMON_JOB_GRAPH_HH
#define P5SIM_COMMON_JOB_GRAPH_HH

#include <exception>
#include <functional>
#include <future>
#include <vector>

#include "common/thread_pool.hh"

namespace p5 {

/** Task batch; build with add(), execute with run(). */
class JobGraph
{
  public:
    void add(std::function<void()> fn) { tasks_.push_back(std::move(fn)); }

    /**
     * Execute every task on @p pool and block until all have finished.
     * A task that throws does not stop the others; the exception of
     * the first failed task (in add order) is rethrown here.
     */
    void
    run(ThreadPool &pool)
    {
        std::vector<std::future<void>> done;
        done.reserve(tasks_.size());
        for (auto &task : tasks_)
            done.push_back(pool.submit([&task] { task(); }));
        std::exception_ptr error;
        for (auto &f : done) {
            try {
                f.get();
            } catch (...) {
                if (!error)
                    error = std::current_exception();
            }
        }
        if (error)
            std::rethrow_exception(error);
    }

  private:
    std::vector<std::function<void()>> tasks_;
};

} // namespace p5

#endif // P5SIM_COMMON_JOB_GRAPH_HH
