/**
 * @file
 * Fixed-size host thread pool with futures.
 *
 * This is host-side orchestration machinery, not part of the simulated
 * machine: the pool lets several independent simulations run
 * concurrently, each remaining deterministic and single-threaded.
 * The caller sizes it; 0 means all hardware threads.
 */

#ifndef MPOS_UTIL_THREADPOOL_HH
#define MPOS_UTIL_THREADPOOL_HH

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace mpos::util
{

/**
 * A classic fixed-size worker pool. Tasks are queued FIFO and their
 * results (or exceptions) delivered through std::future. Destruction
 * drains the queue: every submitted task still runs.
 */
class ThreadPool
{
  public:
    /** @param nthreads Worker count; 0 means all hardware threads. */
    explicit ThreadPool(unsigned nthreads = 0);

    /** Finishes all queued work, then joins the workers. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /**
     * Queue a callable; its return value or thrown exception is
     * delivered through the returned future.
     */
    template <typename F, typename R = std::invoke_result_t<F>>
    std::future<R>
    submit(F f)
    {
        // packaged_task is move-only; std::function needs copyable,
        // so the task rides in a shared_ptr.
        auto task =
            std::make_shared<std::packaged_task<R()>>(std::move(f));
        std::future<R> fut = task->get_future();
        {
            std::lock_guard<std::mutex> lock(m);
            queue.emplace_back([task] { (*task)(); });
        }
        cv.notify_one();
        return fut;
    }

    unsigned threads() const { return unsigned(workers.size()); }

  private:
    void workerLoop();

    std::vector<std::thread> workers;
    std::deque<std::function<void()>> queue;
    std::mutex m;
    std::condition_variable cv;
    bool stopping = false;
};

} // namespace mpos::util

#endif // MPOS_UTIL_THREADPOOL_HH
