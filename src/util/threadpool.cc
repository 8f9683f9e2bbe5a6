#include "util/threadpool.hh"

#include <algorithm>

namespace mpos::util
{

ThreadPool::ThreadPool(unsigned nthreads)
{
    if (nthreads == 0)
        nthreads = std::max(1u, std::thread::hardware_concurrency());
    workers.reserve(nthreads);
    for (unsigned i = 0; i < nthreads; ++i)
        workers.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(m);
        stopping = true;
    }
    cv.notify_all();
    for (auto &w : workers)
        w.join();
}

void
ThreadPool::workerLoop()
{
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(m);
            cv.wait(lock,
                    [this] { return stopping || !queue.empty(); });
            if (queue.empty())
                return; // stopping, and nothing left to drain
            task = std::move(queue.front());
            queue.pop_front();
        }
        // submit() routes the callable through a packaged_task, which
        // captures anything it throws into the future -- but a worker
        // must survive even a task that escapes that net (e.g. a bare
        // callable queued by a future extension, or a throwing task
        // destructor). A dead worker would silently shrink the pool
        // and strand queued jobs.
        try {
            task();
        } catch (...) {
            // Swallow: the submitter's future already holds the
            // exception if one was deliverable; there is nobody else
            // to hand it to from a detached worker.
        }
    }
}

} // namespace mpos::util
