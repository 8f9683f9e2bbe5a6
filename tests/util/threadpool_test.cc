/** @file Host thread-pool tests: future delivery, FIFO draining,
 *  exception propagation, degenerate single-thread operation, and
 *  zero meaning all cores. */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <future>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/threadpool.hh"

using mpos::util::ThreadPool;

TEST(ThreadPool, DeliversResultsThroughFutures)
{
    ThreadPool pool(4);
    std::vector<std::future<int>> futs;
    for (int i = 0; i < 64; ++i)
        futs.push_back(pool.submit([i] { return i * i; }));
    for (int i = 0; i < 64; ++i)
        EXPECT_EQ(futs[size_t(i)].get(), i * i);
}

TEST(ThreadPool, SingleThreadRunsInSubmissionOrder)
{
    ThreadPool pool(1);
    EXPECT_EQ(pool.threads(), 1u);
    std::vector<int> order;
    std::vector<std::future<void>> futs;
    for (int i = 0; i < 16; ++i)
        futs.push_back(pool.submit([i, &order] { order.push_back(i); }));
    for (auto &f : futs)
        f.get();
    ASSERT_EQ(order.size(), 16u);
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(order[size_t(i)], i); // FIFO on one worker
}

TEST(ThreadPool, PropagatesExceptions)
{
    ThreadPool pool(2);
    auto bad = pool.submit(
        []() -> int { throw std::runtime_error("boom"); });
    auto good = pool.submit([] { return 42; });
    EXPECT_THROW(bad.get(), std::runtime_error);
    EXPECT_EQ(good.get(), 42); // pool survives a throwing task
}

TEST(ThreadPool, RunsTasksConcurrently)
{
    // All four tasks block until all four have started; this can only
    // complete if four workers really run at once (even on one CPU,
    // the OS interleaves blocked threads).
    ThreadPool pool(4);
    std::mutex m;
    std::condition_variable cv;
    int started = 0;
    std::vector<std::future<void>> futs;
    for (int i = 0; i < 4; ++i) {
        futs.push_back(pool.submit([&] {
            std::unique_lock<std::mutex> lock(m);
            ++started;
            cv.notify_all();
            cv.wait(lock, [&] { return started == 4; });
        }));
    }
    for (auto &f : futs)
        f.get();
    EXPECT_EQ(started, 4);
}

TEST(ThreadPool, ThrowingJobKeepsWorkerAndOrderAlive)
{
    // One worker, a throwing job in the middle of the queue: the
    // exception must land in the thrower's future only, the worker
    // must survive to run everything behind it, and the later
    // futures' submission-order slots must be intact.
    ThreadPool pool(1);
    std::vector<std::future<int>> futs;
    for (int i = 0; i < 4; ++i)
        futs.push_back(pool.submit([i] { return i; }));
    auto bad = pool.submit(
        []() -> int { throw std::runtime_error("mid-queue boom"); });
    for (int i = 4; i < 8; ++i)
        futs.push_back(pool.submit([i] { return i; }));

    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(futs[size_t(i)].get(), i);
    try {
        bad.get();
        FAIL() << "throwing job lost its exception";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "mid-queue boom");
    }
    // The pool is still a working pool.
    EXPECT_EQ(pool.submit([] { return 99; }).get(), 99);
}

TEST(ThreadPool, DestructorDrainsQueue)
{
    std::atomic<int> ran{0};
    {
        ThreadPool pool(1);
        for (int i = 0; i < 32; ++i)
            pool.submit([&ran] { ++ran; });
        // No get(): destruction must still run everything queued.
    }
    EXPECT_EQ(ran.load(), 32);
}

TEST(ThreadPool, ZeroThreadsMeansAllCores)
{
    // The pool reads no environment: MPOS_JOBS is mpos_bench's knob,
    // parsed there by --jobs' rule.
    setenv("MPOS_JOBS", "3", 1);
    ThreadPool pool(0);
    EXPECT_EQ(pool.threads(),
              std::max(1u, std::thread::hardware_concurrency()));
    unsetenv("MPOS_JOBS");
}

TEST(ThreadPool, DestructionDrainsTasksStillQueuedBehindABlocker)
{
    // Stronger than DestructorDrainsQueue: a gate guarantees the
    // later tasks are queued-but-unstarted when the destructor
    // begins, and a helper thread only opens the gate after the
    // destructor is already draining.
    std::atomic<int> ran{0};
    std::promise<void> gate;
    std::shared_future<void> open = gate.get_future().share();
    std::thread releaser;
    {
        ThreadPool pool(1);
        pool.submit([open] { open.wait(); });
        for (int i = 0; i < 8; ++i)
            pool.submit([&ran] { ++ran; });
        EXPECT_EQ(ran.load(), 0); // all 8 still queued behind the gate
        releaser = std::thread([&gate] {
            std::this_thread::sleep_for(std::chrono::milliseconds(50));
            gate.set_value();
        });
        // ~ThreadPool runs here with the queue still full.
    }
    releaser.join();
    EXPECT_EQ(ran.load(), 8);
}

TEST(ThreadPool, TasksThrowingDuringDestructionAreContained)
{
    // Tasks that throw while the pool is being torn down must deliver
    // their exceptions through their futures -- not escape into the
    // destructor (which would terminate) and not get dropped.
    std::promise<void> gate;
    std::shared_future<void> open = gate.get_future().share();
    std::vector<std::future<void>> futs;
    std::thread releaser;
    {
        ThreadPool pool(2);
        for (int i = 0; i < 6; ++i)
            futs.push_back(pool.submit([open] {
                open.wait();
                throw std::runtime_error("destruction boom");
            }));
        releaser = std::thread([&gate] {
            std::this_thread::sleep_for(std::chrono::milliseconds(50));
            gate.set_value();
        });
        // ~ThreadPool drains the six throwing tasks.
    }
    releaser.join();
    for (auto &f : futs) {
        try {
            f.get();
            FAIL() << "a task destroyed with the pool lost its "
                      "exception";
        } catch (const std::runtime_error &e) {
            EXPECT_STREQ(e.what(), "destruction boom");
        }
    }
}
