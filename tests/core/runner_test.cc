/** @file ExperimentRunner tests.
 *
 *  The load-bearing property is the golden check: because every
 *  Experiment is deterministic and results come back in submission
 *  order, a serialization of the whole batch must be byte-identical
 *  whether the runner used 1 host thread or 4.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <stdexcept>
#include <string>

#include "core/runner.hh"

using namespace mpos;
using namespace mpos::core;
using workload::WorkloadKind;

namespace
{

ExperimentConfig
quickConfig(WorkloadKind kind, sim::Cycle cycles, uint64_t seed = 7)
{
    ExperimentConfig cfg;
    cfg.kind = kind;
    cfg.warmupCycles = 500000;
    cfg.measureCycles = cycles;
    cfg.options.seed = seed;
    return cfg;
}

void
submitBatch(ExperimentRunner &r)
{
    r.submit("pmake", quickConfig(WorkloadKind::Pmake, 1500000));
    r.submit("multpgm", quickConfig(WorkloadKind::Multpgm, 1200000));
    r.submit("oracle", quickConfig(WorkloadKind::Oracle, 1000000));
    r.submit("pmake-seed9",
             quickConfig(WorkloadKind::Pmake, 1500000, 9));
}

/** Byte-exact digest of everything an analysis could print. */
std::string
serializeBatch(ExperimentRunner &r)
{
    std::string out;
    char buf[256];
    for (const auto &res : r.results()) {
        const auto &mc = res.exp->misses();
        std::snprintf(
            buf, sizeof buf,
            "%s elapsed=%llu total=%llu os=%llu osI=%llu cs=%llu "
            "migr=%llu\n",
            res.name.c_str(),
            (unsigned long long)res.exp->elapsed(),
            (unsigned long long)mc.total(),
            (unsigned long long)mc.osTotal(),
            (unsigned long long)mc.osITotal(),
            (unsigned long long)res.exp->kern().contextSwitches(),
            (unsigned long long)res.exp->kern().migrations());
        out += buf;
    }
    return out;
}

} // namespace

TEST(ExperimentRunner, GoldenOutputIndependentOfThreadCount)
{
    ExperimentRunner serial(1);
    ASSERT_EQ(serial.jobs(), 1u);
    submitBatch(serial);
    const std::string golden = serializeBatch(serial);

    ExperimentRunner parallel(4);
    ASSERT_EQ(parallel.jobs(), 4u);
    submitBatch(parallel);
    const std::string got = serializeBatch(parallel);

    EXPECT_EQ(golden, got); // byte-identical, not just "close"
    EXPECT_NE(golden.find("pmake elapsed="), std::string::npos);
}

TEST(ExperimentRunner, ResultsKeepSubmissionOrder)
{
    ExperimentRunner r(4);
    submitBatch(r);
    const auto &slots = r.results();
    ASSERT_EQ(slots.size(), 4u);
    EXPECT_EQ(slots[0].name, "pmake");
    EXPECT_EQ(slots[1].name, "multpgm");
    EXPECT_EQ(slots[2].name, "oracle");
    EXPECT_EQ(slots[3].name, "pmake-seed9");
    for (const auto &s : slots) {
        EXPECT_NE(s.exp, nullptr);
        EXPECT_GT(s.wallSeconds, 0.0);
    }
}

TEST(ExperimentRunner, FindAndNamedGet)
{
    ExperimentRunner r(2);
    const size_t idx =
        r.submit("one", quickConfig(WorkloadKind::Pmake, 800000));
    EXPECT_EQ(r.find("one"), idx);
    EXPECT_EQ(r.find("nope"), ExperimentRunner::npos);
    Experiment &byName = r.get("one");
    Experiment &byIdx = r.get(idx);
    EXPECT_EQ(&byName, &byIdx);
    EXPECT_GT(byName.elapsed(), 0u);
}

TEST(ExperimentRunner, SeedChangesResults)
{
    // Guards the golden test against vacuity: different configs must
    // actually produce different digests.
    ExperimentRunner r(2);
    r.submit("a", quickConfig(WorkloadKind::Pmake, 1500000, 7));
    r.submit("b", quickConfig(WorkloadKind::Pmake, 1500000, 9));
    r.waitAll();
    EXPECT_NE(r.get("a").misses().total(),
              r.get("b").misses().total());
}

TEST(ExperimentRunner, PoolTaskRunsBehindQueuedJobs)
{
    // Analyses submit work to the runner's own pool from the main
    // thread while jobs are still queued. The task queues behind
    // them and completes, also on a 1-thread pool.
    for (const unsigned jobs : {1u, 2u}) {
        ExperimentRunner r(jobs);
        r.submit("a", quickConfig(WorkloadKind::Pmake, 600000));
        r.submit("b", quickConfig(WorkloadKind::Oracle, 600000));
        r.submit("c", quickConfig(WorkloadKind::Multpgm, 600000));
        auto task = r.threadPool().submit([] { return 42; });
        ASSERT_EQ(task.wait_for(std::chrono::seconds(120)),
                  std::future_status::ready)
            << "pool task never ran at --jobs " << jobs;
        EXPECT_EQ(task.get(), 42);
        EXPECT_EQ(r.failedCount(), 0u);
    }
}

TEST(ExperimentRunner, PoolTaskExceptionReachesCaller)
{
    ExperimentRunner r(1);
    auto task = r.threadPool().submit(
        []() -> int { throw std::runtime_error("replay failed"); });
    try {
        task.get();
        FAIL() << "the task's exception was lost";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "replay failed");
    }
    // The worker survives the throw: a later job still runs.
    r.submit("after", quickConfig(WorkloadKind::Pmake, 600000));
    EXPECT_GT(r.get("after").elapsed(), 0u);
}
