/** @file ExperimentRunner resilience tests.
 *
 *  A failing job must not take the sweep down with it: its loss is
 *  recorded (status/error), siblings are untouched and stay
 *  byte-identical, and a per-job wall-clock budget turns a runaway run
 *  into a typed timeout.
 */

#include <gtest/gtest.h>

#include <string>

#include "core/runner.hh"
#include "util/error.hh"

using namespace mpos;
using namespace mpos::core;
using mpos::util::ErrCode;
using mpos::util::SimError;
using workload::WorkloadKind;

namespace
{

ExperimentConfig
quickConfig(WorkloadKind kind, sim::Cycle cycles, uint64_t seed = 7)
{
    ExperimentConfig cfg;
    cfg.kind = kind;
    cfg.warmupCycles = 300000;
    cfg.measureCycles = cycles;
    cfg.options.seed = seed;
    return cfg;
}

/** Give cfg a two-slot process table: Pmake spawns more processes
 *  than that, so the job fails with ResourceExhausted, the same way
 *  every run, with no wall clock involved. */
void
armGuaranteedFailure(ExperimentConfig &cfg)
{
    cfg.kernelCfg.layout.maxProcs = 2;
}

/** Digest of one experiment, for byte-identical comparisons. */
std::string
digest(Experiment &e)
{
    char buf[128];
    std::snprintf(buf, sizeof buf, "elapsed=%llu total=%llu cs=%llu",
                  (unsigned long long)e.elapsed(),
                  (unsigned long long)e.misses().total(),
                  (unsigned long long)e.kern().contextSwitches());
    return buf;
}

} // namespace

TEST(RunnerResilience, JobFailureSurfacesStatusNotException)
{
    ExperimentRunner r(1);
    auto bad = quickConfig(WorkloadKind::Pmake, 400000);
    armGuaranteedFailure(bad);
    r.submit("doomed", bad);

    const ExperimentResult &res = r.result(0); // must not throw
    EXPECT_EQ(res.status, JobStatus::Failed);
    EXPECT_FALSE(res.ok());
    EXPECT_EQ(res.exp, nullptr);
    EXPECT_NE(res.error.find("resource-exhausted"), std::string::npos)
        << res.error;

    // get() on a failed job raises a typed error, not a crash.
    try {
        r.get("doomed");
        FAIL() << "get() on a failed job must throw";
    } catch (const SimError &e) {
        EXPECT_EQ(e.code(), ErrCode::JobFailed);
    }
}

TEST(RunnerResilience, SiblingJobsSurviveAndStayByteIdentical)
{
    // A reference runner with only the good job...
    ExperimentRunner clean(1);
    clean.submit("good", quickConfig(WorkloadKind::Multpgm, 400000));
    const std::string golden = digest(clean.get("good"));

    // ...and a mixed runner where a sibling dies mid-sweep.
    ExperimentRunner mixed(2);
    auto bad = quickConfig(WorkloadKind::Pmake, 400000);
    armGuaranteedFailure(bad);
    mixed.submit("doomed", bad);
    mixed.submit("good", quickConfig(WorkloadKind::Multpgm, 400000));

    EXPECT_FALSE(mixed.result(0).ok());
    EXPECT_TRUE(mixed.result(1).ok());
    EXPECT_EQ(digest(mixed.get("good")), golden);
    EXPECT_EQ(mixed.failedCount(), 1u);
}

TEST(RunnerResilience, TimeoutReportedAsTypedStatus)
{
    RunnerOptions opt;
    opt.jobs = 1;
    opt.jobTimeoutSec = 0.01; // far less than a 3M-cycle run needs
    ExperimentRunner r(opt);
    r.submit("slow", quickConfig(WorkloadKind::Pmake, 3000000));

    const ExperimentResult &res = r.result(0);
    EXPECT_EQ(res.status, JobStatus::TimedOut);
    EXPECT_NE(res.error.find("timeout"), std::string::npos)
        << res.error;
    EXPECT_EQ(res.exp, nullptr);
}

TEST(RunnerResilience, DuplicateSubmitRaisesBadConfig)
{
    ExperimentRunner r(1);
    r.submit("dup", quickConfig(WorkloadKind::Oracle, 200000));
    try {
        r.submit("dup", quickConfig(WorkloadKind::Oracle, 200000));
        FAIL() << "duplicate submit must throw";
    } catch (const SimError &e) {
        EXPECT_EQ(e.code(), ErrCode::BadConfig);
    }
}
