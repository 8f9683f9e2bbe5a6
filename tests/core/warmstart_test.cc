/** @file Warm-start cache tests.
 *
 *  The warm-start cache is host-side policy: restoring a memoized
 *  end-of-warmup image must leave every measured statistic exactly as
 *  a cold run produces it. These tests pin that equivalence, the
 *  cross-process (on-disk) reuse path, the config-hash key's
 *  sensitivity rules, and the runner interactions (a failed job
 *  poisons its warm key; a per-job wall budget composes with warm
 *  starts).
 */

#include <gtest/gtest.h>

#include <string>

#include "core/runner.hh"
#include "core/warmcache.hh"
#include "util/error.hh"
#include "temp_path.hh"

using namespace mpos;
using namespace mpos::core;
using workload::WorkloadKind;

namespace
{

ExperimentConfig
quickConfig(WorkloadKind kind, uint64_t seed = 7)
{
    ExperimentConfig cfg;
    cfg.kind = kind;
    cfg.warmupCycles = 300000;
    cfg.measureCycles = 400000;
    cfg.options.seed = seed;
    return cfg;
}

/** Digest of everything an experiment measures, for exact compares. */
std::string
digest(Experiment &e)
{
    const sim::CycleAccount acc = e.account();
    char buf[256];
    std::snprintf(
        buf, sizeof buf,
        "elapsed=%llu misses=%llu cs=%llu tx=%llu "
        "user=%llu os=%llu idle=%llu io=%llu",
        (unsigned long long)e.elapsed(),
        (unsigned long long)e.misses().total(),
        (unsigned long long)e.kern().contextSwitches(),
        (unsigned long long)e.machine().monitor().transactions(),
        (unsigned long long)acc.total[0],
        (unsigned long long)acc.total[1],
        (unsigned long long)acc.total[2],
        (unsigned long long)e.osOpCount(sim::OsOp::IoSyscall));
    return buf;
}

std::string
runDigest(ExperimentConfig cfg, WarmStartCache *cache)
{
    cfg.warmCache = cache;
    Experiment e(cfg);
    e.run();
    return digest(e);
}

} // namespace

TEST(WarmKey, IgnoresMeasurePhaseKnobsOnly)
{
    const ExperimentConfig base = quickConfig(WorkloadKind::Pmake);
    const uint64_t key = Experiment(base).warmKey();

    // Measurement-phase knobs share the warm image.
    {
        ExperimentConfig c = base;
        c.measureCycles *= 2;
        c.collectMisses = false;
        c.timeoutSeconds = 99;
        EXPECT_EQ(Experiment(c).warmKey(), key);
    }
    // Anything event-affecting changes the key.
    {
        ExperimentConfig c = base;
        c.options.seed += 1;
        EXPECT_NE(Experiment(c).warmKey(), key);
    }
    {
        ExperimentConfig c = base;
        c.warmupCycles += 1;
        EXPECT_NE(Experiment(c).warmKey(), key);
    }
    {
        ExperimentConfig c = base;
        c.machine.numCpus = 2;
        EXPECT_NE(Experiment(c).warmKey(), key);
    }
    {
        ExperimentConfig c = base;
        c.kind = WorkloadKind::Multpgm;
        EXPECT_NE(Experiment(c).warmKey(), key);
    }
    {
        ExperimentConfig c = base;
        c.machine.lockPolicy = sim::LockPolicy::Ticket;
        EXPECT_NE(Experiment(c).warmKey(), key);
    }
}

TEST(WarmStart, WarmRunMatchesColdRunExactly)
{
    const ExperimentConfig cfg = quickConfig(WorkloadKind::Pmake);
    const std::string cold = runDigest(cfg, nullptr);

    WarmStartCache cache; // in-memory only
    // First cached run is a miss: it simulates the warmup, stores the
    // image, and must still measure exactly what the cold run did.
    EXPECT_EQ(runDigest(cfg, &cache), cold);
    EXPECT_EQ(cache.stats().misses, 1u);
    EXPECT_EQ(cache.stats().stores, 1u);

    // Second run restores the image instead of simulating the warmup.
    EXPECT_EQ(runDigest(cfg, &cache), cold);
    EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(WarmStart, EveryWorkloadKindRoundTrips)
{
    for (WorkloadKind kind :
         {WorkloadKind::Pmake, WorkloadKind::Multpgm,
          WorkloadKind::Oracle}) {
        const ExperimentConfig cfg = quickConfig(kind);
        WarmStartCache cache;
        const std::string cold = runDigest(cfg, &cache);
        EXPECT_EQ(runDigest(cfg, &cache), cold)
            << "kind " << unsigned(kind);
        EXPECT_EQ(cache.stats().hits, 1u) << "kind " << unsigned(kind);
    }
}

TEST(WarmStart, RestoredRunIsCheckerClean)
{
    // Regression: kernel boot emits idle-loop osEnter events before
    // any analysis observer attaches, and the checker (wired at
    // machine construction) sees them. A restored machine skips the
    // warmup that balances that stream, so the checker must drop its
    // stream-derived state at restore or it reports a phantom
    // "osEnter while already inside the OS" on the first CPU that
    // was in user mode at the snapshot point.
    ExperimentConfig cfg = quickConfig(WorkloadKind::Multpgm);
    cfg.machine.numCpus = 8;
    cfg.machine.check = true; // abort-on-violation: a false positive
                              // kills the test process
    WarmStartCache cache;
    const std::string cold = runDigest(cfg, &cache);
    EXPECT_EQ(runDigest(cfg, &cache), cold);
    EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(WarmStart, DiskCacheWarmsALaterProcess)
{
    // Fresh: images from an earlier run would satisfy the cold pass.
    const test::TempPath tmp("mpos_warm_disk", test::TempPath::Dir);
    const std::string &dir = tmp.path;
    const ExperimentConfig cfg = quickConfig(WorkloadKind::Multpgm);

    std::string cold;
    {
        WarmStartCache first(dir);
        cold = runDigest(cfg, &first);
        EXPECT_EQ(first.stats().stores, 1u);
        EXPECT_GT(first.stats().bytesWritten, 0u);
    }
    {
        // A fresh cache instance = a new process invocation: the only
        // way it can hit is through the on-disk image.
        WarmStartCache second(dir);
        EXPECT_EQ(runDigest(cfg, &second), cold);
        EXPECT_EQ(second.stats().hits, 1u);
        EXPECT_EQ(second.stats().misses, 0u);
        EXPECT_GT(second.stats().bytesRead, 0u);
    }
}

TEST(WarmStart, CorruptDiskImageIsAMissNotAnError)
{
    const test::TempPath tmp("mpos_warm_corrupt", test::TempPath::Dir);
    const std::string &dir = tmp.path;
    const ExperimentConfig cfg = quickConfig(WorkloadKind::Oracle);

    std::string cold;
    std::string path;
    {
        WarmStartCache first(dir);
        Experiment probe(cfg);
        cold = runDigest(cfg, &first);
        char name[32];
        std::snprintf(name, sizeof name, "warm-%016llx",
                      (unsigned long long)probe.warmKey());
        path = dir + "/" + name;
    }
    // Truncate the stored image; the next cache must fall back to a
    // cold warmup and still produce identical results.
    {
        FILE *f = fopen(path.c_str(), "w");
        ASSERT_NE(f, nullptr);
        fputs("not a snapshot", f);
        fclose(f);
    }
    WarmStartCache second(dir);
    EXPECT_EQ(runDigest(cfg, &second), cold);
    EXPECT_EQ(second.stats().hits, 0u);
    EXPECT_EQ(second.stats().misses, 1u);
}

TEST(WarmStart, FailedJobPoisonsItsWarmKey)
{
    // watchdogCycles is outside the warm key, so a job failed by a
    // one-cycle watchdog budget shares its key with a healthy twin.
    const ExperimentConfig cfg = quickConfig(WorkloadKind::Pmake);
    ExperimentConfig doomed = cfg;
    doomed.machine.watchdogCycles = 1;
    const uint64_t key = Experiment(cfg).warmKey();
    ASSERT_EQ(Experiment(doomed).warmKey(), key);

    WarmStartCache cache;
    RunnerOptions opt;
    opt.jobs = 1; // one worker: the jobs run in submission order
    opt.warmCache = &cache;
    ExperimentRunner r(opt);
    r.submit("cold", cfg);      // warms up and stores the image
    r.submit("doomed", doomed); // restores the image, then trips
    r.submit("after", cfg);     // must warm up from scratch
    r.waitAll();

    ASSERT_TRUE(r.result(0).ok()) << r.result(0).error;
    EXPECT_EQ(r.result(1).status, JobStatus::Failed);
    EXPECT_NE(r.result(1).error.find("watchdog-trip"), std::string::npos)
        << r.result(1).error;
    ASSERT_TRUE(r.result(2).ok()) << r.result(2).error;
    EXPECT_TRUE(cache.poisoned(key));
    // Only the doomed job was served the image; the job after it
    // missed and re-simulated the warmup, with identical results.
    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_EQ(cache.stats().misses, 2u);
    EXPECT_EQ(digest(r.get("after")), digest(r.get("cold")));
}

TEST(WarmStart, JobTimeoutComposesWithWarmStarts)
{
    const ExperimentConfig cfg = quickConfig(WorkloadKind::Multpgm);
    WarmStartCache cache;

    RunnerOptions opt;
    opt.jobs = 1;
    opt.jobTimeoutSec = 300; // generous: exercises wiring, not racing
    opt.warmCache = &cache;

    ExperimentRunner r(opt);
    r.submit("cold", cfg);
    r.submit("warm", cfg);
    r.waitAll();

    EXPECT_TRUE(r.result(0).ok()) << r.result(0).error;
    EXPECT_TRUE(r.result(1).ok()) << r.result(1).error;
    EXPECT_EQ(cache.stats().misses, 1u);
    EXPECT_EQ(cache.stats().hits, 1u);

    // Identical measured output either way.
    char a[128], b[128];
    std::snprintf(a, sizeof a, "%llu/%llu",
                  (unsigned long long)r.get("cold").elapsed(),
                  (unsigned long long)r.get("cold").misses().total());
    std::snprintf(b, sizeof b, "%llu/%llu",
                  (unsigned long long)r.get("warm").elapsed(),
                  (unsigned long long)r.get("warm").misses().total());
    EXPECT_STREQ(a, b);
}
