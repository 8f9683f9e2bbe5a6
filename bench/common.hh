/**
 * @file
 * Shared helpers for the bench binaries: the options one bench run is
 * configured by, the standard experiment configuration built from
 * them, and the paper-vs-measured table conventions.
 *
 * Environment knobs, read once by BenchOptions::fromEnvironment();
 * mpos_bench's flags override them:
 *   MPOS_CYCLES       - measured cycles per CPU (default 20,000,000)
 *   MPOS_WARMUP       - warmup cycles (default 8,000,000)
 *   MPOS_SEED         - workload seed (default 7)
 *   MPOS_JOBS         - host threads for parallel experiment jobs, as
 *                       --jobs (0 = all cores)
 *   MPOS_SNAPSHOT_DIR - warm-start cache directory, as --snapshot-dir
 */

#ifndef MPOS_BENCH_COMMON_HH
#define MPOS_BENCH_COMMON_HH

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "core/experiment.hh"
#include "core/migration.hh"
#include "core/report.hh"
#include "util/cli.hh"
#include "util/table.hh"

namespace mpos::bench
{

/** Largest --jobs value: far more threads than any host has cores. */
inline constexpr unsigned maxJobs = 1024;

/** Observability switches applied to every simulation job. */
struct ObsOptions
{
    bool trace = false;   ///< JSONL trace per job (--trace).
    bool metrics = false; ///< Time-sliced metrics (--metrics).
    bool profile = false; ///< Routine profiler (--profile).
    /** Output directory for traces/profiles (--obs-dir). */
    std::string dir = "mpos_bench_obs";

    bool any() const { return trace || metrics || profile; }
};

/**
 * Everything one bench run is configured by: the standard jobs'
 * lengths, seed and machine, the runner's policy and the switches
 * applied to every job. mpos_bench builds it once, from the
 * environment and then its flags; nothing reads the environment
 * after that.
 */
struct BenchOptions
{
    uint64_t measureCycles = 20000000; ///< Per CPU (MPOS_CYCLES).
    uint64_t warmupCycles = 8000000;   ///< MPOS_WARMUP.
    uint64_t seed = 7;                 ///< Workload seed (MPOS_SEED).
    sim::Protocol protocol = sim::Protocol::Mesi; ///< --protocol.
    sim::LockPolicy lockPolicy =
        sim::LockPolicy::TestAndSet; ///< --lock-proto.
    uint32_t assoc = 1; ///< D-cache ways, L1 and L2 (--assoc).
    uint32_t cpus = 4;  ///< Simulated CPUs (--cpus).
    /** Host worker threads, 0 = all cores (MPOS_JOBS, --jobs). */
    unsigned jobs = 0;
    double jobTimeout = 0; ///< Per-job wall budget (s), 0 = none.
    /** Warm-start cache, empty = off (MPOS_SNAPSHOT_DIR). */
    std::string snapshotDir;
    bool check = false;   ///< Invariant checkers on every job.
    /**
     * Job given the smallest positive wall budget, so it times out at
     * its first slice boundary (--fault-job, for the failure paths).
     */
    std::string faultJob;
    ObsOptions obs;

    /**
     * base (or the defaults above), with each MPOS_* knob that is set
     * applied over it; the numbers follow util::wholeNumber's rules
     * (exit 2 naming the variable). Reads the environment on every
     * call.
     */
    static BenchOptions fromEnvironment(BenchOptions base);
    static BenchOptions
    fromEnvironment()
    {
        return fromEnvironment(BenchOptions());
    }
};

inline BenchOptions
BenchOptions::fromEnvironment(BenchOptions base)
{
    auto number = [](const char *name, uint64_t def, uint64_t hi) {
        const char *v = std::getenv(name);
        return v ? util::wholeNumber("mpos_bench", name, v, 0, hi) : def;
    };
    base.measureCycles =
        number("MPOS_CYCLES", base.measureCycles, UINT64_MAX);
    base.warmupCycles = number("MPOS_WARMUP", base.warmupCycles, UINT64_MAX);
    base.seed = number("MPOS_SEED", base.seed, UINT64_MAX);
    base.jobs = unsigned(number("MPOS_JOBS", base.jobs, maxJobs));
    if (const char *v = std::getenv("MPOS_SNAPSHOT_DIR"))
        base.snapshotDir = v;
    return base;
}

/**
 * Retarget an experiment at an N-CPU machine: CPU count, a
 * proportionally bigger workload, and a process table wide enough
 * for the extra jobs. Identity at the measured machine's size
 * (<= 4 CPUs), so default goldens are unaffected.
 */
inline void
scaleToCpus(core::ExperimentConfig &cfg, uint32_t ncpus)
{
    cfg.machine.numCpus = ncpus;
    cfg.options = workload::scaledOptions(cfg.options, ncpus);
    if (ncpus <= 4)
        return;
    const uint32_t f = ncpus / 4;
    cfg.kernelCfg.layout.maxProcs = std::min<uint32_t>(256, 64 * f);
    // Keep the 4-CPU runs' page-pool pressure ratio: the pool grows
    // with the process count (scaledOptions tops out near 10x), and
    // physical memory doubles on the biggest machines so the larger
    // pool still fits beside the kernel image. The kernel clamps the
    // request to the pages the layout actually has, so an oversized
    // ask degrades to "no pressure cap" rather than failing.
    cfg.useRecommendedPool = false;
    cfg.kernelCfg.userPoolPages =
        workload::Workload::recommendedPoolPages(cfg.kind) *
        std::min<uint32_t>(f, 10);
    if (ncpus >= 32)
        cfg.machine.memBytes *= 2;
}

/** The standard experiment configuration of a workload under o. */
inline core::ExperimentConfig
standardConfig(workload::WorkloadKind kind, const BenchOptions &o)
{
    core::ExperimentConfig cfg;
    cfg.kind = kind;
    cfg.measureCycles = o.measureCycles;
    cfg.warmupCycles = o.warmupCycles;
    cfg.options.seed = o.seed;
    cfg.machine.protocol = o.protocol;
    cfg.machine.lockPolicy = o.lockPolicy;
    cfg.machine.l1dAssoc = o.assoc;
    cfg.machine.l2dAssoc = o.assoc;
    scaleToCpus(cfg, o.cpus);
    return cfg;
}

/**
 * perfbench's entry point: the standard configuration under the
 * environment as it is now. perfbench sets a new MPOS_SEED between
 * repetitions, so this reads it on every call. Remove once perfbench
 * passes a BenchOptions.
 */
inline core::ExperimentConfig
standardConfig(workload::WorkloadKind kind)
{
    return standardConfig(kind, BenchOptions::fromEnvironment());
}

/** The three paper workloads, in paper order. */
inline const workload::WorkloadKind allWorkloads[3] = {
    workload::WorkloadKind::Pmake,
    workload::WorkloadKind::Multpgm,
    workload::WorkloadKind::Oracle,
};

} // namespace mpos::bench

#endif // MPOS_BENCH_COMMON_HH
