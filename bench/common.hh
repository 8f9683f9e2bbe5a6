/**
 * @file
 * Shared helpers for the bench binaries: standard experiment
 * configuration (overridable through environment variables), and the
 * paper-vs-measured table conventions.
 *
 * Environment knobs:
 *   MPOS_CYCLES   - measured cycles per CPU (default 20,000,000)
 *   MPOS_WARMUP   - warmup cycles (default 8,000,000)
 *   MPOS_SEED     - workload seed (default 7)
 *   MPOS_JOBS     - host threads for parallel experiment jobs, read
 *                   by mpos_bench as --jobs (0 = all cores)
 *   MPOS_PROTOCOL - coherence protocol: mesi (default), msi, mi
 *   MPOS_LOCK_PROTO - lock primitive: tas (default), ticket, mcs,
 *                     futex, rcu
 *   MPOS_ASSOC    - D-cache associativity (L1 and L2; default 1)
 *   MPOS_CPUS     - simulated CPU count (default 4)
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

/** A whole-number environment knob up to hi, or def when unset. */
inline uint64_t
envOr(const char *name, uint64_t def, uint64_t hi = UINT64_MAX)
{
    const char *v = std::getenv(name);
    return v ? util::wholeNumber("mpos_bench", name, v, 0, hi) : def;
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

/** Standard experiment configuration for a workload. */
inline core::ExperimentConfig
standardConfig(workload::WorkloadKind kind)
{
    core::ExperimentConfig cfg;
    cfg.kind = kind;
    cfg.measureCycles = envOr("MPOS_CYCLES", 20000000);
    cfg.warmupCycles = envOr("MPOS_WARMUP", 8000000);
    cfg.options.seed = envOr("MPOS_SEED", 7);
    if (const char *p = std::getenv("MPOS_PROTOCOL")) {
        if (!sim::parseProtocol(p, cfg.machine.protocol)) {
            std::fprintf(stderr,
                         "mpos_bench: unknown MPOS_PROTOCOL '%s' "
                         "(mesi, msi or mi)\n", p);
            std::exit(2);
        }
    }
    if (const char *p = std::getenv("MPOS_LOCK_PROTO")) {
        if (!sim::parseLockPolicy(p, cfg.machine.lockPolicy)) {
            std::fprintf(stderr,
                         "mpos_bench: unknown MPOS_LOCK_PROTO '%s' "
                         "(tas, ticket, mcs, futex or rcu)\n", p);
            std::exit(2);
        }
    }
    // 0 = unset; above UINT32_MAX would wrap in the machine config.
    if (const uint64_t assoc = envOr("MPOS_ASSOC", 0, UINT32_MAX)) {
        cfg.machine.l1dAssoc = uint32_t(assoc);
        cfg.machine.l2dAssoc = uint32_t(assoc);
    }
    if (const uint64_t ncpus = envOr("MPOS_CPUS", 0, UINT32_MAX))
        scaleToCpus(cfg, uint32_t(ncpus));
    return cfg;
}

/** The three paper workloads, in paper order. */
inline const workload::WorkloadKind allWorkloads[3] = {
    workload::WorkloadKind::Pmake,
    workload::WorkloadKind::Multpgm,
    workload::WorkloadKind::Oracle,
};

} // namespace mpos::bench

#endif // MPOS_BENCH_COMMON_HH
