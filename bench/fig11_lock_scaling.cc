/**
 * @file
 * Figure 11: lock contention as the number of CPUs grows, measured
 * as failed acquire episodes per millisecond for the most contended
 * locks in Multpgm. Shape: contention grows with CPU count and
 * Runqlk grows fastest, foreshadowing its bottleneck on larger
 * machines (Section 6).
 */

#include "bench/analyses.hh"

using namespace mpos;
using kernel::Memlock;
using kernel::Runqlk;

namespace
{

constexpr uint32_t cpuCounts[] = {1, 2, 4, 6, 8};

std::string
jobName(uint32_t ncpu)
{
    return "fig11/cpus" + std::to_string(ncpu);
}

} // namespace

void
mpos::bench::prepare_fig11(BenchContext &ctx)
{
    for (const uint32_t ncpu : cpuCounts) {
        auto cfg = standardConfig(workload::WorkloadKind::Multpgm);
        cfg.machine.numCpus = ncpu;
        cfg.collectMisses = false; // only lock stats needed
        cfg.measureCycles /= 2;
        ctx.submit(jobName(ncpu), cfg);
    }
}

void
mpos::bench::run_fig11(BenchContext &ctx)
{
    prepare_fig11(ctx);

    core::banner("Figure 11: failed lock acquires per ms vs CPUs "
                 "(Multpgm)");
    core::shapeNote();

    util::TextTable t;
    t.header({"CPUs", "Runqlk fails/ms", "Memlock fails/ms",
              "Bfreelock fails/ms"});

    for (const uint32_t ncpu : cpuCounts) {
        auto &exp = ctx.get(jobName(ncpu));
        const auto &ls = exp.lockStats();
        t.row({std::to_string(ncpu),
               core::fmt2(ls.failsPerMs(Runqlk, exp.elapsed())),
               core::fmt2(ls.failsPerMs(Memlock, exp.elapsed())),
               core::fmt2(ls.failsPerMs(kernel::Bfreelock,
                                        exp.elapsed()))});
    }
    t.print();
    std::printf("\nPaper shape: failed acquires/ms rise steadily "
                "with CPU count; Runqlk steepest\n(its contention "
                "'will be significant for machines with more "
                "CPUs').\n");
}
