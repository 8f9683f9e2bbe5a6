/**
 * @file
 * Scaling study: MSI vs MESI at 8-64 CPUs (Section 6 extrapolation).
 * For each protocol x CPU count the table reports lock contention
 * (Runqlk failed acquires per ms, the paper's Figure 11 metric),
 * OS misses per 1k non-idle cycles, the Sharing share of OS misses,
 * and the kernel stall fraction. Shape: contention and sharing
 * misses grow superlinearly with CPUs; MESI's exclusive state trims
 * upgrade traffic on private lines, so its stall fraction stays
 * slightly below MSI's at every machine size.
 */

#include "bench/analyses.hh"

using namespace mpos;
using core::MissClass;
using sim::Protocol;

namespace
{

constexpr uint32_t cpuCounts[] = {8, 16, 32, 64};
constexpr Protocol protocols[] = {Protocol::Mesi, Protocol::Msi};

std::string
jobName(Protocol p, uint32_t ncpu)
{
    return std::string("scaling/") + sim::protocolName(p) + "/cpus" +
           std::to_string(ncpu);
}

} // namespace

void
mpos::bench::prepare_scaling(BenchContext &ctx)
{
    for (const Protocol p : protocols) {
        for (const uint32_t ncpu : cpuCounts) {
            auto cfg = standardConfig(workload::WorkloadKind::Multpgm);
            scaleToCpus(cfg, ncpu);
            cfg.machine.protocol = p;
            // A quarter of the standard budget per cell keeps the
            // 8-cell sweep close to one standard run's cost.
            cfg.measureCycles /= 4;
            ctx.submit(jobName(p, ncpu), cfg);
        }
    }
}

void
mpos::bench::run_scaling(BenchContext &ctx)
{
    prepare_scaling(ctx);

    core::banner("Scaling study: MSI vs MESI at 8-64 CPUs "
                 "(Multpgm)");
    core::shapeNote();

    util::TextTable t;
    t.header({"Protocol", "CPUs", "Runqlk fails/ms",
              "OS miss/1k cyc", "Sharing %", "Kstall %"});

    for (const Protocol p : protocols) {
        for (const uint32_t ncpu : cpuCounts) {
            auto &exp = ctx.get(jobName(p, ncpu));
            const auto &mc = exp.misses();
            const double osAll = double(mc.osTotal());
            const double sharingPct =
                osAll ? 100.0 *
                            double(mc.osD[unsigned(
                                MissClass::Sharing)]) /
                            osAll
                      : 0.0;
            const auto acct = exp.account();
            const double nonIdle = double(acct.nonIdle());
            const double missPerK =
                nonIdle ? 1000.0 * osAll / nonIdle : 0.0;
            const double kstallPct =
                acct.kernel()
                    ? 100.0 *
                          double(acct.stall[unsigned(
                              sim::ExecMode::Kernel)]) /
                          double(acct.kernel())
                    : 0.0;
            t.row({sim::protocolName(p), std::to_string(ncpu),
                   core::fmt2(exp.lockStats().failsPerMs(
                       kernel::Runqlk, exp.elapsed())),
                   core::fmt2(missPerK), core::fmt1(sharingPct),
                   core::fmt1(kstallPct)});
        }
        t.rule();
    }
    t.print();
    std::printf("\nPaper shape: lock contention and kernel stall "
                "grow with CPU count\nuntil the run queue saturates; "
                "MESI avoids upgrade traffic on\nunshared lines, so "
                "it tracks at or below MSI in kernel stall,\nwith "
                "the gap largest at small CPU counts where private "
                "lines\ndominate.\n");
}
