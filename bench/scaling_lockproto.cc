/**
 * @file
 * Lock-primitive study: the paper's Section 5 lock figures re-measured
 * under each selectable kernel lock policy (test-and-set, ticket, MCS,
 * futex, RCU read path) at 4-64 CPUs. For each primitive x CPU count
 * the first table reports run-queue contention (failed-acquire
 * episodes per ms), the Runqlk wait-time distribution's mean and max,
 * the contended-release hand-off latency, and total sync-transport
 * operations under both lock-access models per 1k non-idle cycles.
 * The second table breaks the 16-CPU wait-time distribution into
 * log2-bucket bands. Shape: ticket and MCS trade a slightly higher
 * uncontended cost for bounded waiting (lower max wait); MCS cuts
 * cached-model bus ops under contention by spinning on a local queue
 * node; the futex policy only changes user locks (kernel locks cannot
 * sleep); RCU removes read-side sync ops on the inode tables entirely.
 */

#include "bench/analyses.hh"

using namespace mpos;
using sim::LockPolicy;

namespace
{

constexpr uint32_t cpuCounts[] = {4, 8, 16, 32, 64};
constexpr LockPolicy policies[] = {
    LockPolicy::TestAndSet, LockPolicy::Ticket, LockPolicy::Mcs,
    LockPolicy::Futex, LockPolicy::Rcu,
};

std::string
jobName(LockPolicy p, uint32_t ncpu)
{
    return std::string("lockproto/") + sim::lockPolicyName(p) +
           "/cpus" + std::to_string(ncpu);
}

/** Share of wait samples whose log2 bucket lies in [lo, hi]. */
double
bandPct(const core::LockProfile &p, unsigned lo, unsigned hi)
{
    if (!p.waitCount)
        return 0.0;
    uint64_t n = 0;
    for (unsigned b = lo; b <= hi && b < 32; ++b)
        n += p.waitHist[b];
    return 100.0 * double(n) / double(p.waitCount);
}

} // namespace

void
mpos::bench::prepare_lockproto(BenchContext &ctx)
{
    for (const LockPolicy p : policies) {
        for (const uint32_t ncpu : cpuCounts) {
            auto cfg = standardConfig(workload::WorkloadKind::Multpgm,
                                      ctx.options());
            scaleToCpus(cfg, ncpu);
            cfg.machine.lockPolicy = p;
            // An eighth of the standard budget per cell keeps the
            // 25-cell sweep close to three standard runs' cost.
            cfg.measureCycles /= 8;
            ctx.submit(jobName(p, ncpu), cfg);
        }
    }
}

void
mpos::bench::run_lockproto(BenchContext &ctx)
{
    prepare_lockproto(ctx);

    core::banner("Lock primitives: wait time, hand-off and sync ops "
                 "at 4-64 CPUs (Multpgm)");
    core::shapeNote();

    util::TextTable t;
    t.header({"Primitive", "CPUs", "Runqlk fails/ms", "Mean wait",
              "Max wait", "Hand-off", "Sync ops/1k", "Cached ops/1k"});

    for (const LockPolicy p : policies) {
        for (const uint32_t ncpu : cpuCounts) {
            auto &exp = ctx.get(jobName(p, ncpu));
            const auto &rq = exp.lockStats().profile(kernel::Runqlk);
            const auto &st = exp.machine().sync();
            const auto ops = st.sumOps(st.numLocks());
            const double nonIdle = double(exp.account().nonIdle());
            const double uncPerK =
                nonIdle ? 1000.0 * double(ops.uncachedOps) / nonIdle
                        : 0.0;
            const double cacPerK =
                nonIdle ? 1000.0 * double(ops.cachedOps) / nonIdle
                        : 0.0;
            t.row({sim::lockPolicyName(p), std::to_string(ncpu),
                   core::fmt2(exp.lockStats().failsPerMs(
                       kernel::Runqlk, exp.elapsed())),
                   core::fmt1(rq.meanWait()),
                   std::to_string(
                       static_cast<unsigned long long>(rq.waitMax)),
                   core::fmt1(rq.meanHandoff()), core::fmt2(uncPerK),
                   core::fmt2(cacPerK)});
        }
        t.rule();
    }
    t.print();

    std::printf("\nRunqlk wait-time distribution at 16 CPUs "
                "(%% of contended acquires):\n");
    util::TextTable d;
    d.header({"Primitive", "<256 cyc", "256-4k", "4k-64k", ">64k"});
    for (const LockPolicy p : policies) {
        auto &exp = ctx.get(jobName(p, 16));
        const auto &rq = exp.lockStats().profile(kernel::Runqlk);
        d.row({sim::lockPolicyName(p), core::fmt1(bandPct(rq, 0, 7)),
               core::fmt1(bandPct(rq, 8, 11)),
               core::fmt1(bandPct(rq, 12, 15)),
               core::fmt1(bandPct(rq, 16, 31))});
    }
    d.print();

    std::printf("\nShape: test-and-set's wait distribution grows a "
                "heavy tail as CPUs\nare added (unfair hand-off); "
                "ticket and MCS bound the tail at the\ncost of "
                "slightly higher uncontended traffic, and MCS's local "
                "queue-\nnode spin cuts cached-model ops under "
                "contention. The futex policy\nchanges only user "
                "locks (kernel locks spin: they cannot sleep),\nand "
                "the RCU read path removes inode-table read "
                "synchronization\nentirely, so both track "
                "test-and-set on Runqlk.\n");
}
