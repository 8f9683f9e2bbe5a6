#include "core/experiment.hh"

#include <chrono>

#include "core/warmcache.hh"
#include "sim/phase.hh"
#include "sim/snapshot/container.hh"
#include "util/error.hh"
#include "util/logging.hh"
#include "workload/wstate.hh"

namespace mpos::core
{

ExperimentConfig
Experiment::resolvedConfig(const ExperimentConfig &config)
{
    ExperimentConfig cfg = config;
    if (cfg.useRecommendedPool) {
        cfg.kernelCfg.userPoolPages =
            workload::Workload::recommendedPoolPages(cfg.kind);
    }
    return cfg;
}

Experiment::Experiment(const ExperimentConfig &config)
    : cfg(resolvedConfig(config))
{
    const uint32_t nlocks = kernel::numKernelLocks + kernel::maxUserLocks;
    mach = std::make_unique<sim::Machine>(cfg.machine, nlocks);
    k = std::make_unique<kernel::Kernel>(*mach, cfg.kernelCfg);
    wl = workload::Workload::create(cfg.kind, *k, cfg.options);

    if (sim::Checker *chk = mach->checker()) {
        // The checker's TLB oracle: every entry used for translation
        // must agree with the kernel's page tables, and TLB-writable
        // implies PTE-writable and not pending a COW break.
        kernel::Kernel *kp = k.get();
        chk->setMappingValidator(
            [kp](sim::Pid pid, sim::Addr vpage, sim::Addr ppage,
                 bool writable) -> const char * {
                if (pid < 0 || uint32_t(pid) >= kp->maxProcs())
                    return "pid names no process slot";
                const kernel::Pte *pte =
                    kp->process(pid).findPte(vpage);
                if (!pte)
                    return "no page-table entry for the vpage";
                if (!pte->present)
                    return "page-table entry is not present";
                if (pte->ppage != ppage)
                    return "maps a different physical page";
                if (writable && !(pte->writable && !pte->cow))
                    return "writable in the TLB but read-only or COW "
                           "in the page table";
                return nullptr;
            });
    }

    classifier = std::make_unique<MissClassifier>(
        cfg.machine.numCpus, cfg.machine.memBytes,
        cfg.machine.lineBytes);
    attr = std::make_unique<Attribution>(k->layout());
    func = std::make_unique<FunctionalClass>();
    inv = std::make_unique<InvocationStats>(cfg.machine.numCpus);
    locks = std::make_unique<LockStats>(k->numLocks());
    resimRec = std::make_unique<ICacheResim>(cfg.machine.numCpus,
                                             cfg.machine.lineBytes);
}

Experiment::~Experiment() = default;

uint64_t
Experiment::warmKey() const
{
    return warmConfigHash(cfg); // cfg was resolved by the constructor
}

std::vector<uint8_t>
Experiment::saveSnapshot() const
{
    using sim::snapshot::Section;
    const workload::StateCodec codec(*wl);
    util::ByteWriter mw, kw, ww;
    mach->saveState(mw);
    k->saveState(kw, codec);
    wl->saveState(ww);
    std::vector<std::pair<Section, std::vector<uint8_t>>> sections;
    sections.emplace_back(Section::Machine, mw.take());
    sections.emplace_back(Section::Kernel, kw.take());
    sections.emplace_back(Section::Workload, ww.take());
    return sim::snapshot::pack(warmKey(), std::move(sections));
}

void
Experiment::restoreSnapshot(const std::vector<uint8_t> &image)
{
    using sim::snapshot::Section;
    const auto parsed = sim::snapshot::parse(image);
    if (parsed.configHash() != warmKey())
        util::raise(util::ErrCode::SnapshotCorrupt,
                    "snapshot config hash %016llx does not match this "
                    "experiment's %016llx",
                    static_cast<unsigned long long>(parsed.configHash()),
                    static_cast<unsigned long long>(warmKey()));

    // Order matters: behaviors reconstructed during the kernel
    // restore point into the workload's shared structures, which must
    // already hold their restored values.
    {
        util::ByteReader r(parsed.section(Section::Workload));
        wl->restoreState(r);
    }
    {
        const workload::StateCodec codec(*wl);
        util::ByteReader r(parsed.section(Section::Kernel));
        k->restoreState(r, codec);
    }
    {
        util::ByteReader r(parsed.section(Section::Machine));
        mach->restoreState(r);
    }
}

void
Experiment::run()
{
    if (ran)
        util::panic("Experiment::run called twice");
    ran = true;

    sim::PhaseDeadline dl;
    dl.budgetSeconds = cfg.timeoutSeconds;
    dl.deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(cfg.timeoutSeconds));
    dl.totalCycles = cfg.warmupCycles + cfg.measureCycles;

    if (sim::trace::Metrics *mx = mach->metrics())
        mx->markPhase(mach->now(), "warmup");

    // Warm start: restore a memoized end-of-warmup image when one
    // exists, otherwise simulate the warmup and memoize it. Observers
    // attach only after this point, so the restored machine is
    // indistinguishable from one that simulated its own warmup.
    bool warmed = false;
    if (cfg.warmCache && cfg.warmupCycles) {
        const uint64_t key = warmKey();
        if (WarmStartCache::Image img = cfg.warmCache->lookup(key)) {
            restoreSnapshot(*img);
            warmed = true;
        }
    }
    if (!warmed) {
        dl.doneBefore = 0;
        sim::runPhase(*mach, cfg.warmupCycles, dl);
        if (cfg.warmCache && cfg.warmupCycles)
            cfg.warmCache->store(warmKey(), saveSnapshot());
    }

    // Snapshot warm state, then attach the measurement apparatus.
    baseAccount = mach->totalAccount();
    baseBlockOps = k->blockOps();
    for (uint32_t i = 0; i < sim::numOsOps; ++i)
        baseOsOps[i] = k->osOpCounts().count[i];
    baseKernelSyncOps = mach->sync().sumOps(kernel::numKernelLocks);

    if (cfg.collectMisses) {
        classifier->addSink(attr.get());
        classifier->addSink(func.get());
        if (cfg.collectResim) {
            classifier->addSink(resimRec.get());
            mach->monitor().attach(resimRec.get());
        }
        if (sim::trace::Profiler *pf = mach->profiler()) {
            profSink.pf = pf;
            classifier->addSink(&profSink);
        }
        mach->monitor().attach(classifier.get());
        mach->monitor().attach(inv.get());
    }
    k->setLockListener(locks.get());

    // The observability layer measures the measurement phase: the
    // profiler's cycle attribution restarts here (its miss feed only
    // starts now anyway), and the metrics timeline gets the boundary.
    if (sim::trace::Metrics *mx = mach->metrics())
        mx->markPhase(mach->now(), "measure");
    if (sim::trace::Profiler *pf = mach->profiler())
        pf->resetCycles(mach->now());

    const sim::Cycle start = mach->now();
    dl.doneBefore = cfg.warmupCycles;
    sim::runPhase(*mach, cfg.measureCycles, dl);
    measuredCycles = mach->now() - start;

    // Close the observability outputs at the measurement edge so
    // window arrays, profile spans and the trace file are complete.
    if (sim::trace::Metrics *mx = mach->metrics())
        mx->finish(mach->now());
    if (sim::trace::Profiler *pf = mach->profiler())
        pf->finish(mach->now());
    if (sim::trace::Tracer *tr = mach->tracer())
        tr->finish();

    // Final whole-machine sweep: every resident line, every cache's
    // packed-tag integrity, every TLB entry against the page tables.
    if (sim::Checker *chk = mach->checker())
        chk->checkAll(*mach);
}

sim::CycleAccount
Experiment::account() const
{
    sim::CycleAccount d = mach->totalAccount();
    for (unsigned m = 0; m < 3; ++m) {
        d.total[m] -= baseAccount.total[m];
        d.stall[m] -= baseAccount.stall[m];
    }
    return d;
}

kernel::BlockOpStats
Experiment::blockOps() const
{
    return blockOpDelta(k->blockOps(), baseBlockOps);
}

uint64_t
Experiment::osOpCount(sim::OsOp op) const
{
    return k->osOpCounts().count[unsigned(op)] -
           baseOsOps[unsigned(op)];
}

Table1Row
Experiment::table1() const
{
    return computeTable1(account(), classifier->counts(),
                         sim::busMissStall);
}

Table9Row
Experiment::table9() const
{
    return computeTable9(account(), classifier->counts(),
                         attr->migrationTotal(),
                         attr->blockOpMissesOf("bcopy") +
                             attr->blockOpMissesOf("bclear") +
                             attr->blockOpMissesOf("pfdat_scan"),
                         sim::busMissStall);
}

BlockOpReport
Experiment::blockOpReport() const
{
    return computeBlockOps(*attr, classifier->counts(), account(),
                           sim::busMissStall);
}

ApDisposReport
Experiment::apDispos() const
{
    return computeApDispos(classifier->counts());
}

SyncStallReport
Experiment::syncStallReport() const
{
    // The paper's Table 10 covers OS synchronization only, so the
    // user-library lock traffic is excluded here.
    const auto now = mach->sync().sumOps(kernel::numKernelLocks);
    SyncStallReport r;
    const sim::Cycle non_idle = account().nonIdle();
    if (!non_idle)
        return r;
    const uint64_t unc = now.uncachedOps -
                         baseKernelSyncOps.uncachedOps;
    const uint64_t cac = now.cachedOps - baseKernelSyncOps.cachedOps;
    r.uncachedPct = 100.0 * double(unc * sim::syncBusOpCycles) /
                    double(non_idle);
    r.cachedPct = 100.0 * double(cac * sim::busMissStall) /
                  double(non_idle);
    return r;
}

} // namespace mpos::core
