/** @file Tests for attribution, functional classes, invocation stats,
 *  lock statistics, stall math, and the I-cache re-simulation. */

#include <gtest/gtest.h>

#include "core/ap_dispos.hh"
#include "core/attribution.hh"
#include "core/functional_class.hh"
#include "core/invocation_stats.hh"
#include "core/lock_stats.hh"
#include "core/migration.hh"
#include "core/resim.hh"
#include "core/stall.hh"
#include "kernel/layout.hh"

using namespace mpos;
using namespace mpos::core;
using kernel::KernelLayout;
using kernel::KStruct;
using kernel::LayoutConfig;
using sim::BusOp;
using sim::BusRecord;
using sim::CacheKind;
using sim::ExecMode;
using sim::LockEvent;
using sim::MonitorContext;
using sim::OsOp;

namespace
{

ClassifiedMiss
mkMiss(const KernelLayout &l, sim::Addr addr, MissClass cls,
       CacheKind k = CacheKind::Data, uint16_t routine = 0xffff,
       ExecMode mode = ExecMode::Kernel, OsOp op = OsOp::IoSyscall)
{
    (void)l;
    ClassifiedMiss m;
    m.rec = BusRecord{0, 0, addr, BusOp::Read, k,
                      MonitorContext{mode, op, routine, 1}};
    m.cls = cls;
    return m;
}

} // namespace

TEST(Attribution, SharingOnPerProcessStructsIsMigration)
{
    KernelLayout l(LayoutConfig{}, sim::MachineConfig{});
    Attribution a(l);
    const uint16_t swtch = l.routine("swtch");
    a.onMiss(mkMiss(l, l.kernelStackAddr(3) + 64, MissClass::Sharing,
                    CacheKind::Data, swtch));
    a.onMiss(mkMiss(l, l.pcbAddr(3), MissClass::Sharing,
                    CacheKind::Data, swtch));
    a.onMiss(mkMiss(l, l.procTableAddr(3), MissClass::Sharing,
                    CacheKind::Data, swtch));
    EXPECT_EQ(a.migrationKernelStack(), 1u);
    EXPECT_EQ(a.migrationUserStruct(), 1u);
    EXPECT_EQ(a.migrationProcTable(), 1u);
    EXPECT_EQ(a.migrationTotal(), 3u);
    EXPECT_EQ(a.migrationByGroup(kernel::RoutineGroup::RunQueueMgmt),
              3u);
}

TEST(Attribution, NonSharingMissesAreNotMigration)
{
    KernelLayout l(LayoutConfig{}, sim::MachineConfig{});
    Attribution a(l);
    a.onMiss(mkMiss(l, l.kernelStackAddr(3), MissClass::Dispos));
    EXPECT_EQ(a.migrationTotal(), 0u);
}

TEST(Attribution, BlockOpRoutineAttribution)
{
    KernelLayout l(LayoutConfig{}, sim::MachineConfig{});
    Attribution a(l);
    const uint16_t bcopy = l.routine("bcopy");
    const sim::Addr user = l.firstUserPage() * 4096;
    a.onMiss(mkMiss(l, user, MissClass::Cold, CacheKind::Data, bcopy));
    a.onMiss(mkMiss(l, user + 16, MissClass::Dispap, CacheKind::Data,
                    bcopy));
    EXPECT_EQ(a.blockOpMissesOf("bcopy"), 2u);
    EXPECT_EQ(a.blockOpDMissesTotal(), 2u);
}

TEST(Attribution, SharingOnBlockOpPagesGoesToDynamicBuckets)
{
    KernelLayout l(LayoutConfig{}, sim::MachineConfig{});
    Attribution a(l);
    const uint16_t bcopy = l.routine("bcopy");
    const sim::Addr user = l.firstUserPage() * 4096;
    a.onMiss(mkMiss(l, user, MissClass::Sharing, CacheKind::Data,
                    bcopy));
    EXPECT_EQ(a.sharing().bcopyPages, 1u);
    EXPECT_EQ(a.sharing().count[unsigned(KStruct::UserPage)], 0u);
    EXPECT_EQ(a.sharing().total, 1u);
}

TEST(Attribution, DisposInstructionMissesByRoutine)
{
    KernelLayout l(LayoutConfig{}, sim::MachineConfig{});
    Attribution a(l);
    const auto namei = l.routine("namei");
    const auto &info = l.routineInfo(namei);
    a.onMiss(mkMiss(l, info.textBase + 32, MissClass::Dispos,
                    CacheKind::Instr));
    EXPECT_EQ(a.disposMissesOfRoutine(namei), 1u);
}

TEST(Attribution, UserModeMissesIgnored)
{
    KernelLayout l(LayoutConfig{}, sim::MachineConfig{});
    Attribution a(l);
    a.onMiss(mkMiss(l, l.procTableAddr(1), MissClass::Sharing,
                    CacheKind::Data, 0xffff, ExecMode::User,
                    OsOp::None));
    EXPECT_EQ(a.sharing().total, 0u);
}

TEST(FunctionalClass, SplitsByOperationAndKind)
{
    KernelLayout l(LayoutConfig{}, sim::MachineConfig{});
    FunctionalClass f;
    f.onMiss(mkMiss(l, 0x100, MissClass::Cold, CacheKind::Instr, 0xffff,
                    ExecMode::Kernel, OsOp::IoSyscall));
    f.onMiss(mkMiss(l, 0x200, MissClass::Cold, CacheKind::Data, 0xffff,
                    ExecMode::Kernel, OsOp::UtlbFault));
    f.onMiss(mkMiss(l, 0x300, MissClass::Cold, CacheKind::Data, 0xffff,
                    ExecMode::Kernel, OsOp::CheapTlbFault));
    EXPECT_EQ(f.iMisses(OsOp::IoSyscall), 1u);
    EXPECT_EQ(f.cheapTlbD(), 2u); // UTLB folded into cheap (Table 8)
    EXPECT_EQ(f.totalI(), 1u);
    EXPECT_EQ(f.totalD(), 2u);
}

TEST(InvocationStats, SegmentsAndHistograms)
{
    InvocationStats inv(1);
    const MonitorContext ctx;
    // App runs 0..100, OS invocation 100..500 with two misses.
    inv.osEnter(100, 0, OsOp::IoSyscall);
    BusRecord r{150, 0, 0x100, BusOp::Read, CacheKind::Instr, ctx};
    inv.busTransaction(r);
    r.cache = CacheKind::Data;
    inv.busTransaction(r);
    inv.osExit(500, 0, OsOp::IoSyscall);
    // Another app stretch with a UTLB spike inside it.
    inv.osEnter(600, 0, OsOp::UtlbFault);
    inv.osExit(640, 0, OsOp::UtlbFault);
    inv.osEnter(1000, 0, OsOp::OtherSyscall);
    inv.osExit(1100, 0, OsOp::OtherSyscall);

    EXPECT_EQ(inv.osInvocations().count, 2u);
    EXPECT_EQ(inv.utlbFaults().count, 1u);
    EXPECT_DOUBLE_EQ(inv.utlbFaults().meanCycles(), 40.0);
    EXPECT_DOUBLE_EQ(inv.osInvocations().meanI(), 0.5);
    EXPECT_DOUBLE_EQ(inv.osInvocations().meanD(), 0.5);
    // Two app invocations: [0,100] and [500,1000] minus the spike.
    EXPECT_EQ(inv.appInvocations().count, 2u);
    EXPECT_DOUBLE_EQ(inv.utlbPerAppInvocation(), 0.5);
    EXPECT_EQ(inv.osInvCycleHist().count(), 2u);
}

TEST(InvocationStats, IdleSegmentsExcludedFromApp)
{
    InvocationStats inv(1);
    inv.osEnter(0, 0, OsOp::IdleLoop);
    inv.osExit(5000, 0, OsOp::IdleLoop);
    EXPECT_EQ(inv.idleSegments().count, 1u);
    EXPECT_EQ(inv.appInvocations().count, 0u);
}

TEST(LockStats, ProfileBasics)
{
    LockStats ls(4);
    ls.lockEvent(100, 0, 1, LockEvent::AcquireSuccess, 0);
    ls.lockEvent(150, 0, 1, LockEvent::Release, 0);
    ls.lockEvent(1100, 0, 1, LockEvent::AcquireSuccess, 0);
    ls.lockEvent(1150, 0, 1, LockEvent::Release, 1);
    const auto &p = ls.profile(1);
    EXPECT_EQ(p.acquires, 2u);
    EXPECT_DOUBLE_EQ(p.acquireInterval(), 1000.0);
    // Same CPU both times, nobody else touched it in between.
    EXPECT_DOUBLE_EQ(p.sameCpuFraction(), 1.0);
    EXPECT_EQ(p.releasesWithWaiters, 1u);
    EXPECT_DOUBLE_EQ(p.waitersIfAny(), 1.0);
}

TEST(LockStats, DisturbedLocalityBreaksRun)
{
    LockStats ls(4);
    ls.lockEvent(0, 0, 1, LockEvent::AcquireSuccess, 0);
    ls.lockEvent(10, 0, 1, LockEvent::Release, 0);
    ls.lockEvent(20, 1, 1, LockEvent::AcquireFail, 0); // other CPU
    ls.lockEvent(30, 0, 1, LockEvent::AcquireSuccess, 0);
    EXPECT_DOUBLE_EQ(ls.profile(1).sameCpuFraction(), 0.0);
}

TEST(LockStats, FailEpisodesCountSpinsOnce)
{
    LockStats ls(4);
    for (int i = 0; i < 20; ++i)
        ls.lockEvent(Cycle(i), 2, 1, LockEvent::AcquireFail, 1);
    ls.lockEvent(100, 2, 1, LockEvent::AcquireSuccess, 0);
    EXPECT_EQ(ls.profile(1).failEpisodes, 1u);
    EXPECT_GT(ls.failsPerMs(1, 33000), 0.0);
}

TEST(LockStats, HighCpusDoNotAliasFailEpisodes)
{
    // Episode tracking is per CPU up to the 64-CPU machine cap: a
    // spinner on CPU 32 must not alias CPU 0's in-episode bit (the
    // old 32-slot table masked with cpu & 31 and merged them).
    LockStats ls(4);
    ls.lockEvent(0, 32, 1, LockEvent::AcquireFail, 1);
    ls.lockEvent(1, 0, 1, LockEvent::AcquireFail, 2);
    ls.lockEvent(2, 63, 1, LockEvent::AcquireFail, 3);
    EXPECT_EQ(ls.profile(1).failEpisodes, 3u);
    // Continued spinning by the same CPUs stays within one episode.
    ls.lockEvent(3, 32, 1, LockEvent::AcquireFail, 3);
    ls.lockEvent(4, 63, 1, LockEvent::AcquireFail, 3);
    EXPECT_EQ(ls.profile(1).failEpisodes, 3u);
    // Success ends CPU 32's episode; its next fail starts a new one.
    ls.lockEvent(5, 32, 1, LockEvent::AcquireSuccess, 2);
    ls.lockEvent(6, 32, 1, LockEvent::AcquireFail, 3);
    EXPECT_EQ(ls.profile(1).failEpisodes, 4u);
}

TEST(StallModel, PaperMath)
{
    // 1000 misses x 35 cycles over 100000 non-idle cycles = 35%.
    EXPECT_DOUBLE_EQ(stallPct(1000, 100000, 35), 35.0);
    EXPECT_DOUBLE_EQ(stallPct(100, 0), 0.0);
}

TEST(StallModel, Table1Composition)
{
    sim::CycleAccount acct;
    acct.total[unsigned(ExecMode::User)] = 6000;
    acct.total[unsigned(ExecMode::Kernel)] = 3000;
    acct.total[unsigned(ExecMode::Idle)] = 1000;
    MissCounts mc;
    mc.osI[unsigned(MissClass::Cold)] = 10;
    mc.appD[unsigned(MissClass::Cold)] = 20;
    mc.appD[unsigned(MissClass::Dispos)] = 10;
    const auto t1 = computeTable1(acct, mc, 35);
    EXPECT_DOUBLE_EQ(t1.userPct, 60.0);
    EXPECT_DOUBLE_EQ(t1.sysPct, 30.0);
    EXPECT_DOUBLE_EQ(t1.idlePct, 10.0);
    EXPECT_DOUBLE_EQ(t1.osMissFracPct, 25.0);
    EXPECT_DOUBLE_EQ(t1.allMissStallPct,
                     100.0 * 40 * 35 / 9000.0);
    EXPECT_DOUBLE_EQ(t1.osPlusInducedStallPct,
                     100.0 * 20 * 35 / 9000.0);
}

TEST(StallModel, Table9RowsSumToTotal)
{
    sim::CycleAccount acct;
    acct.total[unsigned(ExecMode::Kernel)] = 100000;
    MissCounts mc;
    mc.osI[unsigned(MissClass::Cold)] = 60;
    mc.osD[unsigned(MissClass::Sharing)] = 40;
    const auto t9 = computeTable9(acct, mc, 10, 5, 35);
    EXPECT_NEAR(t9.instrPct + t9.migrationPct + t9.blockOpPct +
                    t9.restPct,
                t9.totalPct, 1e-9);
}

TEST(ApDispos, Fractions)
{
    MissCounts mc;
    mc.appI[unsigned(MissClass::Dispos)] = 10;
    mc.appD[unsigned(MissClass::Dispos)] = 15;
    mc.appI[unsigned(MissClass::Cold)] = 40;
    mc.appD[unsigned(MissClass::Cold)] = 35;
    const auto r = computeApDispos(mc);
    EXPECT_DOUBLE_EQ(r.fracOfAppPct, 25.0);
    EXPECT_DOUBLE_EQ(r.iShareOfAppPct, 10.0);
    EXPECT_DOUBLE_EQ(r.dShareOfAppPct, 15.0);
}

TEST(Resim, BiggerCacheRemovesConflicts)
{
    ICacheResim rs(1, 16);
    // Two lines that conflict in a 1 KB cache but not in 2 KB.
    ClassifiedMiss m;
    m.rec.cache = CacheKind::Instr;
    m.rec.ctx.mode = ExecMode::Kernel;
    m.rec.cpu = 0;
    for (int i = 0; i < 10; ++i) {
        m.rec.lineAddr = 0x0;
        rs.onMiss(m);
        m.rec.lineAddr = 0x400;
        rs.onMiss(m);
    }
    const auto small = rs.simulate(1024, 1);
    const auto big = rs.simulate(2048, 1);
    EXPECT_EQ(small.osMisses, 20u);
    EXPECT_EQ(big.osMisses, 2u); // only the cold fills
    EXPECT_LT(big.relativeOsMissRate, small.relativeOsMissRate);
}

TEST(Resim, AssociativityRemovesConflicts)
{
    ICacheResim rs(1, 16);
    ClassifiedMiss m;
    m.rec.cache = CacheKind::Instr;
    m.rec.ctx.mode = ExecMode::Kernel;
    for (int i = 0; i < 10; ++i) {
        m.rec.lineAddr = 0x0;
        rs.onMiss(m);
        m.rec.lineAddr = 0x400;
        rs.onMiss(m);
    }
    EXPECT_EQ(rs.simulate(1024, 2).osMisses, 2u);
}

TEST(Resim, InvalFloorSurvivesBiggerCaches)
{
    ICacheResim rs(1, 16);
    ClassifiedMiss m;
    m.rec.cache = CacheKind::Instr;
    m.rec.ctx.mode = ExecMode::Kernel;
    for (int i = 0; i < 50; ++i) {
        m.rec.lineAddr = 0x1000;
        rs.onMiss(m);
        rs.flushPage(0, 0x1000, 4096); // page realloc each round
    }
    const auto with = rs.simulate(1 << 20, 2, true);
    const auto without = rs.simulate(1 << 20, 2, false);
    EXPECT_EQ(with.osMisses, 50u);   // flushes keep forcing misses
    EXPECT_EQ(without.osMisses, 1u); // dashed no-Inval curve
}

TEST(Resim, DataMissesIgnored)
{
    ICacheResim rs(1, 16);
    ClassifiedMiss m;
    m.rec.cache = CacheKind::Data;
    rs.onMiss(m);
    EXPECT_EQ(rs.recordedEvents(), 0u);
}

TEST(Migration, ReportComposition)
{
    KernelLayout l(LayoutConfig{}, sim::MachineConfig{});
    Attribution a(l);
    const uint16_t swtch = l.routine("swtch");
    for (int i = 0; i < 10; ++i)
        a.onMiss(mkMiss(l, l.kernelStackAddr(1), MissClass::Sharing,
                        CacheKind::Data, swtch));
    MissCounts mc;
    mc.osD[unsigned(MissClass::Sharing)] = 40;
    sim::CycleAccount acct;
    acct.total[unsigned(ExecMode::Kernel)] = 1000000;
    const auto r = computeMigration(a, mc, acct, 35);
    EXPECT_DOUBLE_EQ(r.kernelStackPctOfOsD, 25.0);
    EXPECT_DOUBLE_EQ(r.totalPctOfOsD, 25.0);
    const auto ops = computeMigrationOps(a);
    EXPECT_DOUBLE_EQ(ops.runQueuePct, 100.0);
}
