/**
 * @file
 * Unit tests for the runtime invariant checker.
 *
 * The checker only earns its keep if it actually fires on broken
 * state, so these tests run it in recording mode (no abort) and feed
 * it deliberately malformed events and hand-corrupted coherence state,
 * asserting each invariant trips. A clean experiment run with checking
 * enabled closes the loop: plenty of checks performed, zero
 * violations, and a null checker when the feature is off.
 */

#include <gtest/gtest.h>

#include "core/experiment.hh"
#include "sim/machine.hh"

using namespace mpos;
using sim::Addr;
using sim::BusOp;
using sim::BusRecord;
using sim::CacheKind;
using sim::Checker;
using sim::Coh;
using sim::CpuId;
using sim::ExecMode;
using sim::MachineConfig;
using sim::MonitorContext;
using sim::OsOp;
using sim::TlbEntry;

namespace
{

MachineConfig
tinyConfig()
{
    MachineConfig cfg;
    cfg.numCpus = 2;
    cfg.icacheBytes = 1024;
    cfg.l1dBytes = 512;
    cfg.l2dBytes = 1024;
    cfg.memBytes = 64 * 1024;
    cfg.tlbEntries = 8;
    cfg.check = true;
    return cfg;
}

/** A machine whose checker records instead of aborting. */
struct Fixture
{
    Fixture() : m(tinyConfig())
    {
        chk = m.checker();
        EXPECT_NE(chk, nullptr);
        chk->setAbortOnViolation(false);
    }

    /** Number of recorded violations mentioning needle. */
    size_t
    mentions(const char *needle) const
    {
        size_t n = 0;
        for (const auto &v : chk->violations()) {
            if (v.find(needle) != std::string::npos)
                ++n;
        }
        return n;
    }

    sim::Machine m;
    Checker *chk = nullptr;
};

MonitorContext
userCtx()
{
    MonitorContext ctx;
    ctx.mode = ExecMode::User;
    ctx.op = OsOp::None;
    ctx.pid = 0;
    return ctx;
}

BusRecord
rec(sim::Cycle cycle, CpuId cpu, Addr line, BusOp op)
{
    BusRecord r;
    r.cycle = cycle;
    r.cpu = cpu;
    r.lineAddr = line;
    r.op = op;
    r.ctx = userCtx();
    return r;
}

} // namespace

TEST(Checker, DisabledMachineHasNoChecker)
{
    MachineConfig cfg = tinyConfig();
    cfg.check = false;
    sim::Machine m(cfg);
    EXPECT_EQ(m.checker(), nullptr);
}

TEST(Checker, OsEventAlternationPerCpu)
{
    Fixture f;
    f.chk->osEnter(100, 0, OsOp::IoSyscall);
    f.chk->osEnter(200, 1, OsOp::Interrupt); // other CPU: independent
    f.chk->osExit(300, 0, OsOp::IoSyscall);
    EXPECT_EQ(f.chk->violations().size(), 0u);

    f.chk->osEnter(400, 0, OsOp::Interrupt);
    f.chk->osEnter(500, 0, OsOp::Interrupt); // double enter
    EXPECT_EQ(f.mentions("already inside the OS"), 1u);

    f.chk->osExit(600, 0, OsOp::Interrupt);
    // Redundant exit with op None is the documented resumption
    // artifact (a rescheduled process replays its blocked OS path's
    // trailing exit marker) and must pass...
    f.chk->osExit(650, 0, OsOp::None);
    EXPECT_EQ(f.mentions("while not inside the OS"), 0u);
    // ...but a double exit naming a real op is a genuine imbalance.
    f.chk->osExit(700, 0, OsOp::Interrupt);
    EXPECT_EQ(f.mentions("while not inside the OS"), 1u);
}

TEST(Checker, OsEventCyclesMonotonicPerCpu)
{
    Fixture f;
    f.chk->osEnter(1000, 0, OsOp::IoSyscall);
    f.chk->osExit(900, 0, OsOp::IoSyscall); // goes backwards
    EXPECT_EQ(f.mentions("after cycle"), 1u);
    // A different CPU has its own clock and is unaffected.
    f.chk->osEnter(10, 1, OsOp::IoSyscall);
    EXPECT_EQ(f.chk->violations().size(), 1u);
}

TEST(Checker, StreamMayBeginInsideOrOutsideTheOs)
{
    // Streams can start mid-state: the first event for a CPU is
    // accepted whether it is an enter or an exit.
    Fixture f;
    f.chk->osExit(50, 0, OsOp::IdleLoop);
    f.chk->osEnter(60, 1, OsOp::IoSyscall);
    EXPECT_EQ(f.chk->violations().size(), 0u);
}

TEST(Checker, BusRecordMonotonicAlignedInRange)
{
    Fixture f;
    f.chk->busTransaction(rec(500, 0, 0x100, BusOp::Read));
    EXPECT_EQ(f.chk->violations().size(), 0u);

    f.chk->busTransaction(rec(400, 0, 0x100, BusOp::Read));
    EXPECT_EQ(f.mentions("after cycle"), 1u);

    f.chk->busTransaction(rec(600, 0, 0x103, BusOp::Read));
    EXPECT_EQ(f.mentions("not line-aligned"), 1u);

    f.chk->busTransaction(rec(700, 5, 0x100, BusOp::Read));
    EXPECT_EQ(f.mentions("invalid cpu"), 1u);

    // Cached ops must target real memory...
    f.chk->busTransaction(rec(800, 0, 0x40000000, BusOp::ReadEx));
    EXPECT_EQ(f.mentions("outside the"), 1u);
    // ...but uncached device traffic legitimately lives beyond it.
    f.chk->busTransaction(
        rec(900, 0, 0x40000000, BusOp::UncachedWrite));
    EXPECT_EQ(f.mentions("outside the"), 1u);
}

TEST(Checker, MonitorEventBounds)
{
    Fixture f;
    f.chk->evict(7, CacheKind::Data, 0x100, userCtx());
    EXPECT_EQ(f.mentions("evict event on invalid cpu"), 1u);
    f.chk->evict(0, CacheKind::Data, 0x101, userCtx());
    EXPECT_EQ(f.mentions("unaligned line"), 1u);
    f.chk->invalSharing(0, CacheKind::Data, 0x102);
    EXPECT_EQ(f.mentions("unaligned line"), 2u);
    f.chk->invalPageRealloc(9, 0x100);
    EXPECT_EQ(f.mentions("page-realloc flush event on invalid cpu"),
              1u);
    f.chk->contextSwitch(100, 0, -5, 0);
    EXPECT_EQ(f.mentions("context switch with pids"), 1u);
}

TEST(Checker, SyncEventBounds)
{
    Fixture f;
    f.chk->onSyncEvent(0, 3, 8, 0x3);
    EXPECT_EQ(f.chk->violations().size(), 0u);
    f.chk->onSyncEvent(0, 9, 8, 0); // lock id out of range
    EXPECT_EQ(f.mentions("sync event for lock"), 1u);
    f.chk->onSyncEvent(0, 3, 8, 0x4); // bit 2 but only 2 CPUs
    EXPECT_EQ(f.mentions("names a CPU beyond"), 1u);
    f.chk->onSyncEvent(6, 3, 8, 0); // cpu out of range
    EXPECT_EQ(f.mentions("sync event from invalid cpu"), 1u);
    EXPECT_EQ(f.chk->stats().syncEvents, 4u);
}

TEST(Checker, TlbEntryValidityAndValidator)
{
    Fixture f;
    TlbEntry e;
    e.pid = 1;
    e.vpage = 3;
    e.ppage = 3;
    e.writable = false;
    e.valid = true;
    f.chk->checkTlbEntry(0, e);
    EXPECT_EQ(f.chk->violations().size(), 0u);

    TlbEntry bad = e;
    bad.valid = false;
    f.chk->checkTlbEntry(0, bad);
    EXPECT_EQ(f.mentions("invalid TLB entry"), 1u);

    TlbEntry oob = e;
    oob.ppage = tinyConfig().memBytes; // way past the last page
    f.chk->checkTlbEntry(0, oob);
    EXPECT_EQ(f.mentions("outside memory"), 1u);

    // The page-table oracle gets the final word.
    f.chk->setMappingValidator(
        [](sim::Pid, Addr, Addr, bool writable) -> const char * {
            return writable ? "not writable in the page table"
                            : nullptr;
        });
    f.chk->checkTlbEntry(0, e); // read-only: validator accepts
    TlbEntry w = e;
    w.writable = true;
    f.chk->checkTlbEntry(0, w);
    EXPECT_EQ(f.mentions("TLB/page-table disagreement"), 1u);
    EXPECT_EQ(f.chk->stats().tlbChecks, 5u);
}

TEST(Checker, TagStateMismatchAndFilterUnsoundness)
{
    Fixture f;
    // Install the line (its state lives in the L2 way, so a state
    // needs its tag) and claim Modified without any filter update:
    // the line-event sweep must flag the now-unsound snoop filter.
    const Addr line = 0x200;
    f.m.memory().caches(0).l2d.fill(line);
    f.m.memory().caches(0).setState(line, Coh::Modified);
    f.chk->onLineEvent(line);
    EXPECT_EQ(f.mentions("snoop filter unsound"), 1u);
}

TEST(Checker, SwmrDoubleOwnerDetected)
{
    Fixture f;
    const Addr line = 0x300;
    f.m.memory().caches(0).l2d.fill(line);
    f.m.memory().caches(1).l2d.fill(line);
    f.m.memory().caches(0).setState(line, Coh::Modified);
    f.m.memory().caches(1).setState(line, Coh::Exclusive);
    f.chk->onLineEvent(line);
    EXPECT_EQ(f.mentions("SWMR"), 1u);
}

TEST(Checker, OwnerPlusSharerDetected)
{
    Fixture f;
    const Addr line = 0x400;
    f.m.memory().caches(0).l2d.fill(line);
    f.m.memory().caches(1).l2d.fill(line);
    f.m.memory().caches(0).setState(line, Coh::Modified);
    f.m.memory().caches(1).setState(line, Coh::Shared);
    f.chk->onLineEvent(line);
    EXPECT_EQ(f.mentions("SWMR"), 1u);
    EXPECT_EQ(f.mentions("copies machine-wide"), 1u);
}

TEST(Checker, CleanExperimentRunPerformsChecksWithoutViolations)
{
    core::ExperimentConfig cfg;
    cfg.kind = workload::WorkloadKind::Pmake;
    cfg.warmupCycles = 100000;
    cfg.measureCycles = 400000;
    cfg.machine.check = true;
    core::Experiment exp(cfg);
    const Checker *chk = exp.machine().checker();
    ASSERT_NE(chk, nullptr);
    // The experiment installs the kernel page-table oracle.
    EXPECT_TRUE(exp.machine().checker()->hasMappingValidator());
    exp.run();
    EXPECT_EQ(chk->stats().violations, 0u);
    EXPECT_GT(chk->stats().lineChecks, 0u);
    EXPECT_GT(chk->stats().busEvents, 0u);
    EXPECT_GT(chk->stats().monitorEvents, 0u);
    EXPECT_GT(chk->stats().syncEvents, 0u);
    EXPECT_GT(chk->stats().tlbChecks, 0u);
    EXPECT_EQ(chk->stats().fullSweeps, 1u);
}
