/** @file Forward-progress watchdog tests.
 *
 *  The contract under test: spin livelock (failed acquire polls and
 *  think time only) trips within the budget with a reproducible
 *  structured dump; anything that retires memory references or hands
 *  a lock over never trips; and the whole subsystem is absent -- a
 *  null pointer -- unless explicitly enabled.
 */

#include <gtest/gtest.h>

#include "kernel/kernel.hh"
#include "sim/machine.hh"
#include "util/error.hh"

using namespace mpos;
using namespace mpos::sim;
using mpos::util::ErrCode;
using mpos::util::SimError;

namespace
{

/**
 * Executor whose CPUs spin on a contended lock forever: think time
 * plus failed acquire polls, never a memory reference. The exact
 * shape of the pathology the watchdog exists to catch.
 */
struct SpinExecutor : Executor
{
    explicit SpinExecutor(Machine &machine) : m(machine) {}

    Machine &m;

    void
    refill(CpuId cpu) override
    {
        m.cpu(cpu).push(ScriptItem::think(30));
        m.cpu(cpu).push(ScriptItem::mark(MarkerOp::LockAcquire, 0, 1));
    }

    void
    marker(CpuId cpu, const ScriptItem &item) override
    {
        if (item.marker == MarkerOp::LockAcquire) {
            const Cycle cost = m.sync().access(
                cpu, uint32_t(item.addr), LockEvent::AcquireFail);
            m.charge(cpu, cost, true);
        }
    }

    void fault(CpuId, Addr, bool, bool) override {}
    void pollEvents(CpuId, Cycle) override {}
};

/** Executor that makes real progress: loads retire every chunk. */
struct ProgressExecutor : Executor
{
    explicit ProgressExecutor(Machine &machine) : m(machine) {}

    Machine &m;

    void
    refill(CpuId cpu) override
    {
        m.cpu(cpu).push(ScriptItem::load(0x500 + cpu * 64));
        m.cpu(cpu).push(ScriptItem::think(30));
    }

    void marker(CpuId, const ScriptItem &) override {}
    void fault(CpuId, Addr, bool, bool) override {}
    void pollEvents(CpuId, Cycle) override {}
};

/** Run a fresh 2-CPU spin-livelock machine and return the trip text. */
std::string
livelockDump(Cycle budget)
{
    MachineConfig cfg;
    cfg.numCpus = 2;
    cfg.watchdogCycles = budget;
    Machine m(cfg, 8);
    SpinExecutor ex(m);
    m.setExecutor(&ex);
    try {
        m.run(budget * 20);
    } catch (const SimError &e) {
        EXPECT_EQ(e.code(), ErrCode::WatchdogTrip);
        return e.what();
    }
    ADD_FAILURE() << "livelock did not trip the watchdog";
    return {};
}

} // namespace

TEST(Watchdog, PureSimLivelockTripsWithinBudget)
{
    MachineConfig cfg;
    cfg.numCpus = 2;
    cfg.watchdogCycles = 5000;
    Machine m(cfg, 8);
    ASSERT_NE(m.watchdog(), nullptr);
    SpinExecutor ex(m);
    m.setExecutor(&ex);

    try {
        m.run(100000);
        FAIL() << "livelock did not trip the watchdog";
    } catch (const SimError &e) {
        EXPECT_EQ(e.code(), ErrCode::WatchdogTrip);
        EXPECT_NE(std::string(e.what()).find("no forward progress"),
                  std::string::npos);
        EXPECT_NE(std::string(e.what()).find("cpu0:"),
                  std::string::npos);
    }
    // Detected promptly: the budget plus scheduler slack, not the
    // full 100k-cycle run.
    EXPECT_LE(m.now(), 12000u);
}

TEST(Watchdog, SameLivelockSameDump)
{
    const std::string a = livelockDump(4000);
    const std::string b = livelockDump(4000);
    EXPECT_FALSE(a.empty());
    EXPECT_EQ(a, b); // byte-identical, diagnostics are deterministic
}

TEST(Watchdog, ProgressSuppressesTrip)
{
    MachineConfig cfg;
    cfg.numCpus = 2;
    cfg.watchdogCycles = 2000;
    Machine m(cfg, 8);
    ProgressExecutor ex(m);
    m.setExecutor(&ex);
    EXPECT_NO_THROW(m.run(100000));
    EXPECT_EQ(m.now(), 100000u);
}

TEST(Watchdog, IdleKernelNeverTrips)
{
    // The idle loop fetches instructions, which is progress by
    // definition: an idle machine must be able to idle forever.
    MachineConfig mcfg;
    mcfg.numCpus = 2;
    mcfg.watchdogCycles = 20000;
    Machine m(mcfg, 128);
    kernel::KernelConfig kcfg;
    kcfg.layout.maxProcs = 16;
    kcfg.userPoolPages = 600;
    kernel::Kernel k(m, kcfg);
    EXPECT_NO_THROW(m.run(200000));
}

TEST(Watchdog, KernelDeadlockDumpHasLockTable)
{
    // Classic ABBA: cpu0 takes Memlock then wants Runqlk, cpu1 takes
    // Runqlk then wants Memlock. Both spin forever on AcquireFail.
    MachineConfig mcfg;
    mcfg.numCpus = 2;
    mcfg.watchdogCycles = 10000;
    Machine m(mcfg, 128);
    kernel::KernelConfig kcfg;
    kcfg.layout.maxProcs = 16;
    kcfg.userPoolPages = 600;
    kernel::Kernel k(m, kcfg);

    using kernel::KLock;
    m.cpu(0).push(ScriptItem::mark(MarkerOp::LockAcquire,
                                   uint64_t(KLock::Memlock)));
    m.cpu(0).push(ScriptItem::think(10));
    m.cpu(0).push(ScriptItem::mark(MarkerOp::LockAcquire,
                                   uint64_t(KLock::Runqlk)));
    m.cpu(1).push(ScriptItem::mark(MarkerOp::LockAcquire,
                                   uint64_t(KLock::Runqlk)));
    m.cpu(1).push(ScriptItem::think(10));
    m.cpu(1).push(ScriptItem::mark(MarkerOp::LockAcquire,
                                   uint64_t(KLock::Memlock)));

    try {
        m.run(500000);
        FAIL() << "ABBA deadlock did not trip the watchdog";
    } catch (const SimError &e) {
        EXPECT_EQ(e.code(), ErrCode::WatchdogTrip);
        const std::string text = e.what();
        // The kernel-installed diagnostic provider names the held
        // locks and their holders.
        EXPECT_NE(text.find("Memlock"), std::string::npos) << text;
        EXPECT_NE(text.find("Runqlk"), std::string::npos) << text;
        EXPECT_NE(text.find("locks:"), std::string::npos) << text;
    }
}

TEST(Watchdog, OffByDefault)
{
    MachineConfig cfg;
    Machine m(cfg, 8);
    EXPECT_EQ(m.watchdog(), nullptr);
}

TEST(Watchdog, SyntheticTripFiresEvenWithProgress)
{
    MachineConfig cfg;
    cfg.numCpus = 2;
    cfg.watchdogCycles = 50000; // budget never exhausted in this run
    Machine m(cfg, 8);
    ProgressExecutor ex(m);
    m.setExecutor(&ex);
    m.watchdog()->forceTripAt(2000);
    try {
        m.run(40000);
        FAIL() << "synthetic trip did not fire";
    } catch (const SimError &e) {
        EXPECT_EQ(e.code(), ErrCode::WatchdogTrip);
        EXPECT_NE(std::string(e.what()).find("synthetic"),
                  std::string::npos);
    }
    EXPECT_GE(m.now(), 2000u);
    EXPECT_LE(m.now(), 6000u);
}
