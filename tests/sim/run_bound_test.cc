/** @file Every run ends at its cycle target.
 *
 *  Machine::run(n) returns at now() + n whatever the simulated
 *  software does: the fast scheduler advances the clock by at least
 *  one cycle per pass and the reference scheduler ticks one cycle at
 *  a time. So a livelocked or deadlocked simulated kernel costs host
 *  time in proportion to the cycles asked for, never a hang; the
 *  host-side guard for a slow job is the runner's wall budget. Each
 *  test runs both schedulers.
 */

#include <gtest/gtest.h>

#include "kernel/kernel.hh"
#include "sim/machine.hh"

using namespace mpos;
using namespace mpos::sim;

namespace
{

/**
 * Executor whose CPUs spin on a contended lock forever: think time
 * plus failed acquire polls, never a memory reference.
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

/** Executor that refills with nothing but markers: the marker budget
 *  is all that moves the clock. */
struct MarkerExecutor : Executor
{
    explicit MarkerExecutor(Machine &machine) : m(machine) {}

    Machine &m;

    void
    refill(CpuId cpu) override
    {
        m.cpu(cpu).push(ScriptItem::mark(MarkerOp::Custom));
    }

    void marker(CpuId, const ScriptItem &) override {}
    void fault(CpuId, Addr, bool, bool) override {}
    void pollEvents(CpuId, Cycle) override {}
};

kernel::KernelConfig
smallKernel()
{
    kernel::KernelConfig kcfg;
    kcfg.layout.maxProcs = 16;
    kcfg.userPoolPages = 600;
    return kcfg;
}

} // namespace

TEST(RunBound, SpinLivelockEndsAtTarget)
{
    for (bool slow : {false, true}) {
        SCOPED_TRACE(slow ? "reference" : "fast");
        MachineConfig cfg;
        cfg.numCpus = 2;
        cfg.slowSim = slow;
        Machine m(cfg, 8);
        SpinExecutor ex(m);
        m.setExecutor(&ex);

        m.run(60000);
        EXPECT_EQ(m.now(), 60000u);
        m.run(40000);
        EXPECT_EQ(m.now(), 100000u);
        // The CPUs spent the run polling the lock.
        EXPECT_GT(m.sync().counts(0).uncachedOps, 1000u);
    }
}

TEST(RunBound, MarkerOnlyScriptsEndAtTarget)
{
    for (bool slow : {false, true}) {
        SCOPED_TRACE(slow ? "reference" : "fast");
        MachineConfig cfg;
        cfg.numCpus = 2;
        cfg.slowSim = slow;
        Machine m(cfg, 8);
        MarkerExecutor ex(m);
        m.setExecutor(&ex);
        m.run(5000);
        EXPECT_EQ(m.now(), 5000u);
    }
}

TEST(RunBound, IdleKernelEndsAtTarget)
{
    for (bool slow : {false, true}) {
        SCOPED_TRACE(slow ? "reference" : "fast");
        MachineConfig mcfg;
        mcfg.numCpus = 2;
        mcfg.slowSim = slow;
        Machine m(mcfg, 128);
        kernel::Kernel k(m, smallKernel());
        m.run(200000);
        EXPECT_EQ(m.now(), 200000u);
        if (!slow) {
            EXPECT_GT(m.parkedCycles(), 0u);
        }
    }
}

TEST(RunBound, KernelDeadlockEndsAtTarget)
{
    // Classic ABBA: cpu0 takes Memlock then wants Runqlk, cpu1 takes
    // Runqlk then wants Memlock. Both spin forever on AcquireFail.
    using kernel::KLock;
    for (bool slow : {false, true}) {
        SCOPED_TRACE(slow ? "reference" : "fast");
        MachineConfig mcfg;
        mcfg.numCpus = 2;
        mcfg.slowSim = slow;
        Machine m(mcfg, 128);
        kernel::Kernel k(m, smallKernel());

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

        m.run(500000);
        EXPECT_EQ(m.now(), 500000u);
        // Still deadlocked: each CPU holds its first lock.
        EXPECT_EQ(k.lockState(KLock::Memlock).heldByCpu, 0);
        EXPECT_EQ(k.lockState(KLock::Runqlk).heldByCpu, 1);
    }
}
