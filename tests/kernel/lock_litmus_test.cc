/** @file Per-primitive lock litmus tests.
 *
 *  Small, surgical contention scenarios driven straight through the
 *  kernel's lock markers, one per selectable lock primitive: the
 *  acquire/release/contention state machine of each policy must
 *  resolve, hand off in the order the primitive promises, and leave
 *  the LockState fields clean. The default test-and-set primitive is
 *  asserted to keep every policy field at its default, which is what
 *  keeps the golden corpus byte-identical.
 */

#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "kernel/kernel.hh"
#include "sim/machine.hh"

using namespace mpos;
using namespace mpos::kernel;
using sim::LockEvent;
using sim::LockPolicy;
using sim::MarkerOp;
using sim::ScriptItem;

namespace
{

/** Records the order of logical lock events on one lock id. */
struct OrderListener : LockListener
{
    uint32_t watched;
    std::vector<sim::CpuId> wins;
    uint32_t fails = 0;
    uint32_t releases = 0;

    explicit OrderListener(uint32_t lock_id) : watched(lock_id) {}

    void
    lockEvent(sim::Cycle, sim::CpuId cpu, uint32_t lock_id,
              LockEvent ev, uint32_t) override
    {
        if (lock_id != watched)
            return;
        switch (ev) {
          case LockEvent::AcquireSuccess: wins.push_back(cpu); break;
          case LockEvent::AcquireFail: ++fails; break;
          case LockEvent::Release: ++releases; break;
          default: break;
        }
    }
};

/** A machine + kernel under one lock primitive. */
struct Rig
{
    sim::MachineConfig mcfg;
    KernelConfig kcfg;
    std::unique_ptr<sim::Machine> m;
    std::unique_ptr<Kernel> k;

    explicit Rig(LockPolicy policy, uint32_t ncpus = 2)
    {
        mcfg.numCpus = ncpus;
        mcfg.lockPolicy = policy;
        m = std::make_unique<sim::Machine>(mcfg, 128);
        kcfg.layout.maxProcs = 16;
        kcfg.userPoolPages = 600;
        k = std::make_unique<Kernel>(*m, kcfg);
    }

    /** CPU `c` waits `delay`, takes `lock`, holds `hold`, releases. */
    void
    contender(sim::CpuId c, uint32_t lock, sim::Cycle delay,
              sim::Cycle hold)
    {
        if (delay)
            m->cpu(c).push(ScriptItem::think(delay));
        m->cpu(c).push(ScriptItem::mark(MarkerOp::LockAcquire, lock));
        m->cpu(c).push(ScriptItem::think(hold));
        m->cpu(c).push(ScriptItem::mark(MarkerOp::LockRelease, lock));
    }
};

/** Behavior driven by a lambda (same shape as kernel_test.cc). */
struct ScriptedApp : AppBehavior
{
    using Fn = std::function<void(Process &, UserScript &)>;
    explicit ScriptedApp(Fn f) : fn(std::move(f)) {}
    void chunk(Process &p, UserScript &s) override { fn(p, s); }
    Fn fn;
};

} // namespace

TEST(LockLitmus, TasContentionResolvesAndPolicyFieldsStayDefault)
{
    Rig r(LockPolicy::TestAndSet);
    OrderListener ol(Memlock);
    r.k->setLockListener(&ol);
    r.contender(0, Memlock, 0, 500);
    r.contender(1, Memlock, 50, 10);
    r.m->run(3000);
    const LockState &l = r.k->lockState(Memlock);
    EXPECT_EQ(l.heldByCpu, -1);
    EXPECT_EQ(l.spinMask, 0u);
    // The modern-policy fields never move under the default primitive
    // (this is what keeps default-run goldens byte-identical).
    EXPECT_EQ(l.nextTicket, 0u);
    EXPECT_EQ(l.nowServing, 0u);
    EXPECT_EQ(l.grantedTo, -1);
    EXPECT_TRUE(l.waitQueue.empty());
    EXPECT_EQ(l.rcuReaders, 0u);
    ASSERT_EQ(ol.wins.size(), 2u);
    EXPECT_GE(ol.fails, 1u); // CPU 1 found it held at least once
    EXPECT_EQ(ol.releases, 2u);
}

TEST(LockLitmus, TicketGrantsInTakeOrder)
{
    Rig r(LockPolicy::Ticket, 3);
    OrderListener ol(Memlock);
    r.k->setLockListener(&ol);
    r.contender(0, Memlock, 0, 800);
    r.contender(1, Memlock, 100, 300);
    r.contender(2, Memlock, 200, 10);
    r.m->run(6000);
    const LockState &l = r.k->lockState(Memlock);
    EXPECT_EQ(l.heldByCpu, -1);
    EXPECT_EQ(l.spinMask, 0u);
    // Every ticket handed out was served.
    EXPECT_EQ(l.nextTicket, l.nowServing);
    EXPECT_EQ(l.nextTicket, 3u);
    // FIFO by ticket number: strict arrival order, no barging.
    ASSERT_EQ(ol.wins.size(), 3u);
    EXPECT_EQ(ol.wins[0], 0u);
    EXPECT_EQ(ol.wins[1], 1u);
    EXPECT_EQ(ol.wins[2], 2u);
}

TEST(LockLitmus, McsGrantsFifoAndLeavesCleanState)
{
    Rig r(LockPolicy::Mcs, 3);
    OrderListener ol(Memlock);
    r.k->setLockListener(&ol);
    r.contender(0, Memlock, 0, 800);
    r.contender(1, Memlock, 100, 300);
    r.contender(2, Memlock, 200, 10);
    r.m->run(6000);
    const LockState &l = r.k->lockState(Memlock);
    EXPECT_EQ(l.heldByCpu, -1);
    EXPECT_EQ(l.spinMask, 0u);
    EXPECT_EQ(l.grantedTo, -1);
    EXPECT_TRUE(l.waitQueue.empty());
    // Queue order is hand-off order.
    ASSERT_EQ(ol.wins.size(), 3u);
    EXPECT_EQ(ol.wins[0], 0u);
    EXPECT_EQ(ol.wins[1], 1u);
    EXPECT_EQ(ol.wins[2], 2u);
    // The waiters spun on locally cached queue nodes. Retired node
    // lines legitimately stay cached at their owners after the win;
    // only CPUs that actually enqueued can own one (CPU 0 took the
    // lock uncontended and never allocated a node).
    EXPECT_EQ(r.m->sync().qnodeAtMask(Memlock) & 1u, 0u);
}

TEST(LockLitmus, FutexKernelLocksDegradeToTestAndSet)
{
    // Kernel spinlocks cannot sleep (they are held at raised spl), so
    // the futex policy must leave them on the spin path.
    Rig r(LockPolicy::Futex);
    OrderListener ol(Memlock);
    r.k->setLockListener(&ol);
    r.contender(0, Memlock, 0, 500);
    r.contender(1, Memlock, 50, 10);
    r.m->run(3000);
    const LockState &l = r.k->lockState(Memlock);
    EXPECT_EQ(l.heldByCpu, -1);
    EXPECT_EQ(l.spinMask, 0u);
    EXPECT_EQ(l.napWaiters, 0u);
    EXPECT_TRUE(l.waitQueue.empty());
    ASSERT_EQ(ol.wins.size(), 2u);
    EXPECT_GE(ol.fails, 1u);
}

TEST(LockLitmus, FutexUserLockBlocksWaiterAndHandsOff)
{
    Rig r(LockPolicy::Futex);
    const uint32_t ul = r.k->allocUserLock();
    OrderListener ol(ul);
    r.k->setLockListener(&ol);
    const uint32_t img = r.k->registerImage("app", 32 * 1024);

    // Holder grabs the lock in its first chunk and sits on it long
    // enough that the second process must lose its CAS and block.
    r.k->spawn(std::make_unique<ScriptedApp>(
                   [ul](Process &p, UserScript &s) {
                       if (p.userChunks == 0) {
                           s.userLock(ul);
                           s.think(60000);
                           s.userUnlock(ul);
                       }
                       s.think(64);
                   }),
               img, "holder");
    r.k->spawn(std::make_unique<ScriptedApp>(
                   [ul](Process &p, UserScript &s) {
                       if (p.userChunks == 0) {
                           s.think(2000); // lose the race decisively
                           s.userLock(ul);
                           s.think(100);
                           s.userUnlock(ul);
                       }
                       s.think(64);
                   }),
               img, "waiter");
    r.m->run(2000000);

    const LockState &l = r.k->lockState(ul);
    EXPECT_EQ(l.heldByCpu, -1);
    EXPECT_EQ(l.napWaiters, 0u);
    EXPECT_EQ(l.grantedTo, -1);
    EXPECT_TRUE(l.waitQueue.empty());
    // Both processes held the lock; the waiter lost at least one CAS
    // (the FutexWait that sent it into the kernel to sleep).
    EXPECT_EQ(ol.wins.size(), 2u);
    EXPECT_GE(ol.fails, 1u);
    EXPECT_EQ(ol.releases, 2u);
    // A blocked futex waiter generates no steady-state lock traffic:
    // the whole episode is a handful of transport ops, not thousands
    // of spin polls.
    EXPECT_LT(r.m->sync().counts(ul).uncachedOps, 64u);
}

TEST(LockLitmus, RcuReadersCountAndWritersPayTheGracePeriod)
{
    Rig r(LockPolicy::Rcu);
    OrderListener ol(Ifree);
    r.k->setLockListener(&ol);
    // CPU 0: a long read-side section on the free-inode list.
    r.m->cpu(0).push(
        ScriptItem::mark(MarkerOp::LockAcquireShared, Ifree));
    r.m->cpu(0).push(ScriptItem::think(1000));
    r.m->cpu(0).push(
        ScriptItem::mark(MarkerOp::LockReleaseShared, Ifree));
    // CPU 1: a writer updating the list inside the read section.
    r.contender(1, Ifree, 100, 50);
    r.m->run(5000);

    const LockState &l = r.k->lockState(Ifree);
    EXPECT_EQ(l.rcuReaders, 0u);
    EXPECT_EQ(l.heldByCpu, -1);
    // The reader never excluded the writer and nobody ever spun.
    EXPECT_EQ(ol.fails, 0u);
    EXPECT_EQ(ol.wins.size(), 2u);
    // Transport accounting: the read side is free; the writer paid a
    // TAS acquire, a release, and one grace-period round-trip per
    // other CPU.
    EXPECT_EQ(r.m->sync().counts(Ifree).uncachedOps,
              sim::syncOpsPerAcquire + 1 + (r.mcfg.numCpus - 1));
}

TEST(LockLitmus, SharedMarkersActExclusiveOutsideRcu)
{
    // Under every non-RCU policy the shared markers must behave
    // exactly like the exclusive ones (that equivalence is what keeps
    // the instrumented kernel paths policy-independent).
    Rig r(LockPolicy::TestAndSet);
    r.m->cpu(0).push(
        ScriptItem::mark(MarkerOp::LockAcquireShared, Ifree));
    r.m->cpu(0).push(ScriptItem::think(200));
    r.m->cpu(0).push(
        ScriptItem::mark(MarkerOp::LockReleaseShared, Ifree));
    r.m->run(50);
    EXPECT_EQ(r.k->lockState(Ifree).heldByCpu, 0);
    EXPECT_EQ(r.k->lockState(Ifree).rcuReaders, 0u);
    r.m->run(1000);
    EXPECT_EQ(r.k->lockState(Ifree).heldByCpu, -1);
}

TEST(LockLitmus, RcuLeavesUnmanagedLocksOnTheSpinPath)
{
    // Runqlk is not a read-mostly table: under the RCU policy it must
    // keep the plain TAS machine, including contention.
    Rig r(LockPolicy::Rcu);
    OrderListener ol(Runqlk);
    r.k->setLockListener(&ol);
    r.contender(0, Runqlk, 0, 500);
    r.contender(1, Runqlk, 50, 10);
    r.m->run(3000);
    EXPECT_EQ(r.k->lockState(Runqlk).heldByCpu, -1);
    ASSERT_EQ(ol.wins.size(), 2u);
    EXPECT_GE(ol.fails, 1u);
    // No grace period on release of an unmanaged lock: each acquire
    // cost the TAS ops, each release one op, each fail one op.
    EXPECT_EQ(r.m->sync().counts(Runqlk).uncachedOps,
              2 * sim::syncOpsPerAcquire + 2 + ol.fails);
}
