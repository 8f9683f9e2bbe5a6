/** @file Tests for the shared lock-policy state machine and its
 *  lock-table serialization. The kernel-driven scenarios live in the
 *  lock litmus suite; these pin what it does not reach: the user
 *  library's spin-then-nap step and the lock table's restore checks. */

#include <gtest/gtest.h>

#include <vector>

#include "sim/lockpolicy.hh"
#include "util/binio.hh"
#include "util/error.hh"

using namespace mpos;
using namespace mpos::sim;

namespace
{

/** Save `locks`, then restore into a same-sized table with the
 *  given bounds (2 kernel locks, 4 CPUs, 8 pids by default). */
void
roundTrip(const std::vector<LockState> &locks,
          std::vector<LockState> &out, uint32_t kernel_locks = 2,
          uint32_t num_cpus = 4, uint32_t num_pids = 8)
{
    util::ByteWriter w;
    saveLockTable(w, locks);
    const std::vector<uint8_t> bytes = w.take();
    util::ByteReader r(bytes);
    out.assign(locks.size(), LockState{});
    restoreLockTable(r, out, kernel_locks, num_cpus, num_pids);
}

void
expectCorrupt(const std::vector<LockState> &locks, const char *what)
{
    std::vector<LockState> out;
    try {
        roundTrip(locks, out);
        ADD_FAILURE() << what << " was accepted";
    } catch (const util::SimError &e) {
        EXPECT_EQ(e.code(), util::ErrCode::SnapshotCorrupt) << what;
    }
}

} // namespace

TEST(LockPolicy, TasUserLockSpinsThenNaps)
{
    LockState l;
    const LockPolicy p = LockPolicy::TestAndSet;
    EXPECT_TRUE(userLockAcquire(p, l, 0, 1, 0, 3).won);
    const LockAcquireStep s1 = userLockAcquire(p, l, 1, 2, 0, 3);
    EXPECT_EQ(s1.wait, LockWait::Spin);
    EXPECT_EQ(s1.retryState, 1u);
    const LockAcquireStep s2 = userLockAcquire(p, l, 1, 2, 2, 3);
    EXPECT_EQ(s2.wait, LockWait::Nap);
    EXPECT_EQ(s2.retryState, 0u);
    EXPECT_EQ(l.spinMask, 0u);
    EXPECT_EQ(l.napWaiters, 1u);
}

TEST(LockPolicy, LockTableRoundTripsEveryField)
{
    std::vector<LockState> locks(3);
    locks[0] = {2, 0b1010, 1, 7, 5, 3, {1, 3}, 0};
    locks[1] = {-1, 0, 0, 0, 0, -1, {}, 4};
    locks[2] = {6, 0b1, 2, 0, 0, 7, {5, 4}, 0}; // user lock: pids
    std::vector<LockState> out;
    roundTrip(locks, out);
    for (size_t i = 0; i < locks.size(); ++i) {
        EXPECT_EQ(out[i].heldByCpu, locks[i].heldByCpu) << i;
        EXPECT_EQ(out[i].spinMask, locks[i].spinMask) << i;
        EXPECT_EQ(out[i].napWaiters, locks[i].napWaiters) << i;
        EXPECT_EQ(out[i].nextTicket, locks[i].nextTicket) << i;
        EXPECT_EQ(out[i].nowServing, locks[i].nowServing) << i;
        EXPECT_EQ(out[i].grantedTo, locks[i].grantedTo) << i;
        EXPECT_EQ(out[i].waitQueue, locks[i].waitQueue) << i;
        EXPECT_EQ(out[i].rcuReaders, locks[i].rcuReaders) << i;
    }
}

TEST(LockPolicy, RestoreRejectsHoldersOutsideTheirIdSpace)
{
    // Kernel locks (ids 0-1) name CPUs below 4.
    std::vector<LockState> locks(3);
    locks[0].waitQueue = {64};
    expectCorrupt(locks, "kernel queue entry 64");
    locks[0].waitQueue = {4};
    expectCorrupt(locks, "kernel queue entry 4");
    locks[0].waitQueue.clear();
    locks[1].heldByCpu = 4;
    expectCorrupt(locks, "kernel holder 4");
    locks[1].heldByCpu = -2;
    expectCorrupt(locks, "kernel holder -2");
    locks[1].heldByCpu = -1;
    locks[1].grantedTo = 9;
    expectCorrupt(locks, "kernel grantee 9");
    locks[1].grantedTo = -1;
    locks[1].spinMask = 1u << 4;
    expectCorrupt(locks, "spinner cpu 4");
    locks[1].spinMask = 0;
    // The user lock (id 2) names pids below 8: 6 is fine there but
    // would not be on a kernel lock, 8 is no pid.
    locks[2].heldByCpu = 6;
    std::vector<LockState> out;
    roundTrip(locks, out);
    locks[2].waitQueue = {8};
    expectCorrupt(locks, "user queue entry 8");
    locks[2].waitQueue.clear();
    locks[2].grantedTo = 8;
    expectCorrupt(locks, "user grantee 8");
}

TEST(LockPolicy, RestoreRejectsATableOfAnotherSize)
{
    const std::vector<LockState> locks(3);
    util::ByteWriter w;
    saveLockTable(w, locks);
    const std::vector<uint8_t> bytes = w.take();
    util::ByteReader r(bytes);
    std::vector<LockState> out(4);
    EXPECT_THROW(restoreLockTable(r, out, 4, 4, 8), util::SimError);
}
