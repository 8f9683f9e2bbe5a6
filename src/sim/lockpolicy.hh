/**
 * @file
 * The lock policies' state machines (DESIGN.md section 14), apart
 * from the code that drives them. Each step maps (policy, lock state,
 * requester, marker state) to the lock's next state and the transport
 * LockEvent to charge through SyncTransport. The kernel's lock markers
 * and the fuzzer's scripted executor both drive these steps; the
 * drivers keep charging, interrupt levels, retry markers, blocking
 * and statistics.
 */

#ifndef MPOS_SIM_LOCKPOLICY_HH
#define MPOS_SIM_LOCKPOLICY_HH

#include <bit>
#include <cstdint>
#include <vector>

#include "sim/syncbus.hh"
#include "sim/types.hh"
#include "util/binio.hh"

namespace mpos::sim
{

/** Runtime state of one lock. The first three fields are the paper's
 *  test-and-set machine; the rest stay at their defaults under it. */
struct LockState
{
    int32_t heldByCpu = -1;   ///< Holder: CPU (kernel) or pid (user).
    uint64_t spinMask = 0;    ///< CPUs actively spinning on it.
    uint32_t napWaiters = 0;  ///< Processes that sginapped on it.

    uint32_t nextTicket = 0;  ///< Ticket: next ticket to hand out.
    uint32_t nowServing = 0;  ///< Ticket: ticket currently served.
    int32_t grantedTo = -1;   ///< MCS/futex hand-off not yet taken.
    std::vector<uint32_t> waitQueue; ///< MCS CPUs or futex pids, FIFO.
    uint32_t rcuReaders = 0;  ///< Active read-side sections (RCU).

    /** Waiters a statistics observer sees: spinners plus nappers. */
    uint32_t
    waiters() const
    {
        return uint32_t(std::popcount(spinMask)) + napWaiters;
    }
};

/** How a losing requester waits before its retry marker runs. */
enum class LockWait : uint8_t
{
    Spin,  ///< Think the spin gap, then poll again.
    Nap,   ///< User library: sginap, then retry from zero.
    Block, ///< Futex: sleep in the kernel until a release wakes it.
};

/** Outcome of an acquire attempt: the transport event and, when
 *  lost, how to wait and the retry marker's arg2. */
struct LockAcquireStep
{
    bool won = false;
    LockEvent ev = LockEvent::AcquireSuccess;
    LockWait wait = LockWait::Spin;
    uint64_t retryState = 0;
};

/** Outcome of a release: the transport event, the hand-off peer (the
 *  MCS successor CPU, or the futex waiter pid to wake; -1 if none),
 *  and whether an RCU writer's grace period (RcuSync) follows. */
struct LockReleaseStep
{
    LockEvent ev = LockEvent::Release;
    int peer = -1;
    bool gracePeriod = false;
};

/**
 * Kernel spinlock acquire by `cpu`. `state` is the retry marker's
 * arg2: 0 on a first attempt; ticket re-polls carry ticket+1, MCS
 * re-polls 1. Futex and RCU kernel locks are test-and-set: kernel
 * locks cannot sleep, and RCU writers take the plain spinlock. A
 * `read` acquire (read-mostly, on an RCU-managed lock) under
 * LockPolicy::Rcu instead enters a read section: won at once, with
 * LockEvent::RcuReadEnter and no lock taken.
 */
LockAcquireStep lockAcquire(LockPolicy policy, LockState &l,
                            uint32_t lock_id, CpuId cpu, uint64_t state,
                            bool read = false);

/** Kernel spinlock release by `cpu`; `read` as for the acquire it
 *  ends (LockEvent::RcuReadExit leaves a read section). A writer of
 *  an `rcu_managed` lock pays a grace period under LockPolicy::Rcu. */
LockReleaseStep lockRelease(LockPolicy policy, LockState &l,
                            uint32_t lock_id, CpuId cpu, bool read,
                            bool rcu_managed);

/**
 * User-library lock acquire by process `pid` on `cpu`, its `spins`-th
 * consecutive poll. Under LockPolicy::Futex a loser blocks and a
 * release grants the lock to the woken waiter; every other policy
 * keeps the paper's library: spin `spin_limit` times, then sginap.
 */
LockAcquireStep userLockAcquire(LockPolicy policy, LockState &l,
                                CpuId cpu, Pid pid, uint32_t spins,
                                uint32_t spin_limit);

/** The futex wait's re-check: false if the lock is free to `pid`
 *  (its retry wins); else queues `pid` (the driver blocks it). */
bool futexSleep(LockState &l, Pid pid);

/** User-library lock release by its holder `pid`. */
LockReleaseStep userLockRelease(LockPolicy policy, LockState &l,
                                uint32_t lock_id, Pid pid);

/// @name The one serialization of a lock table
/// Restore expects a table of the same size. Ids [0, kernel_locks)
/// are kernel locks, whose holder, grantee, queue entries and
/// spinners must be CPUs below num_cpus; user locks' must be pids
/// below num_pids (their spinners CPUs). Anything else raises
/// util::SimError(SnapshotCorrupt): a queue entry later becomes a
/// transport peer, i.e. a shift amount. Saving ignores the bounds.
/// @{
template <class Ar>
void lockTableState(Ar &ar, std::vector<LockState> &locks,
                    uint32_t kernel_locks, uint32_t num_cpus,
                    uint32_t num_pids);
void saveLockTable(util::ByteWriter &w,
                   const std::vector<LockState> &locks);
void restoreLockTable(util::ByteReader &r, std::vector<LockState> &locks,
                      uint32_t kernel_locks, uint32_t num_cpus,
                      uint32_t num_pids);
/// @}

} // namespace mpos::sim

#endif // MPOS_SIM_LOCKPOLICY_HH
