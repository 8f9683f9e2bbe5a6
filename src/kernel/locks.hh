/**
 * @file
 * Named kernel spinlocks (Table 11 of the paper) and the lock event
 * listener interface used by the lock-statistics analysis.
 *
 * Kernel locks are spinlocks acquired by CPUs inside kernel paths;
 * user-library locks live in the same id space (above the kernel ids)
 * and follow the spin-20-then-sginap discipline described in the
 * paper. All lock traffic flows through sim::SyncTransport, which
 * accounts bus operations under both synchronization protocols.
 */

#ifndef MPOS_KERNEL_LOCKS_HH
#define MPOS_KERNEL_LOCKS_HH

#include <cstdint>

#include "sim/lockpolicy.hh"
#include "sim/syncbus.hh"
#include "sim/types.hh"

namespace mpos::kernel
{

/** Kernel lock ids (Table 11). The *_x names are arrays of locks. */
enum KLock : uint32_t
{
    Memlock = 0, ///< Physical memory allocation structures.
    Runqlk,      ///< Scheduler run queue.
    Ifree,       ///< List of free inodes.
    Dfbmaplk,    ///< Free disk block table.
    Bfreelock,   ///< Buffer-cache free list.
    Calock,      ///< Callout (alarm/timeout) table.
    Semlock,     ///< User-visible semaphore array.
    ShrBase,     ///< Shr_0..Shr_7: per-process page table locks.
    StreamsBase = ShrBase + 8, ///< Streams_0..3: character devices.
    InoBase = StreamsBase + 4, ///< Ino_0..7: per-inode operations.
    numKernelLocks = InoBase + 8,
};

/** User-library lock ids above numKernelLocks (the sync transport's
 *  lock table holds numKernelLocks + maxUserLocks slots). */
constexpr uint32_t maxUserLocks = 32;

/** Pick the Shr_x lock protecting process slot's page tables. */
inline uint32_t shrLock(uint32_t slot) { return ShrBase + slot % 8; }
/** Pick the Streams_x lock for a tty session. */
inline uint32_t streamsLock(uint32_t s) { return StreamsBase + s % 4; }
/** Pick the Ino_x lock for an inode. */
inline uint32_t inoLock(uint32_t ino) { return InoBase + ino % 8; }

/** Ids whose read-mostly accesses get the RCU read path when the
 *  machine's lock policy is LockPolicy::Rcu: the free-inode list and
 *  the Ino_x per-inode locks, the paper's hottest read-mostly tables. */
inline bool
rcuManaged(uint32_t lock_id)
{
    return lock_id == Ifree ||
           (lock_id >= InoBase && lock_id < numKernelLocks);
}

/** The lock state machine lives in the sim layer, next to the
 *  transport it drives, so the fuzzer can drive it too. */
using sim::LockState;

/**
 * Observer of lock activity. Implemented by core::LockStats; the
 * kernel reports every acquire attempt and release.
 */
class LockListener
{
  public:
    virtual ~LockListener() = default;

    /**
     * @param waiters Number of waiters observed (for Release events,
     *                the waiter count at release time).
     */
    virtual void lockEvent(sim::Cycle cycle, sim::CpuId cpu,
                           uint32_t lock_id, sim::LockEvent ev,
                           uint32_t waiters) = 0;
};

} // namespace mpos::kernel

#endif // MPOS_KERNEL_LOCKS_HH
