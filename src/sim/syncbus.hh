/**
 * @file
 * Lock-access transport modeling the 4D/340's dedicated synchronization
 * bus and the paper's simulated alternative.
 *
 * The real machine diverts all lock accesses to a separate
 * synchronization bus whose protocol, lacking an atomic
 * read-modify-write, needs several uncached transactions per acquire
 * (Table 10 "Current Machine"). Section 5.1 simulates the alternative:
 * locks held in the coherent caches with LL/SC-style atomic RMW, where
 * re-acquiring an undisturbed lock costs no bus access at all
 * (Table 10 "Atomic RMW + Caches", Table 12 last column).
 *
 * SyncTransport charges stall under the measured machine's sync bus
 * and counts bus operations under *both* protocols, so one run
 * produces both columns.
 */

#ifndef MPOS_SIM_SYNCBUS_HH
#define MPOS_SIM_SYNCBUS_HH

#include <cstdint>
#include <vector>

#include "sim/types.hh"

namespace mpos::sim
{

class Checker;

/** Cycles of one sync-bus transaction. */
constexpr Cycle syncBusOpCycles = 55;
/** Sync-bus transactions per acquire: no atomic RMW, so read, set,
 *  verify. */
constexpr uint32_t syncOpsPerAcquire = 4;

/**
 * What happened at a lock, as reported by the kernel lock layer.
 *
 * The first three events are the paper's test-and-set machine and the
 * only ones the statistics layer ever sees; the rest are the
 * per-primitive transport events of the modern lock policies
 * (DESIGN.md section 14). Each policy's acquire/release state machine
 * (sim/lockpolicy.hh) emits these so SyncTransport can count the
 * primitive's distinct bus-operation pattern under both the uncached
 * sync bus and the cached-RMW transport.
 */
enum class LockEvent : uint8_t
{
    AcquireSuccess, ///< Test-and-set won the lock.
    AcquireFail,    ///< Poll found the lock held (one spin iteration).
    Release,

    // Ticket lock: one fetch-and-add takes a ticket, then the waiter
    // polls the now-serving word (a plain read, so pollers share the
    // line instead of fighting over it exclusively).
    TicketTake,    ///< Fetch-and-add on the ticket counter.
    TicketPoll,    ///< Read of now-serving found another ticket active.
    TicketRelease, ///< Increment of now-serving (wakes next ticket).

    // MCS queue lock: waiters spin on a flag in their *own* queue node,
    // so steady-state polling is cache-local; the releaser hands off by
    // writing exactly one successor's node.
    McsSwap,        ///< Tail swap found the lock free (uncontended).
    McsEnqueue,     ///< Tail swap found a predecessor; linked behind it.
    McsLocalPoll,   ///< Spin read of the waiter's own queue node.
    McsHandoff,     ///< Releaser wrote the successor's node flag.
    McsReleaseFree, ///< Tail compare-and-swap back to empty (no waiter).

    // Futex-style blocking lock: an uncontended CAS fast path, and
    // contended waiters block in the kernel instead of spinning, so a
    // held lock generates *no* steady-state bus traffic.
    FutexAcquire, ///< Uncontended CAS won the lock.
    FutexWait,    ///< CAS lost; waiter blocks (last access pre-sleep).
    FutexWake,    ///< Release with waiters: unlock write + wake.

    // RCU-like read path for read-mostly tables: readers publish
    // nothing and cost zero bus operations; writers still take the
    // exclusive lock and then wait out a grace period on release.
    RcuReadEnter, ///< Reader entered a read-side section (free).
    RcuReadExit,  ///< Reader left a read-side section (free).
    RcuSync,      ///< Writer grace period: one op per other CPU.
};

/** Per-lock operation counters under both protocols. */
struct SyncOpCounts
{
    uint64_t uncachedOps = 0; ///< Sync-bus transactions.
    uint64_t cachedOps = 0;   ///< Main-bus accesses under cached RMW.
};

/** Dual-protocol lock transport. */
class SyncTransport
{
  public:
    SyncTransport(const MachineConfig &cfg, uint32_t num_locks);

    /**
     * Account one lock event under both protocols; returns the CPU
     * stall cycles on the sync bus.
     *
     * `peer` names the other CPU involved in a hand-off
     * (LockEvent::McsHandoff: the successor whose queue node the
     * releaser writes, invalidating the successor's locally cached
     * copy); pass -1 when the event has no peer.
     *
     * Raises SimError(BadConfig) on an out-of-range lock id or a
     * peer that is no CPU of this machine — both can arrive from a
     * restored snapshot, so a malformed one must travel the typed
     * error channel, not abort the process.
     */
    Cycle access(CpuId cpu, uint32_t lock_id, LockEvent ev,
                 int peer = -1);

    /**
     * Per-lock op counts under both protocols. Raises
     * SimError(BadConfig) on an out-of-range lock id.
     */
    const SyncOpCounts &counts(uint32_t lock_id) const;

    /** Sum of op counts over lock ids [0, id_limit). */
    SyncOpCounts sumOps(uint32_t id_limit) const;

    /** Stall cycles charged so far to cpu on the sync bus. */
    Cycle stallCycles(CpuId cpu) const { return stall[cpu]; }

    /** Total stall under each protocol (the cached one hypothetical). */
    Cycle uncachedStallTotal() const;
    Cycle cachedStallTotal() const;

    uint32_t numLocks() const { return uint32_t(perLock.size()); }

    /** Attach the invariant checker (null = disabled). */
    void setChecker(Checker *c) { checker = c; }

    /** Bitmask of CPUs caching lock_id's line (for the checker). */
    uint64_t cachedAtMask(uint32_t lock_id) const
    {
        return cachedAt[lock_id];
    }

    /** Bitmask of CPUs with a valid cached copy of their own MCS queue
     *  node for lock_id (for tests; empty unless the MCS policy ran). */
    uint64_t qnodeAtMask(uint32_t lock_id) const
    {
        return qnodeAt[lock_id];
    }

    /// @name Snapshot state
    /// Restore validates every sharer mask against numCpus: a corrupt
    /// image with phantom sharers (bits >= numCpus) raises
    /// SnapshotCorrupt here instead of tripping the coherence checker
    /// later with a misleading diagnostic.
    /// @{
    template <class Ar> void state(Ar &ar);
    /// @}

  private:
    /** Bus ops this event needs under the uncached sync-bus protocol. */
    uint32_t uncachedOpsFor(LockEvent ev) const;

    /** Bus ops under cached LL/SC, tracking the line's location. */
    uint32_t cachedOpsFor(CpuId cpu, uint32_t lock_id, LockEvent ev,
                          int peer);

    MachineConfig cfg;
    std::vector<SyncOpCounts> perLock;
    /** Bitmask of CPUs whose cache currently holds each lock's line. */
    std::vector<uint64_t> cachedAt;
    /** Per-lock bitmask of CPUs whose *own* MCS queue-node line is
     *  validly cached (the local-spin advantage: polls of a cached
     *  node are free until the predecessor's hand-off write
     *  invalidates it). */
    std::vector<uint64_t> qnodeAt;
    std::vector<Cycle> stall;
    uint64_t uncachedOpsTotal = 0;
    uint64_t cachedOpsTotal = 0;
    /** Invariant checker; null unless checking is enabled. */
    Checker *checker = nullptr;
};

} // namespace mpos::sim

#endif // MPOS_SIM_SYNCBUS_HH
