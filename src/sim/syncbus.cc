#include "sim/syncbus.hh"

#include <algorithm>

#include "sim/check/checker.hh"
#include "util/binio.hh"
#include "util/error.hh"
#include "util/logging.hh"

namespace mpos::sim
{

SyncTransport::SyncTransport(const MachineConfig &config,
                             uint32_t num_locks)
    : cfg(config), perLock(num_locks), cachedAt(num_locks, 0),
      qnodeAt(num_locks, 0), stall(cfg.numCpus, 0)
{
    // The 64-CPU cap of the cachedAt bitmasks is enforced centrally
    // by validateConfig before any transport is built.
}

uint32_t
SyncTransport::uncachedOpsFor(LockEvent ev) const
{
    switch (ev) {
      case LockEvent::AcquireSuccess:
        // No atomic RMW on the sync bus: read, set, verify.
        return syncOpsPerAcquire;
      case LockEvent::AcquireFail:
        return 1; // every poll of a held lock crosses the sync bus
      case LockEvent::Release:
        return 1;

      case LockEvent::TicketTake:
        // Fetch-and-add emulated with the same read/modify/verify
        // sequence an acquire needs on the RMW-less sync bus.
        return syncOpsPerAcquire;
      case LockEvent::TicketPoll:
        return 1; // read of now-serving
      case LockEvent::TicketRelease:
        return 1; // write of now-serving

      case LockEvent::McsSwap:
        return syncOpsPerAcquire; // emulated tail swap
      case LockEvent::McsEnqueue:
        // Emulated tail swap plus the write linking into the
        // predecessor's node.
        return syncOpsPerAcquire + 1;
      case LockEvent::McsLocalPoll:
        // Sync RAM is never cached: on the Current Machine the "local"
        // spin degenerates to a bus crossing per poll, which is
        // exactly why MCS only pays off with cached locks.
        return 1;
      case LockEvent::McsHandoff:
        return 1; // write the successor's node flag
      case LockEvent::McsReleaseFree:
        return syncOpsPerAcquire; // emulated tail compare-and-swap

      case LockEvent::FutexAcquire:
        return syncOpsPerAcquire; // emulated CAS
      case LockEvent::FutexWait:
        return 1; // the losing poll before the waiter blocks
      case LockEvent::FutexWake:
        return 2; // unlock write + waiter-count check

      case LockEvent::RcuReadEnter:
      case LockEvent::RcuReadExit:
        return 0; // readers publish nothing
      case LockEvent::RcuSync:
        // Grace period: the writer waits for every other CPU to pass a
        // quiescent state, one sync-bus transaction apiece.
        return cfg.numCpus - 1;
    }
    return 0;
}

uint32_t
SyncTransport::cachedOpsFor(CpuId cpu, uint32_t lock_id, LockEvent ev,
                            int peer)
{
    const uint64_t me = uint64_t(1) << cpu;
    uint64_t &mask = cachedAt[lock_id];
    switch (ev) {
      case LockEvent::AcquireSuccess:
      case LockEvent::Release:
      case LockEvent::TicketTake:
      case LockEvent::TicketRelease:
      case LockEvent::McsSwap:
      case LockEvent::McsReleaseFree:
      case LockEvent::FutexAcquire:
      case LockEvent::FutexWake:
        // LL/SC write: needs the line exclusive. Free when this CPU
        // already holds the only copy.
        if (mask == me)
            return 0;
        mask = me;
        return 1;
      case LockEvent::AcquireFail:
      case LockEvent::TicketPoll:
      case LockEvent::FutexWait:
        // Spin read: first poll fetches the line, later polls hit.
        if (mask & me)
            return 0;
        mask |= me;
        return 1;
      case LockEvent::McsEnqueue:
        // Exclusive tail swap plus a write into the predecessor's
        // queue node (a second line, always remote on first contact).
        if (mask == me)
            return 1;
        mask = me;
        return 2;
      case LockEvent::McsLocalPoll: {
        // The waiter spins on its *own* queue node: one fetch, then
        // every poll hits locally until a hand-off invalidates it.
        uint64_t &qmask = qnodeAt[lock_id];
        if (qmask & me)
            return 0;
        qmask |= me;
        return 1;
      }
      case LockEvent::McsHandoff:
        // The releaser writes the successor's node flag, taking that
        // line exclusive and invalidating the successor's spin copy.
        if (peer >= 0)
            qnodeAt[lock_id] &= ~(uint64_t(1) << unsigned(peer));
        return 1;
      case LockEvent::RcuReadEnter:
      case LockEvent::RcuReadExit:
        return 0; // the read path touches no shared line
      case LockEvent::RcuSync:
        // One invalidation round-trip per other CPU; the lock line
        // ends up exclusive at the writer.
        mask = me;
        return cfg.numCpus - 1;
    }
    return 0;
}

Cycle
SyncTransport::access(CpuId cpu, uint32_t lock_id, LockEvent ev,
                      int peer)
{
    if (lock_id >= perLock.size())
        util::raise(util::ErrCode::BadConfig,
                    "syncbus: lock id %u out of range (machine has %zu "
                    "locks)",
                    lock_id, perLock.size());
    // A peer becomes a shift amount into the per-CPU masks.
    if (peer >= int(cfg.numCpus))
        util::raise(util::ErrCode::BadConfig,
                    "syncbus: hand-off peer %d out of range (machine "
                    "has %u cpus)",
                    peer, cfg.numCpus);

    const uint32_t uops = uncachedOpsFor(ev);
    const uint32_t cops = cachedOpsFor(cpu, lock_id, ev, peer);
    perLock[lock_id].uncachedOps += uops;
    perLock[lock_id].cachedOps += cops;
    uncachedOpsTotal += uops;
    cachedOpsTotal += cops;

    const Cycle cost = Cycle(uops) * syncBusOpCycles;
    stall[cpu] += cost;
    if (checker)
        checker->onSyncEvent(cpu, lock_id, numLocks(),
                             cachedAt[lock_id]);
    return cost;
}

const SyncOpCounts &
SyncTransport::counts(uint32_t lock_id) const
{
    if (lock_id >= perLock.size())
        util::raise(util::ErrCode::BadConfig,
                    "syncbus: lock id %u out of range (machine has %zu "
                    "locks)",
                    lock_id, perLock.size());
    return perLock[lock_id];
}

SyncOpCounts
SyncTransport::sumOps(uint32_t id_limit) const
{
    SyncOpCounts total;
    const uint32_t n = std::min<uint32_t>(id_limit,
                                          uint32_t(perLock.size()));
    for (uint32_t i = 0; i < n; ++i) {
        total.uncachedOps += perLock[i].uncachedOps;
        total.cachedOps += perLock[i].cachedOps;
    }
    return total;
}

Cycle
SyncTransport::uncachedStallTotal() const
{
    return uncachedOpsTotal * syncBusOpCycles;
}

Cycle
SyncTransport::cachedStallTotal() const
{
    return cachedOpsTotal * busMissStall;
}

template <class Ar>
void
SyncTransport::state(Ar &ar)
{
    ar.fixed(uint32_t(perLock.size()), "syncbus lock count");
    for (SyncOpCounts &c : perLock) {
        ar.u64(c.uncachedOps);
        ar.u64(c.cachedOps);
    }
    // Only bits [0, numCpus) may be set in a sharer mask; phantom
    // sharers from a corrupt image would otherwise surface much later
    // as a baffling coherence-checker trip.
    const uint64_t legal = cfg.numCpus >= 64
        ? ~uint64_t(0)
        : (uint64_t(1) << cfg.numCpus) - 1;
    for (auto [masks, name] : {std::pair{&cachedAt, "cachedAt"},
                               std::pair{&qnodeAt, "qnodeAt"}}) {
        for (size_t i = 0; i < masks->size(); ++i) {
            uint64_t &m = (*masks)[i];
            ar.u64(m);
            if (Ar::loading && (m & ~legal))
                util::raise(util::ErrCode::SnapshotCorrupt,
                            "syncbus: lock %zu %s mask %llx has "
                            "sharers beyond cpu %u",
                            i, name, static_cast<unsigned long long>(m),
                            cfg.numCpus - 1);
        }
    }
    ar.fixed(uint32_t(stall.size()), "syncbus cpu count");
    for (Cycle &s : stall)
        ar.u64(s);
    ar.u64(uncachedOpsTotal);
    ar.u64(cachedOpsTotal);
}

template void SyncTransport::state(util::SaveArchive &);
template void SyncTransport::state(util::LoadArchive &);

} // namespace mpos::sim
