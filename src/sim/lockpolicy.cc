#include "sim/lockpolicy.hh"

#include "util/error.hh"
#include "util/logging.hh"

namespace mpos::sim
{

namespace
{

LockAcquireStep
won(LockState &l, CpuId cpu, LockEvent ev)
{
    l.heldByCpu = int32_t(cpu);
    l.spinMask &= ~(uint64_t(1) << cpu);
    return {true, ev};
}

LockAcquireStep
spin(LockState &l, CpuId cpu, LockEvent ev, uint64_t retry_state)
{
    l.spinMask |= uint64_t(1) << cpu;
    return {false, ev, LockWait::Spin, retry_state};
}

/** Hand the lock to the FIFO head of its waiters; returns the head. */
uint32_t
grantHead(LockState &l)
{
    const uint32_t head = l.waitQueue.front();
    l.waitQueue.erase(l.waitQueue.begin());
    l.grantedTo = int32_t(head);
    return head;
}

/** A restored id field, which must lie in [lowest, bound). */
int64_t
checkedId(int64_t v, int64_t lowest, uint32_t bound, uint32_t lock_id,
          const char *field)
{
    if (v < lowest || v >= int64_t(bound))
        util::raise(util::ErrCode::SnapshotCorrupt,
                    "lock table: lock %u %s %lld outside [%lld, %u)",
                    lock_id, field, (long long)v, (long long)lowest,
                    bound);
    return v;
}

} // namespace

LockAcquireStep
lockAcquire(LockPolicy policy, LockState &l, uint32_t lock_id,
            CpuId cpu, uint64_t state, bool read)
{
    if (read && policy == LockPolicy::Rcu) {
        ++l.rcuReaders; // readers write no shared line; they are counted
        return {true, LockEvent::RcuReadEnter};
    }
    if (l.heldByCpu == int32_t(cpu))
        util::panic("cpu %u re-acquiring kernel lock %u", cpu, lock_id);

    switch (policy) {
      case LockPolicy::Ticket: {
        // The first attempt takes a ticket with a fetch-and-add;
        // re-polls carry it (+1) and re-read now-serving.
        const uint32_t ticket =
            state == 0 ? l.nextTicket++ : uint32_t(state - 1);
        const LockEvent ev =
            state == 0 ? LockEvent::TicketTake : LockEvent::TicketPoll;
        if (ticket == l.nowServing && l.heldByCpu < 0)
            return won(l, cpu, ev);
        return spin(l, cpu, ev, uint64_t(ticket) + 1);
      }
      case LockPolicy::Mcs:
        if (state == 0) {
            // Tail swap found the queue empty: uncontended.
            if (l.heldByCpu < 0 && l.grantedTo < 0 &&
                l.waitQueue.empty())
                return won(l, cpu, LockEvent::McsSwap);
            // Swap found a predecessor: link in and spin on our node.
            l.waitQueue.push_back(cpu);
            return spin(l, cpu, LockEvent::McsEnqueue, 1);
        }
        if (l.grantedTo == int32_t(cpu)) {
            // The predecessor's hand-off write flipped our node flag;
            // this poll refetches the invalidated node and wins.
            l.grantedTo = -1;
            return won(l, cpu, LockEvent::McsLocalPoll);
        }
        return spin(l, cpu, LockEvent::McsLocalPoll, 1);
      default: // Futex and RCU kernel locks are test-and-set
        break;
    }
    if (l.heldByCpu < 0)
        return won(l, cpu, LockEvent::AcquireSuccess);
    return spin(l, cpu, LockEvent::AcquireFail, 0);
}

LockReleaseStep
lockRelease(LockPolicy policy, LockState &l, uint32_t lock_id,
            CpuId cpu, bool read, bool rcu_managed)
{
    if (read && policy == LockPolicy::Rcu) {
        if (l.rcuReaders == 0)
            util::panic("cpu %u leaving rcu read section of lock %u "
                        "with no readers", cpu, lock_id);
        --l.rcuReaders;
        return {LockEvent::RcuReadExit};
    }
    if (l.heldByCpu != int32_t(cpu))
        util::panic("cpu %u releasing kernel lock %u it does not hold",
                    cpu, lock_id);
    l.heldByCpu = -1;

    switch (policy) {
      case LockPolicy::Ticket:
        ++l.nowServing; // the write every poller's next read observes
        return {LockEvent::TicketRelease};
      case LockPolicy::Mcs:
        // No waiter: tail compare-and-swap back to empty.
        if (l.waitQueue.empty())
            return {LockEvent::McsReleaseFree};
        // Write exactly the successor's node flag; only its spin copy
        // is invalidated, everyone further back spins on.
        return {LockEvent::McsHandoff, int(grantHead(l))};
      case LockPolicy::Rcu:
        // A writer of a managed table published a new version: it
        // waits out a grace period so pre-existing readers drain.
        return {LockEvent::Release, -1, rcu_managed};
      default:
        return {LockEvent::Release};
    }
}

LockAcquireStep
userLockAcquire(LockPolicy policy, LockState &l, CpuId cpu, Pid pid,
                uint32_t spins, uint32_t spin_limit)
{
    const bool futex = policy == LockPolicy::Futex;
    // A futex release may have granted the lock directly to a woken
    // waiter; nobody else may barge in ahead of it.
    if (l.heldByCpu < 0 &&
        (!futex || l.grantedTo < 0 || l.grantedTo == int32_t(pid))) {
        l.heldByCpu = int32_t(pid); // user locks are held by processes
        l.spinMask &= ~(uint64_t(1) << cpu);
        if (futex && l.grantedTo == int32_t(pid)) {
            l.grantedTo = -1;
            --l.napWaiters; // the woken waiter stops waiting here
        } else if (!futex && l.napWaiters > 0 && spins == 0) {
            --l.napWaiters;
        }
        return {true, futex ? LockEvent::FutexAcquire
                            : LockEvent::AcquireSuccess};
    }

    // One losing CAS, then a FUTEX_WAIT-style syscall: the waiter
    // blocks, so a held futex generates no steady-state bus traffic.
    if (futex)
        return {false, LockEvent::FutexWait, LockWait::Block, 0};
    if (spins + 1 < spin_limit)
        return spin(l, cpu, LockEvent::AcquireFail, spins + 1);
    // After spin_limit unsuccessful spins the library calls sginap
    // (paper Sec. 4.1): reschedule, then retry from zero.
    l.spinMask &= ~(uint64_t(1) << cpu);
    ++l.napWaiters;
    return {false, LockEvent::AcquireFail, LockWait::Nap, 0};
}

bool
futexSleep(LockState &l, Pid pid)
{
    // A release between the user-level CAS and this re-check must not
    // be lost.
    if (l.heldByCpu < 0 &&
        (l.grantedTo < 0 || l.grantedTo == int32_t(pid)))
        return false;
    ++l.napWaiters; // blocked waiters ride the nap count (Table 12)
    l.waitQueue.push_back(uint32_t(pid));
    return true;
}

LockReleaseStep
userLockRelease(LockPolicy policy, LockState &l, uint32_t lock_id,
                Pid pid)
{
    if (l.heldByCpu != int32_t(pid))
        util::panic("pid %d releasing user lock %u it does not hold",
                    int(pid), lock_id);
    l.heldByCpu = -1;
    if (policy != LockPolicy::Futex || l.waitQueue.empty())
        return {LockEvent::Release};
    // Wake-one; napWaiters drops when the grantee takes the lock.
    return {LockEvent::FutexWake, int(grantHead(l))};
}

template <class Ar>
void
lockTableState(Ar &ar, std::vector<LockState> &locks,
               uint32_t kernel_locks, uint32_t num_cpus,
               uint32_t num_pids)
{
    ar.fixed(uint32_t(locks.size()), "lock table size");
    for (uint32_t id = 0; id < locks.size(); ++id) {
        LockState &l = locks[id];
        const uint32_t bound = id < kernel_locks ? num_cpus : num_pids;
        // Holder and grantee travel as i64 and are range-checked
        // before they narrow.
        auto owner = [&](int32_t &field, const char *what) {
            int64_t v = field;
            ar.i64(v);
            if constexpr (Ar::loading)
                field = int32_t(checkedId(v, -1, bound, id, what));
        };
        owner(l.heldByCpu, "holder");
        ar.u64(l.spinMask);
        if constexpr (Ar::loading)
            checkedId(std::bit_width(l.spinMask), 0, num_cpus + 1, id,
                      "spin mask width");
        ar.u32(l.napWaiters);
        ar.u32(l.nextTicket);
        ar.u32(l.nowServing);
        owner(l.grantedTo, "grantee");
        uint32_t queued = uint32_t(l.waitQueue.size());
        ar.u32(queued);
        // A CPU or pid waits in a queue at most once.
        if constexpr (Ar::loading)
            l.waitQueue.resize(
                checkedId(queued, 0, bound + 1, id, "queue length"));
        for (uint32_t &q : l.waitQueue) {
            ar.u32(q);
            if constexpr (Ar::loading)
                checkedId(q, 0, bound, id, "waiter");
        }
        ar.u32(l.rcuReaders);
    }
}

template void lockTableState(util::SaveArchive &, std::vector<LockState> &,
                             uint32_t, uint32_t, uint32_t);
template void lockTableState(util::LoadArchive &, std::vector<LockState> &,
                             uint32_t, uint32_t, uint32_t);

void
saveLockTable(util::ByteWriter &w, const std::vector<LockState> &locks)
{
    util::SaveArchive ar(w);
    lockTableState(ar, const_cast<std::vector<LockState> &>(locks), 0, 0,
                   0);
}

void
restoreLockTable(util::ByteReader &r, std::vector<LockState> &locks,
                 uint32_t kernel_locks, uint32_t num_cpus,
                 uint32_t num_pids)
{
    util::LoadArchive ar(r);
    lockTableState(ar, locks, kernel_locks, num_cpus, num_pids);
}

} // namespace mpos::sim
