#include "sim/machine.hh"

#include <algorithm>
#include <bit>

#include "util/error.hh"
#include "util/logging.hh"

namespace mpos::sim
{

Machine::Machine(const MachineConfig &config, uint32_t num_locks)
    : cfg(validateConfig(config)), mem(cfg, mon),
      syncTransport(cfg, num_locks),
      pageShift(uint32_t(std::countr_zero(cfg.pageBytes))),
      pageMask(Addr(cfg.pageBytes) - 1),
      parks(cfg.numCpus)
{
    cpus.reserve(cfg.numCpus);
    for (CpuId c = 0; c < cfg.numCpus; ++c)
        cpus.emplace_back(c, cfg);
    mem.setParker(this);

    if (cfg.check) {
        chk = std::make_unique<Checker>(cfg);
        chk->attachMemory(&mem);
        mem.setChecker(chk.get());
        syncTransport.setChecker(chk.get());
        // As a monitor observer the checker sees the full event stream
        // (and keeps listening() true, so records are always built).
        mon.attach(chk.get());
    }

    // Observability layer: trace exporter, metrics engine, profiler.
    // Each follows the checker discipline -- allocated only when
    // enabled, raw alias pointer as the hot-path null gate.
    if (cfg.trace) {
        tr = std::make_unique<trace::Tracer>(cfg.traceFile);
        trp = tr.get();
        mon.attach(trp);
    }

    if (cfg.metrics) {
        mx = std::make_unique<trace::Metrics>(cfg.metricsWindowCycles);
        mxp = mx.get();
        mon.attach(mxp);
    }

    if (cfg.profile) {
        pf = std::make_unique<trace::Profiler>(cfg.numCpus);
        pfp = pf.get();
        mon.attach(pfp);
    }
}

CycleAccount
Machine::totalAccount() const
{
    CycleAccount sum;
    for (const auto &c : cpus) {
        for (unsigned m = 0; m < 3; ++m) {
            sum.total[m] += c.account.total[m];
            sum.stall[m] += c.account.stall[m];
        }
    }
    return sum;
}

bool
Machine::step(Cpu &c, Cycle now)
{
    // The item is only popped once it is consumed: a faulting reference
    // stays at its queue position and the fault handler's script is
    // prepended in front of it, which is what the old pop + re-push
    // produced. A reference is safe here: pop_front only advances the
    // head index, and nothing below pushes to this queue -- except the
    // marker and fault callbacks, which get a copy / never reread it.
    const ScriptItem &item = c.script.front();

    switch (item.kind) {
      case ItemKind::Marker: {
        const ScriptItem m = item;
        c.script.pop_front();
        exec->marker(c.id, m);
        return false;
      }

      case ItemKind::Think:
        c.script.pop_front();
        c.charge(item.addr, 0);
        return true;

      case ItemKind::IFetchLine: {
        Addr pa = item.addr;
        if (item.space == AddrSpace::Virtual &&
            !translate(c, item.addr, false, pa)) {
            return false;
        }
        c.script.pop_front();
        const AccessResult r = mem.ifetchAccess(c.id, pa, now, c.ctx);
        c.charge(lineExecCycles, r.cycles - lineExecCycles);
        return true;
      }

      case ItemKind::Load:
      case ItemKind::Store: {
        const bool is_store = item.kind == ItemKind::Store;
        Addr pa = item.addr;
        if (item.space == AddrSpace::Virtual &&
            !translate(c, item.addr, is_store, pa)) {
            return false;
        }
        c.script.pop_front();
        const AccessResult r =
            mem.dataAccess(c.id, pa, is_store, now, c.ctx);
        c.charge(1, r.cycles - 1);
        return true;
      }

      case ItemKind::BypassLoad:
      case ItemKind::BypassStore: {
        const bool is_store = item.kind == ItemKind::BypassStore;
        Addr pa = item.addr;
        if (item.space == AddrSpace::Virtual &&
            !translate(c, item.addr, is_store, pa)) {
            return false;
        }
        c.script.pop_front();
        const AccessResult r =
            mem.bypassAccess(c.id, pa, is_store, now, c.ctx);
        c.charge(1, r.cycles - 1);
        return true;
      }

      case ItemKind::PrefetchLoad:
      case ItemKind::PrefetchStore: {
        // The reference behaves normally in the caches and on the bus,
        // but a prefetch engine issued it early, so the CPU does not
        // stall on it.
        const bool is_store = item.kind == ItemKind::PrefetchStore;
        Addr pa = item.addr;
        if (item.space == AddrSpace::Virtual &&
            !translate(c, item.addr, is_store, pa)) {
            return false;
        }
        c.script.pop_front();
        mem.dataAccess(c.id, pa, is_store, now, c.ctx);
        c.charge(1, 0);
        return true;
      }

      case ItemKind::UncachedLoad:
      case ItemKind::UncachedStore: {
        const bool is_store = item.kind == ItemKind::UncachedStore;
        c.script.pop_front();
        const AccessResult r =
            mem.uncachedAccess(c.id, item.addr, is_store, now, c.ctx);
        c.charge(1, r.cycles - 1);
        return true;
      }
    }
    util::panic("unhandled script item kind");
}

void
Machine::activate(Cpu &c)
{
    if (mem.parked() >> c.id & 1) {
        // The park's deadline: its busyUntil stood in for it.
        unpark(c, currentCycle - 1);
        if (c.busyUntil > currentCycle)
            return;
    }

    if (currentCycle >= c.nextPollAt) {
        c.nextPollAt = currentCycle + pollPeriod;
        if (c.intrDisable == 0 && c.ctx.mode != ExecMode::Kernel)
            exec->pollEvents(c.id, currentCycle);
    }

    uint32_t markers = 0;
    // Execute until the CPU has consumed this cycle.
    while (c.busyUntil <= currentCycle) {
        if (c.script.empty()) {
            Executor::declaredSpin = nullptr;
            exec->refill(c.id);
            if (c.script.empty())
                util::panic("executor refill pushed no work for cpu %u",
                            c.id);
            if (const auto *spin = Executor::declaredSpin) {
                if (!cfg.slowSim && tryPark(c, *spin, markers))
                    return;
                // A refused park may have run the leading markers.
                continue;
            }
        }
        if (!step(c, currentCycle)) {
            if (++markers > markerBudget) {
                // Runaway marker chain; let time advance.
                c.charge(1, 0);
                break;
            }
        }
    }
}

void
Machine::runFast(Cycle target)
{
    try {
        while (currentCycle < target) {
            // The same pass that executes free CPUs also collects the
            // minimum busyUntil for the cycle skip below. A CPU's
            // busyUntil can still rise after being sampled (a later
            // CPU's kernel work may charge it), which only makes the
            // sampled minimum too small: jumping to a cycle where
            // nothing is ready is a no-op pass, never a semantic
            // difference. A parked CPU's busyUntil is its deadline.
            Cycle next = target;
            wakeNext = target;
            for (Cpu &c : cpus) {
                if (c.busyUntil <= currentCycle) {
                    scanPos = c.id;
                    activate(c);
                }
                if (c.busyUntil < next)
                    next = c.busyUntil;
            }
            scanPos = 0;
            // A CPU woken after the scan passed it still needs its
            // next activation.
            if (wakeNext < next)
                next = wakeNext;

            // Cycle skip: a CPU only acts at cycles where busyUntil <=
            // now, and busyUntil never decreases, so the next cycle at
            // which anything can happen is the minimum busyUntil.
            // Polling cannot wake a CPU early: pollEvents only fires
            // when the CPU is already free. Jump straight there
            // (clamped so a runaway marker chain that left busyUntil
            // behind still advances one tick at a time, exactly as the
            // reference loop does).
            currentCycle = next > currentCycle ? next : currentCycle + 1;
        }
    } catch (...) {
        // An executor error unwinds through here: leave every CPU up
        // to date, as the reference scheduler would at this cycle.
        wakeParked();
        scanPos = 0;
        throw;
    }
    wakeParked();
}

bool
Machine::tryPark(Cpu &c, const std::vector<ScriptItem> &chunk,
                 uint32_t &markers)
{
    Park &pk = parks[c.id];
    if (pk.chunk != chunk)
        planSpin(pk, chunk);
    // The refill must have pushed exactly the chunk into an empty
    // queue at this cycle; no activation may exceed the marker budget.
    if (!pk.spinnable || c.script.size() != chunk.size() ||
        c.busyUntil != currentCycle ||
        markers + pk.markerCount > markerBudget)
        return false;

    // Leading markers run now, as the loop would run them.
    const uint32_t lead = pk.refs.front();
    for (uint32_t i = 0; i < lead; ++i) {
        step(c, currentCycle);
        ++markers;
    }
    if (c.script.size() != chunk.size() - lead ||
        c.busyUntil != currentCycle)
        return false;

    const CpuCaches &h = mem.caches(c.id);
    for (uint32_t r : pk.refs) {
        const ScriptItem &it = chunk[r];
        const bool hit = it.kind == ItemKind::IFetchLine
                             ? h.icache.contains(it.addr)
                             : h.l1d.contains(it.addr);
        if (!hit)
            return false;
    }
    const Cycle deadline = exec->nextEventAt(c.id);
    if (deadline <= currentCycle)
        return false;

    pk.start = currentCycle;
    pk.wakeAt = deadline;
    pk.pollAt = c.nextPollAt;
    c.busyUntil = deadline;
    mem.park(c.id, &pk.dataLines);
    return true;
}

void
Machine::planSpin(Park &pk, const std::vector<ScriptItem> &chunk)
{
    pk.chunk = chunk;
    pk.refs.clear();
    pk.offset.clear();
    pk.dataLines.clear();
    pk.period = 0;
    pk.markerCount = 0;
    pk.spinnable = true;
    for (uint32_t i = 0; i < chunk.size(); ++i) {
        const ScriptItem &it = chunk[i];
        if (it.kind == ItemKind::Marker) {
            ++pk.markerCount;
            continue;
        }
        if ((it.kind != ItemKind::IFetchLine &&
             it.kind != ItemKind::Load) ||
            it.space != AddrSpace::Physical) {
            pk.spinnable = false;
            return;
        }
        // A hit costs its execution cycles and no stall.
        pk.refs.push_back(i);
        pk.offset.push_back(pk.period);
        pk.period += it.kind == ItemKind::Load ? 1 : lineExecCycles;
        if (it.kind == ItemKind::Load)
            pk.dataLines.push_back(it.addr & ~Addr(cfg.lineBytes - 1));
    }
    pk.spinnable = !pk.refs.empty();
}

void
Machine::unpark(Cpu &c, Cycle through)
{
    Park &pk = parks[c.id];
    if (through < pk.start || through >= pk.wakeAt)
        util::panic("cpu %u unparked through cycle %llu outside its "
                    "park [%llu, %llu)", c.id,
                    (unsigned long long)through,
                    (unsigned long long)pk.start,
                    (unsigned long long)pk.wakeAt);
    mem.unpark(c.id);

    // Ref i of pass k runs at start + k * period + offset[i].
    const uint64_t nrefs = pk.refs.size();
    const auto refAtOrAfter = [&](Cycle t) {
        const Cycle d = t - pk.start;
        const Cycle pass = d / pk.period;
        const auto it = std::lower_bound(pk.offset.begin(),
                                         pk.offset.end(), d % pk.period);
        return pk.start + pass * pk.period +
               (it == pk.offset.end() ? pk.period : *it);
    };
    const Cycle span = through - pk.start;
    const uint64_t refsRun =
        span / pk.period * nrefs +
        uint64_t(std::upper_bound(pk.offset.begin(), pk.offset.end(),
                                  span % pk.period) -
                 pk.offset.begin());
    const Cycle busy = refAtOrAfter(through + 1);

    // Every activation at or past nextPollAt restarted the poll
    // period; its poll was a no-op, the park ends before the deadline.
    Cycle poll = pk.pollAt;
    while (poll <= through) {
        const Cycle at = refAtOrAfter(poll);
        if (at > through)
            break;
        poll = at + pollPeriod;
    }
    c.nextPollAt = poll;

    // Hits charge execution cycles only.
    c.account.total[unsigned(c.ctx.mode)] += busy - pk.start;
    c.busyUntil = busy;
    parkedTotal += busy - pk.start;

    // Leave the queue holding what follows the last reference run.
    const uint32_t from = pk.refs[(refsRun - 1) % nrefs] + 1;
    if (refsRun <= nrefs) {
        for (uint32_t i = pk.refs.front(); i < from; ++i)
            c.script.pop_front();
    } else {
        c.script.clear();
        c.script.append(pk.chunk.data() + from, pk.chunk.size() - from);
    }

    // Associative caches: replaying the last pass's touches gives the
    // LRU order the spin left. Other lines' invalidations during the
    // park commute with them, and the park never filled a line.
    CpuCaches &h = mem.caches(c.id);
    for (uint64_t g = refsRun - std::min<uint64_t>(refsRun, nrefs);
         g < refsRun; ++g) {
        const ScriptItem &it = pk.chunk[pk.refs[g % nrefs]];
        if (it.kind == ItemKind::IFetchLine)
            h.icache.touch(it.addr);
        else
            h.l1d.touch(it.addr);
    }

    if (c.id < scanPos && busy < wakeNext)
        wakeNext = busy;
}

void
Machine::wakeParked(CpuId cpu)
{
    if (mem.parked() >> cpu & 1)
        unpark(cpus[cpu], cpu < scanPos ? currentCycle : currentCycle - 1);
}

void
Machine::wakeParked()
{
    for (uint64_t m = mem.parked(); m; m &= m - 1)
        wakeParked(CpuId(std::countr_zero(m)));
}

void
Machine::wakeParkedAfter(Cycle when)
{
    for (uint64_t m = mem.parked(); m; m &= m - 1) {
        const auto cpu = CpuId(std::countr_zero(m));
        if (parks[cpu].wakeAt > when)
            wakeParked(cpu);
    }
}

void
Machine::runReference(Cycle target)
{
    // The original algorithm, kept byte-for-byte as the golden
    // reference: tick one cycle at a time and rescan every CPU.
    while (currentCycle < target) {
        for (Cpu &c : cpus) {
            if (c.busyUntil > currentCycle)
                continue;
            activate(c);
        }
        ++currentCycle;
    }
}

void
Machine::run(Cycle cycles)
{
    if (!exec)
        util::raise(util::ErrCode::BadConfig,
                    "Machine::run called with no executor installed");

    const Cycle target = currentCycle + cycles;
    if (cfg.slowSim)
        runReference(target);
    else
        runFast(target);
}

template <class Ar>
void
ScriptQueue::state(Ar &ar)
{
    uint64_t n = size();
    ar.count(n, 19);
    if constexpr (Ar::loading)
        clear();
    for (uint64_t i = 0; i < n; ++i) {
        ScriptItem it = Ar::loading ? ScriptItem{} : at(i);
        ar.u8(it.kind);
        ar.u8(it.space);
        ar.u8(it.marker);
        ar.u64(it.addr);
        ar.u64(it.arg2);
        if constexpr (Ar::loading)
            push_back(it);
    }
}

template void ScriptQueue::state(util::SaveArchive &);
template void ScriptQueue::state(util::LoadArchive &);

template <class Ar>
void
Machine::state(Ar &ar)
{
    ar.u64(currentCycle);
    ar.fixed(uint32_t(cpus.size()), "machine cpu count");
    for (Cpu &c : cpus) {
        c.ctx.state(ar);
        ar.u64(c.busyUntil);
        ar.u64(c.nextPollAt);
        ar.u32(c.intrDisable);
        for (unsigned m = 0; m < 3; ++m) {
            ar.u64(c.account.total[m]);
            ar.u64(c.account.stall[m]);
        }
        c.tlb.state(ar);
        c.script.state(ar);
    }
    mem.state(ar);
    syncTransport.state(ar);
    uint64_t tx = mon.transactions();
    uint64_t txos = mon.osTransactions();
    ar.u64(tx);
    ar.u64(txos);
    if constexpr (Ar::loading) {
        mon.restoreCounters(tx, txos);
        // Anything the checker inferred from events preceding the
        // restore (notably the kernel-boot idle enters emitted before
        // observers could see them) describes a history this machine
        // never lived.
        if (chk)
            chk->onRestore();
    }
}

void
Machine::saveState(util::ByteWriter &w) const
{
    util::SaveArchive ar(w);
    const_cast<Machine *>(this)->state(ar);
}

void
Machine::restoreState(util::ByteReader &r)
{
    util::LoadArchive ar(r);
    state(ar);
}

} // namespace mpos::sim
