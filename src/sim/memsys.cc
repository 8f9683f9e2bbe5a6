#include "sim/memsys.hh"

#include <bit>

#include "sim/check/checker.hh"
#include "sim/machine.hh"
#include "util/error.hh"
#include "util/logging.hh"

namespace mpos::sim
{

CpuCaches::CpuCaches(CpuId id, const MachineConfig &cfg)
    : cpu(id),
      icache("icache" + std::to_string(id), cfg.icacheBytes,
             cfg.icacheAssoc, cfg.lineBytes),
      l1d("l1d" + std::to_string(id), cfg.l1dBytes, cfg.l1dAssoc,
          cfg.lineBytes),
      l2d("l2d" + std::to_string(id), cfg.l2dBytes, cfg.l2dAssoc,
          cfg.lineBytes)
{
    // Geometry is validated centrally (validateConfig) before any
    // hierarchy is built; the Cache constructors re-check their own
    // shapes for direct (non-MemorySystem) users.
}

void
MemorySystem::rangePanic(Addr line) const
{
    util::panic("coherence state for line %llx outside the "
                "%llu-byte configured memory",
                static_cast<unsigned long long>(line),
                static_cast<unsigned long long>(cfg.memBytes));
}

MemorySystem::MemorySystem(const MachineConfig &config, Monitor &monitor)
    : cfg(validateConfig(config)), mon(monitor),
      numLines(cfg.numLines()),
      sharers((numLines + chunkMask) >> chunkShift),
      lineShift(uint32_t(std::countr_zero(cfg.lineBytes))),
      lineMask(~Addr(cfg.lineBytes - 1)),
      lineExecCycles(Cycle(cfg.instrPerLine) * cfg.cyclesPerInstr),
      spinData(cfg.numCpus, nullptr)
{
    hier.reserve(cfg.numCpus);
    for (CpuId c = 0; c < cfg.numCpus; ++c)
        hier.emplace_back(c, cfg);
}

void
MemorySystem::checkLineEvent(Addr line)
{
    checker->onLineEvent(line);
}

Cycle
MemorySystem::acquireBus(Cycle now)
{
    // With zero occupancy the bus never back-pressures: activation
    // times are monotonic, so busBusyUntil (= some earlier now) can
    // never exceed the current now and the delay is provably zero.
    if (cfg.busOccupancy == 0)
        return 0;
    const Cycle delay = busBusyUntil > now ? busBusyUntil - now : 0;
    busBusyUntil = now + delay + cfg.busOccupancy;
    return delay;
}

void
MemorySystem::record(Cycle now, CpuId cpu, Addr line, BusOp op,
                     CacheKind kind, const MonitorContext &ctx)
{
    ++txTotal;
    // Skip constructing the BusRecord when nobody is subscribed (the
    // collectMisses=false warmup mode); the always-on counters still
    // advance.
    if (mon.listening())
        mon.busTransaction({now, cpu, line, op, kind, ctx});
    else
        mon.countTransaction(ctx.mode);
}

uint64_t
MemorySystem::snoopTargets(CpuId requester, Addr line) const
{
    // Snoop filter: a walk over caches whose state is Invalid has no
    // effect, so the fast mode visits only the CPUs whose sharers bit
    // is set. The reference mode walks every CPU's L2 way to
    // double-check the filter. Both go in ascending CPU order.
    const uint64_t filter = sharersMask(line);
    const uint64_t m = cfg.slowSim ? ~uint64_t(0) >> (64 - cfg.numCpus)
                                   : filter;
    return m & ~(uint64_t(1) << requester);
}

bool
MemorySystem::snoopRead(CpuId requester, Addr line)
{
    bool shared = false;
    for (uint64_t m = snoopTargets(requester, line); m; m &= m - 1) {
        CpuCaches &h = hier[uint32_t(std::countr_zero(m))];
        const Coh st = h.getState(line);
        if (st == Coh::Invalid)
            continue;
        shared = true;
        // A dirty copy flushes; M and E both downgrade to Shared.
        if (st != Coh::Shared)
            h.setState(line, Coh::Shared);
    }
    return shared;
}

void
MemorySystem::snoopInvalidate(CpuId requester, Addr line)
{
    for (uint64_t m = snoopTargets(requester, line); m; m &= m - 1) {
        CpuCaches &h = hier[uint32_t(std::countr_zero(m))];
        // Wake before the line goes. Only holders can be parked: the
        // reference walk, which also visits non-holders, never parks.
        if (parkedCpus >> h.cpu & 1)
            wakeIfSpinLine(h.cpu, line);
        if (!h.l2d.invalidate(line))
            continue;
        h.l1d.invalidate(line);
        clearSharer(h.cpu, line);
        mon.invalSharing(h.cpu, CacheKind::Data, line);
    }
}

void
MemorySystem::wakeIfSpinLine(CpuId cpu, Addr line)
{
    for (Addr a : *spinData[cpu]) {
        if (a == line) {
            parker->wakeParked(cpu);
            return;
        }
    }
}

void
MemorySystem::l2Fill(CpuId cpu, Addr line, Coh st, Cycle now,
                     const MonitorContext &ctx)
{
    CpuCaches &h = hier[cpu];
    // Index first: a line outside memory panics before it is cached.
    uint64_t &bits = sharerWord(lineIndex(line));
    const Victim v = h.l2d.fill(line, st);
    if (v.valid) {
        if (v.state == Coh::Modified) {
            // Dirty writeback; buffered, so the CPU is not charged.
            record(now, cpu, v.lineAddr, BusOp::Writeback,
                   CacheKind::Data, ctx);
        }
        // Inclusion: the L1 may not keep a line the L2 dropped.
        h.l1d.invalidate(v.lineAddr);
        clearSharer(cpu, v.lineAddr);
        if (mon.listening())
            mon.evict(cpu, CacheKind::Data, v.lineAddr, ctx);
        if (checker)
            checker->onLineEvent(v.lineAddr);
    }
    bits |= uint64_t(1) << cpu;
}

AccessResult
MemorySystem::dataAccessSlow(CpuId cpu, Addr addr, bool is_write,
                             Cycle now, const MonitorContext &ctx)
{
    CpuCaches &h = hier[cpu];
    const Addr line = addr & ~Addr(cfg.lineBytes - 1);
    AccessResult res;
    res.cycles = 1; // base execution cost of the reference

    const bool l1hit = h.l1d.touch(line);
    const bool l2hit = l1hit || h.l2d.touch(line);

    if (l2hit) {
        if (!l1hit) {
            res.cycles += cfg.l2HitStall;
            h.l1d.fill(line); // L1 victim still resides in L2: silent
        }
        if (is_write) {
            const Coh st = h.getState(line);
            if (st == Coh::Shared) {
                // Upgrade: invalidate the other copies.
                const Cycle delay = acquireBus(now);
                snoopInvalidate(cpu, line);
                record(now + delay, cpu, line, BusOp::Upgrade,
                       CacheKind::Data, ctx);
                res.cycles += cfg.busMissStall + delay;
                res.busAccess = true;
            }
            h.setState(line, Coh::Modified);
        }
        if (checker)
            checker->onLineEvent(line);
        return res;
    }

    // L2 miss: full bus transaction.
    const Cycle delay = acquireBus(now);
    Coh newState;
    if (is_write || cfg.protocol == Protocol::Mi) {
        // MI has no shared states: even a read miss must steal the
        // line outright, invalidating every remote copy. The read
        // still appears on the bus as a plain Read.
        snoopInvalidate(cpu, line);
        newState = Coh::Modified;
        record(now + delay, cpu, line,
               is_write ? BusOp::ReadEx : BusOp::Read, CacheKind::Data,
               ctx);
    } else {
        const bool shared = snoopRead(cpu, line);
        // MESI fills Exclusive when no other cache answered; MSI has
        // no E state, so every read miss fills Shared and the first
        // write pays an Upgrade even on a private line.
        newState = (cfg.protocol == Protocol::Mesi && !shared)
                       ? Coh::Exclusive
                       : Coh::Shared;
        record(now + delay, cpu, line, BusOp::Read, CacheKind::Data,
               ctx);
    }
    // now + delay: the victim writeback drains from the buffer after
    // the fill transaction holds the bus, so its record must not
    // claim an earlier bus slot than the fill's.
    l2Fill(cpu, line, newState, now + delay, ctx);
    h.l1d.fill(line);
    res.cycles += cfg.busMissStall + delay;
    res.busAccess = true;
    if (checker)
        checker->onLineEvent(line);
    return res;
}

AccessResult
MemorySystem::ifetchMiss(CpuId cpu, Addr line, Cycle now,
                         const MonitorContext &ctx)
{
    CpuCaches &h = hier[cpu];
    AccessResult res;
    // Executing the instructions in the line.
    res.cycles = lineExecCycles;

    const Cycle delay = acquireBus(now);
    // A dirty data copy in any D-cache must be flushed before the
    // fetch; downgrading through snoopRead models that. MI has no
    // Shared state to downgrade into, so it invalidates instead.
    if (cfg.protocol == Protocol::Mi)
        snoopInvalidate(cpu, line);
    else
        snoopRead(cpu, line);
    record(now + delay, cpu, line, BusOp::Read, CacheKind::Instr, ctx);
    const Victim v = h.icache.fill(line);
    if (v.valid && mon.listening())
        mon.evict(cpu, CacheKind::Instr, v.lineAddr, ctx);
    res.cycles += cfg.busMissStall + delay;
    res.busAccess = true;
    if (checker)
        checker->onLineEvent(line); // fetch may have downgraded D-copies
    return res;
}

AccessResult
MemorySystem::uncachedAccess(CpuId cpu, Addr addr, bool is_write,
                             Cycle now, const MonitorContext &ctx)
{
    const Addr line = addr & ~Addr(cfg.lineBytes - 1);
    const Cycle delay = acquireBus(now);
    record(now + delay, cpu, line,
           is_write ? BusOp::UncachedWrite : BusOp::UncachedRead,
           CacheKind::Data, ctx);
    return {cfg.uncachedAccessCycles + delay, true};
}

AccessResult
MemorySystem::bypassAccess(CpuId cpu, Addr addr, bool is_write,
                           Cycle now, const MonitorContext &ctx)
{
    // Block-operation cache bypass: the line is transferred over the
    // bus (and other caches are kept coherent) but is NOT installed in
    // the requester's cache, so no displacement occurs.
    const Addr line = addr & ~Addr(cfg.lineBytes - 1);
    const Cycle delay = acquireBus(now);
    // MI: even the non-caching read must invalidate (a remote M copy
    // cannot legally downgrade to S under MI).
    if (is_write || cfg.protocol == Protocol::Mi)
        snoopInvalidate(cpu, line);
    else
        snoopRead(cpu, line);
    record(now + delay, cpu, line,
           is_write ? BusOp::ReadEx : BusOp::Read, CacheKind::Data, ctx);
    if (checker)
        checker->onLineEvent(line);
    return {1 + cfg.busMissStall + delay, true};
}

void
MemorySystem::flushICachesForPage(Addr ppage)
{
    // As on the measured machine, reallocating a physical page that
    // held code flushes the WHOLE instruction cache of every CPU (the
    // R3000 kernel had no cheap selective flush); the paper's Figure 6
    // notes that this algorithm does not scale down with larger
    // caches, which is what creates the Inval saturation floor.
    (void)ppage;
    // Every parked CPU spins on I-cache hits the flush removes.
    while (parkedCpus)
        parker->wakeParked(CpuId(std::countr_zero(parkedCpus)));
    for (CpuCaches &h : hier) {
        mon.flushPage(h.cpu, 0, 0); // 0 bytes = full-cache flush
        h.icache.invalidateRange(0, ~Addr(0), [&](Addr line) {
            mon.invalPageRealloc(h.cpu, line);
        });
    }
}

template <class Ar>
void
MemorySystem::state(Ar &ar)
{
    ar.fixed(uint32_t(hier.size()), "memsys cpu count");
    if constexpr (Ar::loading)
        for (std::unique_ptr<SharerChunk> &c : sharers)
            c.reset();
    for (CpuCaches &h : hier) {
        ar.split(h.icache);
        ar.split(h.l1d);
        ar.split(h.l2d);
        if constexpr (!Ar::loading)
            continue;
        h.l2d.forEachResident([&](Addr line, Coh s) {
            // A snapshot may only contain lines in memory and states
            // its protocol can produce (MSI never E; MI never S or E).
            if (line >> lineShift >= numLines)
                util::raise(util::ErrCode::SnapshotCorrupt,
                            "memsys: line %llx beyond memory",
                            (unsigned long long)line);
            if ((s == Coh::Exclusive &&
                 cfg.protocol != Protocol::Mesi) ||
                (s == Coh::Shared && cfg.protocol == Protocol::Mi))
                util::raise(util::ErrCode::SnapshotCorrupt,
                            "memsys: state %u illegal under protocol "
                            "%s", unsigned(s),
                            protocolName(cfg.protocol));
            sharerWord(line >> lineShift) |= uint64_t(1) << h.cpu;
        });
    }
    ar.u64(busBusyUntil);
    ar.u64(txTotal);
}

template void MemorySystem::state(util::SaveArchive &);
template void MemorySystem::state(util::LoadArchive &);

} // namespace mpos::sim
