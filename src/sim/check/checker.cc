#include "sim/check/checker.hh"

#include <algorithm>
#include <bit>
#include <cstdarg>
#include <cstdio>

#include "sim/machine.hh"
#include "sim/memsys.hh"
#include "util/logging.hh"

namespace mpos::sim
{

namespace
{

/** Cap on recorded violations in non-aborting mode: the first few
 *  are what a minimized repro needs; millions would just thrash. */
constexpr size_t maxRecordedViolations = 64;

} // namespace

Checker::Checker(const MachineConfig &config)
    : cfg(config),
      lineShift(uint32_t(std::countr_zero(cfg.lineBytes))),
      osDepth(cfg.numCpus, -1), lastOsCycle(cfg.numCpus, 0)
{
}

void
Checker::onRestore()
{
    lastBusCycle = 0;
    std::fill(osDepth.begin(), osDepth.end(), int8_t(-1));
    std::fill(lastOsCycle.begin(), lastOsCycle.end(), Cycle(0));
}

void
Checker::violation(const char *fmt, ...)
{
    char buf[512];
    va_list ap;
    va_start(ap, fmt);
    std::vsnprintf(buf, sizeof(buf), fmt, ap);
    va_end(ap);

    ++stats_.violations;
    if (abortOnViolation)
        util::panic("invariant violation: %s", buf);
    if (log.size() < maxRecordedViolations)
        log.emplace_back(buf);
}

void
Checker::onLineEvent(Addr line)
{
    ++stats_.lineChecks;

    uint64_t trueMask = 0;
    uint32_t owners = 0; // CPUs holding the line Modified or Exclusive
    for (CpuId c = 0; c < cfg.numCpus; ++c) {
        const CpuCaches &h = mem->caches(c);
        // The state lives in the L2 way: non-Invalid means resident.
        const Coh st = h.getState(line);
        const bool inL2 = st != Coh::Invalid;

        if ((st == Coh::Exclusive && cfg.protocol != Protocol::Mesi) ||
            (st == Coh::Shared && cfg.protocol == Protocol::Mi)) {
            violation("protocol legality: cpu %u line %llx in state %u "
                      "which protocol %s cannot produce",
                      c, (unsigned long long)line, unsigned(st),
                      protocolName(cfg.protocol));
        }
        if (!inL2 && h.l1d.contains(line)) {
            violation("inclusion: cpu %u line %llx resident in L1 but "
                      "not in the inclusive L2",
                      c, (unsigned long long)line);
        }
        if (inL2)
            trueMask |= uint64_t(1) << c;
        if (st == Coh::Modified || st == Coh::Exclusive)
            ++owners;
    }

    if (owners > 1) {
        violation("SWMR: line %llx owned (M/E) by %u CPUs at once",
                  (unsigned long long)line, owners);
    } else if (owners == 1 && std::popcount(trueMask) > 1) {
        violation("SWMR: line %llx has an exclusive/dirty owner but "
                  "%d copies machine-wide",
                  (unsigned long long)line, std::popcount(trueMask));
    }

    const uint64_t filter = mem->sharersMask(line);
    if ((filter & trueMask) != trueMask) {
        violation("snoop filter unsound: line %llx filter mask %llx "
                  "misses true sharers %llx",
                  (unsigned long long)line,
                  (unsigned long long)filter,
                  (unsigned long long)trueMask);
    }
}

void
Checker::onSyncEvent(CpuId cpu, uint32_t lock_id, uint32_t num_locks,
                     uint64_t cached_mask)
{
    ++stats_.syncEvents;
    if (cpu >= cfg.numCpus)
        violation("sync event from invalid cpu %u", cpu);
    if (lock_id >= num_locks)
        violation("sync event for lock %u of %u", lock_id, num_locks);
    if (cfg.numCpus < 64 && (cached_mask >> cfg.numCpus) != 0) {
        violation("lock %u cached-at mask %llx names a CPU beyond %u",
                  lock_id, (unsigned long long)cached_mask,
                  cfg.numCpus);
    }
}

void
Checker::checkTlbEntry(CpuId cpu, const TlbEntry &e)
{
    ++stats_.tlbChecks;
    if (!e.valid) {
        violation("cpu %u translated through an invalid TLB entry",
                  cpu);
        return;
    }
    if ((e.ppage << std::countr_zero(uint64_t(cfg.pageBytes))) >=
        cfg.memBytes) {
        violation("cpu %u TLB entry maps vpage %llx to ppage %llx "
                  "outside memory",
                  cpu, (unsigned long long)e.vpage,
                  (unsigned long long)e.ppage);
    }
    if (validator) {
        const char *err =
            validator(e.pid, e.vpage, e.ppage, e.writable);
        if (err) {
            violation("TLB/page-table disagreement: cpu %u pid %d "
                      "vpage %llx -> ppage %llx%s: %s",
                      cpu, e.pid, (unsigned long long)e.vpage,
                      (unsigned long long)e.ppage,
                      e.writable ? " (writable)" : "", err);
        }
    }
}

void
Checker::checkContext(const MonitorContext &ctx)
{
    if (unsigned(ctx.mode) > unsigned(ExecMode::Idle))
        violation("monitor context with invalid mode %u",
                  unsigned(ctx.mode));
    if (unsigned(ctx.op) >= numOsOps)
        violation("monitor context with invalid OS op %u",
                  unsigned(ctx.op));
    if (ctx.pid < invalidPid)
        violation("monitor context with pid %d", ctx.pid);
}

void
Checker::busTransaction(const BusRecord &rec)
{
    ++stats_.busEvents;
    if (rec.cycle < lastBusCycle) {
        violation("bus record cycle %llu after cycle %llu",
                  (unsigned long long)rec.cycle,
                  (unsigned long long)lastBusCycle);
    }
    lastBusCycle = rec.cycle;
    if (rec.cpu >= cfg.numCpus)
        violation("bus record from invalid cpu %u", rec.cpu);
    if (rec.lineAddr & (cfg.lineBytes - 1)) {
        violation("bus record address %llx not line-aligned",
                  (unsigned long long)rec.lineAddr);
    }
    const bool cached = rec.op == BusOp::Read ||
                        rec.op == BusOp::ReadEx ||
                        rec.op == BusOp::Upgrade ||
                        rec.op == BusOp::Writeback;
    if (cached && rec.lineAddr >= cfg.memBytes) {
        violation("cached bus op on line %llx outside the %llu-byte "
                  "memory",
                  (unsigned long long)rec.lineAddr,
                  (unsigned long long)cfg.memBytes);
    }
    checkContext(rec.ctx);
}

void
Checker::evict(CpuId cpu, CacheKind, Addr line, const MonitorContext &by)
{
    ++stats_.monitorEvents;
    if (cpu >= cfg.numCpus)
        violation("evict event on invalid cpu %u", cpu);
    if (line & (cfg.lineBytes - 1))
        violation("evict event for unaligned line %llx",
                  (unsigned long long)line);
    checkContext(by);
}

void
Checker::invalSharing(CpuId cpu, CacheKind, Addr line)
{
    ++stats_.monitorEvents;
    if (cpu >= cfg.numCpus)
        violation("invalidation event on invalid cpu %u", cpu);
    if (line & (cfg.lineBytes - 1))
        violation("invalidation event for unaligned line %llx",
                  (unsigned long long)line);
}

void
Checker::invalPageRealloc(CpuId cpu, Addr line)
{
    ++stats_.monitorEvents;
    if (cpu >= cfg.numCpus)
        violation("page-realloc flush event on invalid cpu %u", cpu);
    if (line & (cfg.lineBytes - 1))
        violation("page-realloc flush of unaligned line %llx",
                  (unsigned long long)line);
}

void
Checker::osEnter(Cycle cycle, CpuId cpu, OsOp op)
{
    ++stats_.monitorEvents;
    if (cpu >= cfg.numCpus) {
        violation("osEnter on invalid cpu %u", cpu);
        return;
    }
    if (unsigned(op) >= numOsOps)
        violation("osEnter with invalid op %u", unsigned(op));
    if (cycle < lastOsCycle[cpu]) {
        violation("cpu %u osEnter at cycle %llu after cycle %llu",
                  cpu, (unsigned long long)cycle,
                  (unsigned long long)lastOsCycle[cpu]);
    }
    lastOsCycle[cpu] = cycle;
    // The stream may begin mid-state (the idle loop a CPU boots in is
    // only reported on its first transition), so -1 accepts either.
    if (osDepth[cpu] == 1) {
        violation("cpu %u osEnter(%s) while already inside the OS",
                  cpu, osOpName(op));
    }
    osDepth[cpu] = 1;
}

void
Checker::osExit(Cycle cycle, CpuId cpu, OsOp op)
{
    ++stats_.monitorEvents;
    if (cpu >= cfg.numCpus) {
        violation("osExit on invalid cpu %u", cpu);
        return;
    }
    if (unsigned(op) >= numOsOps)
        violation("osExit with invalid op %u", unsigned(op));
    if (cycle < lastOsCycle[cpu]) {
        violation("cpu %u osExit at cycle %llu after cycle %llu",
                  cpu, (unsigned long long)cycle,
                  (unsigned long long)lastOsCycle[cpu]);
    }
    lastOsCycle[cpu] = cycle;
    // A resumed continuation replays the trailing exit marker of the
    // OS path it blocked in after the dispatch already returned the
    // CPU to user mode, so a redundant osExit(None) while outside the
    // OS is part of the producer contract (every analysis treats it
    // as a no-op). Any other op while outside is a real imbalance.
    if (osDepth[cpu] == 0 && op != OsOp::None) {
        violation("cpu %u osExit(%s) while not inside the OS", cpu,
                  osOpName(op));
    }
    osDepth[cpu] = 0;
}

void
Checker::contextSwitch(Cycle, CpuId cpu, Pid from, Pid to)
{
    ++stats_.monitorEvents;
    if (cpu >= cfg.numCpus)
        violation("context switch on invalid cpu %u", cpu);
    if (from < invalidPid || to < invalidPid)
        violation("context switch with pids %d -> %d", from, to);
}

void
Checker::checkAll(const Machine &m)
{
    ++stats_.fullSweeps;

    auto report = [this](const std::string &msg) {
        violation("cache integrity: %s", msg.c_str());
    };

    for (CpuId c = 0; c < cfg.numCpus; ++c) {
        const CpuCaches &h = mem->caches(c);
        h.icache.checkIntegrity(report);
        h.l1d.checkIntegrity(report);
        h.l2d.checkIntegrity(report);

        // Coherence sweep over this CPU's resident data lines (each
        // onLineEvent re-checks the line across every CPU, so lines
        // shared by several caches are just checked repeatedly).
        h.l2d.forEachResident(
            [this](Addr line, Coh) { onLineEvent(line); });
        h.l1d.forEachResident(
            [this](Addr line, Coh) { onLineEvent(line); });

        const Tlb &tlb = m.cpu(c).tlb;
        for (uint32_t i = 0; i < tlb.size(); ++i) {
            const TlbEntry &e = tlb.entryAt(i);
            if (e.valid)
                checkTlbEntry(c, e);
        }
    }

    const SyncTransport &sync = m.sync();
    for (uint32_t id = 0; id < sync.numLocks(); ++id) {
        const uint64_t mask = sync.cachedAtMask(id);
        if (cfg.numCpus < 64 && (mask >> cfg.numCpus) != 0) {
            violation("lock %u cached-at mask %llx names a CPU beyond "
                      "%u",
                      id, (unsigned long long)mask, cfg.numCpus);
        }
    }
}

} // namespace mpos::sim
