#include "sim/check/fuzz.hh"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "sim/check/checker.hh"
#include "sim/lockpolicy.hh"
#include "sim/machine.hh"
#include "sim/phase.hh"
#include "sim/snapshot/container.hh"
#include "util/binio.hh"
#include "util/error.hh"
#include "util/logging.hh"
#include "util/rng.hh"

namespace mpos::sim
{

namespace
{

/** Pids the generator draws from (validator rejects anything else). */
constexpr Pid maxFuzzPid = 8;

/** Device address base for uncached traffic (beyond memBytes). */
constexpr Addr deviceBase = 0x40000000;

/** One monitor event flattened for bit-exact comparison. */
struct Event
{
    enum Kind : uint8_t
    {
        Bus, Evict, InvalSharing, InvalRealloc, FlushPage, OsEnter,
        OsExit, CtxSwitch,
    };

    uint8_t kind = 0;
    Cycle cycle = 0;
    CpuId cpu = 0;
    Addr addr = 0;
    uint64_t a = 0; ///< op / kind / pid-from, per event kind
    uint64_t b = 0; ///< packed context / pid-to

    bool operator==(const Event &) const = default;
};

uint64_t
packCtx(const MonitorContext &ctx)
{
    return uint64_t(uint8_t(ctx.mode)) | (uint64_t(uint8_t(ctx.op)) << 8) |
           (uint64_t(ctx.routine) << 16) |
           (uint64_t(uint32_t(ctx.pid)) << 32);
}

std::string
describeEvent(const Event &e)
{
    std::ostringstream os;
    static const char *names[] = {"bus", "evict", "invalSharing",
                                  "invalRealloc", "flushPage", "osEnter",
                                  "osExit", "ctxSwitch"};
    os << names[e.kind] << " cycle=" << e.cycle << " cpu=" << e.cpu
       << " addr=0x" << std::hex << e.addr << std::dec << " a=" << e.a
       << " b=" << e.b;
    return os.str();
}

/** "diverge(s) at index i (...)": the first event where a and b
 *  differ, named an and bn. */
void
describeDivergence(std::ostream &os, const std::vector<Event> &a,
                   const char *an, const std::vector<Event> &b,
                   const char *bn)
{
    size_t i = 0;
    while (i < a.size() && i < b.size() && a[i] == b[i])
        ++i;
    const auto at = [i](const std::vector<Event> &v) {
        return i < v.size() ? describeEvent(v[i]) : std::string("<end>");
    };
    os << "diverge at index " << i << " (" << an << " " << a.size()
       << " events, " << bn << " " << b.size() << "): " << an << "="
       << at(a) << " " << bn << "=" << at(b);
}

/** MonitorObserver that flattens the whole stream into a vector. */
class EventRecorder : public MonitorObserver
{
  public:
    std::vector<Event> events;

    void
    busTransaction(const BusRecord &r) override
    {
        events.push_back({Event::Bus, r.cycle, r.cpu, r.lineAddr,
                          uint64_t(uint8_t(r.op)) |
                              (uint64_t(uint8_t(r.cache)) << 8),
                          packCtx(r.ctx)});
    }

    void
    evict(CpuId cpu, CacheKind kind, Addr line,
          const MonitorContext &by) override
    {
        events.push_back({Event::Evict, 0, cpu, line,
                          uint64_t(uint8_t(kind)), packCtx(by)});
    }

    void
    invalSharing(CpuId cpu, CacheKind kind, Addr line) override
    {
        events.push_back({Event::InvalSharing, 0, cpu, line,
                          uint64_t(uint8_t(kind)), 0});
    }

    void
    invalPageRealloc(CpuId cpu, Addr line) override
    {
        events.push_back({Event::InvalRealloc, 0, cpu, line, 0, 0});
    }

    void
    flushPage(CpuId cpu, Addr page, uint32_t bytes) override
    {
        events.push_back({Event::FlushPage, 0, cpu, page, bytes, 0});
    }

    void
    osEnter(Cycle cycle, CpuId cpu, OsOp op) override
    {
        events.push_back({Event::OsEnter, cycle, cpu, 0,
                          uint64_t(uint8_t(op)), 0});
    }

    void
    osExit(Cycle cycle, CpuId cpu, OsOp op) override
    {
        events.push_back({Event::OsExit, cycle, cpu, 0,
                          uint64_t(uint8_t(op)), 0});
    }

    void
    contextSwitch(Cycle cycle, CpuId cpu, Pid from, Pid to) override
    {
        events.push_back({Event::CtxSwitch, cycle, cpu, 0,
                          uint64_t(uint32_t(from)),
                          uint64_t(uint32_t(to))});
    }
};

/** Cycles a CPU that lost a lock thinks before polling again (the
 *  kernel's default spin gap). */
constexpr Cycle fuzzSpinGap = 30;

/**
 * Executor interpreting the fuzz scripts: OS enter/exit markers drive
 * the monitor context, lock markers drive the lock-policy state
 * machine (sim/lockpolicy.hh) on the executor's own lock table and
 * charge its transport events, TLB faults install the identity
 * mapping, and a CPU whose program is done spins on a declared chunk
 * -- two instruction fetches and loads of pool lines the other CPUs'
 * programs store to -- so the fast core parks it and their stores and
 * I-cache flushes wake it.
 */
class ScriptedExecutor : public Executor
{
  public:
    /** The lock table the policy steps run on, every lock a kernel
     *  lock held by a CPU. A snapshot carries it in its Kernel
     *  section, as the kernel's own snapshot carries its table. */
    std::vector<LockState> locks;
    /** What the state machine did during this executor's run. */
    FuzzLockCoverage coverage;

    /** @param spin_lines Data lines the finished CPUs' spin loads. */
    ScriptedExecutor(Machine &machine,
                     const std::vector<Addr> &spin_lines,
                     FaultPlan *faults = nullptr)
        : locks(machine.sync().numLocks()), m(machine), fp(faults)
    {
        const Addr code = machine.config().memBytes / 2;
        spin = {ScriptItem::ifetch(code),
                ScriptItem::ifetch(code + machine.config().lineBytes)};
        for (Addr line : spin_lines)
            spin.push_back(ScriptItem::load(line));
    }

    void
    refill(CpuId cpu) override
    {
        m.cpu(cpu).pushSeq(spin);
        declareSpin(spin);
    }

    void
    marker(CpuId cpu, const ScriptItem &item) override
    {
        Cpu &c = m.cpu(cpu);
        const uint32_t id = uint32_t(item.addr);
        switch (item.marker) {
          case MarkerOp::OsEnter:
            m.monitor().osEnter(m.now(), cpu, OsOp(item.addr));
            c.ctx.mode = ExecMode::Kernel;
            c.ctx.op = OsOp(item.addr);
            break;
          case MarkerOp::OsExit:
            m.monitor().osExit(m.now(), cpu, c.ctx.op);
            c.ctx.mode = ExecMode::User;
            c.ctx.op = OsOp::None;
            break;
          case MarkerOp::LockAcquire:
          case MarkerOp::LockAcquireShared:
            acquire(cpu, id, item.arg2,
                    item.marker == MarkerOp::LockAcquireShared);
            break;
          case MarkerOp::LockRelease:
          case MarkerOp::LockReleaseShared:
            release(cpu, id, item.marker == MarkerOp::LockReleaseShared);
            break;
          case MarkerOp::Resched:
            m.monitor().contextSwitch(m.now(), cpu, c.ctx.pid,
                                      Pid(item.addr));
            c.ctx.pid = Pid(item.addr);
            break;
          case MarkerOp::InvalICache:
            m.memory().flushICachesForPage(0);
            break;
          default:
            break;
        }
    }

    void
    fault(CpuId cpu, Addr vaddr, bool, bool) override
    {
        // Identity page table: vpage maps to the same-numbered ppage,
        // always writable. The faulting item retries and hits.
        Cpu &c = m.cpu(cpu);
        const Addr vpage = vaddr / m.config().pageBytes;
        c.tlb.insert(c.ctx.pid, vpage, vpage, true);
        m.charge(cpu, 20, false); // nominal refill cost
    }

    void pollEvents(CpuId, Cycle) override {}

    /** pollEvents is a no-op forever, so a park never needs to end
     *  for an external event. */
    Cycle nextEventAt(CpuId) const override { return ~Cycle(0); }

  private:
    LockPolicy policy() const { return m.config().lockPolicy; }

    /** The lower half of the lock ids plays the RCU-managed
     *  read-mostly tables; the upper half stays exclusive. */
    bool
    rcuManaged(uint32_t id) const
    {
        return id < locks.size() / 2;
    }

    void
    charge(CpuId cpu, uint32_t id, LockEvent ev, int peer = -1)
    {
        m.charge(cpu, m.sync().access(cpu, id, ev, peer), true);
    }

    /** As the kernel does: a loser spins on a retry marker. */
    void
    acquire(CpuId cpu, uint32_t id, uint64_t state, bool shared)
    {
        const LockAcquireStep st = lockAcquire(
            policy(), locks[id], id, cpu, state, shared && rcuManaged(id));
        charge(cpu, id, st.ev);
        if (st.ev == LockEvent::RcuReadEnter) {
            ++coverage.readSections;
            return;
        }
        if (st.won) {
            // Fault injection: stretch the hold of perturbed locks
            // (the extra cycles model a slow critical section).
            if (fp)
                m.charge(cpu, fp->holdExtra(id), true);
            return;
        }
        ++coverage.lostAcquires;
        Cpu &c = m.cpu(cpu);
        c.pushFront(
            ScriptItem::mark(MarkerOp::LockAcquire, id, st.retryState));
        c.pushFront(ScriptItem::think(fuzzSpinGap));
    }

    void
    release(CpuId cpu, uint32_t id, bool shared)
    {
        const LockReleaseStep st =
            lockRelease(policy(), locks[id], id, cpu,
                        shared && rcuManaged(id), rcuManaged(id));
        charge(cpu, id, st.ev, st.peer);
        if (st.peer >= 0)
            ++coverage.handoffs;
        if (st.gracePeriod) {
            charge(cpu, id, LockEvent::RcuSync);
            ++coverage.gracePeriods;
        }
    }

    Machine &m;
    FaultPlan *fp; ///< Null outside fault-injection campaigns.
    std::vector<ScriptItem> spin; ///< A finished CPU's spin chunk.
};

/** Final machine state flattened for bit-exact comparison. */
struct StateSnapshot
{
    Cycle now = 0;
    uint64_t busTx = 0;
    std::vector<uint64_t> perCpu;
    /** Per (pool line, cpu): coh state | L1 | L2 | I-cache bits. */
    std::vector<uint8_t> lines;

    bool operator==(const StateSnapshot &) const = default;
};

StateSnapshot
capture(const Machine &m, const std::vector<Addr> &pool)
{
    StateSnapshot s;
    s.now = m.now();
    s.busTx = m.memory().busTransactions();
    for (CpuId c = 0; c < m.numCpus(); ++c) {
        const Cpu &cpu = m.cpu(c);
        s.perCpu.push_back(cpu.busyUntil);
        for (unsigned mode = 0; mode < 3; ++mode) {
            s.perCpu.push_back(cpu.account.total[mode]);
            s.perCpu.push_back(cpu.account.stall[mode]);
        }
        s.perCpu.push_back(cpu.tlb.hits);
        s.perCpu.push_back(cpu.tlb.misses);
        s.perCpu.push_back(m.sync().stallCycles(c));
    }
    for (Addr line : pool) {
        for (CpuId c = 0; c < m.numCpus(); ++c) {
            const CpuCaches &h = m.memory().caches(c);
            s.lines.push_back(
                uint8_t(uint8_t(h.getState(line)) |
                        (uint8_t(h.l1d.contains(line)) << 2) |
                        (uint8_t(h.l2d.contains(line)) << 3) |
                        (uint8_t(h.icache.contains(line)) << 4)));
        }
    }
    return s;
}

std::vector<Addr>
buildPool(util::Rng &rng, const FuzzOptions &opt,
          const MachineConfig &cfg)
{
    std::vector<Addr> pool;
    pool.reserve(opt.poolLines);
    const uint64_t lines = cfg.memBytes / cfg.lineBytes;
    for (uint32_t i = 0; i < opt.poolLines; ++i)
        pool.push_back(rng.below(lines) * cfg.lineBytes);
    return pool;
}

/** A seed's pool: the generator's first draw, rebuilt the same way. */
std::vector<Addr>
poolFor(uint64_t seed, const FuzzOptions &opt)
{
    util::Rng rng(seed ^ 0xf02277a5f9a3e1cdULL);
    return buildPool(rng, opt, opt.machineConfig(seed));
}

/** The lines finished CPUs spin on: the pool's first few, which the
 *  programs load and store like every other pool line. */
std::vector<Addr>
spinLinesFor(uint64_t seed, const FuzzOptions &opt)
{
    std::vector<Addr> pool = poolFor(seed, opt);
    pool.resize(std::min<size_t>(pool.size(), 4));
    return pool;
}

/** Give every CPU its script, running in user mode as a fuzz pid. */
void
startScripts(Machine &m, const std::vector<std::vector<ScriptItem>> &scripts)
{
    for (CpuId c = 0; c < m.numCpus(); ++c) {
        Cpu &cpu = m.cpu(c);
        cpu.ctx.mode = ExecMode::User;
        cpu.ctx.op = OsOp::None;
        cpu.ctx.pid = Pid(c % maxFuzzPid);
        cpu.pushSeq(scripts[c]);
    }
}

/** The release marker matching a scripted (id, shared) acquire. */
ScriptItem
releaseMarker(const std::pair<uint32_t, bool> &held)
{
    return ScriptItem::mark(held.second ? MarkerOp::LockReleaseShared
                                        : MarkerOp::LockRelease,
                            held.first);
}

/** The page-table oracle for the identity mapping the fuzzer uses. */
const char *
identityValidator(Pid pid, Addr vpage, Addr ppage, bool writable)
{
    if (pid < 0 || pid >= maxFuzzPid)
        return "pid outside the fuzz range";
    if (ppage != vpage)
        return "not the identity mapping";
    if (!writable)
        return "identity mappings are always writable";
    return nullptr;
}

} // namespace

MachineConfig
FuzzOptions::machineConfig(uint64_t seed) const
{
    MachineConfig cfg;
    cfg.numCpus = numCpus;
    cfg.protocol = protocol;
    cfg.lockPolicy = lockPolicy;
    cfg.icacheBytes = 4096;
    cfg.l1dBytes = 2048;
    cfg.l2dBytes = 4096;
    cfg.memBytes = 1ULL * 1024 * 1024;
    cfg.tlbEntries = 16;
    // Alternate the shipped inert bus with a queueing one.
    cfg.busOccupancy = seed & 1 ? 0 : 2;
    cfg.check = true;
    return cfg;
}

std::vector<std::vector<ScriptItem>>
buildFuzzScripts(uint64_t seed, const FuzzOptions &opt)
{
    const MachineConfig cfg = opt.machineConfig(seed);
    util::Rng rng(seed ^ 0xf02277a5f9a3e1cdULL);
    const std::vector<Addr> pool = buildPool(rng, opt, cfg);
    const uint64_t codeLines = cfg.memBytes / cfg.lineBytes / 2;

    std::vector<std::vector<ScriptItem>> scripts(opt.numCpus);
    for (uint32_t c = 0; c < opt.numCpus; ++c) {
        std::vector<ScriptItem> &s = scripts[c];
        s.reserve(opt.scriptLen);
        bool inOs = false;
        /** Locks this CPU holds (or reads), in acquisition order. */
        std::vector<std::pair<uint32_t, bool>> held; // id, shared
        while (s.size() < opt.scriptLen) {
            const uint64_t r = rng.below(100);
            if (r < 45) {
                // Shared-pool data reference; some through the TLB.
                const Addr a =
                    pool[rng.below(pool.size())] + rng.below(4) * 4;
                const bool store = rng.chance(0.4);
                const AddrSpace sp = rng.chance(0.3)
                                         ? AddrSpace::Virtual
                                         : AddrSpace::Physical;
                s.push_back(store ? ScriptItem::store(a, sp)
                                  : ScriptItem::load(a, sp));
            } else if (r < 60) {
                // Instruction fetch; 1 in 4 from the data pool so
                // fetches hit dirty data copies and downgrade them.
                const Addr line =
                    rng.chance(0.25)
                        ? pool[rng.below(pool.size())]
                        : (codeLines + rng.below(codeLines)) *
                              cfg.lineBytes;
                s.push_back(ScriptItem::ifetch(line));
            } else if (r < 68) {
                s.push_back(ScriptItem::think(rng.range(1, 30)));
            } else if (r < 74) {
                // Lock acquire, half of them read sections. Whether it
                // spins is the policy state machine's business; taking
                // ids in ascending order keeps the CPUs deadlock-free.
                const uint32_t id = uint32_t(rng.below(opt.numLocks));
                if (!held.empty() && id <= held.back().first)
                    continue;
                const bool shared = rng.chance(0.5);
                s.push_back(ScriptItem::mark(
                    shared ? MarkerOp::LockAcquireShared
                           : MarkerOp::LockAcquire,
                    id));
                held.emplace_back(id, shared);
            } else if (r < 78) {
                if (held.empty())
                    continue;
                s.push_back(releaseMarker(held.back()));
                held.pop_back();
            } else if (r < 86) {
                // OS enter/exit, strictly alternating per CPU.
                if (inOs) {
                    s.push_back(ScriptItem::mark(MarkerOp::OsExit));
                } else {
                    const OsOp op =
                        OsOp(rng.range(uint64_t(OsOp::UtlbFault),
                                       uint64_t(OsOp::Interrupt)));
                    s.push_back(ScriptItem::mark(MarkerOp::OsEnter,
                                                 uint64_t(op)));
                }
                inOs = !inOs;
            } else if (r < 89) {
                const Addr a = deviceBase + rng.below(64) * 8;
                s.push_back(rng.chance(0.5)
                                ? ScriptItem::uncachedLoad(a)
                                : ScriptItem::uncachedStore(a));
            } else if (r < 92) {
                // Cache-bypassing block op on the shared pool.
                const Addr a = pool[rng.below(pool.size())];
                const bool store = rng.chance(0.5);
                s.push_back({store ? ItemKind::BypassStore
                                   : ItemKind::BypassLoad,
                             AddrSpace::Physical, MarkerOp::PathDone, a,
                             0});
            } else if (r < 94) {
                s.push_back(ScriptItem::mark(
                    MarkerOp::Resched, rng.below(uint64_t(maxFuzzPid))));
            } else if (r < 95) {
                s.push_back(ScriptItem::mark(MarkerOp::InvalICache));
            } else {
                // Prefetched reference: bus-visible, no CPU stall.
                const Addr a = pool[rng.below(pool.size())];
                s.push_back({rng.chance(0.5) ? ItemKind::PrefetchStore
                                             : ItemKind::PrefetchLoad,
                             AddrSpace::Physical, MarkerOp::PathDone, a,
                             0});
            }
        }
        // A finished program holds nothing another CPU could spin on.
        for (; !held.empty(); held.pop_back())
            s.push_back(releaseMarker(held.back()));
    }
    return scripts;
}

namespace
{

/**
 * Common per-machine setup of a fuzz run: checker in collect mode with
 * the identity oracle, scripted executor, recorder. Wiring only --
 * none of this is snapshot state.
 */
struct FuzzRig
{
    Machine m;
    ScriptedExecutor exec;
    EventRecorder rec;

    /** @param faults Hand the machine's fault plan to the executor. */
    FuzzRig(const MachineConfig &cfg, const FuzzOptions &opt,
            uint64_t seed, bool faults = false)
        : m(cfg, opt.numLocks),
          exec(m, spinLinesFor(seed, opt), faults ? m.faults() : nullptr)
    {
        if (Checker *chk = m.checker()) {
            chk->setAbortOnViolation(false);
            chk->setMappingValidator(identityValidator);
        }
        m.setExecutor(&exec);
        m.monitor().attach(&rec);
    }

    /** The rig as a snapshot image: the machine, plus the executor's
     *  lock table in the Kernel section, serialized as the kernel
     *  serializes its own. */
    std::vector<uint8_t>
    pack(uint64_t seed) const
    {
        util::ByteWriter mw, lw;
        m.saveState(mw);
        saveLockTable(lw, exec.locks);
        std::vector<std::pair<snapshot::Section, std::vector<uint8_t>>>
            sections;
        sections.emplace_back(snapshot::Section::Machine, mw.take());
        sections.emplace_back(snapshot::Section::Kernel, lw.take());
        return snapshot::pack(seed, std::move(sections));
    }

    /** Restore what pack() saved; every lock is a CPU-held one. */
    void
    unpack(const std::vector<uint8_t> &image)
    {
        const snapshot::Parsed parsed = snapshot::parse(image);
        util::ByteReader mr(parsed.section(snapshot::Section::Machine));
        m.restoreState(mr);
        util::ByteReader lr(parsed.section(snapshot::Section::Kernel));
        restoreLockTable(lr, exec.locks, uint32_t(exec.locks.size()),
                         m.numCpus(), 0);
    }

    void
    finish(std::vector<std::string> &violations, uint64_t &checks)
    {
        if (Checker *chk = m.checker()) {
            chk->checkAll(m);
            const auto v = chk->violations();
            violations.insert(violations.end(), v.begin(), v.end());
            checks += chk->stats().total();
        }
    }
};

/** Everything one machine run yields for comparison. */
struct RunRecord
{
    std::vector<Event> events;
    StateSnapshot state;
    std::vector<std::string> violations;
    uint64_t checks = 0;
    uint64_t parked = 0;
    FuzzLockCoverage locks;
};

/** One machine run on the fast or the reference core. */
RunRecord
runOne(uint64_t seed, const FuzzOptions &opt, uint32_t prefix_len,
       bool slow)
{
    MachineConfig cfg = opt.machineConfig(seed);
    cfg.slowSim = slow;

    std::vector<std::vector<ScriptItem>> scripts =
        buildFuzzScripts(seed, opt);
    if (prefix_len > 0) {
        for (auto &s : scripts)
            if (s.size() > prefix_len)
                s.resize(prefix_len);
    }

    FuzzRig rig(cfg, opt, seed);
    startScripts(rig.m, scripts);
    // The same phase driver the experiment harness uses (no deadline
    // here), so fuzzed runs and measured runs slice identically.
    runPhase(rig.m, opt.runCycles);
    RunRecord out;
    rig.finish(out.violations, out.checks);
    out.events = std::move(rig.rec.events);
    out.state = capture(rig.m, poolFor(seed, opt));
    out.parked = rig.m.parkedCycles();
    out.locks = rig.exec.coverage;
    return out;
}

/**
 * The seed x CPU-count sweep both matrices share. With `minimize` a
 * failing seed is reported with its shortest failing script prefix.
 */
FuzzMatrixResult
sweep(uint64_t first_seed, uint32_t num_seeds,
      const std::vector<uint32_t> &cpu_counts, const FuzzOptions &base,
      const std::function<FuzzOutcome(uint64_t, const FuzzOptions &)>
          &run,
      bool minimize,
      const std::function<void(uint64_t, uint32_t,
                               const FuzzOutcome &)> &progress)
{
    FuzzMatrixResult result;
    for (uint32_t cpus : cpu_counts) {
        FuzzOptions opt = base;
        opt.numCpus = cpus;
        for (uint64_t s = first_seed; s < first_seed + num_seeds; ++s) {
            const FuzzOutcome out = run(s, opt);
            ++result.runs;
            result.eventsCompared += out.eventsCompared;
            result.checksPerformed += out.checksPerformed;
            result.locks += out.locks;
            if (!out.ok) {
                FuzzFailure f{s, cpus, 0, out.detail};
                if (minimize) {
                    f.minimalPrefix = uint32_t(minimizeFailingPrefix(
                        opt.scriptLen, [&](uint64_t len) {
                            return !runDifferential(s, opt,
                                                    uint32_t(len))
                                        .ok;
                        }));
                    f.detail =
                        runDifferential(s, opt, f.minimalPrefix).detail;
                }
                result.failures.push_back(std::move(f));
            }
            if (progress)
                progress(s, cpus, out);
        }
    }
    return result;
}

} // namespace

FuzzOutcome
runSnapshotDifferential(uint64_t seed, const FuzzOptions &opt,
                        Cycle snapshot_at)
{
    const MachineConfig cfg = opt.machineConfig(seed);
    const Cycle cut = std::min(std::max<Cycle>(snapshot_at, 1),
                               opt.runCycles - 1);

    const std::vector<std::vector<ScriptItem>> scripts =
        buildFuzzScripts(seed, opt);

    // Uninterrupted reference run.
    const RunRecord ref = runOne(seed, opt, 0, false);
    FuzzOutcome out;
    out.violations = ref.violations;
    out.checksPerformed = ref.checks;
    out.locks = ref.locks;

    // Interrupted run: cut at `cut`, serialize through the container,
    // restore into a brand-new machine, continue there.
    std::vector<Event> ev;
    StateSnapshot endState;
    {
        std::vector<uint8_t> image;
        {
            FuzzRig rig(cfg, opt, seed);
            startScripts(rig.m, scripts);
            runPhase(rig.m, cut);
            rig.finish(out.violations, out.checksPerformed);
            image = rig.pack(seed);
            ev = std::move(rig.rec.events);
        }
        {
            // The restored machine gets fresh wiring (executor,
            // recorder, checker); per-CPU contexts and script queues
            // come from the snapshot, so no re-initialization here.
            FuzzRig rig(cfg, opt, seed);
            rig.unpack(image);
            runPhase(rig.m, opt.runCycles - cut);
            rig.finish(out.violations, out.checksPerformed);
            ev.insert(ev.end(), rig.rec.events.begin(),
                      rig.rec.events.end());
            endState = capture(rig.m, poolFor(seed, opt));
        }
    }

    out.eventsCompared = ref.events.size();
    std::ostringstream detail;
    if (!out.violations.empty()) {
        out.ok = false;
        detail << out.violations.size() << " invariant violation(s), "
               << "first: " << out.violations.front();
    } else if (ev != ref.events) {
        out.ok = false;
        detail << "snapshot-at-" << cut << " event stream ";
        describeDivergence(detail, ev, "snapshotted", ref.events,
                           "reference");
    } else if (!(endState == ref.state)) {
        out.ok = false;
        detail << "final machine state differs after a snapshot at "
               << cut << " cycles (identical event streams)";
    }
    out.detail = detail.str();
    return out;
}

FuzzMatrixResult
runSnapshotMatrix(uint64_t first_seed, uint32_t num_seeds,
                  const std::vector<uint32_t> &cpu_counts,
                  const FuzzOptions &base, Cycle snapshot_at,
                  const std::function<void(uint64_t, uint32_t,
                                           const FuzzOutcome &)>
                      &progress)
{
    // The repro is already just a seed and a cut point.
    return sweep(
        first_seed, num_seeds, cpu_counts, base,
        [snapshot_at](uint64_t seed, const FuzzOptions &opt) {
            return runSnapshotDifferential(seed, opt, snapshot_at);
        },
        false, progress);
}

FuzzOutcome
runDifferential(uint64_t seed, const FuzzOptions &opt,
                uint32_t prefix_len)
{
    const RunRecord fast = runOne(seed, opt, prefix_len, false);
    const RunRecord slow = runOne(seed, opt, prefix_len, true);

    FuzzOutcome out;
    out.parkedCycles = fast.parked;
    out.locks = fast.locks;
    out.eventsCompared = fast.events.size();
    out.checksPerformed = fast.checks + slow.checks;
    out.violations = fast.violations;
    out.violations.insert(out.violations.end(), slow.violations.begin(),
                          slow.violations.end());

    std::ostringstream detail;
    if (!out.violations.empty()) {
        out.ok = false;
        detail << out.violations.size() << " invariant violation(s), "
               << "first: " << out.violations.front();
    } else if (fast.events != slow.events) {
        out.ok = false;
        detail << "event streams ";
        describeDivergence(detail, fast.events, "fast", slow.events,
                           "slow");
    } else if (!(fast.state == slow.state)) {
        out.ok = false;
        detail << "final machine state differs between fast and "
                  "reference runs (identical event streams)";
    }
    out.detail = detail.str();
    return out;
}

uint64_t
minimizeFailingPrefix(uint64_t n,
                      const std::function<bool(uint64_t)> &fails)
{
    uint64_t lo = 1, hi = n;
    while (lo < hi) {
        const uint64_t mid = lo + (hi - lo) / 2;
        if (fails(mid))
            hi = mid;
        else
            lo = mid + 1;
    }
    return lo;
}

FaultRunRecord
runFaulted(uint64_t seed, const FuzzOptions &opt)
{
    MachineConfig cfg = opt.machineConfig(seed);
    // The campaign exercises the failure paths, not the differential
    // property; the checkers stay out of the way.
    cfg.check = false;
    cfg.faultSeed = seed ? seed : 1;
    cfg.faultHorizon = opt.runCycles;
    cfg.watchdogCycles = opt.runCycles;

    FaultRunRecord rec;
    rec.seed = cfg.faultSeed;
    rec.numCpus = opt.numCpus;

    std::vector<std::vector<ScriptItem>> scripts =
        buildFuzzScripts(seed, opt);

    FuzzRig rig(cfg, opt, seed, true);
    FaultPlan *fp = rig.m.faults();
    rec.schedule = fp->describe();
    // Scripted truncation: only ever drops a suffix, so no
    // release-without-acquire can appear.
    for (std::vector<ScriptItem> &s : scripts)
        s.resize(size_t(fp->truncatedLen(s.size())));
    startScripts(rig.m, scripts);

    try {
        runPhase(rig.m, opt.runCycles);
    } catch (const util::SimError &e) {
        rec.tripped = true;
        rec.errorCode = e.codeName();
        rec.diagnostic = e.what();
    }
    rec.faultsFired = fp->faultsFired();
    return rec;
}

FaultCampaignResult
runFaultCampaign(uint64_t first_seed, uint32_t num_seeds,
                 const std::vector<uint32_t> &cpu_counts,
                 const FuzzOptions &base,
                 const std::function<void(const FaultRunRecord &)>
                     &progress)
{
    FaultCampaignResult result;
    for (uint32_t cpus : cpu_counts) {
        FuzzOptions opt = base;
        opt.numCpus = cpus;
        for (uint64_t s = first_seed; s < first_seed + num_seeds;
             ++s) {
            FaultRunRecord a = runFaulted(s, opt);
            const FaultRunRecord b = runFaulted(s, opt);
            a.deterministic = a.schedule == b.schedule &&
                              a.tripped == b.tripped &&
                              a.errorCode == b.errorCode &&
                              a.diagnostic == b.diagnostic &&
                              a.faultsFired == b.faultsFired;
            ++result.runs;
            result.tripped += a.tripped ? 1 : 0;
            result.faultsFired += a.faultsFired;
            if (progress)
                progress(a);
            result.records.push_back(std::move(a));
        }
    }
    return result;
}

FuzzMatrixResult
runFuzzMatrix(uint64_t first_seed, uint32_t num_seeds,
              const std::vector<uint32_t> &cpu_counts,
              const FuzzOptions &base,
              const std::function<void(uint64_t, uint32_t,
                                       const FuzzOutcome &)> &progress)
{
    return sweep(
        first_seed, num_seeds, cpu_counts, base,
        [](uint64_t seed, const FuzzOptions &opt) {
            return runDifferential(seed, opt);
        },
        true, progress);
}

namespace
{

/**
 * 1-4 seeded edits: bit flip, byte rewrite, truncation, or spliced
 * garbage. Truncation may leave the image empty; decoders must cope.
 */
void
mutateImage(util::Rng &rng, std::vector<uint8_t> &img)
{
    const uint32_t edits = 1 + uint32_t(rng.below(4));
    for (uint32_t e = 0; e < edits && !img.empty(); ++e) {
        const size_t at = size_t(rng.below(img.size()));
        switch (rng.below(4)) {
        case 0:
            img[at] ^= uint8_t(1u << rng.below(8));
            break;
        case 1:
            img[at] = uint8_t(rng.next());
            break;
        case 2:
            img.resize(at);
            break;
        default: {
            const size_t n = 1 + size_t(rng.below(15));
            std::vector<uint8_t> junk(n);
            for (uint8_t &b : junk)
                b = uint8_t(rng.next());
            img.insert(img.begin() + ptrdiff_t(at), junk.begin(),
                       junk.end());
            break;
        }
        }
    }
}

/**
 * Recompute the container's trailing FNV-1a so the mutation survives
 * the outer checksum and reaches the section and state decoders.
 */
void
fixupTrailingChecksum(std::vector<uint8_t> &img)
{
    if (img.size() < 8)
        return;
    const uint64_t sum =
        snapshot::fnv1a(img.data(), img.size() - 8);
    for (unsigned i = 0; i < 8; ++i)
        img[img.size() - 8 + i] = uint8_t(sum >> (8 * i));
}

bool
writeBytes(const std::string &path, const std::vector<uint8_t> &bytes)
{
    FILE *f = std::fopen(path.c_str(), "wb");
    if (!f)
        return false;
    const bool ok =
        bytes.empty() ||
        std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
    return (std::fclose(f) == 0) && ok;
}

} // namespace

std::vector<uint8_t>
buildCorruptBaseImage(uint64_t seed, const FuzzOptions &opt)
{
    const MachineConfig cfg = opt.machineConfig(seed);
    std::vector<std::vector<ScriptItem>> scripts =
        buildFuzzScripts(seed, opt);
    FuzzRig rig(cfg, opt, seed);
    startScripts(rig.m, scripts);
    runPhase(rig.m, opt.runCycles / 2);
    return rig.pack(seed);
}

CorruptCampaignResult
runCorruptCampaign(uint64_t seed, uint32_t mutations,
                   const FuzzOptions &base, const std::string &tmp_dir,
                   const std::function<void(uint32_t, uint32_t)>
                       &progress)
{
    CorruptCampaignResult out;
    const FuzzOptions opt = base;
    const MachineConfig cfg = opt.machineConfig(seed);

    const std::vector<uint8_t> snapBase =
        buildCorruptBaseImage(seed, opt);

    // Pristine binary trace: the same kind of run with the trace
    // exporter streaming to a file, symbol table included.
    const std::string traceBasePath = tmp_dir + "/corrupt-base.trc";
    std::vector<uint8_t> traceBase;
    {
        MachineConfig tcfg = cfg;
        tcfg.trace = true;
        tcfg.traceFile = traceBasePath;
        tcfg.traceRingEntries = 4096;
        std::vector<std::vector<ScriptItem>> scripts =
            buildFuzzScripts(seed ^ 1, opt);
        FuzzRig rig(tcfg, opt, seed ^ 1);
        startScripts(rig.m, scripts);
        if (trace::Tracer *tr = rig.m.tracer())
            tr->setRoutineNames(
                {"idle", "fork", "exec", "page_fault", "sched"});
        runPhase(rig.m, opt.runCycles / 2);
        if (trace::Tracer *tr = rig.m.tracer())
            tr->finish();
        if (!snapshot::readFile(traceBasePath, traceBase) ||
            traceBase.empty())
            util::raise(util::ErrCode::BadConfig,
                        "corrupt campaign: cannot build the base "
                        "trace under %s", tmp_dir.c_str());
    }

    const std::string mutPath = tmp_dir + "/corrupt-mut.trc";
    const std::string outPath = tmp_dir + "/corrupt-mut.jsonl";
    for (uint32_t i = 0; i < mutations; ++i) {
        util::Rng rng(seed ^ (0x9e3779b97f4a7c15ULL * (i + 1)));
        const bool snap = (i % 2) == 0;
        std::vector<uint8_t> img = snap ? snapBase : traceBase;
        mutateImage(rng, img);
        if (snap && rng.below(2) == 0)
            fixupTrailingChecksum(img);
        ++out.runs;
        const std::string what = std::string(snap ? "snapshot" : "trace") +
                                 " mutation #" + std::to_string(i);
        if (!snap && !writeBytes(mutPath, img)) {
            out.failures.push_back(what + ": cannot write scratch file " +
                                   mutPath);
            continue;
        }
        try {
            std::string err;
            bool decoded = true;
            if (snap)
                FuzzRig(cfg, opt, seed).unpack(img);
            else
                decoded = trace::convertToJsonl(mutPath, outPath, &err);
            ++(decoded ? out.accepted : out.rejected);
        } catch (const std::exception &e) {
            // The snapshot decoders answer with a typed error; the
            // trace reader reports a bad input by returning false.
            if (snap && dynamic_cast<const util::SimError *>(&e))
                ++out.rejected;
            else
                out.failures.push_back(
                    what + " escaped the typed-error contract: " +
                    e.what());
        } catch (...) {
            out.failures.push_back(what +
                                   " threw a non-standard exception");
        }
        if (progress)
            progress(i + 1, mutations);
    }
    std::remove(traceBasePath.c_str());
    std::remove(mutPath.c_str());
    std::remove(outPath.c_str());
    return out;
}

} // namespace mpos::sim
