/**
 * @file
 * The complete modeled machine: CPUs, coherent memory system, sync
 * transport and monitor, plus the cycle-driven execution loop.
 *
 * Machine::run() advances global time; at each cycle every non-busy
 * CPU pops and executes script items. Virtual references translate
 * through the CPU's TLB and fault into the executor (the kernel) on a
 * miss; physical references go straight to the memory system.
 *
 * The scheduler is event-driven: between activations it jumps straight
 * to the smallest per-CPU busyUntil instead of ticking through dead
 * cycles, which is observably identical because CPUs only act when
 * busyUntil <= now (MachineConfig::slowSim selects the
 * one-tick-at-a-time reference loop). It also parks CPUs that
 * spin in a declared side-effect-free chunk whose references all hit
 * (the idle loop), and computes their state arithmetically when
 * something could change what they do.
 */

#ifndef MPOS_SIM_MACHINE_HH
#define MPOS_SIM_MACHINE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/check/checker.hh"
#include "sim/cpu.hh"
#include "sim/fault/plan.hh"
#include "sim/fault/watchdog.hh"
#include "sim/memsys.hh"
#include "sim/monitor.hh"
#include "sim/syncbus.hh"
#include "sim/trace/metrics.hh"
#include "sim/trace/profile.hh"
#include "sim/trace/trace.hh"
#include "sim/types.hh"

namespace mpos::sim
{

/** The simulated multiprocessor. */
class Machine
{
  public:
    /**
     * @param cfg        Machine parameters.
     * @param num_locks  Number of kernel/user lock ids for the sync
     *                   transport.
     */
    explicit Machine(const MachineConfig &cfg, uint32_t num_locks = 64);

    /** Install the OS model; must happen before run(). */
    void setExecutor(Executor *executor) { exec = executor; }

    /** Advance the machine by cycles. */
    void run(Cycle cycles);

    Cycle now() const { return currentCycle; }

    Cpu &cpu(CpuId c) { return cpus[c]; }
    const Cpu &cpu(CpuId c) const { return cpus[c]; }
    uint32_t numCpus() const { return uint32_t(cpus.size()); }

    Monitor &monitor() { return mon; }
    MemorySystem &memory() { return mem; }
    const MemorySystem &memory() const { return mem; }
    SyncTransport &sync() { return syncTransport; }
    const SyncTransport &sync() const { return syncTransport; }
    const MachineConfig &config() const { return cfg; }

    /**
     * The invariant checker, or null when checking is off
     * (MachineConfig::check selects it at construction).
     */
    Checker *checker() { return chk.get(); }
    const Checker *checker() const { return chk.get(); }

    /**
     * The forward-progress watchdog, or null when off
     * (MachineConfig::watchdogCycles selects it, and fault injection
     * auto-enables it with a default budget).
     */
    Watchdog *watchdog() { return wdp; }
    const Watchdog *watchdog() const { return wdp; }

    /**
     * The fault-injection plan, or null when off
     * (MachineConfig::faultSeed selects it).
     */
    FaultPlan *faults() { return plan.get(); }
    const FaultPlan *faults() const { return plan.get(); }

    /**
     * The trace exporter, or null when off (MachineConfig::trace
     * selects it). Also allocated ring-only, with a small
     * ring, when the watchdog is on: its dump reads the shared ring.
     */
    trace::Tracer *tracer() { return trp; }
    const trace::Tracer *tracer() const { return trp; }

    /**
     * The time-sliced metrics engine, or null when off
     * (MachineConfig::metrics selects it).
     */
    trace::Metrics *metrics() { return mxp; }
    const trace::Metrics *metrics() const { return mxp; }

    /**
     * The routine profiler, or null when off (MachineConfig::profile
     * selects it).
     */
    trace::Profiler *profiler() { return pfp; }
    const trace::Profiler *profiler() const { return pfp; }

    /**
     * Charge extra cycles to a CPU's current mode (used by the kernel
     * for synchronization costs).
     */
    void
    charge(CpuId c, Cycle cycles, bool stall)
    {
        cpus[c].charge(stall ? 0 : cycles, stall ? cycles : 0);
    }

    /** Aggregate cycle accounting over all CPUs. */
    CycleAccount totalAccount() const;

    /// @name Idle-CPU parking
    /// A CPU the executor refilled with a declared spin chunk
    /// (Executor::declareSpin) whose references all hit is parked:
    /// runFast stops stepping it until its deadline
    /// (Executor::nextEventAt) or a wake, then brings its script
    /// position, busyUntil, cycle account, poll schedule and LRU
    /// ranks up to date arithmetically. A wake raised while CPU w is
    /// active at cycle t brings CPU p < w up to date through t and
    /// p > w through t - 1, as the scan order would have. No CPU is
    /// parked outside run(). The reference scheduler never parks.
    /// @{
    /** Wake every parked CPU: the executor calls this when a spin's
     *  premise ends (the kernel: its run queue became non-empty). */
    void wakeParked();
    /** Wake cpu if it is parked. */
    void wakeParked(CpuId cpu);
    /** Wake every parked CPU whose deadline lies after `when`: the
     *  executor scheduled an event pollEvents delivers at `when`. */
    void wakeParkedAfter(Cycle when);
    /** CPU-cycles run arithmetically by parked CPUs so far. */
    uint64_t parkedCycles() const { return parkedTotal; }
    /// @}

    /// @name Snapshot save/restore
    /// Serializes every cycle-determining structure: the clock, each
    /// CPU's context/busy horizon/accounting/TLB/pending script, the
    /// coherent memory system, the sync transport, the monitor's
    /// always-on counters, and the fault plan's runtime counters.
    /// Observer layers (checker, watchdog, tracer, metrics, profiler)
    /// are wiring, not state: a restored machine reconstructs them
    /// fresh, exactly as an uninterrupted run would have them at the
    /// same point with no observers attached during the skipped span.
    /// Restoring requires a machine built from the same config (the
    /// caller guards this with the config hash); structural mismatches
    /// raise util::SimError(SnapshotCorrupt).
    /// @{
    void saveState(util::ByteWriter &w) const;
    void restoreState(util::ByteReader &r);
    /// @}

  private:
    /**
     * Execute one script item on a CPU at time now. Returns true if
     * the item consumed time (markers do not).
     */
    bool step(Cpu &c, Cycle now);

    /** Poll + execute a ready CPU until it has consumed currentCycle.
     *  Shared by the fast scheduler and the reference loop; forced
     *  inline so each loop keeps a specialized copy (it runs once per
     *  CPU activation, the hottest call edge in the simulator). */
    [[gnu::always_inline]] inline void activate(Cpu &c);

    /** Event-driven scheduler: scan, execute, jump to the next event.
     *  Returns with every CPU up to date (none parked). */
    void runFast(Cycle target);

    /** A parked CPU's spin (see wakeParked). The plan part describes
     *  the declared chunk and is reused while the chunk is the same;
     *  the rest is the state of the current park. */
    struct Park
    {
        std::vector<ScriptItem> chunk; ///< The declared spin chunk.
        std::vector<uint32_t> refs;    ///< Chunk indices of references.
        std::vector<Cycle> offset;     ///< Cycle of ref i within a pass.
        std::vector<Addr> dataLines;   ///< Lines the chunk's loads read.
        Cycle period = 0;   ///< Cycles per pass through the chunk.
        uint32_t markerCount = 0; ///< Markers in the chunk.
        /** Only physical Loads/IFetchLines and markers, >= 1 ref. */
        bool spinnable = false;
        Cycle start = 0;    ///< Cycle ref 0 ran when the park began.
        Cycle wakeAt = 0;   ///< Deadline: nextEventAt() at park time.
        Cycle pollAt = 0;   ///< nextPollAt at park time.
    };

    /** Called right after refill() declared a spin chunk: run the
     *  chunk's leading markers and park c if every reference hits. */
    bool tryPark(Cpu &c, const std::vector<ScriptItem> &chunk,
                 uint32_t &markers);

    /** Rebuild park.chunk's plan for a newly declared chunk. */
    void planSpin(Park &park, const std::vector<ScriptItem> &chunk);

    /** Resume stepping parked c, its spin applied through cycle
     *  `through` (every activation at or before it). */
    void unpark(Cpu &c, Cycle through);

    /** One-cycle-at-a-time reference scheduler (slowSim). */
    void runReference(Cycle target);

    /** Translate a virtual address; false => faulted into the exec.
     *  Inline: runs once per virtual script item. */
    bool
    translate(Cpu &c, Addr vaddr, bool is_store, Addr &pa)
    {
        const Addr vpage = vaddr >> pageShift;
        const TlbEntry *e = c.tlb.translate(c.ctx.pid, vpage);
        if (!e) {
            exec->fault(c.id, vaddr, is_store, false);
            return false;
        }
        if (is_store && !e->writable) {
            exec->fault(c.id, vaddr, is_store, true);
            return false;
        }
        if (chk)
            chk->checkTlbEntry(c.id, *e);
        pa = (e->ppage << pageShift) | (vaddr & pageMask);
        return true;
    }

    MachineConfig cfg;
    Monitor mon;
    MemorySystem mem;
    SyncTransport syncTransport;
    /** log2(pageBytes) / pageBytes-1: translation without dividing. */
    uint32_t pageShift = 0;
    Addr pageMask = 0;
    /** Execution cycles for one full instruction line. */
    Cycle lineExecCycles = 0;
    /** By value: the scheduler scans busyUntil every interesting
     *  cycle, so one less indirection matters. */
    std::vector<Cpu> cpus;
    Executor *exec = nullptr;
    /** Invariant checker; allocated only when checking is enabled. */
    std::unique_ptr<Checker> chk;
    /** Forward-progress watchdog; allocated only when enabled. */
    std::unique_ptr<Watchdog> wd;
    /** Raw alias of wd used as the hot-path null gate. */
    Watchdog *wdp = nullptr;
    /** Fault-injection schedule; allocated only when enabled. */
    std::unique_ptr<FaultPlan> plan;
    /** Trace exporter; allocated when tracing (or the watchdog, which
     *  borrows the ring for its dump) is enabled. */
    std::unique_ptr<trace::Tracer> tr;
    /** Raw alias of tr: the null gate. */
    trace::Tracer *trp = nullptr;
    /** Metrics engine; allocated only when enabled. */
    std::unique_ptr<trace::Metrics> mx;
    /** Raw alias of mx: the null gate. */
    trace::Metrics *mxp = nullptr;
    /** Routine profiler; allocated only when enabled. */
    std::unique_ptr<trace::Profiler> pf;
    /** Raw alias of pf: the null gate. */
    trace::Profiler *pfp = nullptr;
    Cycle currentCycle = 0;

    /** Per CPU: its park plan and state (see Park). */
    std::vector<Park> parks;
    /** CPU whose activation runFast is in; CPUs below it have been
     *  scanned at currentCycle. 0 between passes. */
    CpuId scanPos = 0;
    /** Smallest busyUntil of a CPU woken after the pass scanned it. */
    Cycle wakeNext = 0;
    /** See parkedCycles(). */
    uint64_t parkedTotal = 0;

    /** External-event poll period in cycles. */
    static constexpr Cycle pollPeriod = 256;
    /** Safety cap on zero-cost markers executed per step. */
    static constexpr uint32_t markerBudget = 256;
};

} // namespace mpos::sim

#endif // MPOS_SIM_MACHINE_HH
