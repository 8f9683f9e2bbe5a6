/**
 * @file
 * Structured trace exporter.
 *
 * The Tracer subscribes to the Monitor and streams every event -- bus
 * transactions with their in-band context snapshot (mode, OS
 * operation, kernel routine, pid: the paper's escape references),
 * evictions, invalidations, OS entry/exit and context switches -- to
 * a JSONL file as it happens, one JSON object per event with routine
 * ids resolved to names. The paper's monitor kept its last two
 * million records in a hardware buffer read out after the run, which
 * was how it captured a perturbation-free stream; a simulator
 * observer is perturbation-free by construction, so nothing is held
 * back in memory.
 *
 * Everything here is pure observation: the Tracer never perturbs
 * simulated events, and with tracing off the machine holds a null
 * pointer (the checker discipline), so the feature costs nothing.
 */

#ifndef MPOS_SIM_TRACE_TRACE_HH
#define MPOS_SIM_TRACE_TRACE_HH

#include <cstdio>
#include <string>
#include <vector>

#include "sim/monitor.hh"
#include "sim/types.hh"

namespace mpos::sim::trace
{

/** Kinds of monitor events a trace can carry. */
enum class TraceEventKind : uint8_t
{
    Bus,              ///< Bus transaction (fill/upgrade/wb/uncached).
    Evict,            ///< Line displaced by a conflicting fill.
    InvalSharing,     ///< Line invalidated by another CPU's write.
    InvalPageRealloc, ///< I-line flushed on code-page reallocation.
    FlushPage,        ///< I-cache flush for a reallocated code page.
    OsEnter,          ///< CPU entered the OS (or the idle loop).
    OsExit,           ///< CPU left the OS.
    ContextSwitch,    ///< A different process was switched on.
};

/**
 * One monitor event, uniformly shaped. The per-kind payload mirrors
 * the MonitorObserver callbacks:
 *
 *   Bus              addr=line  a=BusOp        b=CacheKind  ctx valid
 *   Evict            addr=line  a=CacheKind    b=0          ctx=by
 *   InvalSharing     addr=line  a=CacheKind    b=0
 *   InvalPageRealloc addr=line  a=0            b=0
 *   FlushPage        addr=page  a=page_bytes   b=0
 *   OsEnter/OsExit   addr=0     a=OsOp         b=0
 *   ContextSwitch    addr=0     a=from pid     b=to pid
 *
 * Events without an explicit cycle in the monitor interface (evicts,
 * invalidations, flushes) are stamped with the cycle of the most
 * recent clocked event, which is the bus slot that caused them.
 */
struct TraceEvent
{
    TraceEventKind kind = TraceEventKind::Bus;
    Cycle cycle = 0;
    CpuId cpu = 0;
    Addr addr = 0;
    uint64_t a = 0;
    uint64_t b = 0;
    MonitorContext ctx;
};

/** The trace exporter. One per Machine, owned by it. */
class Tracer : public MonitorObserver
{
  public:
    /** @param file_path JSONL trace output; empty = count only. */
    explicit Tracer(const std::string &file_path);
    ~Tracer() override;
    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    /**
     * Install the kernel routine symbol table (index = RoutineId).
     * The kernel installs it at construction, before any event, so
     * every streamed line names its routine.
     */
    void
    setRoutineNames(std::vector<std::string> names)
    {
        routineNames = std::move(names);
    }

    /** Close the file. Idempotent; called by the destructor if
     *  nobody else does. */
    void finish();

    /** Events observed over the whole run. */
    uint64_t totalEvents() const { return nEvents; }

    /// @name MonitorObserver
    /// @{
    void busTransaction(const BusRecord &rec) override;
    void evict(CpuId cpu, CacheKind kind, Addr line,
               const MonitorContext &by) override;
    void invalSharing(CpuId cpu, CacheKind kind, Addr line) override;
    void invalPageRealloc(CpuId cpu, Addr line) override;
    void flushPage(CpuId cpu, Addr page_addr,
                   uint32_t page_bytes) override;
    void osEnter(Cycle cycle, CpuId cpu, OsOp op) override;
    void osExit(Cycle cycle, CpuId cpu, OsOp op) override;
    void contextSwitch(Cycle cycle, CpuId cpu, Pid from,
                       Pid to) override;
    /// @}

  private:
    /** Count ev and write it to the file as one JSONL line. */
    void record(const TraceEvent &ev);
    /** Append ev to out as one JSON object and a newline. */
    void appendJson(std::string &out, const TraceEvent &ev) const;

    uint64_t nEvents = 0;
    std::vector<std::string> routineNames;
    FILE *file = nullptr;
    /** Line buffer reused by record. */
    std::string line;
    /** Cycle stamp for events the monitor reports without one. */
    Cycle lastCycle = 0;
};

} // namespace mpos::sim::trace

#endif // MPOS_SIM_TRACE_TRACE_HH
