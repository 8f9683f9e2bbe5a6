/**
 * @file
 * Structured trace exporter: the simulator's version of the paper's
 * two-million-entry hardware trace buffer.
 *
 * The Tracer subscribes to the Monitor and records every event -- bus
 * transactions with their in-band context snapshot (mode, OS
 * operation, kernel routine, pid: the paper's escape references),
 * evictions, invalidations, OS entry/exit and context switches --
 * into the shared EventRing, and optionally writes them to a JSONL
 * file, one JSON object per event with routine ids resolved to names.
 * Two file modes mirror the two ways the paper's buffer could be
 * used:
 *
 *  - streaming: every event is written as it happens (unbounded);
 *  - ring mode: only the ring's final contents are written at
 *    finish(), i.e. the last traceRingEntries events of the run.
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
#include "sim/trace/ring.hh"
#include "sim/types.hh"

namespace mpos::sim::trace
{

/** The trace exporter. One per Machine, owned by it. */
class Tracer : public MonitorObserver
{
  public:
    /**
     * @param ring_entries Ring capacity in events.
     * @param file_path    JSONL trace output; empty = ring only.
     * @param ring_mode    Write only the final ring contents instead
     *                     of streaming every event.
     */
    Tracer(uint64_t ring_entries, const std::string &file_path,
           bool ring_mode);
    ~Tracer() override;

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

    /**
     * Append ev to out as one JSON object and a newline: the trace
     * file's line format, also used by the watchdog's dump.
     */
    void appendJson(std::string &out, const TraceEvent &ev) const;

    /**
     * In ring mode, write the ring contents; then close the file.
     * Idempotent; called by the destructor if nobody else does.
     */
    void finish();

    /** The shared event ring (also read by the watchdog's dump). */
    const EventRing &ring() const { return events; }

    /** Events observed over the whole run. */
    uint64_t totalEvents() const { return events.total(); }

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
    void record(const TraceEvent &ev);
    void writeEvent(const TraceEvent &ev);

    EventRing events;
    std::vector<std::string> routineNames;
    FILE *file = nullptr;
    /** Line buffer reused by writeEvent. */
    std::string line;
    bool ringMode = false;
    bool finished = false;
    /** Cycle stamp for events the monitor reports without one. */
    Cycle lastCycle = 0;
};

} // namespace mpos::sim::trace

#endif // MPOS_SIM_TRACE_TRACE_HH
