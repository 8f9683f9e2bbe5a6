/**
 * @file
 * The shared monitor-event ring buffer.
 *
 * The paper's hardware monitor stored the last two million bus records
 * in a bounded buffer that was read out after the run. EventRing is
 * that buffer: a fixed-capacity circular store of TraceEvent records,
 * fed by the Tracer (a MonitorObserver) and read by everything that
 * wants "the last N events" -- the trace exporter's ring mode and
 * the watchdog's diagnostic dump. Both consumers read the same
 * object, so a dump and a trace of the same run can never disagree.
 */

#ifndef MPOS_SIM_TRACE_RING_HH
#define MPOS_SIM_TRACE_RING_HH

#include <cstdint>
#include <vector>

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

/** Number of distinct TraceEventKind values. */
constexpr uint32_t numTraceEventKinds = 8;

/** Name of a trace event kind for reports and JSONL. */
const char *traceEventKindName(TraceEventKind k);

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

/** Bounded circular buffer of the most recent TraceEvents. */
class EventRing
{
  public:
    explicit EventRing(uint64_t capacity)
        : buf(capacity ? capacity : 1)
    {
    }

    void
    push(const TraceEvent &ev)
    {
        buf[next % buf.size()] = ev;
        ++next;
    }

    /** Ring capacity in events. */
    uint64_t capacity() const { return buf.size(); }

    /** Events pushed over the whole run (>= size()). */
    uint64_t total() const { return next; }

    /** Events currently held: min(total, capacity). */
    uint64_t
    size() const
    {
        return next < buf.size() ? next : buf.size();
    }

    /** Held event i, oldest first (i in [0, size())). */
    const TraceEvent &
    tail(uint64_t i) const
    {
        return buf[(next - size() + i) % buf.size()];
    }

  private:
    std::vector<TraceEvent> buf;
    uint64_t next = 0;
};

} // namespace mpos::sim::trace

#endif // MPOS_SIM_TRACE_RING_HH
