/**
 * @file
 * Time-sliced metrics engine: the observability companion to the
 * paper's whole-run averages.
 *
 * The paper reports miss rates, bus utilization and lock behavior
 * aggregated over entire workload runs; figures like the repeating
 * OS/application pattern (Figure 1) only become visible when the same
 * quantities are windowed over time. Metrics does that windowing: the
 * run is divided into fixed-width slices of simulated cycles, and each
 * slice accumulates bus traffic by operation, I/D miss fills, the OS
 * share of traffic, invalidations, evictions, OS entries and lock
 * activity (acquires, contended hand-offs between CPUs, failed spin
 * polls). Bench emits the per-window arrays into the JSON report.
 *
 * Window boundaries advance with the cycle stamps of clocked events
 * (bus records, OS entry/exit); unclocked events (invalidations,
 * evictions) land in the window that is current when they arrive,
 * which is the window of the bus slot that caused them. Everything is
 * derived from simulated time only, so the arrays are byte-identical
 * across host thread counts.
 *
 * Zero-cost when off: the machine holds a null pointer unless
 * MachineConfig::metrics enables the engine.
 */

#ifndef MPOS_SIM_TRACE_METRICS_HH
#define MPOS_SIM_TRACE_METRICS_HH

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/monitor.hh"
#include "sim/syncbus.hh"
#include "sim/types.hh"

namespace mpos::sim::trace
{

/** One completed metrics window. */
struct MetricsWindow
{
    Cycle startCycle = 0;

    /** Bus transactions by BusOp (Read..UncachedWrite). */
    uint64_t busOps[6] = {};
    uint64_t osBusOps = 0; ///< Transactions with mode != User.
    uint64_t iFills = 0;   ///< Read fills into the I-cache.
    uint64_t dFills = 0;   ///< Read/ReadEx fills into the D-cache.

    uint64_t invalSharing = 0;
    uint64_t invalRealloc = 0;
    uint64_t evictions = 0;
    uint64_t osEnters = 0;

    uint64_t lockAcquires = 0;
    /** Acquires where the previous holder was a different CPU. */
    uint64_t lockHandoffs = 0;
    uint64_t lockFails = 0; ///< Failed acquire polls (spin pressure).

    uint64_t busTotal() const
    {
        uint64_t n = 0;
        for (uint64_t v : busOps)
            n += v;
        return n;
    }
};

/** A phase boundary (warmup -> measure) in window coordinates. */
struct MetricsPhase
{
    std::string name;
    Cycle startCycle = 0;
};

/** The windowing engine. One per Machine, owned by it. */
class Metrics : public MonitorObserver
{
  public:
    explicit Metrics(Cycle window_cycles);

    /** Mark a phase boundary (e.g. the start of measurement). */
    void markPhase(Cycle now, const std::string &name);

    /**
     * Lock activity, reported directly by the kernel (the sync
     * transport carries no cycle stamps). Null-gated at the call
     * site, the same discipline as every other hook.
     */
    void lockEvent(Cycle now, CpuId cpu, uint32_t lock_id,
                   LockEvent ev);

    /** Close the current window. Idempotent per cycle. */
    void finish(Cycle now);

    Cycle windowCycles() const { return windowWidth; }
    const std::vector<MetricsWindow> &windows() const { return done; }
    const std::vector<MetricsPhase> &phases() const { return marks; }

    /// @name MonitorObserver
    /// @{
    void busTransaction(const BusRecord &rec) override;
    void invalSharing(CpuId cpu, CacheKind kind, Addr line) override;
    void invalPageRealloc(CpuId cpu, Addr line) override;
    void evict(CpuId cpu, CacheKind kind, Addr line,
               const MonitorContext &by) override;
    void osEnter(Cycle cycle, CpuId cpu, OsOp op) override;
    /// @}

  private:
    /** Close windows until cycle `now` falls inside the current one. */
    void
    advance(Cycle now)
    {
        while (now >= cur.startCycle + windowWidth) {
            done.push_back(cur);
            cur = MetricsWindow{};
            cur.startCycle = done.back().startCycle + windowWidth;
        }
    }

    Cycle windowWidth;
    MetricsWindow cur;
    std::vector<MetricsWindow> done;
    std::vector<MetricsPhase> marks;
    /** Last successful acquirer per lock id (hand-off detection). */
    std::unordered_map<uint32_t, CpuId> lastOwner;
    bool closed = false;
};

} // namespace mpos::sim::trace

#endif // MPOS_SIM_TRACE_METRICS_HH
