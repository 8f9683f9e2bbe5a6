/**
 * @file
 * Forward-progress watchdog for the simulated machine.
 *
 * The paper's subject -- spinlock contention in a multiprocessor OS --
 * has an exact analogue inside the simulator: a livelocked or
 * deadlocked simulated kernel spins its CPUs forever and the host
 * process hangs. The watchdog turns that hang into a typed,
 * diagnosable failure.
 *
 * Progress is defined as work that can eventually unblock someone
 * else: a CPU retiring a memory reference, or a sync-transport
 * acquire succeeding / lock being released. Think items, markers and
 * failed acquire polls are *not* progress -- so a pure spin deadlock
 * trips, while the idle loop (which fetches instructions) never does.
 * If no progress lands for `budget` cycles, poll() throws
 * util::SimError(WatchdogTrip) carrying a structured dump: per-CPU
 * mode/op/routine/pid, the kernel's lock table (via an installed
 * diagnostic provider -- the sim layer knows nothing about lock
 * formats), and the tail of the shared monitor-event ring rendered
 * as trace JSONL lines (the same trace::EventRing and renderer the
 * trace exporter uses, so a dump and a trace of the same run can
 * never disagree about the final events).
 *
 * Zero-cost when off: producers hold a Watchdog pointer that is null
 * unless MachineConfig::watchdogCycles is set, so every hook is one
 * predictable branch -- the checker discipline.
 */

#ifndef MPOS_SIM_FAULT_WATCHDOG_HH
#define MPOS_SIM_FAULT_WATCHDOG_HH

#include <cstdint>
#include <functional>
#include <string>

#include "sim/monitor.hh"
#include "sim/trace/trace.hh"
#include "sim/types.hh"

namespace mpos::sim
{

class Machine;

/** The forward-progress watchdog. One per Machine, owned by it. */
class Watchdog : public MonitorObserver
{
  public:
    Watchdog(const MachineConfig &cfg, Cycle budget_cycles);

    /** A CPU retired a memory reference / a lock handed over. */
    void noteProgress() { progressed = true; }

    /**
     * Install the kernel's lock-table describer; its text is embedded
     * verbatim in the dump. The sim layer has no lock vocabulary.
     */
    void
    setDiagnosticProvider(std::function<std::string()> provider)
    {
        diagProvider = std::move(provider);
    }

    /**
     * Install the machine's Tracer. The dump renders the most recent
     * entries of its ring with its JSONL renderer.
     */
    void setTracer(const trace::Tracer *t) { tracer = t; }

    /** Schedule a synthetic trip at a given cycle. 0 cancels. */
    void forceTripAt(Cycle cycle) { tripAt = cycle; }

    /**
     * Called by the schedulers once per simulated time step. Throws
     * util::SimError(WatchdogTrip) when the budget is exhausted or a
     * synthetic trip is due.
     */
    void poll(const Machine &m, Cycle now);

    /** True if poll(m, now) would throw. */
    bool
    wouldTrip(Cycle now) const
    {
        return (tripAt && now >= tripAt) ||
               (!progressed && now - lastProgressCycle >= budgetCycles);
    }

    Cycle budget() const { return budgetCycles; }
    Cycle lastProgress() const { return lastProgressCycle; }

    /** The structured diagnostic dump (also thrown on a trip). */
    std::string dump(const Machine &m, Cycle now,
                     const char *reason) const;

    /// @name MonitorObserver: bus settles are progress. Event history
    /// for the dump comes from the shared ring, not a private copy.
    /// @{
    void busTransaction(const BusRecord &rec) override;
    /// @}

  private:
    /** Most recent ring entries rendered into a dump. */
    static constexpr uint64_t dumpEvents = 32;

    MachineConfig cfg;
    Cycle budgetCycles;
    Cycle lastProgressCycle = 0;
    Cycle tripAt = 0;
    bool progressed = false;
    std::function<std::string()> diagProvider;
    const trace::Tracer *tracer = nullptr;
};

} // namespace mpos::sim

#endif // MPOS_SIM_FAULT_WATCHDOG_HH
