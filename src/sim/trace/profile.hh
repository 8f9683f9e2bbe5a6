/**
 * @file
 * Simulated-kernel routine profiler.
 *
 * The paper attributes misses to kernel routines through in-band
 * subroutine-entry escape references; the profiler generalizes that
 * into a full profile of the *simulated* kernel: every cycle of
 * simulated time is attributed to the (execution mode, OS operation,
 * kernel routine) that was executing, every classified miss and an
 * estimated stall contribution are charged to the same key, and
 * per-process cycle totals ride along. Output is flame-style
 * collapsed stacks ("mode;os_op;routine cycles"), consumable by
 * standard flamegraph tooling.
 *
 * Cycle attribution is span-based: the profiler tracks each CPU's
 * current key and charges the elapsed simulated cycles to the old key
 * at every transition (OS entry/exit and context switches arrive via
 * the Monitor; routine changes are reported directly by the kernel at
 * RoutineEnter/Exit markers, null-gated like every other hook).
 * Between resetCycles(t0) and finish(t1), the attributed cycles sum
 * to exactly (t1 - t0) * numCpus -- nothing is lost or invented.
 *
 * Stall time is estimated as the paper does: busMissStall cycles per
 * bus transaction, charged to the transaction's own context snapshot.
 * Misses-by-class arrive from the core classifier through a sink
 * adapter, keyed by the miss record's context, which makes the
 * per-routine totals reconcile exactly with core/attribution.
 *
 * Zero-cost when off: null-pointer gate, the checker discipline.
 */

#ifndef MPOS_SIM_TRACE_PROFILE_HH
#define MPOS_SIM_TRACE_PROFILE_HH

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/monitor.hh"
#include "sim/types.hh"

namespace mpos::sim::trace
{

/** Miss-class slots a profile key carries (superset of core's 7). */
constexpr uint32_t profileMissSlots = 8;

/** Aggregated profile of one (mode, OS op, routine) key. */
struct ProfileEntry
{
    ExecMode mode = ExecMode::User;
    OsOp op = OsOp::None;
    uint16_t routine = 0xffff;

    uint64_t cycles = 0;     ///< Simulated cycles attributed.
    uint64_t busTx = 0;      ///< Bus transactions in this context.
    uint64_t stallEst = 0;   ///< busTx * busMissStall estimate.
    uint64_t missesI[profileMissSlots] = {}; ///< I-misses by class.
    uint64_t missesD[profileMissSlots] = {}; ///< D-misses by class.
};

/** The profiler. One per Machine, owned by it. */
class Profiler : public MonitorObserver
{
  public:
    /**
     * @param num_cpus       CPUs in the machine.
     * @param bus_miss_stall Per-transaction stall estimate (the
     *                       paper's 35 cycles).
     */
    explicit Profiler(uint32_t num_cpus);

    /** Install the kernel routine symbol table (index = RoutineId). */
    void
    setRoutineNames(std::vector<std::string> names)
    {
        routineNames = std::move(names);
    }

    /**
     * The kernel's routine-boundary hook (RoutineEnter/Exit markers).
     * Null-gated at the call site.
     */
    void routineSwitch(Cycle now, CpuId cpu, uint16_t routine);

    /**
     * A classified miss, forwarded by the core classifier's sink
     * adapter. Keyed by the miss record's own context snapshot.
     */
    void recordMiss(const MonitorContext &ctx, CacheKind cache,
                    uint8_t miss_class);

    /** Zero all tallies and restart every CPU's span at `now`. */
    void resetCycles(Cycle now);

    /** Close all open spans at `now` (spans restart there). */
    void finish(Cycle now);

    /** All keys with nonzero activity, deterministically ordered. */
    std::vector<ProfileEntry> entries() const;

    /** Simulated cycles attributed across all keys. */
    uint64_t totalCycles() const;

    /**
     * Per-process attributed cycles (ordered by pid). Partitions the
     * same total as totalCycles(); the invalidPid slot collects
     * no-process time (the idle loop, early boot).
     */
    const std::map<Pid, uint64_t> &pidCycles() const { return byPid; }

    /**
     * Flame-style collapsed stacks: one "mode;os_op;routine cycles"
     * line per key, most cycles first (stable tie-break on the key),
     * ready for flamegraph.pl / inferno.
     */
    std::string collapsed() const;

    /** Human-readable name of a routine id ("-" when none). */
    std::string routineName(uint16_t routine) const;

    /// @name MonitorObserver
    /// @{
    void busTransaction(const BusRecord &rec) override;
    void osEnter(Cycle cycle, CpuId cpu, OsOp op) override;
    void osExit(Cycle cycle, CpuId cpu, OsOp op) override;
    void contextSwitch(Cycle cycle, CpuId cpu, Pid from,
                       Pid to) override;
    /// @}

  private:
    struct Tally
    {
        uint64_t cycles = 0;
        uint64_t busTx = 0;
        uint64_t missesI[profileMissSlots] = {};
        uint64_t missesD[profileMissSlots] = {};
    };

    /** Current attribution key of one CPU. */
    struct CpuKey
    {
        ExecMode mode = ExecMode::Idle;
        OsOp op = OsOp::IdleLoop;
        uint16_t routine = 0xffff;
        Cycle spanStart = 0;
        Pid pid = invalidPid;
    };

    static uint32_t
    pack(ExecMode mode, OsOp op, uint16_t routine)
    {
        return (uint32_t(mode) << 24) | (uint32_t(op) << 16) | routine;
    }

    Tally &
    tallyOf(ExecMode mode, OsOp op, uint16_t routine)
    {
        return tallies[pack(mode, op, routine)];
    }

    /** Charge the elapsed span of cpu to its current key. */
    void closeSpan(Cycle now, CpuId cpu);

    std::vector<CpuKey> cur;
    std::unordered_map<uint32_t, Tally> tallies;
    std::map<Pid, uint64_t> byPid;
    std::vector<std::string> routineNames;
};

} // namespace mpos::sim::trace

#endif // MPOS_SIM_TRACE_PROFILE_HH
