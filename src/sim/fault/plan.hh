/**
 * @file
 * Deterministic fault-injection schedule.
 *
 * A FaultPlan decides, entirely at construction time and entirely from
 * a 64-bit seed, which faults a run will suffer and when: forced
 * process-slot / shared-memory / user-lock-slot exhaustion, workload
 * script truncation, perturbed kernel lock hold times, and a synthetic
 * watchdog trip. No wall clock, no runtime randomness: firing is pure
 * counting against the (already deterministic) simulated call
 * sequences, so the same seed always produces the same fault schedule,
 * the same failure, and the same diagnostic dump -- the property the
 * `mpos_fuzz --faults` campaign asserts by running every seed twice.
 *
 * Producers hold a FaultPlan pointer that is null unless
 * MachineConfig::faultSeed is set: the same zero-cost null-pointer-gate
 * discipline as the checker and the watchdog.
 */

#ifndef MPOS_SIM_FAULT_PLAN_HH
#define MPOS_SIM_FAULT_PLAN_HH

#include <cstdint>
#include <string>

#include "sim/types.hh"
#include "util/binio.hh"

namespace mpos::sim
{

/// @name Deterministic process-crash points
/// Service-level fault injection for the crash-recovery tests: a
/// named point in the code (journal append, snapshot write, analysis
/// record) calls crashPoint(name), and when the environment selects
/// that point -- MPOS_CRASH="<name>" or "<name>:<n>" (die on the n-th
/// hit, default 1) -- the process dies with _exit(137), exactly as a
/// kill -9 would look to the journal. Unset MPOS_CRASH costs one
/// getenv at first use and an early-out string compare per hit.
/// @{

/**
 * True when this hit of the named point is the scheduled fatal one.
 * For torn-write experiments: the caller commits its partial bytes,
 * then calls crashNow(). Plain call sites use crashPoint() instead.
 */
bool crashPointArmed(const char *name);

/** Die with _exit(137) if this hit of the point is the scheduled one. */
void crashPoint(const char *name);

/** Announce the injected crash on stderr and _exit(137). */
[[noreturn]] void crashNow(const char *name);
/// @}

/** One seeded, pre-drawn fault schedule. Owned by the Machine. */
class FaultPlan
{
  public:
    FaultPlan(uint64_t seed, Cycle horizon);

    /// @name Static schedule (drawn once from the seed; public so
    /// tests and describe() can introspect it).
    /// @{
    /** The Nth process-slot allocation fails; 0 = never. */
    uint32_t slotExhaustAfter = 0;
    /** The Nth kernel shared-memory allocation fails; 0 = never. */
    uint32_t shmExhaustAfter = 0;
    /** The Nth user-lock-slot allocation fails; 0 = never. */
    uint32_t userLockExhaustAfter = 0;
    /** Lock ids whose (id % 32) bit is set get extra hold time. */
    uint32_t perturbLockMask = 0;
    /** Extra cycles charged while holding a perturbed lock. */
    Cycle lockHoldExtra = 0;
    /** Every Nth generated chunk/script is truncated; 0 = never. */
    uint32_t truncateEvery = 0;
    /** Percentage of a truncated chunk that survives. */
    uint32_t truncateKeepPct = 100;
    /** Cycle of a forced synthetic watchdog trip; 0 = none. */
    Cycle syntheticTripAt = 0;
    /// @}

    /// @name Runtime firing: pure counters, no randomness.
    /// @{
    /** True if this process-slot allocation must fail. */
    bool fireSlotAlloc()
    {
        return ++slotAllocs == slotExhaustAfter && countFired();
    }

    /** True if this kernel shmAlloc must fail. */
    bool fireShmAlloc()
    {
        return ++shmAllocs == shmExhaustAfter && countFired();
    }

    /** True if this user-lock-slot allocation must fail. */
    bool fireUserLockAlloc()
    {
        return ++lockAllocs == userLockExhaustAfter && countFired();
    }

    /** Extra hold cycles for a lock acquire (0 = unperturbed). */
    Cycle
    holdExtra(uint32_t lock_id) const
    {
        return (perturbLockMask >> (lock_id % 32)) & 1 ? lockHoldExtra
                                                       : 0;
    }

    /**
     * Length the caller should keep of the next generated chunk or
     * script (always >= 1 and <= len). The caller is responsible for
     * picking a cut point that preserves its own pairing invariants.
     */
    uint64_t truncatedLen(uint64_t len);
    /// @}

    uint64_t seed() const { return seed_; }
    Cycle horizon() const { return horizon_; }
    /** Faults that actually fired so far (exhaustions, truncations). */
    uint32_t faultsFired() const { return fired; }

    /** Human-readable schedule, one line per active fault category. */
    std::string describe() const;

    /**
     * First seed >= from whose plan schedules a synthetic watchdog
     * trip: a guaranteed, workload-independent failure. Used by the
     * retry tests and `mpos_bench --fault-job`.
     */
    static uint64_t firstTrippingSeed(uint64_t from, Cycle horizon);

    /// @name Snapshot save/restore
    /// Only the runtime counters travel; the static schedule is
    /// redrawn from the seed (which the config hash covers).
    /// @{
    void
    saveState(util::ByteWriter &w) const
    {
        w.u32(slotAllocs);
        w.u32(shmAllocs);
        w.u32(lockAllocs);
        w.u64(chunks);
        w.u32(fired);
    }

    void
    restoreState(util::ByteReader &r)
    {
        slotAllocs = r.u32();
        shmAllocs = r.u32();
        lockAllocs = r.u32();
        chunks = r.u64();
        fired = r.u32();
    }
    /// @}

  private:
    bool countFired() { ++fired; return true; }

    uint64_t seed_;
    Cycle horizon_;
    uint32_t slotAllocs = 0;
    uint32_t shmAllocs = 0;
    uint32_t lockAllocs = 0;
    uint64_t chunks = 0;
    uint32_t fired = 0;
};

} // namespace mpos::sim

#endif // MPOS_SIM_FAULT_PLAN_HH
