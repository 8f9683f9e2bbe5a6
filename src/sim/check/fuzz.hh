/**
 * @file
 * Differential fuzz harness for the simulation core.
 *
 * PR 1 replaced the one-tick-at-a-time scheduler and full snoop walks
 * with a cycle-skipping scheduler and a snoop filter, arguing the fast
 * paths are observably identical. The fuzzer turns that argument into
 * an executable property: seeded random scripts -- shared-pool data
 * references, instruction fetches overlapping the data pool, lock
 * contention, OS enter/exit markers, uncached and cache-bypassing
 * traffic, TLB faults and I-cache flushes -- run through BOTH cores
 * with the invariant checkers on, and the harness asserts bit-identical
 * monitor event streams and final machine state (cycle accounts, cache
 * contents, coherence states, TLB counters, sync stalls).
 *
 * A failing seed is automatically minimized by binary-searching the
 * shortest failing script prefix, so a regression lands as a short
 * reproducible trace instead of a 4000-item haystack.
 */

#ifndef MPOS_SIM_CHECK_FUZZ_HH
#define MPOS_SIM_CHECK_FUZZ_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace mpos::sim
{

/** Shape of one fuzz run. Defaults give dense coherence churn. */
struct FuzzOptions
{
    uint32_t numCpus = 4;
    uint32_t scriptLen = 4000; ///< Script items generated per CPU.
    Cycle runCycles = 60000;   ///< Cycles each machine is advanced.
    uint32_t numLocks = 8;
    uint32_t poolLines = 96;   ///< Hot shared pool of line addresses.
    /** Coherence protocol both machines run under. */
    Protocol protocol = Protocol::Mesi;

    /**
     * Lock primitive both machines run under. The scripts carry plain
     * exclusive and shared acquires; the executor drives the
     * primitive's state machine (sim/lockpolicy.hh), the kernel's own,
     * so who wins, who spins and who is handed the lock come from lock
     * state on both cores. The fuzzer has no processes: futex user
     * locks, which block, are left to the lock litmus suite.
     */
    LockPolicy lockPolicy = LockPolicy::TestAndSet;

    /**
     * Machine shrunk so the pool thrashes every structure: small
     * caches force evictions and inclusion churn, a small TLB forces
     * refill faults. The seed picks the bus: odd seeds run the
     * shipped zero-occupancy bus, even seeds a queueing one
     * (busOccupancy 2), so every seed sweep covers both.
     */
    MachineConfig machineConfig(uint64_t seed) const;
};

/** What the lock state machine did in a run (or a sum of runs), so a
 *  matrix can prove it was contended. */
struct FuzzLockCoverage
{
    uint64_t lostAcquires = 0; ///< Acquire attempts that must retry.
    uint64_t handoffs = 0;     ///< MCS releases to a queued waiter.
    uint64_t readSections = 0; ///< RCU read-side sections entered.
    uint64_t gracePeriods = 0; ///< RCU writer grace periods.

    FuzzLockCoverage &
    operator+=(const FuzzLockCoverage &o)
    {
        lostAcquires += o.lostAcquires;
        handoffs += o.handoffs;
        readSections += o.readSections;
        gracePeriods += o.gracePeriods;
        return *this;
    }
};

/** Result of one differential run. */
struct FuzzOutcome
{
    bool ok = true;
    /** Human-readable description of the first divergence, if any. */
    std::string detail;
    /** Invariant violations recorded by either run's checker. */
    std::vector<std::string> violations;
    /** Monitor events compared (same in both runs when ok). */
    uint64_t eventsCompared = 0;
    /** Checker work performed across both runs (CheckStats::total). */
    uint64_t checksPerformed = 0;
    /** CPU-cycles the fast run's parked CPUs ran arithmetically. */
    uint64_t parkedCycles = 0;
    /** Lock activity of the fast (or uninterrupted) run. */
    FuzzLockCoverage locks;
};

/**
 * Generate the per-CPU scripts for a seed. Exposed so tests can assert
 * generator properties (marker pairing, address ranges) directly.
 */
std::vector<std::vector<ScriptItem>>
buildFuzzScripts(uint64_t seed, const FuzzOptions &opt);

/**
 * Run one seed through the fast and reference cores with checkers on
 * and compare everything. prefix_len > 0 truncates every CPU's script
 * to its first prefix_len items (the minimizer's knob); 0 = full.
 */
FuzzOutcome runDifferential(uint64_t seed, const FuzzOptions &opt,
                            uint32_t prefix_len = 0);

/**
 * Smallest k in [1, n] with fails(k), assuming fails(n) holds, by
 * binary search (monotonicity is heuristic for script prefixes, but a
 * non-minimal answer is still a valid failing repro).
 */
uint64_t minimizeFailingPrefix(
    uint64_t n, const std::function<bool(uint64_t)> &fails);

/** One failure from a fuzz matrix, already minimized. */
struct FuzzFailure
{
    uint64_t seed = 0;
    uint32_t numCpus = 0;
    uint32_t minimalPrefix = 0; ///< Shortest failing script prefix.
    std::string detail;
};

/** Aggregate result of a seed x CPU-count sweep. */
struct FuzzMatrixResult
{
    uint32_t runs = 0;
    uint64_t eventsCompared = 0;
    uint64_t checksPerformed = 0;
    FuzzLockCoverage locks;
    std::vector<FuzzFailure> failures;

    bool ok() const { return failures.empty(); }
};

/**
 * Sweep seeds [first_seed, first_seed + num_seeds) over the given CPU
 * counts; failing runs are minimized before being reported. progress,
 * if non-null, is called after every run.
 */
FuzzMatrixResult runFuzzMatrix(
    uint64_t first_seed, uint32_t num_seeds,
    const std::vector<uint32_t> &cpu_counts, const FuzzOptions &base,
    const std::function<void(uint64_t seed, uint32_t cpus,
                             const FuzzOutcome &)> &progress = nullptr);

/**
 * Snapshot differential: run a seed's scripts uninterrupted on the
 * fast core, then again with the run cut at snapshot_at cycles -- the
 * machine state and the lock table are serialized through the
 * snapshot container, restored into a brand-new machine, and the run
 * continued there. The property:
 * the interrupted run's concatenated monitor event stream and its
 * final machine state must be bit-identical to the uninterrupted
 * run's, and the coherence checker must stay clean across the restore
 * boundary. snapshot_at is clamped to [1, runCycles - 1].
 */
FuzzOutcome runSnapshotDifferential(uint64_t seed,
                                    const FuzzOptions &opt,
                                    Cycle snapshot_at);

/**
 * Sweep seeds [first_seed, first_seed + num_seeds) over the given CPU
 * counts through runSnapshotDifferential. Failures carry the detail
 * text directly (no prefix minimization: the repro is already just a
 * seed and a cut point).
 */
FuzzMatrixResult runSnapshotMatrix(
    uint64_t first_seed, uint32_t num_seeds,
    const std::vector<uint32_t> &cpu_counts, const FuzzOptions &base,
    Cycle snapshot_at,
    const std::function<void(uint64_t seed, uint32_t cpus,
                             const FuzzOutcome &)> &progress = nullptr);

/**
 * Aggregate result of a corrupt-input campaign (see
 * runCorruptCampaign). The contract under test: a mutated snapshot
 * image either decodes cleanly or raises a typed
 * util::SimError -- it never crashes, never corrupts memory (the CI
 * job runs this under ASan+UBSan), and never escapes with an untyped
 * exception.
 */
struct CorruptCampaignResult
{
    uint32_t runs = 0;     ///< Mutated images decoded.
    uint32_t rejected = 0; ///< Raised a typed util::SimError.
    uint32_t accepted = 0; ///< Decoded cleanly despite the mutation.
    /** Inputs that escaped the typed-error contract. */
    std::vector<std::string> failures;

    bool ok() const { return failures.empty(); }
};

/**
 * The pristine MPOSSNAP image the corrupt campaign mutates: a seeded
 * fuzz run cut midway, its Machine section packed exactly as the
 * warm-start cache packs snapshots, its lock table in a Kernel
 * section as the kernel serializes its own. Exposed so the committed
 * corrupt-input corpus under tests/golden/corrupt/ can be
 * regenerated deterministically (mpos_fuzz --emit-corrupt-corpus).
 */
std::vector<uint8_t> buildCorruptBaseImage(uint64_t seed,
                                           const FuzzOptions &opt);

/**
 * Byte-mutation fuzz over the untrusted MPOSSNAP snapshot decoder
 * (snapshot::parse *and* a full Machine::restoreState of the Machine
 * section plus the lock table's restore from the Kernel section). One
 * pristine image is built from a seeded fuzz run, then `mutations`
 * seeded variants -- bit flips, byte rewrites, truncations, spliced
 * garbage -- are decoded. For half of them the trailing FNV-1a is
 * recomputed so the mutation survives the outer checksum and reaches
 * the section/state decoders.
 */
CorruptCampaignResult runCorruptCampaign(
    uint64_t seed, uint32_t mutations, const FuzzOptions &base,
    const std::function<void(uint32_t done, uint32_t total)>
        &progress = nullptr);

} // namespace mpos::sim

#endif // MPOS_SIM_CHECK_FUZZ_HH
