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
     * Lock primitive both machines run under. The generic scripted
     * lock markers (a few failed polls, then success) are translated
     * by the executor into the primitive's transport event sequence
     * -- ticket take/poll, MCS swap/enqueue/local-poll/hand-off,
     * futex CAS/wait/wake, RCU read-side -- so the differential
     * property covers every primitive's accounting on both cores.
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
 * machine state is serialized through the snapshot container, restored
 * into a brand-new machine, and the run continued there. The property:
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
 * runCorruptCampaign). The contract under test: a mutated snapshot or
 * trace image either decodes cleanly or raises a typed
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
 * warm-start cache packs snapshots. Exposed so the committed
 * corrupt-input corpus under tests/golden/corrupt/ can be
 * regenerated deterministically (mpos_fuzz --emit-corrupt-corpus).
 */
std::vector<uint8_t> buildCorruptBaseImage(uint64_t seed,
                                           const FuzzOptions &opt);

/**
 * Byte-mutation fuzz over the two untrusted binary decoders: the
 * MPOSSNAP snapshot container (through snapshot::parse *and* a full
 * Machine::restoreState of the Machine section) and the MPOSTRC1
 * trace reader (through trace::convertToJsonl). One pristine image of
 * each kind is built from a seeded fuzz run, then `mutations` seeded
 * variants -- bit flips, byte rewrites, truncations, spliced garbage
 * -- are decoded, alternating between the two kinds. For half of the
 * snapshot mutations the trailing FNV-1a is recomputed so the
 * mutation survives the outer checksum and reaches the section/state
 * decoders. tmp_dir holds the scratch trace files.
 */
CorruptCampaignResult runCorruptCampaign(
    uint64_t seed, uint32_t mutations, const FuzzOptions &base,
    const std::string &tmp_dir,
    const std::function<void(uint32_t done, uint32_t total)>
        &progress = nullptr);

/**
 * One fault-injection campaign run. The campaign's property is not
 * differential equivalence but *reproducibility of failure*: the same
 * seed must produce the same fault schedule, fire the same faults,
 * and -- when the run dies -- die with the same typed error and the
 * same structured diagnostic, byte for byte.
 */
struct FaultRunRecord
{
    uint64_t seed = 0;
    uint32_t numCpus = 0;
    std::string schedule;   ///< FaultPlan::describe() text.
    bool tripped = false;   ///< A util::SimError terminated the run.
    std::string errorCode;  ///< errCodeName of that error ("" if none).
    std::string diagnostic; ///< Error text (e.g. the watchdog dump).
    uint64_t faultsFired = 0;
    bool deterministic = true; ///< Re-run matched byte for byte.
};

/** Aggregate result of a fault-injection seed x CPU-count sweep. */
struct FaultCampaignResult
{
    uint32_t runs = 0;
    uint32_t tripped = 0;
    uint64_t faultsFired = 0;
    std::vector<FaultRunRecord> records;

    bool
    ok() const
    {
        for (const FaultRunRecord &r : records)
            if (!r.deterministic)
                return false;
        return true;
    }
};

/**
 * Run one fuzz script under a seeded FaultPlan with the watchdog
 * armed (budget = opt.runCycles): scripts may be truncated, lock
 * holds stretched, and a synthetic watchdog trip scheduled, all from
 * the plan. A SimError ends the run and is recorded, not rethrown.
 */
FaultRunRecord runFaulted(uint64_t seed, const FuzzOptions &opt);

/**
 * Sweep seeds over CPU counts, running every combination twice and
 * marking records whose two runs differ as non-deterministic.
 */
FaultCampaignResult runFaultCampaign(
    uint64_t first_seed, uint32_t num_seeds,
    const std::vector<uint32_t> &cpu_counts, const FuzzOptions &base,
    const std::function<void(const FaultRunRecord &)> &progress =
        nullptr);

} // namespace mpos::sim

#endif // MPOS_SIM_CHECK_FUZZ_HH
