/**
 * @file
 * Write-ahead sweep journal: crash-recoverable experiment batches.
 *
 * A sweep that may be killed (power loss, OOM kill, an injected
 * MPOS_CRASH point) records its intent and its outcomes in an
 * append-only, CRC-framed journal. On restart with --resume the
 * journal is replayed: completed analyses re-emit their journaled
 * output byte-identically, completed jobs contribute their journaled
 * result rows, and only incomplete or failed work is re-executed --
 * which, because every experiment is deterministic, reproduces
 * exactly the events the killed run would have produced.
 *
 * File format (`sweep.mpj`, all integers little-endian via binio):
 *
 *   header   "MPOSJRN1" (8)  version u32 (= 3)
 *   record*  u32 payload_len, payload bytes, u64 fnv1a(payload)
 *
 * Each payload starts with a u8 record type:
 *
 *   0x01 Plan        str name, u64 config_hash
 *   0x03 JobEnd      str name, u64 config_hash, u8 status,
 *                    str error, u64 monitor_tx,
 *                    u64 invariant_checks, u8 kind, u32 cpus,
 *                    u64 measure_cycles
 *   0x04 AnalysisEnd str name, b ok, str error, str output
 *   0x05 PoisonKey   u64 warm_key
 *
 * Version 1 also wrote a 0x02 record at the start of every attempt.
 * Version 2 dropped it, and replay rejects a version-1 file instead
 * of reading its first 0x02 record as a torn tail and truncating
 * everything after it. Version 3 dropped JobEnd's attempts count
 * (jobs run once); replay rejects version-2 files by version.
 *
 * Recovery invariants:
 *  - A torn tail (truncated or checksum-failing final record: the
 *    kill landed mid-append) is expected, not an error; replay stops
 *    at the last intact record and the file is truncated there before
 *    new appends.
 *  - Plan records are written on the submission thread, in submission
 *    order, before the job can run: they are the deterministic
 *    ordering skeleton the resumed report is rebuilt on, independent
 *    of which worker finished (or died) when.
 *  - A planned job without a JobEnd (the process died before it
 *    settled) or with a failed one re-runs; nothing else does.
 *  - PoisonKey records persist the warm-cache quarantine: a resumed
 *    sweep never warm-starts from an image a failed job touched,
 *    even across process restarts.
 */

#ifndef MPOS_CORE_JOURNAL_HH
#define MPOS_CORE_JOURNAL_HH

#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace mpos::core
{

struct ExperimentConfig;

/// @name Journal record types (the u8 leading each payload)
/// @{
inline constexpr uint8_t journalPlan = 0x01;
inline constexpr uint8_t journalJobEnd = 0x03;
inline constexpr uint8_t journalAnalysisEnd = 0x04;
inline constexpr uint8_t journalPoisonKey = 0x05;
/// @}

/** A replayed JobEnd: everything the resumed report row needs. */
struct JournalJobRow
{
    std::string name;
    uint64_t configHash = 0;
    uint8_t status = 0; ///< core::JobStatus as u8.
    std::string error;
    uint64_t monitorTransactions = 0;
    uint64_t invariantChecks = 0;
    uint8_t kind = 0; ///< workload::WorkloadKind as u8.
    uint32_t cpus = 0;
    uint64_t measureCycles = 0;
};

/** A replayed AnalysisEnd. */
struct JournalAnalysis
{
    std::string name;
    bool ok = false;
    std::string error;
    std::string output; ///< Exact captured stdout of the analysis.
};

/** Everything replay() recovered from an existing journal. */
struct JournalState
{
    /** (name, config hash) in first-appearance submission order. */
    std::vector<std::pair<std::string, uint64_t>> plan;
    /** Settled jobs, keyed by name (last JobEnd wins). */
    std::unordered_map<std::string, JournalJobRow> jobs;
    /** Completed analyses, keyed by name (last record wins). */
    std::unordered_map<std::string, JournalAnalysis> analyses;
    /** Warm-cache keys quarantined by failed jobs. */
    std::vector<uint64_t> poisonedKeys;
    /** True if a torn tail was dropped during replay. */
    bool truncatedTail = false;
    /** Intact records replayed. */
    size_t records = 0;
};

/**
 * Append-side and replay-side of one journal file. Appends are
 * serialized by an internal mutex and flushed per record, so the
 * on-disk prefix is always a valid journal no matter where a kill
 * lands. Thread-safe; one instance is shared by the submission
 * thread, every runner worker, and the analysis loop.
 */
class SweepJournal
{
  public:
    SweepJournal() = default;
    ~SweepJournal();

    SweepJournal(const SweepJournal &) = delete;
    SweepJournal &operator=(const SweepJournal &) = delete;

    /**
     * Identity of a job for journaling: the warm-config hash of the
     * resolved configuration (machine + kernel + workload + seed +
     * warmup) extended with the measurement-phase knobs the warm key
     * deliberately excludes. Two jobs with equal hashes produce equal
     * measured results; a journaled row whose hash no longer matches
     * the resubmitted config is stale and is re-run.
     */
    static uint64_t jobConfigHash(const ExperimentConfig &cfg);

    /**
     * Open `<dir>/sweep.mpj`. With resume=false any existing journal
     * is discarded and a fresh one started. With resume=true an
     * existing file is replayed into state() first (a torn tail is
     * truncated away); a missing file starts fresh. Raises
     * util::SimError(BadConfig) for an unwritable path or a file that
     * is not a sweep journal.
     */
    void open(const std::string &dir, bool resume);

    /** Replayed state (empty unless open(dir, true) found records). */
    const JournalState &state() const { return st; }

    /// @name Appends (each one durable before the call returns)
    /// @{
    void appendPlan(const std::string &name, uint64_t config_hash);
    void appendJobEnd(const JournalJobRow &row);
    void appendAnalysisEnd(const std::string &name, bool ok,
                           const std::string &error,
                           const std::string &output);
    void appendPoison(uint64_t key);
    /// @}

  private:
    void append(const std::vector<uint8_t> &payload);
    void replay(const std::string &path);

    std::mutex mu;
    std::FILE *f = nullptr;
    JournalState st;
};

} // namespace mpos::core

#endif // MPOS_CORE_JOURNAL_HH
