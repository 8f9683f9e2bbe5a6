/**
 * @file
 * Concurrent execution of independent experiments.
 *
 * Every Experiment owns its whole simulated machine and is
 * deterministic for a given configuration, so unrelated experiments
 * can run on host threads without any possibility of changing
 * simulated events. The runner exploits that: jobs are submitted by
 * name, execute on a util::ThreadPool (sized by MPOS_JOBS), and
 * results are retrieved in submission order -- so everything built on
 * top produces byte-identical output no matter how many host threads
 * were used.
 *
 * Jobs are allowed to fail: a util::SimError (resource exhaustion,
 * watchdog trip, timeout) is caught in the worker and recorded in the
 * job's ExperimentResult (status/error/attempts) instead of tearing
 * down the sweep. RunnerOptions adds a per-attempt wall-clock budget
 * and bounded retry-with-reseed; surviving jobs are untouched, so
 * their output stays byte-identical whether or not a sibling failed.
 */

#ifndef MPOS_CORE_RUNNER_HH
#define MPOS_CORE_RUNNER_HH

#include <deque>
#include <future>
#include <string>
#include <string_view>
#include <vector>

#include "core/experiment.hh"
#include "util/threadpool.hh"

namespace mpos::core
{

class SweepJournal;

/** Final disposition of one runner job. */
enum class JobStatus : uint8_t
{
    Pending,  ///< Not finished yet (or never ran).
    Ok,       ///< Experiment completed; exp is set.
    Failed,   ///< Every attempt raised a non-timeout error.
    TimedOut, ///< Last attempt exceeded the per-job wall budget.
};

inline const char *
jobStatusName(JobStatus s)
{
    switch (s) {
    case JobStatus::Pending: return "pending";
    case JobStatus::Ok: return "ok";
    case JobStatus::Failed: return "failed";
    case JobStatus::TimedOut: return "timed-out";
    }
    return "unknown";
}

/** One completed (or in-flight) experiment job. */
struct ExperimentResult
{
    std::string name;
    ExperimentConfig cfg;
    std::unique_ptr<Experiment> exp; ///< Set once the job succeeds.
    double wallSeconds = 0;          ///< Host time across all attempts.
    /** Invariant checks performed (0 unless checking was enabled). */
    uint64_t invariantChecks = 0;
    /** Monitor bus transactions over the whole run (always counted);
     *  the host-side events/sec figure divides this by wallSeconds. */
    uint64_t monitorTransactions = 0;
    JobStatus status = JobStatus::Pending;
    std::string error;     ///< Last SimError/exception text if not Ok.
    uint32_t attempts = 0; ///< Attempts consumed (>= 1 once settled).

    bool ok() const { return status == JobStatus::Ok; }
};

/** Scheduling and resilience policy for a runner. */
struct RunnerOptions
{
    unsigned jobs = 0;        ///< Worker threads; 0 = MPOS_JOBS.
    uint32_t maxAttempts = 1; ///< Per-job tries; retries reseed.
    double jobTimeoutSec = 0; ///< Per-attempt wall budget; 0 = none.
    unsigned retryBackoffMs = 25; ///< Host sleep before each retry.
    /**
     * Warm-start cache shared by every job; null disables. The key is
     * computed from each attempt's *effective* config, so a reseeded
     * retry never reuses the failed seed's warm image.
     */
    WarmStartCache *warmCache = nullptr;
    /**
     * Sweep journal; null disables. Workers write a JobEnd when the
     * job settles, and a failed attempt poisons its warm key both in
     * the cache and in the journal -- so a killed sweep can be
     * resumed without re-running settled jobs and without ever
     * reusing a failed seed's warm image.
     */
    SweepJournal *journal = nullptr;
};

/** Schedules ExperimentConfig jobs over a host thread pool. */
class ExperimentRunner
{
  public:
    static constexpr size_t npos = size_t(-1);

    /** @param jobs Worker threads; 0 means MPOS_JOBS/default. */
    explicit ExperimentRunner(unsigned jobs = 0);

    explicit ExperimentRunner(const RunnerOptions &opt);

    /** Waits for all outstanding jobs. */
    ~ExperimentRunner();

    /**
     * Queue one experiment. Returns its slot index; slots are ordered
     * by submission and never move. Names must be unique.
     */
    size_t submit(std::string name, const ExperimentConfig &cfg);

    /** Slot of a previously submitted name, or npos. */
    size_t find(std::string_view name) const;

    /**
     * Wait for slot idx and return its experiment. Raises
     * util::SimError(JobFailed) if the job did not produce one.
     */
    Experiment &get(size_t idx);

    /** Wait for the named job and return its experiment. */
    Experiment &get(std::string_view name);

    /**
     * Wait for slot idx and return the full result record. Never
     * throws for a failed job: inspect status/error/attempts.
     */
    const ExperimentResult &result(size_t idx);

    /** Block until every submitted job has finished. */
    void waitAll();

    /**
     * All results, in submission order (waits for completion). The
     * ordering guarantee is what makes downstream output independent
     * of the thread count.
     */
    const std::deque<ExperimentResult> &results();

    size_t size() const { return slots.size(); }
    unsigned jobs() const { return pool.threads(); }

    /** Number of settled jobs that did not end Ok (waits for all). */
    size_t failedCount();

  private:
    RunnerOptions opts;
    util::ThreadPool pool;
    // deque: stable element addresses while workers fill slots.
    std::deque<ExperimentResult> slots;
    std::vector<std::future<void>> pending;
};

} // namespace mpos::core

#endif // MPOS_CORE_RUNNER_HH
