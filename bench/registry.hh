/**
 * @file
 * The unified bench driver's registry: every figure/table of the
 * paper is an *analysis* over shared experiment results, not a
 * binary that re-simulates them.
 *
 * The three standard workload runs (Pmake/Multpgm/Oracle, standard
 * configuration, resim recording on) are simulated once each --
 * concurrently, on the MPOS_JOBS thread pool -- and every analysis
 * reads from them; true sweeps (Figure 6 cache sizes are replays of
 * the recorded stream, Figure 11 CPU counts and the ablations are
 * extra machine configurations) fan out as additional parallel jobs.
 * Results are consumed in submission order, so the printed tables are
 * byte-identical no matter how many host threads ran the sweep.
 *
 * `mpos_bench` runs every analysis; `mpos_bench --only NAME` runs
 * one.
 */

#ifndef MPOS_BENCH_REGISTRY_HH
#define MPOS_BENCH_REGISTRY_HH

#include <string>
#include <string_view>
#include <vector>

#include "bench/common.hh"
#include "core/journal.hh"
#include "core/runner.hh"

namespace mpos::bench
{

/** Observability switches applied to every simulation job. */
struct ObsOptions
{
    bool trace = false;   ///< Binary trace per job (--trace).
    bool metrics = false; ///< Time-sliced metrics (--metrics).
    bool profile = false; ///< Routine profiler (--profile).
    std::string dir;      ///< Output directory for traces/profiles.

    bool any() const { return trace || metrics || profile; }
};

/** Obs-output path stem for a job ("std/pmake" -> dir/std_pmake). */
std::string obsFileBase(const std::string &dir, const std::string &job);

/** Shared state handed to every analysis. */
class BenchContext
{
  public:
    /** @param jobs Worker threads; 0 means MPOS_JOBS/default. */
    explicit BenchContext(unsigned jobs = 0);

    /** Full resilience policy (timeouts, retries). */
    explicit BenchContext(const core::RunnerOptions &opt);

    /**
     * Arrange for the named job to fail: when it is submitted, its
     * config gets a fault seed guaranteed (via
     * sim::FaultPlan::firstTrippingSeed) to trip the watchdog within
     * the run. For exercising --keep-going and the failure paths of
     * the JSON report.
     */
    void setFaultJob(const std::string &name) { faultJob_ = name; }

    /**
     * Enable the observability layer on every subsequently submitted
     * job: per-job binary traces under o.dir, the time-sliced metrics
     * engine, and/or the routine profiler.
     */
    void setObservability(const ObsOptions &o) { obs_ = o; }
    const ObsOptions &observability() const { return obs_; }

    /** Run every subsequently submitted job under the invariant
     *  checkers (--check). */
    void setCheck(bool on) { check_ = on; }

    /** Queue the standard run for a workload without waiting. */
    void prepareStandard(workload::WorkloadKind kind);

    /** The shared standard run (submits on first request, waits). */
    core::Experiment &standard(workload::WorkloadKind kind);

    /** Queue a named sweep/ablation job; no-op if already queued. */
    void submit(const std::string &name,
                const core::ExperimentConfig &cfg);

    /** Wait for a previously submitted job and return it. */
    core::Experiment &get(const std::string &name);

    core::ExperimentRunner &runner() { return runner_; }

    /**
     * Journal every submission (a write-ahead Plan record per job;
     * the runner adds JobEnd via RunnerOptions::journal).
     */
    void setJournal(core::SweepJournal *j) { journal_ = j; }

    /**
     * Plan-only mode (--dry-run): submitJob records the planned job
     * but never simulates. Analyses must not be run in this mode.
     */
    void setPlanOnly(bool on) { planOnly_ = on; }

    /** Every job planned this run, in submission order. */
    const std::vector<std::pair<std::string, core::ExperimentConfig>> &
    planned() const
    {
        return planned_;
    }

  private:
    void submitJob(const std::string &name,
                   core::ExperimentConfig cfg);

    core::ExperimentRunner runner_;
    std::string faultJob_; ///< Job to sabotage; empty = none.
    ObsOptions obs_;       ///< Applied to every submitted job.
    bool check_ = false;   ///< Invariant checkers on every job.
    core::SweepJournal *journal_ = nullptr;
    bool planOnly_ = false;
    std::vector<std::pair<std::string, core::ExperimentConfig>>
        planned_;
};

/// @name Standard-workload requirement bits (allWorkloads order)
/// @{
inline constexpr uint32_t NeedsNone = 0;
inline constexpr uint32_t NeedsPmake = 1;
inline constexpr uint32_t NeedsMultpgm = 2;
inline constexpr uint32_t NeedsOracle = 4;
inline constexpr uint32_t NeedsAll = 7;
/// @}

/** One registered figure/table analysis. */
struct BenchEntry
{
    const char *name;  ///< Registry + binary name ("fig01_pattern").
    const char *title; ///< One-line description for --list.
    uint32_t standardMask; ///< Standard runs the analysis consumes.
    /** Queues extra sweep jobs (nullptr if none). Idempotent. */
    void (*prepare)(BenchContext &);
    /** Prints the figure/table from completed results. */
    void (*run)(BenchContext &);
};

/** All analyses, in the paper's presentation order. */
const std::vector<BenchEntry> &benchRegistry();

/** Lookup by name; nullptr if unknown. */
const BenchEntry *findBench(std::string_view name);

/** Job name of the shared standard run for a workload. */
std::string standardJobName(workload::WorkloadKind kind);

/** Entry point of the unified `mpos_bench` driver. */
int benchMain(int argc, char **argv);

} // namespace mpos::bench

#endif // MPOS_BENCH_REGISTRY_HH
