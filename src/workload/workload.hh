/**
 * @file
 * Factory for the paper's three measured workloads.
 *
 * - Pmake: a parallel make of 56 C files, at most 8 jobs at once.
 * - Multpgm: Mp3d (4 processes) + Pmake + five ed sessions.
 * - Oracle: a scaled-down TP1 transaction mix (10 branches, 100
 *   tellers, 10,000 accounts) served by a pool of server processes.
 *
 * The Workload object owns all behavior-shared state and implements
 * the kernel's lifecycle hooks (fork, exit).
 */

#ifndef MPOS_WORKLOAD_WORKLOAD_HH
#define MPOS_WORKLOAD_WORKLOAD_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "kernel/kernel.hh"
#include "util/rng.hh"
#include "workload/app_model.hh"

namespace mpos::workload
{

enum class WorkloadKind : uint8_t { Pmake, Multpgm, Oracle };

/** Name for reports. */
const char *workloadName(WorkloadKind kind);

/**
 * Typist inter-burst gap. The paper's 25 chars / 5 s is scaled to
 * simulated-run length (documented in DESIGN.md).
 */
constexpr sim::Cycle editMeanGap = 2000000;

/** Scale knobs (defaults follow the paper where sizes are given). */
struct WorkloadOptions
{
    uint64_t seed = 7;
    uint32_t pmakeFiles = 56;      ///< Paper: 56 C files.
    uint32_t pmakeMaxJobs = 8;     ///< Paper: -J 8.
    uint32_t editSessions = 5;     ///< Paper: five ed sessions.
    uint32_t oracleServers = 6;
    uint32_t mp3dProcs = 4;        ///< Paper: 4 processes.
};

/**
 * Scale a workload's process-level parallelism to an N-CPU machine.
 * The paper's sizes assume the 4-CPU 4D/340; re-running the
 * characterization at 8-64 CPUs with 4-CPU process counts would idle
 * the extra processors and understate every contention effect. At or
 * below 4 CPUs the options are returned untouched, so the default
 * configurations (and their goldens) are unaffected.
 */
WorkloadOptions scaledOptions(WorkloadOptions base, uint32_t num_cpus);

/** Shared state of a Pmake run. */
struct PmakeShared
{
    uint32_t jobsRemaining = 0;
    uint32_t maxJobs = 8;
    uint32_t files = 56;
    uint32_t running = 0;
    uint64_t jobsCompleted = 0;
    uint32_t nextFile = 1;
    uint32_t imgCpp = 0;
    uint32_t imgCc1 = 0;
    uint32_t imgAs = 0;
    util::Rng rng{99};
};

/** Shared state of the Mp3d particle simulator. */
struct Mp3dShared
{
    std::vector<uint32_t> cellLocks;
    uint32_t barrierLock = 0;
    sim::Addr particleBase = 0;
    uint64_t particleBytes = 0;
    uint64_t steps = 0;
    /** BSP barrier state: generation counter and arrival count. */
    uint32_t generation = 0;
    uint32_t arrived = 0;
    uint32_t nprocs = 4;
};

/** Shared state of the Oracle TP1 instance. */
struct OracleShared
{
    std::vector<uint32_t> latches;
    uint32_t logLatch = 0;
    uint32_t logFile = 0;
    uint32_t dbFileBase = 0;
    uint32_t logBlock = 0;
    sim::Addr sgaBase = 0;
    uint64_t sgaBytes = 0;
    uint64_t transactions = 0;
    util::Rng rng{123};
};

/** A constructed workload, attached to a kernel. */
class Workload : public kernel::KernelClient
{
  public:
    static std::unique_ptr<Workload> create(WorkloadKind kind,
                                            kernel::Kernel &k,
                                            const WorkloadOptions &opts
                                            = {});

    /** Suggested kernel user page pool for this workload. */
    static uint64_t recommendedPoolPages(WorkloadKind kind);

    const std::string &name() const { return label; }
    WorkloadKind kind() const { return kindTag; }

    /// @name kernel::KernelClient
    /// @{
    void onFork(kernel::Process &parent, kernel::Process &child)
        override;
    void onProcExit(kernel::Process &p) override;
    /// @}

    /// @name Progress counters
    /// @{
    uint64_t pmakeJobsCompleted() const
    {
        return pmake ? pmake->jobsCompleted : 0;
    }
    uint64_t oracleTransactions() const
    {
        return oracle ? oracle->transactions : 0;
    }
    uint64_t mp3dSteps() const { return mp3d ? mp3d->steps : 0; }
    /// @}

    /// @name Snapshot save/restore
    /// Serializes the behavior-shared structures (Pmake job pool,
    /// Mp3d barrier, Oracle SGA bookkeeping). Must run BEFORE
    /// Kernel::restoreState on restore: behaviors reconstructed by the
    /// codec point into these structures and must not see pre-restore
    /// values. The workload must have been built with the same kind
    /// and options (the caller guards this with the config hash).
    /// @{
    void saveState(util::ByteWriter &w) const;
    void restoreState(util::ByteReader &r);
    /// @}

  private:
    Workload(WorkloadKind kind, kernel::Kernel &k);

    /** The one field walk behind saveState and restoreState. */
    template <class Ar> void state(Ar &ar);

    void buildPmake(const WorkloadOptions &opts);
    void buildMp3d(const WorkloadOptions &opts);
    void buildEdits(const WorkloadOptions &opts);
    void buildOracle(const WorkloadOptions &opts);

    WorkloadKind kindTag;
    std::string label;
    kernel::Kernel &kern;
    std::unique_ptr<PmakeShared> pmake;
    std::unique_ptr<Mp3dShared> mp3d;
    std::unique_ptr<OracleShared> oracle;
    uint64_t seed = 7;

    /** Snapshot serializer: wires restored behaviors to the shared
     *  structures above. */
    friend class StateCodec;
};

} // namespace mpos::workload

#endif // MPOS_WORKLOAD_WORKLOAD_HH
