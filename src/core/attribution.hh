/**
 * @file
 * Attribution of classified misses to kernel data structures and
 * kernel routines.
 *
 * This mirrors the paper's two-level method: static structures are
 * found through the kernel symbol map (KernelLayout::structAt);
 * dynamically-reached data (block-operation targets) is attributed
 * through the routine executing at miss time, which the kernel
 * reports in-band exactly like the paper's subroutine-entry
 * instrumentation. Feeds Figures 5 and 8 and Tables 4 and 5.
 */

#ifndef MPOS_CORE_ATTRIBUTION_HH
#define MPOS_CORE_ATTRIBUTION_HH

#include <cstdint>
#include <vector>

#include "core/miss_classify.hh"
#include "kernel/layout.hh"

namespace mpos::core
{

using kernel::KernelLayout;
using kernel::KStruct;
using kernel::RoutineGroup;

/** Per-data-structure Sharing-miss attribution (Figure 8). */
struct SharingByStruct
{
    uint64_t count[kernel::numKStructs] = {};
    /** Dynamically-reached pages attributed via the executing routine
     *  (the paper's Bcopy / Bclear categories). */
    uint64_t bcopyPages = 0;
    uint64_t bclearPages = 0;
    uint64_t total = 0;
};

/** Attribution observer. */
class Attribution : public MissSink
{
  public:
    explicit Attribution(const KernelLayout &layout);

    void onMiss(const ClassifiedMiss &miss) override;

    /// @name Figure 8: OS Sharing D-misses by data structure
    /// @{
    const SharingByStruct &sharing() const { return sharingTally; }
    /// @}

    /// @name Figure 5: OS Dispos I-misses per routine
    /// @{
    uint64_t disposMissesOfRoutine(kernel::RoutineId r) const;
    /// @}

    /// @name Table 4: migration misses
    /// @{
    /** Sharing D-misses on the three per-process structures. */
    uint64_t migrationKernelStack() const { return migKStack; }
    uint64_t migrationUserStruct() const { return migUStruct; }
    uint64_t migrationProcTable() const { return migProcTab; }
    uint64_t migrationTotal() const
    {
        return migKStack + migUStruct + migProcTab;
    }
    /// @}

    /// @name Table 5: migration misses by operation group
    /// @{
    uint64_t migrationByGroup(RoutineGroup g) const
    {
        return migGroup[unsigned(g)];
    }
    /// @}

    /** All OS D-misses attributed to block-op routines (Table 6). */
    uint64_t blockOpMissesOf(const char *routine_name) const;
    uint64_t blockOpDMissesTotal() const { return blockOpD; }

  private:
    const KernelLayout &map;
    SharingByStruct sharingTally;
    std::vector<uint64_t> disposIByRoutine;
    std::vector<uint64_t> dMissByRoutine;
    uint64_t migKStack = 0;
    uint64_t migUStruct = 0;
    uint64_t migProcTab = 0;
    uint64_t migGroup[12] = {};
    uint64_t blockOpD = 0;
};

} // namespace mpos::core

#endif // MPOS_CORE_ATTRIBUTION_HH
