/**
 * @file
 * Generic synthetic application model.
 *
 * A SyntheticApp produces a user-mode reference stream with the knobs
 * that matter for cache behavior: instruction footprint with loops and
 * hot/cold regions, a private data working set, optional shared-memory
 * accesses (sweeps or random), and a configurable store fraction. The
 * workloads (Pmake jobs, Mp3d, ed, Oracle servers) subclass it and
 * inject system calls, forks, and user-lock activity between work
 * chunks.
 */

#ifndef MPOS_WORKLOAD_APP_MODEL_HH
#define MPOS_WORKLOAD_APP_MODEL_HH

#include <cstdint>
#include <memory>

#include "kernel/process.hh"
#include "util/rng.hh"

namespace mpos::workload
{

class StateCodec;

using kernel::AppBehavior;
using kernel::Process;
using kernel::Sys;
using kernel::UserScript;
using kernel::VaMap;
using sim::Addr;
using sim::Cycle;

/** Knobs of the synthetic reference stream. */
struct AppParams
{
    uint64_t codeBytes = 64 * 1024;  ///< Instruction footprint.
    uint64_t dataBytes = 64 * 1024;  ///< Private data working set.

    double dataRefProb = 0.35; ///< Data references per instruction.
    double storeFrac = 0.3;    ///< Fraction of data refs that write.

    double hotCodeFrac = 0.25; ///< Leading fraction of code that is hot.
    double hotCodeProb = 0.85; ///< Jump lands in the hot region.
    double jumpProb = 0.04;    ///< Per-instruction taken-branch-away.
    double loopStartProb = 0.05; ///< Begin a loop at a line boundary.
    uint32_t maxLoopLines = 16;
    uint32_t maxLoopReps = 12;

    double hotDataFrac = 0.25;
    double hotDataProb = 0.8;

    /** Shared-region accesses (0 disables). */
    uint64_t sharedBytes = 0;
    Addr sharedBase = VaMap::sharedBase;
    double sharedRefProb = 0.0; ///< Data ref goes to shared memory.
    double sharedSweepProb = 0.0; ///< Shared ref continues a sweep.
    double sharedStoreFrac = 0.3;
    double sharedHotFrac = 1.0;  ///< Leading hot fraction of shared.
    double sharedHotProb = 0.0;  ///< Random shared ref lands hot.

    uint32_t chunkInstrs = 512; ///< Instructions per chunk() call.
    uint64_t seed = 1;
};

/**
 * Base behavior: emits synthetic user work. Subclasses override
 * chunk() and call emitWork() around their system-call logic.
 */
class SyntheticApp : public AppBehavior
{
  public:
    explicit SyntheticApp(const AppParams &params);

    void chunk(Process &p, UserScript &s) override;

    /** Emit roughly instrs instructions of user execution. */
    void emitWork(UserScript &s, uint32_t instrs);

    /** Reset code/data cursors (e.g. after exec). */
    void resetCursors();

    const AppParams &params() const { return prm; }

  protected:
    AppParams prm;
    util::Rng rng;

  private:
    Addr codePos = 0;      ///< Byte offset into the code footprint.
    bool loopActive = false;
    Addr loopStart = 0;
    uint32_t loopLines = 0;
    uint32_t loopRepsLeft = 0;
    Addr sweepPos = 0;

    /** Hot-region spans precomputed from prm (prm never changes after
     *  construction); pickDataAddr/maybeJump draw these per reference. */
    uint64_t hotDataSpan = 0;
    uint64_t hotCodeSpan = 0;
    uint64_t sharedHotSpan = 0;

    /** Rng::chanceThreshold of every fixed probability in prm; the
     *  emit loop tests them millions of times per run (equivalent
     *  draws, see chanceBelow). */
    uint64_t thDataRef = 0;
    uint64_t thStore = 0;
    uint64_t thJumpLine = 0; ///< jumpProb * instrPerLine
    uint64_t thLoopStart = 0;
    uint64_t thHotCode = 0;
    uint64_t thHotData = 0;
    uint64_t thSharedRef = 0;
    uint64_t thSharedSweep = 0;
    uint64_t thSharedStore = 0;
    uint64_t thSharedHot = 0;

    Addr pickDataAddr();
    void maybeJump();

    /** Snapshot serializer: reads/writes the cursors, spans and
     *  thresholds verbatim (after an exec transition they derive from
     *  a superseded params draw, so recomputation would diverge). */
    friend class StateCodec;
};

/**
 * Behaviors whose processes fork: the workload's onFork hook asks the
 * parent behavior to build the child's.
 */
class ForkableBehavior
{
  public:
    virtual ~ForkableBehavior() = default;
    virtual std::unique_ptr<AppBehavior> makeChildBehavior() = 0;
};

} // namespace mpos::workload

#endif // MPOS_WORKLOAD_APP_MODEL_HH
