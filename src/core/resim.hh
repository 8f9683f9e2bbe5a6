/**
 * @file
 * I-cache re-simulation (Figure 6): the paper feeds the references
 * that missed in the real machine's caches through larger and
 * set-associative caches to bound the benefit of cache changes, and
 * separately shows the floor imposed by invalidation (Inval) misses.
 *
 * We record every bus-level instruction miss (application and OS, as
 * the paper does) plus every I-cache invalidation event, then replay
 * the stream through arbitrary cache geometries.
 *
 * Each simulated CPU's replay cache sees only that CPU's misses and
 * flushes, so a replay splits exactly by CPU: the recorder keeps one
 * stream per CPU, each replay loop runs one CPU's stream through one
 * cache, and a whole-machine result is the sum of the per-CPU counts.
 * Callers may run the per-CPU replays on separate host threads.
 */

#ifndef MPOS_CORE_RESIM_HH
#define MPOS_CORE_RESIM_HH

#include <cstdint>
#include <vector>

#include "core/miss_classify.hh"
#include "sim/monitor.hh"

namespace mpos::core
{

/** Miss counts of one re-simulation. */
struct ResimResult
{
    uint64_t osMisses = 0;
    uint64_t appMisses = 0;
    /** OS misses relative to the measured machine (1.0 = measured);
     *  set only on whole-machine results. */
    double relativeOsMissRate = 0.0;

    ResimResult &
    operator+=(const ResimResult &o)
    {
        osMisses += o.osMisses;
        appMisses += o.appMisses;
        return *this;
    }
};

/** The solid and dashed Figure 6 curves from one replay. */
struct ResimPairResult
{
    ResimResult withInval; ///< Flushes applied (solid curve).
    ResimResult noInval;   ///< Flushes ignored (dashed Inval floor).

    ResimPairResult &
    operator+=(const ResimPairResult &o)
    {
        withInval += o.withInval;
        noInval += o.noInval;
        return *this;
    }
};

/** Recorder + replayer. */
class ICacheResim : public MissSink, public sim::MonitorObserver
{
  public:
    explicit ICacheResim(uint32_t num_cpus, uint32_t line_bytes = 16);

    /// @name Recording
    /// @{
    void onMiss(const ClassifiedMiss &miss) override; // I-misses only
    void flushPage(CpuId cpu, Addr page_addr,
                   uint32_t page_bytes) override;
    /// @}

    uint32_t numCpus() const { return uint32_t(streams.size()); }

    /** OS I-misses recorded from the measured machine. */
    uint64_t baselineOsMisses() const { return baseOs; }
    uint64_t recordedEvents() const { return nEvents; }

    /// @name One CPU's replay (counts only; relativeOsMissRate is 0)
    /// @{
    /**
     * Replay CPU cpu's recorded stream through one cache of the
     * given geometry.
     * @param apply_invals If false, code-page-reallocation flushes
     *        are ignored (the dashed "no Inval" curve of Figure 6).
     */
    ResimResult simulateCpu(CpuId cpu, uint64_t cache_bytes,
                            uint32_t assoc, bool apply_invals) const;

    /**
     * Replay CPU cpu's stream once, simulating the direct-mapped
     * cache with and without invalidations side by side. Equivalent
     * to two simulateCpu(cpu, cache_bytes, 1, ...) calls at half the
     * replay cost.
     */
    ResimPairResult simulateDirectPairCpu(CpuId cpu,
                                          uint64_t cache_bytes) const;
    /// @}

    /** Set the relative OS miss rate of a sum over every CPU. */
    ResimResult relative(ResimResult whole) const;
    ResimPairResult relative(ResimPairResult whole) const;

    /// @name Whole-machine replay: the per-CPU replays, summed
    /// @{
    ResimResult simulate(uint64_t cache_bytes, uint32_t assoc,
                         bool apply_invals = true) const;
    ResimPairResult simulateDirectPair(uint64_t cache_bytes) const;
    /// @}

    void clear();

  private:
    /**
     * A stream word is line number << 2 | OS context << 1 | flush. A
     * flush word is followed by one word holding the flush extent in
     * lines (0 = the whole cache). Line numbers fit: validateConfig
     * keeps memory below 2^Cache::lineNumberBits lines.
     */
    static constexpr uint32_t flushBit = 1;
    static constexpr uint32_t osBit = 2;

    void push(CpuId cpu, Addr line, uint32_t flags);

    uint32_t lineBytes;
    std::vector<std::vector<uint32_t>> streams; ///< One per CPU.
    uint64_t nEvents = 0;
    uint64_t baseOs = 0;
};

} // namespace mpos::core

#endif // MPOS_CORE_RESIM_HH
