/**
 * @file
 * Online implementation of the paper's Table 2 miss taxonomy.
 *
 * Every bus-level miss is assigned exactly one class by tracking, per
 * (CPU, cache, 16-byte physical block): whether the CPU ever loaded
 * the block (Cold), who displaced it (Dispos / Dispap), whether
 * coherence invalidated it (Sharing), or whether an I-cache flush on
 * code-page reallocation removed it (Inval). Dispossame -- the subset
 * of Dispos misses with no intervening application invocation -- is
 * tracked with a per-CPU application epoch. Cache-bypassing accesses
 * are the Uncached class.
 *
 * Downstream analyses (attribution, functional classification,
 * re-simulation, ...) subscribe as MissSink and receive each miss
 * already classified.
 */

#ifndef MPOS_CORE_MISS_CLASSIFY_HH
#define MPOS_CORE_MISS_CLASSIFY_HH

#include <cstdint>
#include <vector>

#include "sim/monitor.hh"
#include "sim/types.hh"

namespace mpos::core
{

using sim::Addr;
using sim::BusRecord;
using sim::CacheKind;
using sim::CpuId;
using sim::Cycle;
using sim::ExecMode;

/** Architectural miss classes (Table 2). */
enum class MissClass : uint8_t
{
    Cold,     ///< First access by this processor.
    Dispos,   ///< Displaced by an intervening OS reference.
    Dispap,   ///< Displaced by an intervening application reference.
    Sharing,  ///< Invalidated by another CPU's write (or an upgrade).
    Inval,    ///< I-cache flushed when a code page was reallocated.
    Uncached, ///< Cache-bypassing access.
    Unknown,  ///< Tracking anomaly; tests assert this stays at zero.
};

constexpr uint32_t numMissClasses = 7;

/** Name for reports. */
const char *missClassName(MissClass c);

/** One classified bus-level miss. */
struct ClassifiedMiss
{
    BusRecord rec;
    MissClass cls;
    bool dispossame = false; ///< Dispos with no app invocation between.
};

/** Consumer of classified misses. */
class MissSink
{
  public:
    virtual ~MissSink() = default;
    virtual void onMiss(const ClassifiedMiss &miss) = 0;
};

/** Aggregate counters per execution context. */
struct MissCounts
{
    /** [class] for each of OS/app/idle x I/D. */
    uint64_t osI[numMissClasses] = {};
    uint64_t osD[numMissClasses] = {};
    uint64_t appI[numMissClasses] = {};
    uint64_t appD[numMissClasses] = {};
    uint64_t idleI[numMissClasses] = {};
    uint64_t idleD[numMissClasses] = {};
    uint64_t osDispossameI = 0;
    uint64_t osDispossameD = 0;

    uint64_t osTotal() const;
    uint64_t appTotal() const;
    uint64_t total() const;
    uint64_t osITotal() const;
    uint64_t osDTotal() const;
};

/** The classifier; attach to the machine's Monitor. */
class MissClassifier : public sim::MonitorObserver
{
  public:
    /**
     * @param num_cpus   CPUs in the machine.
     * @param mem_bytes  Physical memory size.
     * @param line_bytes Cache line size.
     */
    MissClassifier(uint32_t num_cpus, uint64_t mem_bytes,
                   uint32_t line_bytes);

    void addSink(MissSink *sink) { sinks.push_back(sink); }

    /// @name MonitorObserver
    /// @{
    void busTransaction(const BusRecord &rec) override;
    void evict(CpuId cpu, CacheKind kind, Addr line,
               const sim::MonitorContext &by) override;
    void invalSharing(CpuId cpu, CacheKind kind, Addr line) override;
    void invalPageRealloc(CpuId cpu, Addr line) override;
    void osExit(Cycle cycle, CpuId cpu, sim::OsOp op) override;
    /// @}

    const MissCounts &counts() const { return tally; }

    uint64_t writebacks() const { return nWritebacks; }

  private:
    // Per-block tracking word: low 3 bits = status, bit 3 = ever
    // loaded, high 28 bits = app epoch at eviction.
    enum Status : uint32_t
    {
        stInvalid = 0,
        stPresent = 1,
        stEvictedOs = 2,
        stEvictedApp = 3,
        stInvalSharing = 4,
        stInvalRealloc = 5,
    };
    static constexpr uint32_t statusMask = 0x7;
    static constexpr uint32_t loadedBit = 0x8;
    static constexpr uint32_t epochShift = 4;

    uint32_t &slot(CpuId cpu, CacheKind kind, Addr line);

    void classify(const BusRecord &rec);
    void deliver(const BusRecord &rec, MissClass cls, bool same);
    void bump(const BusRecord &rec, MissClass cls, bool same);

    uint32_t nCpus;
    uint64_t nLines;
    uint32_t lineBytes;
    /** log2 of the lines in a chunk: 256, one 4 KB page of 16 B lines. */
    static constexpr uint32_t chunkShift = 8;
    /**
     * Tracking words live in zero-filled chunks allocated on first
     * touch, back to back in words, so memory follows the lines a run
     * touches rather than CPUs x physical memory. chunkAt[chunk][cpu]
     * [kind] is 1 + the chunk's number in words, or 0 if untouched.
     */
    std::vector<uint32_t> chunkAt;
    std::vector<uint32_t> words;
    /** Application-invocation epoch per CPU. */
    std::vector<uint32_t> appEpoch;

    MissCounts tally;
    uint64_t nWritebacks = 0;
    std::vector<MissSink *> sinks;
};

} // namespace mpos::core

#endif // MPOS_CORE_MISS_CLASSIFY_HH
