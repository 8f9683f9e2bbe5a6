/**
 * @file
 * The coherent memory system: per-CPU cache hierarchies snooping a
 * shared bus, with the monitor observing every transaction.
 *
 * Data caches are kept coherent with a write-invalidate protocol at
 * the L2, selected by MachineConfig::protocol: MESI (the 4D/340's
 * Illinois protocol, the default), MSI (no Exclusive state: read
 * misses always fill Shared and the first write to any read line
 * costs an Upgrade), or MI (ownership only: every fill installs
 * Modified, so even read misses invalidate remote copies). The L1
 * D-cache is maintained strictly inclusive in the L2 so a single
 * snoop level suffices. Instruction caches are not snooped on writes
 * -- as on the R3000 -- and are flushed explicitly by the kernel when
 * a physical page that held code is reallocated (the source of the
 * paper's Inval misses).
 */

#ifndef MPOS_SIM_MEMSYS_HH
#define MPOS_SIM_MEMSYS_HH

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "sim/cache.hh"
#include "sim/monitor.hh"
#include "sim/types.hh"

namespace mpos::sim
{

class Checker;
class Machine;

/** Outcome of one reference through the hierarchy. */
struct AccessResult
{
    Cycle cycles = 0;   ///< Total stall + execution charge for the ref.
    bool busAccess = false; ///< True if a bus transaction was needed.
};

/**
 * The caches of one CPU: I-cache, L1 D and L2 D (inclusive). A data
 * line's coherence state lives in its L2 way, next to the tag.
 */
struct CpuCaches
{
    CpuCaches(CpuId id, const MachineConfig &cfg);

    CpuId cpu;
    Cache icache;
    Cache l1d;
    Cache l2d;

    /** The line's coherence state; Invalid if the L2 lacks it. */
    Coh getState(Addr line) const { return l2d.state(line); }

    /** Write the state of a line the L2 holds (Invalid drops it). */
    void setState(Addr line, Coh s) { l2d.setState(line, s); }
};

/**
 * Snooping bus + all CPU hierarchies. All addresses are physical; the
 * caller is responsible for translation.
 */
class MemorySystem
{
  public:
    MemorySystem(const MachineConfig &cfg, Monitor &mon);

    /**
     * Perform a data reference. The L1 hit path (the overwhelmingly
     * common case) is inline: a read hit, or a write hit on a line
     * already owned, costs one probe and returns without touching the
     * bus -- exactly what the out-of-line path computes for it.
     * @param now Machine cycle at which the reference issues.
     * @param ctx Monitor context snapshot of the issuing CPU.
     */
    AccessResult
    dataAccess(CpuId cpu, Addr addr, bool is_write, Cycle now,
               const MonitorContext &ctx)
    {
        CpuCaches &h = hier[cpu];
        const Addr line = addr & lineMask;
        if (h.l1d.touch(line)) {
            if (!is_write)
                return {1, false};
            // An L1 hit implies the line is resident in the inclusive
            // L2, whose way holds its state (and whose sharers bit is
            // already set).
            const Coh st = h.getState(line);
            if (st != Coh::Shared) {
                // Silent E -> M upgrade; M stays M. Shared needs the
                // bus and falls through to the slow path.
                if (st != Coh::Modified) {
                    h.setState(line, Coh::Modified);
                    if (checker)
                        checkLineEvent(line);
                }
                return {1, false};
            }
        }
        return dataAccessSlow(cpu, addr, is_write, now, ctx);
    }

    /** Perform an instruction-line fetch (hit path inline). */
    AccessResult
    ifetchAccess(CpuId cpu, Addr addr, Cycle now,
                 const MonitorContext &ctx)
    {
        CpuCaches &h = hier[cpu];
        const Addr line = addr & lineMask;
        if (h.icache.touch(line))
            return {lineExecCycles, false};
        return ifetchMiss(cpu, line, now, ctx);
    }

    /** Cache-bypassing device access. */
    AccessResult uncachedAccess(CpuId cpu, Addr addr, bool is_write,
                                Cycle now, const MonitorContext &ctx);

    /**
     * Flush all I-caches of every line in physical page ppage: the
     * kernel reallocated a code page. Generates Inval classification
     * events.
     */
    void flushICachesForPage(Addr ppage);

    /**
     * Data access that bypasses the caches but is still a bus
     * transaction (the block-operation bypass optimization of
     * Section 4.2.2).
     */
    AccessResult bypassAccess(CpuId cpu, Addr addr, bool is_write,
                              Cycle now, const MonitorContext &ctx);

    CpuCaches &caches(CpuId cpu) { return hier[cpu]; }
    const CpuCaches &caches(CpuId cpu) const { return hier[cpu]; }

    uint64_t busTransactions() const { return txTotal; }

    /**
     * Snoop-filter bitmask of CPUs whose L2 holds the line (bit c =
     * CPU c). Maintained alongside the L2 ways so bus transactions on
     * unshared lines skip the snoop walk entirely.
     */
    uint64_t sharersMask(Addr line) const
    {
        const uint64_t idx = lineIndex(line);
        const SharerChunk *c = sharers[idx >> chunkShift].get();
        return c ? (*c)[idx & chunkMask] : 0;
    }

    const MachineConfig &config() const { return cfg; }

    /** Attach the invariant checker (null = disabled). */
    void setChecker(Checker *c) { checker = c; }

    /// @name Parked-CPU wake hooks
    /// A parked CPU (see Machine::runFast) spins on references that
    /// all hit in its own caches. Before any change that could turn
    /// one of those hits into a miss -- a remote invalidation of one
    /// of its spin data lines, or an I-cache flush -- the memory
    /// system calls Machine::wakeParked(cpu). Other invalidations and
    /// snoop downgrades leave a load hit a hit and wake nobody.
    /// @{
    void setParker(Machine *m) { parker = m; }

    /** Mark cpu parked on loads of data_lines (kept by the caller
     *  until unpark()). */
    void
    park(CpuId cpu, const std::vector<Addr> *data_lines)
    {
        spinData[cpu] = data_lines;
        parkedCpus |= uint64_t(1) << cpu;
    }

    void unpark(CpuId cpu) { parkedCpus &= ~(uint64_t(1) << cpu); }

    /** Bit c set iff CPU c is parked. */
    uint64_t parked() const { return parkedCpus; }
    /// @}

    /// @name Snapshot state
    /// Every cache's packed tag/state words, the bus occupancy horizon
    /// and the transaction counter; all geometry is reconstructed from
    /// config and validated, and the snoop filter is rebuilt from the
    /// L2 ways.
    /// @{
    template <class Ar> void state(Ar &ar);
    /// @}

  private:
    /** Out-of-line checker trampoline so the inline hit path only
     *  needs the forward-declared Checker and one null test. */
    void checkLineEvent(Addr line);

    /** dataAccess() when the L1 cannot satisfy the reference alone. */
    AccessResult dataAccessSlow(CpuId cpu, Addr addr, bool is_write,
                                Cycle now, const MonitorContext &ctx);

    /** ifetchAccess() miss path: bus fill + victim bookkeeping. */
    AccessResult ifetchMiss(CpuId cpu, Addr line, Cycle now,
                            const MonitorContext &ctx);

    /** Charge bus arbitration and occupancy; returns queueing delay. */
    Cycle acquireBus(Cycle now);

    /** CPUs a snoop on line by requester visits (filter or all). */
    uint64_t snoopTargets(CpuId requester, Addr line) const;

    /** Snoop others on a read; true if any other cache held the line. */
    bool snoopRead(CpuId requester, Addr line);

    /** Snoop others on ReadEx/Upgrade: invalidate all other copies. */
    void snoopInvalidate(CpuId requester, Addr line);

    /** Wake parked cpu if line is one of its spin data lines. */
    void wakeIfSpinLine(CpuId cpu, Addr line);

    void record(Cycle now, CpuId cpu, Addr line, BusOp op,
                CacheKind kind, const MonitorContext &ctx);

    /** L2 fill with inclusion bookkeeping and eviction events. */
    void l2Fill(CpuId cpu, Addr line, Coh st, Cycle now,
                const MonitorContext &ctx);

    /** The L2 of cpu no longer holds line. Allocates nothing: a
     *  line without a chunk has no sharers to clear. */
    void
    clearSharer(CpuId cpu, Addr line)
    {
        const uint64_t idx = lineIndex(line);
        if (SharerChunk *c = sharers[idx >> chunkShift].get())
            (*c)[idx & chunkMask] &= ~(uint64_t(1) << cpu);
    }

    /** The sharers word of line index idx, allocating its chunk on
     *  first touch. */
    uint64_t &
    sharerWord(uint64_t idx)
    {
        std::unique_ptr<SharerChunk> &c = sharers[idx >> chunkShift];
        if (!c)
            c = std::make_unique<SharerChunk>(); // zero-filled
        return (*c)[idx & chunkMask];
    }

    /** Snoop-filter index of a line; panics outside memory. */
    uint64_t
    lineIndex(Addr line) const
    {
        const uint64_t idx = line >> lineShift;
        if (idx >= numLines)
            rangePanic(line);
        return idx;
    }

    /** Line outside configured memory: report it and abort. */
    [[noreturn]] void rangePanic(Addr line) const;

    MachineConfig cfg;
    Monitor &mon;
    /** By value: every reference starts with a hier[cpu] lookup, so
     *  the extra pointer chase of unique_ptr would be on the hottest
     *  path in the simulator. */
    std::vector<CpuCaches> hier;
    /** Lines per snoop-filter chunk: one 4 KB page of 16-byte lines. */
    static constexpr uint32_t chunkShift = 8;
    static constexpr uint64_t chunkMask = (uint64_t(1) << chunkShift) - 1;
    using SharerChunk = std::array<uint64_t, size_t(1) << chunkShift>;

    /** Lines of configured memory. */
    uint64_t numLines;
    /** Per-line snoop filter: bit c set iff CPU c's L2 holds the
     *  line. A table of chunks, each allocated when l2Fill first sets
     *  a bit in it, so host memory follows the lines the machine has
     *  cached rather than the size of its memory; a missing chunk
     *  reads as no sharers. */
    std::vector<std::unique_ptr<SharerChunk>> sharers;
    /** log2(lineBytes). */
    uint32_t lineShift = 0;
    /** ~(lineBytes - 1): address -> line address. */
    Addr lineMask = 0;
    /** Execution cycles for one full instruction line. */
    Cycle lineExecCycles = 0;
    Cycle busBusyUntil = 0;
    uint64_t txTotal = 0;
    /** Invariant checker; null unless checking is enabled. */
    Checker *checker = nullptr;
    /** The machine to wake parked CPUs through; null = none park. */
    Machine *parker = nullptr;
    /** Bit c set iff CPU c is parked. */
    uint64_t parkedCpus = 0;
    /** Per CPU: the data lines its parked spin loads. */
    std::vector<const std::vector<Addr> *> spinData;
};

} // namespace mpos::sim

#endif // MPOS_SIM_MEMSYS_HH
