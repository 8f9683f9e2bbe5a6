/**
 * @file
 * 64-entry fully-associative TLB, one per CPU, as on the R3000.
 *
 * Entries are tagged with the owning process id (the R3000 PID field),
 * so context switches do not flush the TLB; UTLB refill faults emerge
 * from capacity and footprint exactly as in the measured machine.
 * Replacement is FIFO, a deterministic stand-in for the R3000's
 * random-register replacement.
 */

#ifndef MPOS_SIM_TLB_HH
#define MPOS_SIM_TLB_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "sim/types.hh"

namespace mpos::sim
{

/** Result of a successful TLB translation. */
struct TlbEntry
{
    Pid pid = invalidPid;
    Addr vpage = 0;   ///< Virtual page number.
    Addr ppage = 0;   ///< Physical page number.
    bool writable = false;
    bool valid = false;
};

/** Fully-associative, PID-tagged TLB with FIFO replacement. */
class Tlb
{
  public:
    explicit Tlb(uint32_t num_entries = 64);

    /**
     * Look up (pid, vpage); updates no architectural state.
     *
     * A way-prediction hint table short-circuits the associative scan:
     * the hint is only ever a guess verified against the real entry,
     * so a stale hint falls back to the scan and can never change the
     * result ((pid, vpage) pairs are unique in the TLB).
     */
    const TlbEntry *
    lookup(Pid pid, Addr vpage) const
    {
        const uint32_t h = hintSlot(pid, vpage);
        const TlbEntry &e = entries[hint[h]];
        if (e.valid && e.pid == pid && e.vpage == vpage)
            return &e;
        return lookupScan(pid, vpage, h);
    }

    /**
     * Install a mapping, replacing any existing entry for (pid, vpage)
     * first, otherwise the FIFO victim. Returns the entry index used.
     */
    uint32_t insert(Pid pid, Addr vpage, Addr ppage, bool writable);

    /** Drop one mapping if present (e.g. on COW break or unmap). */
    void invalidate(Pid pid, Addr vpage);

    /** Drop every mapping belonging to pid (process exit / exec). */
    void invalidatePid(Pid pid);

    /** Drop every mapping of a physical page (page stolen). */
    void invalidatePhys(Addr ppage);

    /** Drop everything. */
    void flush();

    uint32_t size() const { return uint32_t(entries.size()); }
    uint32_t residentEntries() const;

    /** Raw entry slot (valid or not), for the invariant checker. */
    const TlbEntry &entryAt(uint32_t i) const { return entries[i]; }

    uint64_t hits = 0;
    uint64_t misses = 0;

    /** Record-keeping wrappers used by the CPU. */
    const TlbEntry *
    translate(Pid pid, Addr vpage)
    {
        const TlbEntry *e = lookup(pid, vpage);
        if (e)
            ++hits;
        else
            ++misses;
        return e;
    }

    /// @name Snapshot state
    /// Entries, FIFO cursor, hit/miss counters, and the hint table.
    /// The hints are guesses that cannot change results, but restoring
    /// them keeps the restored machine byte-for-byte in step with the
    /// original on internal probes too.
    /// @{
    template <class Ar> void state(Ar &ar);
    /// @}

  private:
    /** Associative scan fallback; refreshes the hint slot on a hit. */
    const TlbEntry *lookupScan(Pid pid, Addr vpage, uint32_t h) const;

    static uint32_t
    hintSlot(Pid pid, Addr vpage)
    {
        // Cheap mix of pid and page number; collisions only cost a scan.
        const uint64_t x =
            (vpage ^ (uint64_t(uint32_t(pid)) << 20)) *
            0x9e3779b97f4a7c15ULL;
        return uint32_t(x >> 56) & (numHints - 1);
    }

    static constexpr uint32_t numHints = 256;

    std::vector<TlbEntry> entries;
    uint32_t fifoNext = 0;
    /** Way predictor: likely entry index per hash slot (guess only). */
    mutable uint8_t hint[numHints] = {};
};

} // namespace mpos::sim

#endif // MPOS_SIM_TLB_HH
