/**
 * @file
 * Generic physically-addressed set-associative cache tag model.
 *
 * Only tags and line state are modeled (no data): every quantity the
 * paper measures is a function of which physical line is present in
 * which cache. Direct-mapped caches are assoc = 1, matching all three
 * caches of the 4D/340; higher associativity is used by the Figure 6
 * re-simulation and the ablation benches.
 */

#ifndef MPOS_SIM_CACHE_HH
#define MPOS_SIM_CACHE_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/types.hh"
#include "util/binio.hh"
#include "util/logging.hh"

namespace mpos::sim
{

/**
 * Coherence line states, kept in each way next to the tag; caches
 * outside the protocol fill every line Shared. A protocol never
 * produces the states it lacks (MSI never fills Exclusive, MI never
 * Shared or Exclusive); the checker enforces that.
 */
enum class Coh : uint8_t { Invalid, Shared, Exclusive, Modified };

/** Result of a fill: the displaced line, if any. */
struct Victim
{
    Addr lineAddr = 0;
    bool valid = false;
    Coh state = Coh::Invalid; ///< The displaced line's state.
};

/** Set-associative cache of 16-byte lines with true-LRU replacement. */
class Cache
{
  public:
    /**
     * @param name       For diagnostics.
     * @param bytes      Total capacity; must be a multiple of
     *                   line_bytes * assoc.
     * @param assoc      Associativity (1 = direct-mapped).
     * @param line_bytes Line size (16 on the 4D/340).
     */
    Cache(std::string name, uint64_t bytes, uint32_t assoc,
          uint32_t line_bytes);

    /** True if the line holding addr is present (no LRU update). */
    bool contains(Addr addr) const { return findWay(lineAddr(addr)); }

    /**
     * Access for read/fetch: returns hit and updates LRU. Inline with
     * a direct-mapped short circuit: the one way either matches or
     * does not, and its LRU rank is always already 0, so the probe is
     * a single indexed compare (all three 4D/340 caches are assoc 1).
     */
    bool
    touch(Addr addr)
    {
        const Addr line = lineAddr(addr);
        if (assoc_ == 1) {
            // valid && tag == line, as a single load and compare on
            // the packed word (the state bits are masked out).
            return (ways[setIndex(line)] & ~stateBits) == key(line);
        }
        return touchAssoc(line);
    }

    /**
     * Install the line holding addr in state st (not Invalid),
     * evicting the LRU way if the set is full. Returns the victim
     * (valid = false if an empty way was used or the line was already
     * present, in which case only its state is replaced).
     */
    Victim fill(Addr addr, Coh st = Coh::Shared);

    /** State of the line holding addr; Invalid if not present. No
     *  LRU update. */
    Coh
    state(Addr addr) const
    {
        const uint32_t *w = findWay(lineAddr(addr));
        return w ? stateOf(*w) : Coh::Invalid;
    }

    /**
     * Set the state of the line holding addr. Invalid removes the line
     * (a no-op if absent); any other state requires the line to be
     * present, since a state cannot exist without its tag.
     */
    void
    setState(Addr addr, Coh st)
    {
        if (st == Coh::Invalid) {
            invalidate(addr);
            return;
        }
        uint32_t *w = findWay(lineAddr(addr));
        if (!w)
            util::panic("cache %s: state set for absent line %llx",
                        label.c_str(), (unsigned long long)addr);
        *w = (*w & ~stateBits) | encode(st);
    }

    /** Remove the line; returns true if it was present. */
    bool
    invalidate(Addr addr)
    {
        uint32_t *w = findWay(lineAddr(addr));
        if (!w)
            return false;
        clearWay(uint64_t(w - ways.data()));
        return true;
    }

    /**
     * Invalidate every resident line with address in [lo, hi) and call
     * cb for each one removed. Takes the callback as a template so the
     * call inlines instead of going through a std::function thunk.
     */
    template <typename Fn>
    void
    invalidateRange(Addr lo, Addr hi, Fn &&cb)
    {
        for (uint64_t i = 0; i < ways.size(); ++i) {
            const Addr tag = tagOf(ways[i]);
            if (validOf(ways[i]) && tag >= lo && tag < hi) {
                clearWay(i);
                cb(tag);
            }
        }
    }

    /** Drop everything (power-on state). */
    void reset();

    /** Call fn(lineAddr, state) for every resident line. */
    template <typename Fn>
    void
    forEachResident(Fn &&fn) const
    {
        for (const uint32_t w : ways) {
            if (validOf(w))
                fn(tagOf(w), stateOf(w));
        }
    }

    /**
     * Structural self-check of the packed tag array: every valid way's
     * packed word carries a legal state encoding and lives in the set
     * its line maps to, no line is resident twice in one set,
     * invalidated ways are fully cleared, and the LRU ranks of a set's
     * valid ways are distinct and in range. Calls report(description)
     * once per violation; returns the violation count.
     */
    uint32_t checkIntegrity(
        const std::function<void(const std::string &)> &report) const;

    uint64_t capacityBytes() const { return uint64_t(numSets) * assoc_ *
                                            lineBytes_; }
    uint32_t assoc() const { return assoc_; }
    uint32_t lineBytes() const { return lineBytes_; }
    uint64_t sets() const { return numSets; }

    /** Number of currently valid lines. */
    uint64_t residentLines() const;

    const std::string &name() const { return label; }

    /// @name Snapshot save/restore
    /// The packed tag/state words and LRU ranks are the whole mutable
    /// state; geometry comes from the constructor and is validated on
    /// restore, as is every way's state encoding. On the wire each way
    /// is a u64 word (the full line address with the valid/state bits
    /// in its low three bits) and a u32 rank (0 in a direct-mapped
    /// cache), whatever the in-memory packing.
    /// @{
    void saveState(util::ByteWriter &w) const;
    void restoreState(util::ByteReader &r);
    /// @}

    /**
     * Bits of a way's line-number field: a cache holds lines numbered
     * below 2^lineNumberBits (8 GB of 16-byte lines). validateConfig
     * keeps a machine's memory inside it; fill() panics past it.
     */
    static constexpr uint32_t lineNumberBits = 29;

  private:
    /**
     * Flag bits of the packed word: bit 0 = valid, bit 1 = Modified,
     * bit 2 = Exclusive (neither = Shared). The line number sits above
     * them.
     */
    static constexpr uint32_t flagBits = 3;
    static constexpr uint32_t validBit = 1;
    static constexpr uint32_t modifiedBit = 2;
    static constexpr uint32_t exclusiveBit = 4;
    static constexpr uint32_t stateBits = modifiedBit | exclusiveBit;

    /** State bits of a valid line in state st (not Invalid). */
    static uint32_t
    encode(Coh st)
    {
        static constexpr uint32_t bits[] = {0, 0, exclusiveBit,
                                            modifiedBit};
        return bits[uint8_t(st)];
    }

    /** The state a packed word's low three bits encode, as a table so
     *  the snoop paths do not branch to decode it. Only 0, 1, 3 and 5
     *  occur; restoreState rejects the rest. */
    static constexpr Coh decoded[8] = {
        Coh::Invalid, Coh::Shared,    Coh::Invalid, Coh::Modified,
        Coh::Invalid, Coh::Exclusive, Coh::Invalid, Coh::Invalid};

    /**
     * A way is one packed word: (line number << flagBits) | flags.
     * Four bytes per simulated line keeps the tag arrays small, and
     * the direct-mapped hit probe -- the hottest operation in the
     * simulator -- is a single load and masked compare against key().
     */
    static bool validOf(uint32_t w) { return w & validBit; }
    static Coh stateOf(uint32_t w) { return decoded[w & 7]; }
    Addr tagOf(uint32_t w) const
    {
        return Addr(w >> flagBits) << lineShift_;
    }

    /**
     * The packed word of line, valid with no state bits. Computed in
     * 64 bits, so a line past the line-number field matches no way.
     */
    uint64_t key(Addr line) const
    {
        return (line >> lineShift_) << flagBits | validBit;
    }

    Addr lineAddr(Addr addr) const { return addr & ~Addr(lineBytes_ - 1); }
    uint64_t setIndex(Addr addr) const
    {
        return (addr >> lineShift_) & (numSets - 1);
    }

    /** touch() for the associative case: probe ways, update LRU. */
    bool touchAssoc(Addr line);

    /** Empty way i; an associative set's ranks stay dense. */
    void
    clearWay(uint64_t i)
    {
        if (assoc_ > 1) {
            compactRanks(i / assoc_, lru[i]);
            lru[i] = 0;
        }
        ways[i] = 0;
    }

    /** Re-densify a set's LRU ranks after the way holding rank
     *  `removed` was invalidated. */
    void compactRanks(uint64_t set, uint32_t removed);

    /** The way holding line, or null. */
    uint32_t *
    findWay(Addr line)
    {
        const uint64_t k = key(line);
        if (assoc_ == 1) {
            uint32_t &w = ways[setIndex(line)];
            return (w & ~stateBits) == k ? &w : nullptr;
        }
        uint32_t *base = &ways[setIndex(line) * assoc_];
        for (uint32_t i = 0; i < assoc_; ++i)
            if ((base[i] & ~stateBits) == k)
                return &base[i];
        return nullptr;
    }

    const uint32_t *
    findWay(Addr line) const
    {
        return const_cast<Cache *>(this)->findWay(line);
    }

    /** Make way i (of set) the set's most recently used. */
    void promote(uint64_t set, uint64_t i);

    std::string label;
    uint32_t assoc_;
    uint32_t lineBytes_;
    uint32_t lineShift_; // log2(lineBytes_)
    uint64_t numSets;
    std::vector<uint32_t> ways; // numSets * assoc_ packed words, set-major
    /** LRU rank per way, lower = more recently used; allocated only
     *  when assoc_ > 1 (a direct-mapped way's rank is always 0). */
    std::vector<uint32_t> lru;
};

} // namespace mpos::sim

#endif // MPOS_SIM_CACHE_HH
