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
            return (ways[setIndex(line)].tv & ~stateBits) ==
                   (line | validBit);
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
        const Way *w = findWay(lineAddr(addr));
        return w ? w->state() : Coh::Invalid;
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
        Way *w = findWay(lineAddr(addr));
        if (!w)
            util::panic("cache %s: state set for absent line %llx",
                        label.c_str(), (unsigned long long)addr);
        w->tv = (w->tv & ~stateBits) | encode(st);
    }

    /** Remove the line; returns true if it was present. */
    bool
    invalidate(Addr addr)
    {
        const Addr line = lineAddr(addr);
        Way *w = findWay(line);
        if (!w)
            return false;
        if (assoc_ > 1)
            compactRanks(setIndex(line), w->lru);
        w->tv = 0;
        w->lru = 0;
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
            Way &w = ways[i];
            const Addr tag = w.tag();
            if (w.valid() && tag >= lo && tag < hi) {
                if (assoc_ > 1)
                    compactRanks(i / assoc_, w.lru);
                w.tv = 0;
                w.lru = 0;
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
        for (const auto &w : ways) {
            if (w.valid())
                fn(w.tag(), w.state());
        }
    }

    /**
     * Structural self-check of the packed tag array: every valid way's
     * packed word is line-aligned, carries a legal state encoding and
     * lives in the set its line maps to, no line is resident twice in
     * one set, invalidated ways are fully cleared, and the LRU ranks
     * of a set's valid ways are distinct and in range. Calls
     * report(description) once per violation; returns the violation
     * count.
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
    /// restore, as is every way's state encoding.
    /// @{
    void
    saveState(util::ByteWriter &w) const
    {
        w.u64(uint64_t(ways.size()));
        for (const Way &way : ways) {
            w.u64(way.tv);
            w.u32(way.lru);
        }
    }

    void
    restoreState(util::ByteReader &r)
    {
        const uint64_t n = r.u64();
        if (n != ways.size())
            util::raise(util::ErrCode::SnapshotCorrupt,
                        "cache %s: snapshot has %llu ways, machine "
                        "has %zu",
                        label.c_str(), (unsigned long long)n,
                        ways.size());
        for (Way &way : ways) {
            way.tv = r.u64();
            way.lru = r.u32();
            // An invalid way is all zero; Modified and Exclusive are
            // exclusive of each other.
            if (way.valid() ? (way.tv & stateBits) == stateBits
                            : way.tv != 0)
                util::raise(util::ErrCode::SnapshotCorrupt,
                            "cache %s: illegal packed way %016llx",
                            label.c_str(), (unsigned long long)way.tv);
        }
    }
    /// @}

  private:
    /**
     * Flag bits of the packed word: bit 0 = valid, bit 1 = Modified,
     * bit 2 = Exclusive (neither = Shared). Line sizes are >= 8, so
     * these bits are free in a line-aligned address.
     */
    static constexpr uint64_t validBit = 1;
    static constexpr uint64_t modifiedBit = 2;
    static constexpr uint64_t exclusiveBit = 4;
    static constexpr uint64_t stateBits = modifiedBit | exclusiveBit;

    /** State bits of a valid line in state st (not Invalid). */
    static uint64_t
    encode(Coh st)
    {
        static constexpr uint64_t bits[] = {0, 0, exclusiveBit,
                                            modifiedBit};
        return bits[uint8_t(st)];
    }

    /** The state a packed word's low three bits encode, as a table so
     *  the snoop paths do not branch to decode it. Only 0, 1, 3 and 5
     *  occur; restoreState rejects the rest. */
    static constexpr Coh decoded[8] = {
        Coh::Invalid, Coh::Shared,    Coh::Invalid, Coh::Modified,
        Coh::Invalid, Coh::Exclusive, Coh::Invalid, Coh::Invalid};

    struct Way
    {
        /**
         * Tag, valid bit and coherence state packed into one word,
         * the full line address in the high bits. The direct-mapped
         * hit probe -- the hottest operation in the simulator -- is
         * then a single load and masked compare.
         */
        uint64_t tv = 0;
        uint32_t lru = 0;   // lower = more recently used

        Addr tag() const { return Addr(tv & ~(validBit | stateBits)); }
        bool valid() const { return tv & validBit; }
        Coh state() const { return decoded[tv & 7]; }
        void set(Addr line, Coh st) { tv = line | validBit | encode(st); }
    };

    Addr lineAddr(Addr addr) const { return addr & ~Addr(lineBytes_ - 1); }
    uint64_t setIndex(Addr addr) const
    {
        return (addr >> lineShift_) & (numSets - 1);
    }

    /** touch() for the associative case: probe ways, update LRU. */
    bool touchAssoc(Addr line);

    /** Re-densify a set's LRU ranks after the way holding rank
     *  `removed` was invalidated. */
    void compactRanks(uint64_t set, uint32_t removed);

    /** The way holding line, or null. */
    Way *
    findWay(Addr line)
    {
        if (assoc_ == 1) {
            Way &w = ways[setIndex(line)];
            return (w.tv & ~stateBits) == (line | validBit) ? &w
                                                            : nullptr;
        }
        Way *base = &ways[setIndex(line) * assoc_];
        for (uint32_t i = 0; i < assoc_; ++i)
            if ((base[i].tv & ~stateBits) == (line | validBit))
                return &base[i];
        return nullptr;
    }

    const Way *
    findWay(Addr line) const
    {
        return const_cast<Cache *>(this)->findWay(line);
    }
    void promote(uint64_t set, Way &way);

    std::string label;
    uint32_t assoc_;
    uint32_t lineBytes_;
    uint32_t lineShift_; // log2(lineBytes_)
    uint64_t numSets;
    std::vector<Way> ways; // numSets * assoc_, set-major
};

} // namespace mpos::sim

#endif // MPOS_SIM_CACHE_HH
