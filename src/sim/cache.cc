#include "sim/cache.hh"

#include <algorithm>
#include <bit>

#include "util/error.hh"

namespace mpos::sim
{

Cache::Cache(std::string name, uint64_t bytes, uint32_t assoc,
             uint32_t line_bytes)
    : label(std::move(name)), assoc_(assoc), lineBytes_(line_bytes)
{
    using util::ErrCode;
    if (assoc == 0 || line_bytes == 0 ||
        bytes % (uint64_t(assoc) * line_bytes) != 0) {
        util::raise(ErrCode::BadConfig,
                    "cache %s: capacity %llu not divisible by assoc %u "
                    "x line %u", label.c_str(),
                    static_cast<unsigned long long>(bytes), assoc,
                    line_bytes);
    }
    if (!std::has_single_bit(line_bytes))
        util::raise(ErrCode::BadConfig,
                    "cache %s: line size %u not a power of two",
                    label.c_str(), line_bytes);
    if (line_bytes < 8)
        util::raise(ErrCode::BadConfig,
                    "cache %s: line size %u leaves no room for the "
                    "packed valid/state tag bits", label.c_str(),
                    line_bytes);
    lineShift_ = uint32_t(std::countr_zero(line_bytes));
    numSets = bytes / (uint64_t(assoc) * line_bytes);
    if (!std::has_single_bit(numSets))
        util::raise(ErrCode::BadConfig,
                    "cache %s: number of sets %llu not a power of two",
                    label.c_str(),
                    static_cast<unsigned long long>(numSets));
    ways.resize(numSets * assoc_);
    if (assoc_ > 1)
        lru.resize(ways.size());
}

// Inline: it is most of touchAssoc's hit path.
inline void
Cache::promote(uint64_t set, uint64_t i)
{
    const uint32_t *w = &ways[set * assoc_];
    uint32_t *rank = &lru[set * assoc_];
    const uint32_t old = lru[i];
    for (uint32_t j = 0, n = assoc_; j < n; ++j)
        if (validOf(w[j]) && rank[j] < old)
            ++rank[j];
    lru[i] = 0;
}

bool
Cache::touchAssoc(Addr line)
{
    uint32_t *w = findWay(line);
    if (!w)
        return false;
    promote(setIndex(line), uint64_t(w - ways.data()));
    return true;
}

Victim
Cache::fill(Addr addr, Coh st)
{
    const Addr line = lineAddr(addr);
    const uint64_t set = setIndex(line);
    const uint64_t k = key(line);
    if (k >> 32)
        util::panic("cache %s: line %llx beyond the %u-bit line-number "
                    "field", label.c_str(), (unsigned long long)line,
                    lineNumberBits);
    const uint32_t word = uint32_t(k) | encode(st);

    if (assoc_ == 1) {
        // Direct-mapped: the single way is replaced outright; no LRU
        // bookkeeping, no empty-way scan.
        uint32_t &w = ways[set];
        Victim victim;
        if (validOf(w) && (w & ~stateBits) != k)
            victim = {tagOf(w), true, stateOf(w)};
        w = word;
        return victim;
    }

    if (uint32_t *w = findWay(line)) {
        promote(set, uint64_t(w - ways.data()));
        *w = word;
        return {};
    }

    // Prefer an invalid way; otherwise evict the LRU one.
    const uint64_t base = set * assoc_;
    uint64_t slot = base;
    while (slot < base + assoc_ && validOf(ways[slot]))
        ++slot;
    Victim victim;
    if (slot == base + assoc_) {
        slot = base;
        for (uint64_t i = base + 1; i < base + assoc_; ++i)
            if (lru[i] > lru[slot])
                slot = i;
        victim = {tagOf(ways[slot]), true, stateOf(ways[slot])};
    }
    ways[slot] = word;
    lru[slot] = assoc_; // promote() pulls it to 0
    promote(set, slot);
    return victim;
}

void
Cache::compactRanks(uint64_t set, uint32_t removed)
{
    // Keep the set's valid LRU ranks a dense 0..k-1 permutation when
    // a way vanishes. promote() and the eviction scan both assume
    // density; leaving the freed rank as a hole lets a later
    // fill+promote push two ways onto the same rank, after which the
    // victim choice is arbitrary instead of least-recently-used.
    for (uint64_t j = set * assoc_; j < (set + 1) * assoc_; ++j)
        if (validOf(ways[j]) && lru[j] > removed)
            --lru[j];
}

void
Cache::reset()
{
    std::fill(ways.begin(), ways.end(), 0);
    std::fill(lru.begin(), lru.end(), 0);
}

uint64_t
Cache::residentLines() const
{
    uint64_t n = 0;
    for (const uint32_t w : ways)
        n += w & validBit;
    return n;
}

void
Cache::saveState(util::ByteWriter &w) const
{
    w.u64(uint64_t(ways.size()));
    for (uint64_t i = 0; i < ways.size(); ++i) {
        w.u64(uint64_t(tagOf(ways[i])) | (ways[i] & 7));
        w.u32(assoc_ > 1 ? lru[i] : 0);
    }
}

void
Cache::restoreState(util::ByteReader &r)
{
    const uint64_t n = r.u64();
    if (n != ways.size())
        util::raise(util::ErrCode::SnapshotCorrupt,
                    "cache %s: snapshot has %llu ways, machine has %zu",
                    label.c_str(), (unsigned long long)n, ways.size());
    for (uint64_t i = 0; i < ways.size(); ++i) {
        const uint64_t tv = r.u64();
        const uint32_t rank = r.u32();
        // An invalid way is all zero. A valid one holds a line-aligned
        // address inside the line-number field, and Modified and
        // Exclusive are exclusive of each other.
        const bool valid = tv & validBit;
        if (valid ? (tv & stateBits) == stateBits ||
                        (tv & (lineBytes_ - 1) & ~uint64_t(7)) != 0 ||
                        (tv >> lineShift_) >> lineNumberBits != 0
                  : tv != 0)
            util::raise(util::ErrCode::SnapshotCorrupt,
                        "cache %s: illegal packed way %016llx",
                        label.c_str(), (unsigned long long)tv);
        if (rank >= assoc_ || (!valid && rank != 0))
            util::raise(util::ErrCode::SnapshotCorrupt,
                        "cache %s: illegal LRU rank %u in way %llu",
                        label.c_str(), rank, (unsigned long long)i);
        ways[i] = uint32_t((tv >> lineShift_) << flagBits | (tv & 7));
        if (assoc_ > 1)
            lru[i] = rank;
    }
}

uint32_t
Cache::checkIntegrity(
    const std::function<void(const std::string &)> &report) const
{
    uint32_t bad = 0;
    auto fail = [&](uint64_t set, uint32_t way, const std::string &what) {
        ++bad;
        report(label + ": set " + std::to_string(set) + " way " +
               std::to_string(way) + ": " + what);
    };

    const auto rank = [&](uint64_t i) { return assoc_ > 1 ? lru[i] : 0; };
    for (uint64_t set = 0; set < numSets; ++set) {
        const uint64_t base = set * assoc_;
        for (uint32_t i = 0; i < assoc_; ++i) {
            const uint32_t w = ways[base + i];
            if (!validOf(w)) {
                // invalidate()/reset() clear the whole packed word; a
                // surviving state bit or tag means a stray write.
                if (w != 0)
                    fail(set, i, "invalid way with non-zero packed word");
                continue;
            }
            if ((w & stateBits) == stateBits)
                fail(set, i, "both Modified and Exclusive bits set");
            if (setIndex(tagOf(w)) != set)
                fail(set, i, "resident line maps to a different set");
            if (rank(base + i) >= assoc_)
                fail(set, i, "LRU rank out of range");
            for (uint32_t j = i + 1; j < assoc_; ++j) {
                const uint32_t o = ways[base + j];
                if (!validOf(o))
                    continue;
                if (tagOf(o) == tagOf(w))
                    fail(set, j, "line resident in two ways");
                if (rank(base + j) == rank(base + i))
                    fail(set, j, "duplicate LRU rank");
            }
        }
    }
    return bad;
}

} // namespace mpos::sim
