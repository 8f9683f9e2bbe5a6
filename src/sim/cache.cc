#include "sim/cache.hh"

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
}

void
Cache::promote(uint64_t set, Way &way)
{
    Way *base = &ways[set * assoc_];
    const uint32_t old = way.lru;
    for (uint32_t i = 0; i < assoc_; ++i)
        if (base[i].valid() && base[i].lru < old)
            ++base[i].lru;
    way.lru = 0;
}

bool
Cache::touchAssoc(Addr line)
{
    Way *w = findWay(line);
    if (!w)
        return false;
    promote(setIndex(line), *w);
    return true;
}

Victim
Cache::fill(Addr addr, Coh st)
{
    const Addr line = lineAddr(addr);
    const uint64_t set = setIndex(line);

    if (assoc_ == 1) {
        // Direct-mapped: the single way is replaced outright; no LRU
        // bookkeeping, no empty-way scan.
        Way &w = ways[set];
        Victim victim;
        if (w.valid() && w.tag() != line)
            victim = {w.tag(), true, w.state()};
        w.set(line, st);
        w.lru = 0;
        return victim;
    }

    Way *base = &ways[set * assoc_];

    if (Way *w = findWay(line)) {
        promote(set, *w);
        w->set(line, st);
        return {};
    }

    // Prefer an invalid way; otherwise evict the LRU one.
    Way *slot = nullptr;
    for (uint32_t i = 0; i < assoc_; ++i) {
        if (!base[i].valid()) {
            slot = &base[i];
            break;
        }
    }
    Victim victim;
    if (!slot) {
        uint32_t worst = 0;
        for (uint32_t i = 1; i < assoc_; ++i)
            if (base[i].lru > base[worst].lru)
                worst = i;
        slot = &base[worst];
        victim = {slot->tag(), true, slot->state()};
    }
    slot->set(line, st);
    slot->lru = assoc_; // promote() pulls it to 0
    promote(set, *slot);
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
    Way *base = &ways[set * assoc_];
    for (uint32_t i = 0; i < assoc_; ++i)
        if (base[i].valid() && base[i].lru > removed)
            --base[i].lru;
}

void
Cache::reset()
{
    for (auto &w : ways)
        w = Way{};
}

uint64_t
Cache::residentLines() const
{
    uint64_t n = 0;
    for (const auto &w : ways)
        n += w.tv & 1;
    return n;
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

    for (uint64_t set = 0; set < numSets; ++set) {
        const Way *base = &ways[set * assoc_];
        for (uint32_t i = 0; i < assoc_; ++i) {
            const Way &w = base[i];
            if (!w.valid()) {
                // invalidate()/reset() clear the whole packed word; a
                // surviving state bit or tag means a stray write.
                if (w.tv != 0)
                    fail(set, i, "invalid way with non-zero packed word");
                continue;
            }
            if ((w.tv & (lineBytes_ - 1) & ~(validBit | stateBits)) != 0)
                fail(set, i, "tag not line-aligned");
            if ((w.tv & stateBits) == stateBits)
                fail(set, i, "both Modified and Exclusive bits set");
            if (setIndex(w.tag()) != set)
                fail(set, i, "resident line maps to a different set");
            if (w.lru >= assoc_)
                fail(set, i, "LRU rank out of range");
            for (uint32_t j = i + 1; j < assoc_; ++j) {
                if (!base[j].valid())
                    continue;
                if (base[j].tag() == w.tag())
                    fail(set, j, "line resident in two ways");
                if (base[j].lru == w.lru)
                    fail(set, j, "duplicate LRU rank");
            }
        }
    }
    return bad;
}

} // namespace mpos::sim
