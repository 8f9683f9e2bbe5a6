/**
 * @file
 * Unit tests for the Figure 6 I-cache re-simulation: recording filters
 * (only instruction misses enter the stream), replay through bigger
 * caches, flush handling, the one-pass simulateDirectPair
 * optimization, which must equal two independent simulate() replays,
 * and the split by simulated CPU: the per-CPU replays, summed, must
 * equal one replay of the whole interleaved stream.
 */

#include <gtest/gtest.h>

#include <vector>

#include "core/resim.hh"
#include "sim/cache.hh"

using namespace mpos;
using core::ClassifiedMiss;
using core::ICacheResim;
using core::MissClass;
using core::ResimPairResult;
using core::ResimResult;
using sim::Addr;
using sim::BusOp;
using sim::CacheKind;
using sim::CpuId;
using sim::ExecMode;
using sim::OsOp;

namespace
{

constexpr uint32_t lineBytes = 16;

ClassifiedMiss
imiss(CpuId cpu, Addr line, bool os)
{
    ClassifiedMiss m;
    m.rec.cycle = 0;
    m.rec.cpu = cpu;
    m.rec.lineAddr = line;
    m.rec.op = BusOp::Read;
    m.rec.cache = CacheKind::Instr;
    m.rec.ctx.mode = os ? ExecMode::Kernel : ExecMode::User;
    m.rec.ctx.op = os ? OsOp::IoSyscall : OsOp::None;
    m.cls = MissClass::Cold;
    return m;
}

ClassifiedMiss
dmiss(CpuId cpu, Addr line)
{
    ClassifiedMiss m = imiss(cpu, line, false);
    m.rec.cache = CacheKind::Data;
    return m;
}

void
expectSame(const ResimResult &a, const ResimResult &b)
{
    EXPECT_EQ(a.osMisses, b.osMisses);
    EXPECT_EQ(a.appMisses, b.appMisses);
    EXPECT_DOUBLE_EQ(a.relativeOsMissRate, b.relativeOsMissRate);
}

/** One recorded event, as the whole-stream reference replays it. */
struct RefEv
{
    CpuId cpu;
    Addr line;
    bool os;
    bool flush;
    uint32_t flushBytes; ///< 0 = full-cache flush.
};

/**
 * The whole-machine replay the per-CPU split must reproduce: one
 * cache per CPU, every event in recorded order into caches[e.cpu].
 */
ResimResult
referenceReplay(const std::vector<RefEv> &events, uint32_t cpus,
                uint64_t bytes, uint32_t assoc, bool apply_invals)
{
    std::vector<sim::Cache> caches;
    for (uint32_t c = 0; c < cpus; ++c)
        caches.emplace_back("ref", bytes, assoc, lineBytes);
    ResimResult r;
    for (const RefEv &e : events) {
        sim::Cache &c = caches[e.cpu];
        if (e.flush) {
            if (!apply_invals)
                continue;
            if (e.flushBytes == 0) {
                c.reset();
            } else {
                for (Addr a = 0; a < e.flushBytes; a += lineBytes)
                    c.invalidate(e.line + a);
            }
            continue;
        }
        if (!c.touch(e.line)) {
            c.fill(e.line);
            ++(e.os ? r.osMisses : r.appMisses);
        }
    }
    return r;
}

} // namespace

TEST(ICacheResim, RecordsOnlyInstructionMisses)
{
    ICacheResim rs(2, lineBytes);
    rs.onMiss(imiss(0, 0x100, true));
    rs.onMiss(dmiss(0, 0x200)); // data miss: filtered out
    rs.onMiss(imiss(1, 0x300, false));
    EXPECT_EQ(rs.recordedEvents(), 2u);
    EXPECT_EQ(rs.baselineOsMisses(), 1u);

    rs.clear();
    EXPECT_EQ(rs.recordedEvents(), 0u);
    EXPECT_EQ(rs.baselineOsMisses(), 0u);
}

TEST(ICacheResim, BiggerCacheAbsorbsConflictMisses)
{
    // Two lines that conflict in a 2-line direct-mapped cache but
    // coexist in a 4-line one; each referenced twice, alternating.
    ICacheResim rs(1, lineBytes);
    const Addr a = 0x000, b = 2 * lineBytes;
    for (int i = 0; i < 4; ++i)
        rs.onMiss(imiss(0, i % 2 ? b : a, true));

    const ResimResult small = rs.simulate(2 * lineBytes, 1);
    EXPECT_EQ(small.osMisses, 4u); // a and b keep displacing each other
    const ResimResult big = rs.simulate(4 * lineBytes, 1);
    EXPECT_EQ(big.osMisses, 2u); // cold misses only
    EXPECT_DOUBLE_EQ(big.relativeOsMissRate, 0.5);

    // Associativity fixes the conflict at the small size too.
    const ResimResult assoc = rs.simulate(2 * lineBytes, 2);
    EXPECT_EQ(assoc.osMisses, 2u);
}

TEST(ICacheResim, FlushEventsOnlyCountWhenApplied)
{
    // One line, touched, fully flushed, touched again.
    ICacheResim rs(1, lineBytes);
    rs.onMiss(imiss(0, 0x40, true));
    rs.flushPage(0, 0, 0); // page_bytes 0 = full-cache flush
    rs.onMiss(imiss(0, 0x40, true));

    const ResimResult with = rs.simulate(8 * lineBytes, 1, true);
    EXPECT_EQ(with.osMisses, 2u);
    const ResimResult without = rs.simulate(8 * lineBytes, 1, false);
    EXPECT_EQ(without.osMisses, 1u);
}

TEST(ICacheResim, RangedFlushInvalidatesOnlyTheRange)
{
    ICacheResim rs(1, lineBytes);
    const Addr inPage = 0x000, outside = 0x1000;
    rs.onMiss(imiss(0, inPage, true));
    rs.onMiss(imiss(0, outside, true));
    rs.flushPage(0, 0, 256); // 16 lines starting at 0
    rs.onMiss(imiss(0, inPage, true));  // re-miss: was flushed
    rs.onMiss(imiss(0, outside, true)); // hit: outside the range

    const ResimResult r = rs.simulate(1024 * 1024, 1, true);
    EXPECT_EQ(r.osMisses, 3u);
}

TEST(ICacheResim, DirectPairMatchesTwoIndependentReplays)
{
    // A busy multi-CPU stream with OS and app misses, ranged and full
    // flushes: the fused one-pass replay must be bit-identical to the
    // two plain replays it replaces.
    ICacheResim rs(4, lineBytes);
    uint64_t x = 12345;
    for (int i = 0; i < 4000; ++i) {
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
        const CpuId cpu = CpuId((x >> 33) % 4);
        const Addr line = ((x >> 17) % 512) * lineBytes;
        if ((x >> 60) == 0) {
            // Occasional flush; 1 in 4 of them full-cache.
            rs.flushPage(cpu, line, (x >> 55) % 4 ? 256 : 0);
        } else {
            rs.onMiss(imiss(cpu, line, (x & 1) != 0));
        }
    }
    ASSERT_GT(rs.recordedEvents(), 0u);
    ASSERT_GT(rs.baselineOsMisses(), 0u);

    for (uint64_t kb : {1, 4, 16}) {
        const uint64_t bytes = kb * 1024;
        const ResimPairResult pair = rs.simulateDirectPair(bytes);
        expectSame(pair.withInval, rs.simulate(bytes, 1, true));
        expectSame(pair.noInval, rs.simulate(bytes, 1, false));
    }
}

TEST(ICacheResim, PerCpuReplaysSumToWholeStreamReplay)
{
    // Four CPUs interleave misses over one shared address range, so
    // any event that reached another CPU's cache would turn some of
    // that CPU's misses into hits (or evict its lines). Full-cache
    // flushes are sprinkled in, plus one ranged page flush.
    constexpr uint32_t cpus = 4;
    ICacheResim rs(cpus, lineBytes);
    std::vector<RefEv> events;
    uint64_t x = 2024;
    for (int i = 0; i < 60000; ++i) {
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
        const CpuId cpu = CpuId((x >> 33) % cpus);
        // 2 MB of code: conflicts at 64 KB, mostly cold at 1 MB.
        const Addr line = ((x >> 12) % (1u << 17)) * lineBytes;
        if (i == 30000) {
            events.push_back({cpu, 0x10000, false, true, 4096});
            rs.flushPage(cpu, 0x10000, 4096);
        } else if ((x >> 52) == 0) {
            events.push_back({cpu, 0, false, true, 0});
            rs.flushPage(cpu, 0, 0);
        } else {
            const bool os = (x & 3) != 0;
            events.push_back({cpu, line, os, false, 0});
            rs.onMiss(imiss(cpu, line, os));
        }
    }
    ASSERT_EQ(rs.numCpus(), cpus);
    ASSERT_EQ(rs.recordedEvents(), events.size());

    for (uint64_t kb : {64, 256, 1024}) {
        const uint64_t bytes = kb * 1024;
        const ResimResult refWith =
            referenceReplay(events, cpus, bytes, 1, true);
        const ResimResult refNo =
            referenceReplay(events, cpus, bytes, 1, false);
        const ResimResult ref2way =
            referenceReplay(events, cpus, bytes, 2, true);
        ASSERT_NE(refWith.osMisses, refNo.osMisses) << kb << " KB";

        ResimPairResult pairSum;
        ResimResult twoSum;
        for (CpuId c = 0; c < cpus; ++c) {
            pairSum += rs.simulateDirectPairCpu(c, bytes);
            twoSum += rs.simulateCpu(c, bytes, 2, true);
        }
        expectSame(pairSum.withInval, refWith);
        expectSame(pairSum.noInval, refNo);
        expectSame(twoSum, ref2way);

        // The whole-machine entry points are the same sums, with the
        // rate relative to the recorded OS misses.
        expectSame(rs.simulateDirectPair(bytes).withInval,
                   rs.relative(refWith));
        expectSame(rs.simulateDirectPair(bytes).noInval,
                   rs.relative(refNo));
        expectSame(rs.simulate(bytes, 2, true), rs.relative(ref2way));
    }
}
