/** @file Unit tests of the Table 2 miss classifier. */

#include <gtest/gtest.h>

#include "core/miss_classify.hh"

using namespace mpos;
using namespace mpos::core;
using sim::BusOp;
using sim::BusRecord;
using sim::CacheKind;
using sim::ExecMode;
using sim::MonitorContext;
using sim::OsOp;

namespace
{

MonitorContext
osCtx()
{
    MonitorContext c;
    c.mode = ExecMode::Kernel;
    c.op = OsOp::IoSyscall;
    return c;
}

MonitorContext
appCtx()
{
    MonitorContext c;
    c.mode = ExecMode::User;
    c.op = OsOp::None;
    return c;
}

BusRecord
rec(CpuId cpu, sim::Addr line, BusOp op, CacheKind k,
    const MonitorContext &ctx)
{
    return {0, cpu, line, op, k, ctx};
}

struct Sink : MissSink
{
    std::vector<ClassifiedMiss> seen;
    void onMiss(const ClassifiedMiss &m) override { seen.push_back(m); }
};

struct ClassifyTest : ::testing::Test
{
    ClassifyTest() : mc(4, 1 << 20, 16) { mc.addSink(&sink); }
    MissClassifier mc;
    Sink sink;
};

} // namespace

TEST_F(ClassifyTest, FirstAccessIsCold)
{
    mc.busTransaction(rec(0, 0x100, BusOp::Read, CacheKind::Data,
                          osCtx()));
    EXPECT_EQ(mc.counts().osD[unsigned(MissClass::Cold)], 1u);
    ASSERT_EQ(sink.seen.size(), 1u);
    EXPECT_EQ(int(sink.seen[0].cls), int(MissClass::Cold));
}

TEST_F(ClassifyTest, ColdIsPerProcessor)
{
    mc.busTransaction(rec(0, 0x100, BusOp::Read, CacheKind::Data,
                          osCtx()));
    mc.busTransaction(rec(1, 0x100, BusOp::Read, CacheKind::Data,
                          osCtx()));
    EXPECT_EQ(mc.counts().osD[unsigned(MissClass::Cold)], 2u);
}

TEST_F(ClassifyTest, DisplacementByOsIsDispos)
{
    mc.busTransaction(rec(0, 0x100, BusOp::Read, CacheKind::Data,
                          osCtx()));
    mc.evict(0, CacheKind::Data, 0x100, osCtx());
    mc.busTransaction(rec(0, 0x100, BusOp::Read, CacheKind::Data,
                          osCtx()));
    EXPECT_EQ(mc.counts().osD[unsigned(MissClass::Dispos)], 1u);
    // No application ran in between: Dispossame.
    EXPECT_EQ(mc.counts().osDispossameD, 1u);
}

TEST_F(ClassifyTest, DispossameClearedByAppInvocation)
{
    mc.busTransaction(rec(0, 0x100, BusOp::Read, CacheKind::Data,
                          osCtx()));
    mc.evict(0, CacheKind::Data, 0x100, osCtx());
    mc.osExit(10, 0, OsOp::IoSyscall); // application resumes
    mc.busTransaction(rec(0, 0x100, BusOp::Read, CacheKind::Data,
                          osCtx()));
    EXPECT_EQ(mc.counts().osD[unsigned(MissClass::Dispos)], 1u);
    EXPECT_EQ(mc.counts().osDispossameD, 0u);
}

TEST_F(ClassifyTest, DisplacementByAppIsDispap)
{
    mc.busTransaction(rec(0, 0x200, BusOp::Read, CacheKind::Instr,
                          osCtx()));
    mc.evict(0, CacheKind::Instr, 0x200, appCtx());
    mc.busTransaction(rec(0, 0x200, BusOp::Read, CacheKind::Instr,
                          osCtx()));
    EXPECT_EQ(mc.counts().osI[unsigned(MissClass::Dispap)], 1u);
}

TEST_F(ClassifyTest, CoherenceInvalidationIsSharing)
{
    mc.busTransaction(rec(0, 0x300, BusOp::Read, CacheKind::Data,
                          osCtx()));
    mc.invalSharing(0, CacheKind::Data, 0x300);
    mc.busTransaction(rec(0, 0x300, BusOp::Read, CacheKind::Data,
                          osCtx()));
    EXPECT_EQ(mc.counts().osD[unsigned(MissClass::Sharing)], 1u);
}

TEST_F(ClassifyTest, UpgradeCountsAsSharing)
{
    mc.busTransaction(rec(0, 0x300, BusOp::Upgrade, CacheKind::Data,
                          osCtx()));
    EXPECT_EQ(mc.counts().osD[unsigned(MissClass::Sharing)], 1u);
}

TEST_F(ClassifyTest, PageReallocFlushIsInval)
{
    mc.busTransaction(rec(0, 0x400, BusOp::Read, CacheKind::Instr,
                          osCtx()));
    mc.invalPageRealloc(0, 0x400);
    mc.busTransaction(rec(0, 0x400, BusOp::Read, CacheKind::Instr,
                          osCtx()));
    EXPECT_EQ(mc.counts().osI[unsigned(MissClass::Inval)], 1u);
}

TEST_F(ClassifyTest, UncachedAccesses)
{
    mc.busTransaction(rec(0, 0x500, BusOp::UncachedRead,
                          CacheKind::Data, osCtx()));
    EXPECT_EQ(mc.counts().osD[unsigned(MissClass::Uncached)], 1u);
}

TEST_F(ClassifyTest, WritebacksNotClassified)
{
    mc.busTransaction(rec(0, 0x600, BusOp::Writeback, CacheKind::Data,
                          osCtx()));
    EXPECT_EQ(mc.counts().total(), 0u);
    EXPECT_EQ(mc.writebacks(), 1u);
}

TEST_F(ClassifyTest, AppMissesSeparatedFromOs)
{
    mc.busTransaction(rec(0, 0x700, BusOp::Read, CacheKind::Data,
                          appCtx()));
    EXPECT_EQ(mc.counts().appD[unsigned(MissClass::Cold)], 1u);
    EXPECT_EQ(mc.counts().osTotal(), 0u);
}

TEST_F(ClassifyTest, ApDisposIsAppMissAfterOsEviction)
{
    mc.busTransaction(rec(0, 0x800, BusOp::Read, CacheKind::Data,
                          appCtx()));
    mc.evict(0, CacheKind::Data, 0x800, osCtx());
    mc.busTransaction(rec(0, 0x800, BusOp::Read, CacheKind::Data,
                          appCtx()));
    EXPECT_EQ(mc.counts().appD[unsigned(MissClass::Dispos)], 1u);
}

TEST_F(ClassifyTest, ExactlyOneClassPerMissNoUnknown)
{
    // A short scenario honoring the contract that a tracked-present
    // block never misses again without an eviction or invalidation;
    // every miss lands in exactly one bucket and never Unknown.
    for (int i = 0; i < 50; ++i) {
        const sim::Addr line = (i % 7) * 16;
        mc.busTransaction(rec(0, line, BusOp::Read, CacheKind::Data,
                              i % 2 ? osCtx() : appCtx()));
        if (i % 2 == 0)
            mc.evict(0, CacheKind::Data, line,
                     i % 4 ? osCtx() : appCtx());
        else
            mc.invalSharing(0, CacheKind::Data, line);
    }
    const auto &c = mc.counts();
    EXPECT_EQ(c.osD[unsigned(MissClass::Unknown)], 0u);
    EXPECT_EQ(c.appD[unsigned(MissClass::Unknown)], 0u);
    EXPECT_EQ(c.total(), uint64_t(sink.seen.size()));
}

TEST_F(ClassifyTest, IdleMissesTrackedSeparately)
{
    MonitorContext idle;
    idle.mode = ExecMode::Idle;
    idle.op = OsOp::IdleLoop;
    mc.busTransaction(rec(2, 0x900, BusOp::Read, CacheKind::Instr,
                          idle));
    EXPECT_EQ(mc.counts().idleI[unsigned(MissClass::Cold)], 1u);
    EXPECT_EQ(mc.counts().osTotal(), 0u);
}

TEST_F(ClassifyTest, TrackingWordsIndependentAcrossPageChunks)
{
    // Tracking words live in per-(CPU, cache) chunks of one 4 KB page
    // of lines, allocated on first touch. Lines either side of a chunk
    // boundary, the last line of memory, and the same line in the
    // other cache or on another CPU must never share a word.
    const sim::Addr last = (1 << 20) - 16;
    for (sim::Addr line : {sim::Addr(0xff0), sim::Addr(0x1000), last})
        mc.busTransaction(rec(3, line, BusOp::Read, CacheKind::Data,
                              osCtx()));
    mc.evict(3, CacheKind::Data, 0xff0, osCtx());
    mc.evict(3, CacheKind::Data, 0x1000, appCtx());
    mc.invalSharing(3, CacheKind::Data, last);
    for (sim::Addr line : {sim::Addr(0xff0), sim::Addr(0x1000), last})
        mc.busTransaction(rec(3, line, BusOp::Read, CacheKind::Data,
                              osCtx()));
    // Untouched twins: the I-cache word and CPU 2's word are cold.
    mc.busTransaction(rec(3, 0x1000, BusOp::Read, CacheKind::Instr,
                          osCtx()));
    mc.busTransaction(rec(2, 0x1000, BusOp::Read, CacheKind::Data,
                          osCtx()));
    EXPECT_EQ(mc.counts().osD[unsigned(MissClass::Cold)], 4u);
    EXPECT_EQ(mc.counts().osD[unsigned(MissClass::Dispos)], 1u);
    EXPECT_EQ(mc.counts().osD[unsigned(MissClass::Dispap)], 1u);
    EXPECT_EQ(mc.counts().osD[unsigned(MissClass::Sharing)], 1u);
    EXPECT_EQ(mc.counts().osI[unsigned(MissClass::Cold)], 1u);
    EXPECT_EQ(mc.counts().total(), 8u);
}
