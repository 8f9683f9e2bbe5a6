/** @file Tests for the file-system substrate and misc kernel types. */

#include <gtest/gtest.h>

#include "kernel/fs.hh"
#include "kernel/layout.hh"
#include "kernel/locks.hh"
#include "kernel/process.hh"

using namespace mpos::kernel;

TEST(BufferCache, LookupMissThenBind)
{
    BufferCache bc(8);
    EXPECT_EQ(bc.lookup(42), -1);
    const auto g = bc.getVictim(42);
    EXPECT_FALSE(g.wasDirty);
    EXPECT_EQ(g.oldBlkno, -1);
    EXPECT_EQ(bc.lookup(42), int32_t(g.index));
}

TEST(BufferCache, LruVictimSelection)
{
    BufferCache bc(2);
    const auto a = bc.getVictim(1);
    const auto b = bc.getVictim(2);
    bc.touchUse(a.index); // block 1 is now MRU
    const auto c = bc.getVictim(3); // must evict block 2
    EXPECT_EQ(c.index, b.index);
    EXPECT_EQ(c.oldBlkno, 2);
    EXPECT_EQ(bc.lookup(2), -1);
    EXPECT_NE(bc.lookup(1), -1);
}

TEST(BufferCache, DirtyVictimReported)
{
    BufferCache bc(1);
    const auto a = bc.getVictim(7);
    bc.markDirty(a.index);
    const auto b = bc.getVictim(8);
    EXPECT_TRUE(b.wasDirty);
    EXPECT_EQ(b.oldBlkno, 7);
    bc.clean(b.index);
    const auto c = bc.getVictim(9);
    EXPECT_FALSE(c.wasDirty);
}

TEST(BufferCache, ChainLengthBounded)
{
    BufferCache bc(64);
    for (int i = 0; i < 32; ++i)
        bc.getVictim(i * 64); // all hash to the same chain
    EXPECT_GE(bc.chainLength(0), 1u);
    EXPECT_LE(bc.chainLength(0), 4u);
    EXPECT_EQ(bc.chainLength(1), 1u); // empty chain reads as 1 probe
}

TEST(Disk, FifoSerialization)
{
    Disk d(100, 10);
    const auto t1 = d.schedule(0, 1);   // 0..110
    EXPECT_EQ(t1, 110u);
    const auto t2 = d.schedule(50, 2);  // queues behind t1
    EXPECT_EQ(t2, 110u + 100 + 20);
    EXPECT_EQ(d.requests, 2u);
    // An idle disk starts immediately.
    const auto t3 = d.schedule(10000, 1);
    EXPECT_EQ(t3, 10110u);
}

TEST(IoPayload, RoundTrip)
{
    const uint64_t p = ioPayload(0x123456, 8192, 77, true);
    EXPECT_EQ(ioFile(p), 0x123456u);
    EXPECT_EQ(ioBytes(p), 8192u);
    EXPECT_EQ(ioStartBlock(p), 77u);
    EXPECT_TRUE(ioSync(p));
    const uint64_t q = ioPayload(1, 4096);
    EXPECT_FALSE(ioSync(q));
    EXPECT_EQ(ioStartBlock(q), 0u);
}

TEST(LockNames, SelectorsStayInRange)
{
    for (uint32_t i = 0; i < 100; ++i) {
        EXPECT_GE(shrLock(i), uint32_t(ShrBase));
        EXPECT_LT(shrLock(i), uint32_t(StreamsBase));
        EXPECT_GE(streamsLock(i), uint32_t(StreamsBase));
        EXPECT_LT(streamsLock(i), uint32_t(InoBase));
        EXPECT_GE(inoLock(i), uint32_t(InoBase));
        EXPECT_LT(inoLock(i), uint32_t(numKernelLocks));
    }
}

TEST(Process, ResetForReuseClearsState)
{
    Process p;
    p.state = ProcState::Zombie;
    p.pageTable[5] = Pte{1, true, true, false, false, false};
    p.savedScript.push_back(mpos::sim::ScriptItem::think(1));
    p.pendingChildExits = 3;
    p.cpuShare = 999;
    p.resetForReuse();
    EXPECT_EQ(int(p.state), int(ProcState::Free));
    EXPECT_TRUE(p.pageTable.empty());
    EXPECT_TRUE(p.savedScript.empty());
    EXPECT_EQ(p.pendingChildExits, 0u);
    EXPECT_EQ(p.cpuShare, 0u);
    EXPECT_EQ(p.findPte(5), nullptr);
}

TEST(Process, FindPte)
{
    Process p;
    p.pageTable[7] = Pte{42, true, false, true, false, false};
    Pte *e = p.findPte(7);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->ppage, 42u);
    EXPECT_TRUE(e->cow);
    EXPECT_EQ(p.findPte(8), nullptr);
}

TEST(OptimizedLayout, SameRoutinesDifferentPlacement)
{
    LayoutConfig plain, opt;
    opt.optimizedTextLayout = true;
    const mpos::sim::MachineConfig mcfg;
    KernelLayout a(plain, mcfg), b(opt, mcfg);
    EXPECT_EQ(a.numRoutines(), b.numRoutines());
    // Every routine exists in both layouts (same sizes), but hot ones
    // move: in the optimized image the whole hot syscall path sits in
    // the first 64 KB.
    for (const char *name :
         {"read_sys", "write_sys", "vfault", "swtch", "clock_intr"}) {
        const auto &ra = a.routineInfo(a.routine(name));
        const auto &rb = b.routineInfo(b.routine(name));
        EXPECT_EQ(ra.textBytes, rb.textBytes) << name;
        EXPECT_LT(rb.textBase + rb.textBytes, 64u * 1024) << name;
    }
    // And the big driver no longer shadows the vectors' cache sets
    // with hot code between them.
    const auto &scsi = b.routineInfo(b.routine("scsi_driver"));
    EXPECT_GT(scsi.textBase, 128u * 1024);
}
