/** @file Tests that the kernel image matches the paper's Table 3. */

#include <gtest/gtest.h>

#include "kernel/layout.hh"

using namespace mpos::kernel;

namespace
{
/** The default image on the default (4D/340) machine. */
KernelLayout
defaultLayout()
{
    return KernelLayout(LayoutConfig{}, mpos::sim::MachineConfig{});
}
} // namespace

TEST(Layout, Table3Sizes)
{
    const KernelLayout l = defaultLayout();
    // Paper Table 3 sizes, in bytes.
    EXPECT_EQ(l.procTableBytes(), 46080u);
    EXPECT_EQ(l.bufHeadersBytes(), 17408u);
    EXPECT_EQ(l.inodeTableBytes(), 68608u);
    // Pfdat: paper reports 210944 B (25.75 B x 8192 pages); we use
    // 26-byte descriptors.
    EXPECT_NEAR(double(l.pfdatBytes()), 210944.0, 4096.0);
}

TEST(Layout, PerProcessStructureSizes)
{
    const KernelLayout l = defaultLayout();
    // Kernel stack 4096, PCB 240, Eframe 172, rest 3684 (Table 3).
    EXPECT_EQ(l.pcbAddr(0) - l.kernelStackAddr(0), 4096u);
    EXPECT_EQ(l.eframeAddr(0) - l.pcbAddr(0), 240u);
    EXPECT_EQ(l.uRestAddr(0) - l.eframeAddr(0), 172u);
    EXPECT_EQ(l.kernelStackAddr(1) - l.uRestAddr(0), 3684u);
}

TEST(Layout, StructAtRoundTrip)
{
    const KernelLayout l = defaultLayout();
    EXPECT_EQ(l.structAt(l.runQueueAddr()), KStruct::RunQueue);
    EXPECT_EQ(l.structAt(l.hiNdprocAddr()), KStruct::HiNdproc);
    EXPECT_EQ(l.structAt(l.freePgBuckAddr(5)), KStruct::FreePgBuck);
    EXPECT_EQ(l.structAt(l.procTableAddr(3)), KStruct::ProcTable);
    EXPECT_EQ(l.structAt(l.pfdatAddr(100)), KStruct::Pfdat);
    EXPECT_EQ(l.structAt(l.bufHeaderAddr(10)), KStruct::Buffer);
    EXPECT_EQ(l.structAt(l.inodeAddr(7)), KStruct::Inode);
    EXPECT_EQ(l.structAt(l.calloutAddr(1)), KStruct::Callout);
    EXPECT_EQ(l.structAt(l.kernelStackAddr(2) + 100),
              KStruct::KernelStack);
    EXPECT_EQ(l.structAt(l.pcbAddr(2) + 10), KStruct::Pcb);
    EXPECT_EQ(l.structAt(l.eframeAddr(2) + 10), KStruct::Eframe);
    EXPECT_EQ(l.structAt(l.uRestAddr(2) + 10), KStruct::URest);
    EXPECT_EQ(l.structAt(l.pageTableAddr(2)), KStruct::PageTableHeap);
    EXPECT_EQ(l.structAt(l.bufDataAddr(0)), KStruct::BufData);
    EXPECT_EQ(l.structAt(0), KStruct::KernelText);
    EXPECT_EQ(l.structAt(l.firstUserPage() * 4096 + 64),
              KStruct::UserPage);
}

TEST(Layout, RoutineLookupByNameAndAddress)
{
    const KernelLayout l = defaultLayout();
    const RoutineId swtch = l.routine("swtch");
    const Routine &info = l.routineInfo(swtch);
    EXPECT_EQ(info.name, "swtch");
    EXPECT_EQ(l.routineAt(info.textBase), swtch);
    EXPECT_EQ(l.routineAt(info.textBase + info.textBytes - 1), swtch);
    EXPECT_NE(l.routineAt(info.textBase + info.textBytes), swtch);
}

TEST(Layout, RoutineAtBeyondTextIsInvalid)
{
    const KernelLayout l = defaultLayout();
    EXPECT_EQ(l.routineAt(l.textEnd()), invalidRoutine);
    EXPECT_EQ(l.routineAt(~0ULL), invalidRoutine);
}

TEST(Layout, RoutinesAreContiguousAndOrdered)
{
    const KernelLayout l = defaultLayout();
    mpos::sim::Addr expect = 0;
    for (uint32_t i = 0; i < l.numRoutines(); ++i) {
        const Routine &r = l.routineInfo(RoutineId(i));
        EXPECT_EQ(r.textBase, expect);
        EXPECT_GT(r.textBytes, 0u);
        EXPECT_EQ(r.textBytes % 16, 0u);
        expect += r.textBytes;
    }
    EXPECT_EQ(expect, l.textEnd());
}

TEST(Layout, RunQueueGroupHasSevenRoutines)
{
    // "the seven routines that form the core of the run queue
    // management" (paper Table 5).
    const KernelLayout l = defaultLayout();
    int n = 0;
    for (uint32_t i = 0; i < l.numRoutines(); ++i)
        if (l.routineInfo(RoutineId(i)).group ==
            RoutineGroup::RunQueueMgmt)
            ++n;
    EXPECT_EQ(n, 7);
}

TEST(Layout, HotKernelTextExceedsICache)
{
    // The paper's premise: OS code paths overflow and conflict in the
    // 64 KB I-cache. The non-driver kernel text must exceed it.
    const KernelLayout l = defaultLayout();
    uint64_t hot = 0;
    for (uint32_t i = 0; i < l.numRoutines(); ++i) {
        const Routine &r = l.routineInfo(RoutineId(i));
        if (r.group != RoutineGroup::Driver)
            hot += r.textBytes;
    }
    EXPECT_GT(hot, 64u * 1024);
}

TEST(Layout, UserPoolNonEmptyAndDisjoint)
{
    const KernelLayout l = defaultLayout();
    EXPECT_GT(l.userPoolPages(), 1000u);
    EXPECT_EQ(l.structAt(l.firstUserPage() * 4096), KStruct::UserPage);
    EXPECT_NE(l.structAt((l.firstUserPage() - 1) * 4096),
              KStruct::UserPage);
}

TEST(Layout, AddressWrappingIsSafe)
{
    const KernelLayout l = defaultLayout();
    // Out-of-range indices wrap instead of escaping the structure.
    EXPECT_EQ(l.structAt(l.procTableAddr(1000)), KStruct::ProcTable);
    EXPECT_EQ(l.structAt(l.inodeAddr(100000)), KStruct::Inode);
    EXPECT_EQ(l.structAt(l.bufHeaderAddr(99999)), KStruct::Buffer);
}
