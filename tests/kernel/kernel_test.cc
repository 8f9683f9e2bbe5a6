/** @file Behavioral tests of the synthetic kernel. */

#include <algorithm>
#include <functional>
#include <gtest/gtest.h>

#include "kernel/kernel.hh"
#include "sim/machine.hh"
#include "util/binio.hh"
#include "util/error.hh"

using namespace mpos;
using namespace mpos::kernel;
using sim::ExecMode;
using sim::MarkerOp;
using sim::OsOp;
using sim::ScriptItem;

namespace
{

/** Behavior driven by a lambda. */
struct ScriptedApp : AppBehavior
{
    using Fn = std::function<void(Process &, UserScript &)>;
    explicit ScriptedApp(Fn f) : fn(std::move(f)) {}
    void chunk(Process &p, UserScript &s) override { fn(p, s); }
    Fn fn;
};

/** Default user work: touch a little code and data. */
ScriptedApp::Fn
busyLoop()
{
    return [](Process &, UserScript &s) {
        for (int i = 0; i < 8; ++i)
            s.ifetch(VaMap::textBase + i * 16);
        s.load(VaMap::dataBase);
        s.think(32);
    };
}

struct Client : KernelClient
{
    ScriptedApp::Fn childFn = busyLoop();
    int forks = 0, exits = 0;

    void
    onFork(Process &, Process &child) override
    {
        ++forks;
        child.behavior = std::make_unique<ScriptedApp>(childFn);
    }
    void onProcExit(Process &) override { ++exits; }
};

struct KernelTest : ::testing::Test
{
    KernelTest()
    {
        mcfg.numCpus = 2;
        m = std::make_unique<sim::Machine>(mcfg, 128);
        kcfg.layout.maxProcs = 16;
        kcfg.userPoolPages = 600;
        k = std::make_unique<Kernel>(*m, kcfg);
        k->setClient(&client);
        img = k->registerImage("app", 32 * 1024);
    }

    Pid
    spawn(ScriptedApp::Fn fn, const std::string &name = "t")
    {
        return k->spawn(std::make_unique<ScriptedApp>(std::move(fn)),
                        img, name);
    }

    sim::MachineConfig mcfg;
    KernelConfig kcfg;
    std::unique_ptr<sim::Machine> m;
    std::unique_ptr<Kernel> k;
    Client client;
    uint32_t img = 0;
};

} // namespace

TEST_F(KernelTest, IdleMachineStaysInIdleLoop)
{
    m->run(100000);
    const auto acct = m->totalAccount();
    EXPECT_EQ(acct.nonIdle(), 0u);
    EXPECT_GT(acct.idle(), 0u);
}

TEST_F(KernelTest, SpawnedProcessRunsUserCode)
{
    spawn(busyLoop());
    m->run(300000);
    const auto acct = m->totalAccount();
    EXPECT_GT(acct.user(), 0u);
    EXPECT_GT(acct.kernel(), 0u); // faults at least
}

TEST_F(KernelTest, FirstTouchAllocatesPages)
{
    const uint64_t before = k->freePageCount();
    spawn(busyLoop());
    m->run(300000);
    EXPECT_LT(k->freePageCount(), before);
}

TEST_F(KernelTest, UtlbFaultsAfterWarmMapping)
{
    // Touch many pages so TLB capacity misses occur on mapped pages.
    spawn([](Process &, UserScript &s) {
        static uint32_t page = 0;
        for (int i = 0; i < 4; ++i) {
            s.load(VaMap::dataBase + (page % 128) * 4096);
            ++page;
        }
        s.think(16);
    });
    m->run(3000000);
    EXPECT_GT(k->utlbFaults(), 100u);
}

TEST_F(KernelTest, ReadSyscallDoesDiskThenBufferCacheHit)
{
    spawn([](Process &p, UserScript &s) {
        if (p.userChunks == 0) {
            s.syscall(Sys::Read, ioPayload(42, 4096, 0));
            s.syscall(Sys::Read, ioPayload(42, 4096, 0));
        }
        s.think(64);
    });
    m->run(2000000);
    // First read goes to disk; the second hits the buffer cache.
    EXPECT_EQ(k->diskRequests(), 1u);
    EXPECT_GT(k->osOpCounts().count[unsigned(OsOp::IoSyscall)], 1u);
}

TEST_F(KernelTest, SyncWriteSleepsOnDisk)
{
    spawn([](Process &p, UserScript &s) {
        if (p.userChunks == 0)
            s.syscall(Sys::Write, ioPayload(43, 2048, 0, true));
        s.think(64);
    });
    m->run(2000000);
    EXPECT_GE(k->diskRequests(), 1u);
    EXPECT_GT(m->totalAccount().idle(), 0u); // CPU idled while waiting
}

TEST_F(KernelTest, ForkCreatesRunnableChildWithCow)
{
    const Pid parent = spawn([](Process &p, UserScript &s) {
        if (p.userChunks == 2)
            s.syscall(Sys::Fork);
        s.store(VaMap::dataBase); // private writable page
        s.think(32);
    });
    m->run(2000000);
    EXPECT_EQ(client.forks, 1);
    EXPECT_GE(k->forks(), 1u);
    // The parent's private page became COW at fork and must have been
    // broken by a later store.
    Process &pp = k->process(parent);
    Pte *pte = pp.findPte(VaMap::dataBase / 4096);
    ASSERT_NE(pte, nullptr);
    EXPECT_FALSE(pte->cow);
    EXPECT_TRUE(pte->writable);
}

TEST_F(KernelTest, ExitMakesSlotReusable)
{
    spawn([](Process &p, UserScript &s) {
        if (p.userChunks == 1) {
            s.syscall(Sys::Exit);
            return;
        }
        s.think(32);
    });
    m->run(1000000);
    EXPECT_EQ(k->exits(), 1u);
    EXPECT_EQ(client.exits, 1);
    // All slots free again (zombie reaped at its final resched).
    uint32_t busy = 0;
    for (uint32_t i = 0; i < k->maxProcs(); ++i)
        busy += k->process(Pid(i)).state != ProcState::Free;
    EXPECT_EQ(busy, 0u);
}

TEST_F(KernelTest, WaitBlocksUntilChildExits)
{
    client.childFn = [](Process &p, UserScript &s) {
        if (p.userChunks == 3) {
            s.syscall(Sys::Exit);
            return;
        }
        s.think(64);
    };
    spawn([](Process &p, UserScript &s) {
        if (p.userChunks == 0) {
            s.syscall(Sys::Fork);
            s.syscall(Sys::Wait);
        }
        s.think(32);
    });
    m->run(2000000);
    EXPECT_EQ(k->exits(), 1u);
    // Parent survived the wait and kept running.
    EXPECT_GT(m->totalAccount().user(), 0u);
}

TEST_F(KernelTest, ExecSwitchesImageAndFreesPages)
{
    const uint32_t img2 = k->registerImage("other", 16 * 1024);
    const Pid pid = spawn([img2](Process &p, UserScript &s) {
        if (p.userChunks == 2) {
            s.syscall(Sys::Exec, img2);
            return;
        }
        s.store(VaMap::dataBase + (p.userChunks % 8) * 4096);
        s.think(32);
    });
    m->run(2000000);
    EXPECT_EQ(k->process(pid).imageId, img2);
}

TEST_F(KernelTest, KernelLockContentionSpinsAndResolves)
{
    // Drive the lock markers directly on both CPUs.
    m->cpu(0).push(ScriptItem::mark(MarkerOp::LockAcquire, Memlock));
    m->cpu(0).push(ScriptItem::think(500));
    m->cpu(0).push(ScriptItem::mark(MarkerOp::LockRelease, Memlock));
    m->cpu(1).push(ScriptItem::mark(MarkerOp::LockAcquire, Memlock));
    m->cpu(1).push(ScriptItem::think(10));
    m->cpu(1).push(ScriptItem::mark(MarkerOp::LockRelease, Memlock));
    m->run(2000);
    EXPECT_EQ(k->lockState(Memlock).heldByCpu, -1);
    EXPECT_EQ(k->lockState(Memlock).spinMask, 0u);
}

TEST_F(KernelTest, TtyReadBlocksUntilTypistBurst)
{
    kcfg.layout.maxProcs = 16;
    const uint32_t tty = k->registerTty(50000);
    spawn([tty](Process &, UserScript &s) {
        s.syscall(Sys::Read,
                  ioPayload(Kernel::ttyFileId(tty), 64, 1));
        s.think(128);
    });
    m->run(1000000);
    // The reader made progress only because tty interrupts woke it.
    EXPECT_GT(m->totalAccount().user(), 0u);
    EXPECT_GT(k->osOpCounts().count[unsigned(OsOp::Interrupt)], 2u);
}

TEST_F(KernelTest, ClockInterruptsTickEvenWhenIdle)
{
    m->run(mcfg.clockTickCycles * 3);
    EXPECT_GT(k->osOpCounts().count[unsigned(OsOp::Interrupt)], 2u);
}

TEST_F(KernelTest, QuantumPreemptionRotatesHogs)
{
    spawn(busyLoop(), "hog1");
    spawn(busyLoop(), "hog2");
    spawn(busyLoop(), "hog3"); // 3 hogs, 2 CPUs
    m->run(mcfg.clockTickCycles * 8);
    EXPECT_GT(k->contextSwitches(), 2u);
    // Every hog made progress.
    for (Pid pid = 0; pid < 3; ++pid)
        EXPECT_GT(k->process(pid).totalRan, 0u);
}

TEST_F(KernelTest, BlockOpsAreRecorded)
{
    spawn([](Process &p, UserScript &s) {
        if (p.userChunks == 0)
            s.syscall(Sys::Read, ioPayload(77, 8192, 0));
        s.store(VaMap::dataBase + (p.userChunks % 4) * 4096);
        s.think(32);
    });
    m->run(2000000);
    const auto &bo = k->blockOps();
    EXPECT_GT(bo.totalInvocations(BlockKind::Copy), 0u);
    EXPECT_GT(bo.totalInvocations(BlockKind::Clear), 0u);
}

TEST_F(KernelTest, PageRefcountConservation)
{
    // Fork/exit churn with COW must neither leak nor double-free.
    client.childFn = [](Process &p, UserScript &s) {
        s.store(VaMap::dataBase + (p.userChunks % 3) * 4096);
        if (p.userChunks == 4) {
            s.syscall(Sys::Exit);
            return;
        }
        s.think(16);
    };
    spawn([](Process &p, UserScript &s) {
        if (p.userChunks % 8 == 3)
            s.syscall(Sys::Fork);
        s.store(VaMap::dataBase + (p.userChunks % 3) * 4096);
        s.think(16);
    });
    m->run(4000000);
    EXPECT_GT(k->forks(), 3u);
    EXPECT_GT(k->exits(), 2u);
    EXPECT_GT(k->freePageCount(), 0u);
}

TEST_F(KernelTest, MigrationHappensAcrossCpus)
{
    for (int i = 0; i < 5; ++i)
        spawn(busyLoop());
    m->run(mcfg.clockTickCycles * 10);
    EXPECT_GT(k->migrations(), 0u);
}

/** Run fn and require a typed ResourceExhausted naming `what`. */
void
expectExhausted(const std::function<void()> &fn, const char *what)
{
    try {
        fn();
        ADD_FAILURE() << "no ResourceExhausted for " << what;
    } catch (const util::SimError &e) {
        EXPECT_EQ(e.code(), util::ErrCode::ResourceExhausted);
        EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
            << e.what();
    }
}

TEST_F(KernelTest, SpawnPastMaxProcsRaisesResourceExhausted)
{
    for (uint32_t i = 0; i < kcfg.layout.maxProcs; ++i)
        spawn(busyLoop(), "p" + std::to_string(i));
    expectExhausted([&] { spawn(busyLoop(), "one-too-many"); },
                    "no free process slots for spawn('one-too-many')");
}

TEST_F(KernelTest, AllocUserLockPastMaxUserLocksRaisesResourceExhausted)
{
    for (uint32_t i = 0; i < kcfg.maxUserLocks; ++i)
        k->allocUserLock();
    expectExhausted([&] { k->allocUserLock(); },
                    "out of user lock slots");
}

TEST_F(KernelTest, ShmAllocPastFreePagesRaisesResourceExhausted)
{
    const uint64_t pages = k->freePageCount();
    ASSERT_GT(pages, 0u);
    expectExhausted(
        [&] { k->shmAlloc((pages + 1) * kcfg.layout.pageBytes); },
        "out of physical memory in shmAlloc");
}

TEST_F(KernelTest, InterruptsDeferredWhileKernelLockHeld)
{
    // While a CPU holds a kernel lock it is in kernel mode, so event
    // polls never interleave an interrupt path into the middle of a
    // critical section; verify the lock survives several clock ticks.
    m->cpu(0).ctx.mode = ExecMode::Kernel;
    m->cpu(0).push(ScriptItem::mark(MarkerOp::LockAcquire, Runqlk));
    m->cpu(0).push(ScriptItem::think(mcfg.clockTickCycles * 2));
    m->cpu(0).push(ScriptItem::mark(MarkerOp::LockRelease, Runqlk));
    m->run(mcfg.clockTickCycles * 2 + 1000);
    EXPECT_EQ(k->lockState(Runqlk).heldByCpu, -1);
}

namespace
{

/** A codec for kernels with no processes: never asked to do anything. */
struct NoBehaviors : BehaviorCodec
{
    void save(util::ByteWriter &, const AppBehavior &) const override {}
    std::unique_ptr<AppBehavior>
    load(util::ByteReader &) const override
    {
        return nullptr;
    }
};

} // namespace

TEST(KernelSnapshot, RestoreRejectsWaitQueueEntryBeyondCpus)
{
    // Three CPUs contend for an MCS Memlock: CPU 0 holds it, CPUs 1
    // and 2 wait in its queue when the kernel is saved.
    sim::MachineConfig mcfg;
    mcfg.numCpus = 3;
    mcfg.lockPolicy = sim::LockPolicy::Mcs;
    KernelConfig kcfg;
    kcfg.layout.maxProcs = 16;
    kcfg.userPoolPages = 600;
    sim::Machine m(mcfg, 128);
    Kernel k(m, kcfg);
    for (sim::CpuId c = 0; c < 3; ++c) {
        m.cpu(c).push(ScriptItem::think(1 + 50 * c));
        m.cpu(c).push(ScriptItem::mark(MarkerOp::LockAcquire, Memlock));
        m.cpu(c).push(ScriptItem::think(2000));
        m.cpu(c).push(ScriptItem::mark(MarkerOp::LockRelease, Memlock));
    }
    m.run(600);
    const LockState &held = k.lockState(Memlock);
    ASSERT_EQ(held.heldByCpu, 0);
    ASSERT_EQ(held.waitQueue, (std::vector<uint32_t>{1, 2}));

    const NoBehaviors codec;
    util::ByteWriter w;
    k.saveState(w, codec);
    std::vector<uint8_t> image = w.take();

    // The lock table opens with its size and then Memlock (id 0):
    // holder, spinners, nappers, ticket pair, grantee, queue, readers.
    util::ByteWriter pw;
    pw.u32(k.numLocks());
    pw.i64(0);
    pw.u64(held.spinMask);
    pw.u32(0);
    pw.u32(0);
    pw.u32(0);
    pw.i64(-1);
    pw.u32(2);
    pw.u32(1);
    pw.u32(2);
    const std::vector<uint8_t> pattern = pw.take();
    const auto at = std::search(image.begin(), image.end(),
                                pattern.begin(), pattern.end());
    ASSERT_NE(at, image.end()) << "lock table not found in the image";
    const size_t entry = size_t(at - image.begin()) + pattern.size() - 8;

    {
        // The pristine image restores.
        sim::Machine m2(mcfg, 128);
        Kernel k2(m2, kcfg);
        util::ByteReader r(image);
        k2.restoreState(r, codec);
        EXPECT_EQ(k2.lockState(Memlock).waitQueue, held.waitQueue);
    }

    // Queue entry 64 would later be an MCS hand-off peer, i.e. a shift
    // by 64 in the transport's masks.
    image[entry] = 64;
    sim::Machine m3(mcfg, 128);
    Kernel k3(m3, kcfg);
    util::ByteReader r(image);
    try {
        k3.restoreState(r, codec);
        FAIL() << "queue entry 64 on a 3-CPU machine was accepted";
    } catch (const util::SimError &e) {
        EXPECT_EQ(e.code(), util::ErrCode::SnapshotCorrupt) << e.what();
    }
}
