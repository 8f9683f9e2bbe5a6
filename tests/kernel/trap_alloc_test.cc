/**
 * @file
 * The kernel's hottest entries allocate nothing once warm: a pure UTLB
 * refill through Kernel::fault and a clock interrupt through
 * pollEvents build their scripts in the kernel's reused path buffer.
 *
 * This binary replaces the global operator new with a counting one, so
 * it holds only this test: no other suite runs under the counter.
 */

#include <cstdlib>
#include <memory>
#include <new>

#include <gtest/gtest.h>

#include "kernel/kernel.hh"
#include "sim/machine.hh"

namespace
{
/** Calls of the global operator new in this process. */
uint64_t allocations = 0;
} // namespace

void *
operator new(std::size_t n)
{
    ++allocations;
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void operator delete(void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }

using namespace mpos;
using namespace mpos::kernel;

namespace
{

/** Loads from a few data pages, so the process maps them. */
struct TouchData : AppBehavior
{
    void
    chunk(Process &, UserScript &s) override
    {
        s.ifetch(VaMap::textBase);
        for (Addr page = 0; page < 4; ++page)
            s.load(VaMap::dataBase + page * 4096);
    }
};

/** First resident page of p, or 0 if none is mapped yet. */
Addr
mappedPage(const Process &p)
{
    for (const auto &[vpage, pte] : p.pageTable)
        if (pte.present)
            return vpage;
    return 0;
}

} // namespace

TEST(TrapAllocations, UtlbRefillAndClockInterruptAllocateNothing)
{
    sim::MachineConfig mcfg;
    mcfg.numCpus = 1;
    sim::Machine m(mcfg, 128);
    KernelConfig kcfg;
    kcfg.layout.maxProcs = 8;
    Kernel k(m, kcfg);
    const uint32_t img = k.registerImage("app", 16 * 1024);
    const Pid pid = k.spawn(std::make_unique<TouchData>(), img, "touch");

    // Run until the process is on the CPU with a page mapped.
    for (int i = 0; i < 100; ++i) {
        if (k.runningOn(0) == pid && mappedPage(k.process(pid)))
            break;
        m.run(10000);
    }
    ASSERT_EQ(k.runningOn(0), pid);
    const Addr vpage = mappedPage(k.process(pid));
    ASSERT_NE(vpage, 0u);

    // Each call prepends its script to the CPU; pop it again so the
    // queue never has to grow.
    sim::ScriptQueue &q = m.cpu(0).script;
    const auto popPushed = [&q](uint64_t before) {
        const uint64_t pushed = q.size() - before;
        for (uint64_t i = 0; i < pushed; ++i)
            q.pop_front();
        return pushed;
    };
    const auto refill = [&] {
        const uint64_t before = q.size();
        k.fault(0, vpage * mcfg.pageBytes, false, false);
        return popPushed(before);
    };
    const auto clockTick = [&] {
        const uint64_t before = q.size();
        k.pollEvents(0, k.nextEventAt(0));
        return popPushed(before);
    };

    // Warm-up: the first use of each path may size the buffers.
    const uint64_t utlbFaults = k.utlbFaults();
    ASSERT_GT(refill(), 0u);
    ASSERT_GT(clockTick(), 0u);

    const uint64_t before = allocations;
    for (int i = 0; i < 64; ++i)
        refill();
    EXPECT_EQ(allocations - before, 0u) << "per UTLB refill";
    EXPECT_EQ(k.utlbFaults(), utlbFaults + 65);

    const uint64_t beforeClock = allocations;
    for (int i = 0; i < 8; ++i)
        clockTick();
    EXPECT_EQ(allocations - beforeClock, 0u) << "per clock interrupt";
}
