/**
 * @file
 * Idle-CPU parking: one test per wake path.
 *
 * A CPU whose script runs dry is refilled with a declared spin chunk
 * (two instruction fetches, a load of the spin line, and the idle
 * loop's two markers). Once every reference of the chunk hits, the
 * fast scheduler parks the CPU. Each test drives one way of ending a
 * park and requires the whole machine state -- the snapshot image,
 * which holds every CPU's script position, busyUntil, cycle account,
 * poll schedule and cache ranks -- and the bus transaction log to
 * match the reference scheduler, which never parks.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "sim/machine.hh"
#include "util/binio.hh"
#include "util/error.hh"

using namespace mpos;
using namespace mpos::sim;

namespace
{

constexpr Addr spinLine = 0x1000;
// Distinct L1/L2 sets from the spin line and from each other.
constexpr Addr otherLine = 0x3040;
constexpr Addr jobLine = 0x5080;
constexpr Addr clockLine = 0x70c0;
constexpr Addr eventLine = 0x9100;
constexpr Cycle never = ~Cycle(0);
/** Custom marker args: the executor's wake call, and scheduling a
 *  global event arg2 cycles ahead. */
constexpr uint64_t wakeCall = 1;
constexpr uint64_t scheduleCall = 2;

MachineConfig
smallConfig(bool slow)
{
    MachineConfig cfg;
    cfg.numCpus = 2;
    cfg.icacheBytes = 4096;
    cfg.l1dBytes = 2048;
    cfg.l2dBytes = 4096;
    cfg.memBytes = 1ULL * 1024 * 1024;
    cfg.tlbEntries = 16;
    cfg.slowSim = slow;
    // Every wake path must also be invariant-clean.
    cfg.check = true;
    return cfg;
}

/**
 * Spins every dry CPU on the idle-loop shaped chunk. A Custom marker
 * is the executor's wake call: it queues one job, which the next
 * IdlePoll of any CPU picks up. Another Custom marker schedules a
 * global event, which the first CPU to poll after it takes. An
 * optional per-CPU clock delivers a store through pollEvents. Both
 * feed nextEventAt(), the park deadline.
 */
struct SpinExecutor : Executor
{
    explicit SpinExecutor(Machine &machine)
        : m(machine), refills(machine.numCpus(), 0),
          clock(machine.numCpus(), never)
    {
        chunk = {ScriptItem::mark(MarkerOp::RoutineEnter, 1),
                 ScriptItem::ifetch(0x80000),
                 ScriptItem::ifetch(0x80010),
                 ScriptItem::load(spinLine + 4),
                 ScriptItem::mark(MarkerOp::IdlePoll)};
    }

    Machine &m;
    std::vector<ScriptItem> chunk;
    std::vector<uint64_t> refills;
    std::vector<Cycle> clock;
    Cycle clockPeriod = 1000;
    Cycle eventAt = never;
    uint32_t jobs = 0;
    std::vector<std::string> log;

    void
    note(const char *what, CpuId cpu)
    {
        log.push_back(std::string(what) + " cpu" + std::to_string(cpu) +
                      " @" + std::to_string(m.now()));
    }

    void
    refill(CpuId cpu) override
    {
        ++refills[cpu];
        m.cpu(cpu).pushSeq(chunk);
        declareSpin(chunk);
    }

    void
    marker(CpuId cpu, const ScriptItem &item) override
    {
        if (item.marker == MarkerOp::IdlePoll && jobs > 0) {
            --jobs;
            note("job", cpu);
            m.cpu(cpu).push(ScriptItem::store(jobLine));
        } else if (item.marker == MarkerOp::Custom &&
                   item.addr == wakeCall) {
            ++jobs;
            note("wake", cpu);
            m.wakeParked();
        } else if (item.marker == MarkerOp::Custom &&
                   item.addr == scheduleCall) {
            eventAt = m.now() + item.arg2;
            note("schedule", cpu);
            m.wakeParkedAfter(eventAt);
        } else if (item.marker == MarkerOp::InvalICache) {
            note("flush", cpu);
            m.memory().flushICachesForPage(0);
        }
    }

    void
    fault(CpuId, Addr, bool, bool) override
    {
        ADD_FAILURE() << "no virtual references in these scripts";
    }

    void
    pollEvents(CpuId cpu, Cycle now) override
    {
        if (now >= clock[cpu]) {
            clock[cpu] += clockPeriod;
            note("tick", cpu);
            m.cpu(cpu).pushFront(ScriptItem::store(clockLine));
        } else if (now >= eventAt) {
            eventAt = never;
            note("event", cpu);
            m.cpu(cpu).pushFront(ScriptItem::store(eventLine));
        }
    }

    Cycle
    nextEventAt(CpuId cpu) const override
    {
        return std::min(clock[cpu], eventAt);
    }
};

/** Bus transactions, flattened for comparison. */
struct BusLog : MonitorObserver
{
    std::vector<std::string> tx;

    void
    busTransaction(const BusRecord &r) override
    {
        char buf[96];
        std::snprintf(buf, sizeof buf, "@%llu cpu%u %llx op%u",
                      (unsigned long long)r.cycle, r.cpu,
                      (unsigned long long)r.lineAddr, unsigned(r.op));
        tx.emplace_back(buf);
    }

    /** True if cpu put a transaction for line on the bus at or
     *  after cycle from. */
    bool
    has(CpuId cpu, Addr line, Cycle from) const
    {
        for (const std::string &t : tx) {
            unsigned long long at = 0, addr = 0;
            unsigned c = 0, op = 0;
            std::sscanf(t.c_str(), "@%llu cpu%u %llx op%u", &at, &c,
                        &addr, &op);
            if (c == cpu && addr == line && at >= from)
                return true;
        }
        return false;
    }
};

/** One machine with the spin executor and a bus log attached. */
struct Rig
{
    explicit Rig(const MachineConfig &cfg) : m(cfg, 8), ex(m)
    {
        m.setExecutor(&ex);
        m.monitor().attach(&bus);
    }

    std::vector<uint8_t>
    state() const
    {
        util::ByteWriter w;
        m.saveState(w);
        return w.take();
    }

    Machine m;
    SpinExecutor ex;
    BusLog bus;
};

/** Run the same setup under both schedulers; the fast rig parked. */
void
expectSameAsReference(Rig &fast, Rig &slow, Cycle cycles)
{
    fast.m.run(cycles);
    slow.m.run(cycles);
    EXPECT_GT(fast.m.parkedCycles(), 0u);
    EXPECT_EQ(slow.m.parkedCycles(), 0u);
    EXPECT_EQ(fast.state(), slow.state());
    EXPECT_EQ(fast.bus.tx, slow.bus.tx);
    EXPECT_EQ(fast.ex.log, slow.ex.log);
}

/** CPU `other` thinks for `delay` cycles, then runs `tail`. */
void
program(Rig &r, CpuId other, Cycle delay,
        const std::vector<ScriptItem> &tail)
{
    Cpu &c = r.m.cpu(other);
    c.push(ScriptItem::think(delay));
    c.pushSeq(tail);
    c.push(ScriptItem::think(100000));
}

/**
 * Sweep the disturbing action over two spin periods past the point
 * where the spinner parks, so it lands on every phase of the spin,
 * including the spinner's own activation cycles.
 */
template <typename Fn>
void
sweep(Fn &&fn)
{
    for (Cycle delay = 300; delay < 300 + 20; ++delay) {
        SCOPED_TRACE("delay " + std::to_string(delay));
        fn(delay);
    }
}

} // namespace

TEST(Park, RemoteStoreToSpinLineWakesLowerCpu)
{
    // Spinner 0 < storer 1: a store at cycle t follows the spinner's
    // activation at t, which must still hit.
    sweep([](Cycle delay) {
        Rig fast(smallConfig(false)), slow(smallConfig(true));
        for (Rig *r : {&fast, &slow})
            program(*r, 1, delay, {ScriptItem::store(spinLine)});
        expectSameAsReference(fast, slow, 2000);
        EXPECT_TRUE(fast.bus.has(0, spinLine, delay));
        EXPECT_GT(fast.ex.refills[0], 2u);
    });
}

TEST(Park, RemoteStoreToSpinLineWakesHigherCpu)
{
    // Spinner 1 > storer 0: the spinner's activation at the store's
    // cycle must already miss.
    sweep([](Cycle delay) {
        Rig fast(smallConfig(false)), slow(smallConfig(true));
        for (Rig *r : {&fast, &slow})
            program(*r, 0, delay, {ScriptItem::store(spinLine)});
        expectSameAsReference(fast, slow, 2000);
        EXPECT_TRUE(fast.bus.has(1, spinLine, delay));
        EXPECT_GT(fast.ex.refills[1], 2u);
    });
}

TEST(Park, StoreToUnrelatedResidentLineDoesNotWake)
{
    Rig quiet(smallConfig(false));
    program(quiet, 1, 300, {});
    quiet.m.run(2000);

    Rig fast(smallConfig(false)), slow(smallConfig(true));
    for (Rig *r : {&fast, &slow}) {
        // The spinner holds otherLine in its caches before it spins.
        r->m.cpu(0).push(ScriptItem::load(otherLine));
        program(*r, 1, 300, {ScriptItem::store(otherLine)});
    }
    expectSameAsReference(fast, slow, 2000);
    // One dry refill, one that parked, none after: the invalidation
    // left the spin running.
    EXPECT_EQ(quiet.ex.refills[0], 2u);
    EXPECT_EQ(fast.ex.refills[0], quiet.ex.refills[0]);
}

TEST(Park, ICacheFlushWakes)
{
    sweep([](Cycle delay) {
        Rig fast(smallConfig(false)), slow(smallConfig(true));
        for (Rig *r : {&fast, &slow})
            program(*r, 1, delay,
                    {ScriptItem::mark(MarkerOp::InvalICache)});
        expectSameAsReference(fast, slow, 2000);
        EXPECT_TRUE(fast.bus.has(0, 0x80000, delay));
    });
}

TEST(Park, ExecutorWakeCallWakes)
{
    sweep([](Cycle delay) {
        Rig fast(smallConfig(false)), slow(smallConfig(true));
        for (Rig *r : {&fast, &slow})
            program(*r, 1, delay,
                    {ScriptItem::mark(MarkerOp::Custom, wakeCall)});
        expectSameAsReference(fast, slow, 2000);
        EXPECT_TRUE(fast.bus.has(0, jobLine, delay));
    });
}

TEST(Park, ClockDeadlineWakes)
{
    for (Cycle first = 400; first < 420; ++first) {
        SCOPED_TRACE("first tick " + std::to_string(first));
        Rig fast(smallConfig(false)), slow(smallConfig(true));
        for (Rig *r : {&fast, &slow}) {
            r->ex.clock[0] = first;
            program(*r, 1, 300, {});
        }
        expectSameAsReference(fast, slow, 5000);
        EXPECT_TRUE(fast.bus.has(0, clockLine, first));
        EXPECT_EQ(fast.ex.log.size(), 5u); // ticks at first + k * 1000
    }
}

TEST(Park, EarlierGlobalEventWakes)
{
    // CPU 1 schedules an event while CPU 0 is parked with no deadline;
    // CPU 0's polls must take it, CPU 1 thinks through its own.
    sweep([](Cycle delay) {
        Rig fast(smallConfig(false)), slow(smallConfig(true));
        for (Rig *r : {&fast, &slow})
            program(*r, 1, delay,
                    {ScriptItem::mark(MarkerOp::Custom, scheduleCall,
                                      50)});
        expectSameAsReference(fast, slow, 2000);
        EXPECT_TRUE(fast.bus.has(0, eventLine, delay + 50));
    });
}

TEST(Park, AssociativeRanksMatchAfterPark)
{
    // Two-way I-cache and L1: the spinner parks on its first refill
    // with a conflicting line more recent than a spin line in each
    // set. The spin makes its lines the more recent ones; unparking
    // must leave the ranks the reference run's touches leave.
    const auto assoc = [](bool slow) {
        MachineConfig cfg = smallConfig(slow);
        cfg.icacheAssoc = 2;
        cfg.l1dAssoc = 2;
        return cfg;
    };
    for (Cycle end = 400; end < 420; ++end) {
        SCOPED_TRACE("run length " + std::to_string(end));
        Rig fast(assoc(false)), slow(assoc(true));
        for (Rig *r : {&fast, &slow}) {
            Cpu &c = r->m.cpu(0);
            c.push(ScriptItem::ifetch(0x80000));
            c.push(ScriptItem::ifetch(0x80010));
            c.push(ScriptItem::load(spinLine));
            c.push(ScriptItem::load(spinLine + 0x400));  // same L1 set
            c.push(ScriptItem::ifetch(0x80800));         // same I set
            program(*r, 1, 300, {});
        }
        expectSameAsReference(fast, slow, end);
        EXPECT_EQ(fast.ex.refills[0], 1u); // parked on the first one
    }
}

TEST(Park, RunEndingMidParkLeavesCpuUpToDate)
{
    for (Cycle end = 400; end < 420; ++end) {
        SCOPED_TRACE("run length " + std::to_string(end));
        Rig fast(smallConfig(false)), slow(smallConfig(true));
        for (Rig *r : {&fast, &slow})
            program(*r, 1, 300, {});
        expectSameAsReference(fast, slow, end);
        // Two runs equal one: the next run picks the spin up exactly.
        fast.m.run(777);
        slow.m.run(777);
        EXPECT_EQ(fast.state(), slow.state());
    }
}

TEST(Park, SnapshotMidIdleMatchesUninterruptedRun)
{
    for (Cycle cut = 400; cut < 420; ++cut) {
        SCOPED_TRACE("cut at " + std::to_string(cut));
        Rig whole(smallConfig(false)), first(smallConfig(false));
        for (Rig *r : {&whole, &first})
            program(*r, 1, 300, {ScriptItem::store(spinLine)});
        whole.m.run(3000);

        first.m.run(cut);
        util::ByteWriter w;
        first.m.saveState(w);
        Rig second(smallConfig(false));
        util::ByteReader rd(w.bytes());
        second.m.restoreState(rd);
        second.m.run(3000 - cut);
        EXPECT_EQ(second.state(), whole.state());
        EXPECT_GT(first.m.parkedCycles() + second.m.parkedCycles(), 0u);
    }
}

TEST(Park, WatchdogDoesNotTripDuringLongPark)
{
    for (bool slow : {false, true}) {
        MachineConfig cfg = smallConfig(slow);
        cfg.watchdogCycles = 5000;
        Rig r(cfg);
        // CPU 1 only thinks, which is not progress: the spinner's
        // hits are the only progress there is.
        for (int i = 0; i < 3000; ++i)
            r.m.cpu(1).push(ScriptItem::think(100));
        EXPECT_NO_THROW(r.m.run(200000));
        if (!slow) {
            EXPECT_GT(r.m.parkedCycles(), 190000u);
        }
    }
}

TEST(Park, WatchdogDumpSeesParkedCpuUpToDate)
{
    MachineConfig cfg = smallConfig(false);
    cfg.watchdogCycles = 1000000;
    Rig r(cfg);
    program(r, 1, 300, {});
    r.m.watchdog()->forceTripAt(5000);
    std::string dump;
    try {
        r.m.run(200000);
    } catch (const util::SimError &e) {
        dump = e.what();
    }
    ASSERT_FALSE(dump.empty()) << "the synthetic trip did not fire";
    EXPECT_GT(r.m.parkedCycles(), 0u);
    // The trip unparked the spinner before the dump rendered it.
    const Cpu &c = r.m.cpu(0);
    const std::string line =
        "busyUntil=" + std::to_string(c.busyUntil) +
        " intrDisable=0 queued=" + std::to_string(c.script.size());
    EXPECT_NE(dump.find(line), std::string::npos) << dump;
}

TEST(Park, EnvironmentDoesNotSwitchTheMachine)
{
    // MachineConfig is the only switch of the machine: a mode the
    // config does not show would let a faulted or reference-mode warm
    // image be stored under a clean run's key. ctest runs each test in
    // its own process, so no earlier machine has read the environment.
    const char *names[] = {"MPOS_SLOW_SIM", "MPOS_CHECK",
                           "MPOS_WATCHDOG", "MPOS_FAULTS",
                           "MPOS_TRACE",    "MPOS_TRACE_RING",
                           "MPOS_METRICS",  "MPOS_PROFILE"};
    for (const char *name : names)
        setenv(name, "5", 1);
    Rig r{MachineConfig{}};
    EXPECT_EQ(r.m.checker(), nullptr);
    EXPECT_EQ(r.m.watchdog(), nullptr);
    EXPECT_EQ(r.m.faults(), nullptr);
    EXPECT_EQ(r.m.tracer(), nullptr);
    EXPECT_EQ(r.m.metrics(), nullptr);
    EXPECT_EQ(r.m.profiler(), nullptr);
    r.m.run(2000);
    EXPECT_GT(r.m.parkedCycles(), 0u);
    for (const char *name : names)
        unsetenv(name);
}
