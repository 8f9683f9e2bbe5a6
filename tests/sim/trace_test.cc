/** @file Trace exporter, event ring, and watchdog-ring unification.
 *
 *  The contracts under test: the EventRing keeps exactly the last
 *  `capacity` events in order; every line of the JSONL trace is valid
 *  JSON; ring mode writes only the final ring contents; the
 *  watchdog's diagnostic dump renders the tail of the *same* ring the
 *  tracer fills, as the same JSONL lines (one buffer, two consumers);
 *  the whole layer is a null pointer unless enabled; and a pinned
 *  configuration produces a byte-identical JSONL trace against the
 *  committed golden file.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "core/experiment.hh"
#include "kernel/kernel.hh"
#include "sim/machine.hh"
#include "sim/trace/trace.hh"
#include "util/error.hh"
#include "util/json.hh"
#include "temp_path.hh"

using namespace mpos;
using namespace mpos::sim;
using namespace mpos::sim::trace;

namespace
{

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << "cannot open " << path;
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

uint64_t
lineCount(const std::string &text)
{
    uint64_t n = 0;
    for (char c : text)
        if (c == '\n')
            ++n;
    return n;
}

/** Run a small kernel-driven machine with the given trace config. */
void
runTraced(MachineConfig &mcfg, Cycle cycles)
{
    Machine m(mcfg, 128);
    kernel::KernelConfig kcfg;
    kcfg.layout.maxProcs = 16;
    kcfg.userPoolPages = 600;
    kernel::Kernel k(m, kcfg);
    m.run(cycles);
    ASSERT_NE(m.tracer(), nullptr);
    m.tracer()->finish();
}

/** Run a short traced Pmake experiment (real bus traffic). */
std::unique_ptr<core::Experiment>
runTracedWorkload(const std::string &trace_path, uint64_t ring_entries,
                  bool ring_mode)
{
    core::ExperimentConfig cfg;
    cfg.kind = workload::WorkloadKind::Pmake;
    cfg.warmupCycles = 20000;
    cfg.measureCycles = 60000;
    cfg.options.seed = 7;
    cfg.machine.trace = true;
    cfg.machine.traceFile = trace_path;
    cfg.machine.traceRingEntries = ring_entries;
    cfg.machine.traceRingMode = ring_mode;
    auto e = std::make_unique<core::Experiment>(cfg);
    e->run(); // finishes (and closes) the trace
    return e;
}

} // namespace

TEST(EventRing, KeepsLastCapacityEventsInOrder)
{
    EventRing ring(4);
    EXPECT_EQ(ring.capacity(), 4u);
    EXPECT_EQ(ring.size(), 0u);

    for (uint64_t i = 0; i < 10; ++i) {
        TraceEvent ev;
        ev.cycle = i;
        ring.push(ev);
    }
    EXPECT_EQ(ring.total(), 10u);
    EXPECT_EQ(ring.size(), 4u);
    // Oldest-first tail: cycles 6, 7, 8, 9.
    for (uint64_t i = 0; i < 4; ++i)
        EXPECT_EQ(ring.tail(i).cycle, 6 + i);
}

TEST(EventRing, PartiallyFilled)
{
    EventRing ring(8);
    TraceEvent ev;
    ev.cycle = 42;
    ring.push(ev);
    EXPECT_EQ(ring.total(), 1u);
    EXPECT_EQ(ring.size(), 1u);
    EXPECT_EQ(ring.tail(0).cycle, 42u);
}

TEST(Trace, OffByDefault)
{
    MachineConfig cfg;
    Machine m(cfg, 8);
    EXPECT_EQ(m.tracer(), nullptr);
    EXPECT_EQ(m.metrics(), nullptr);
    EXPECT_EQ(m.profiler(), nullptr);
}

TEST(Trace, StreamedTraceConvertsToValidJsonl)
{
    const test::TempPath jsonl("stream.jsonl", test::TempPath::File);

    runTracedWorkload(jsonl.path, 4096, false);

    const std::string text = slurp(jsonl.path);
    const uint64_t lines = lineCount(text);
    EXPECT_GT(lines, 100u); // a real run produces real traffic

    // Every line is a standalone valid JSON object.
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line)) {
        size_t at = 0;
        std::string why;
        EXPECT_TRUE(util::jsonValidate(line, &at, &why))
            << line << "\n  at byte " << at << ": " << why;
        EXPECT_EQ(line.front(), '{');
    }
}

TEST(Trace, StreamingWritesEveryEvent)
{
    const test::TempPath jsonl("count.jsonl", test::TempPath::File);

    // Ring far smaller than the event count of a real workload.
    auto e = runTracedWorkload(jsonl.path, 64, false);
    const uint64_t total = e->machine().tracer()->totalEvents();
    ASSERT_GT(total, 64u);

    // Streaming mode: the file holds all events, not just the ring.
    EXPECT_EQ(lineCount(slurp(jsonl.path)), total);
}

TEST(Trace, RingModeWritesOnlyFinalRingContents)
{
    const test::TempPath jsonl("ring.jsonl", test::TempPath::File);

    auto e = runTracedWorkload(jsonl.path, 64, true);
    const Tracer &tr = *e->machine().tracer();
    const uint64_t total = tr.totalEvents();
    const Cycle lastRingCycle = tr.ring().tail(tr.ring().size() - 1).cycle;
    ASSERT_GT(total, 64u);

    const std::string text = slurp(jsonl.path);
    EXPECT_EQ(lineCount(text), 64u);
    // The last emitted event is the last ring entry.
    char want[64];
    std::snprintf(want, sizeof want, "\"cycle\":%llu",
                  (unsigned long long)lastRingCycle);
    EXPECT_NE(text.rfind(want), std::string::npos);
}

TEST(Trace, IdenticalRunsProduceIdenticalTraces)
{
    const test::TempPath a("det_a.jsonl", test::TempPath::File);
    const test::TempPath b("det_b.jsonl", test::TempPath::File);

    for (const std::string &path : {a.path, b.path}) {
        MachineConfig cfg;
        cfg.numCpus = 2;
        cfg.trace = true;
        cfg.traceFile = path;
        cfg.traceRingEntries = 256;
        runTraced(cfg, 80000);
    }
    EXPECT_EQ(slurp(a.path), slurp(b.path)); // byte-identical
}

// ------------------------------------------------------------------ //
// Watchdog / trace ring unification                                  //
// ------------------------------------------------------------------ //

TEST(Trace, WatchdogAloneGetsRingOnlyTracer)
{
    // The watchdog's event history comes from the shared ring, so
    // enabling the watchdog materializes a small file-less tracer.
    MachineConfig cfg;
    cfg.numCpus = 2;
    cfg.watchdogCycles = 5000;
    Machine m(cfg, 8);
    ASSERT_NE(m.watchdog(), nullptr);
    ASSERT_NE(m.tracer(), nullptr);
    EXPECT_EQ(m.tracer()->ring().capacity(), 32u);
}

TEST(Trace, WatchdogDumpRendersSharedRingTail)
{
    MachineConfig mcfg;
    mcfg.numCpus = 2;
    mcfg.watchdogCycles = 200000;
    mcfg.trace = true; // one ring, two consumers
    mcfg.traceRingEntries = 4096;
    Machine m(mcfg, 128);
    kernel::KernelConfig kcfg;
    kcfg.layout.maxProcs = 16;
    kcfg.userPoolPages = 600;
    kernel::Kernel k(m, kcfg);

    m.watchdog()->forceTripAt(50000);
    std::string dump;
    try {
        m.run(100000);
        FAIL() << "synthetic trip did not fire";
    } catch (const util::SimError &e) {
        EXPECT_EQ(e.code(), util::ErrCode::WatchdogTrip);
        dump = e.what();
    }

    ASSERT_NE(m.tracer(), nullptr);
    const EventRing &ring = m.tracer()->ring();
    ASSERT_GT(ring.size(), 0u);
    EXPECT_NE(dump.find("monitor events:"), std::string::npos) << dump;

    // The dump's event tail is rendered from the tracer's own ring:
    // the last bus event in the ring must appear in the dump as its
    // trace JSONL line.
    bool checked = false;
    for (uint64_t i = ring.size(); i-- > 0;) {
        const TraceEvent &ev = ring.tail(i);
        if (ev.kind != TraceEventKind::Bus)
            continue;
        char want[160];
        std::snprintf(want, sizeof want,
                      "\n    {\"kind\":\"bus\",\"cycle\":%llu,\"cpu\":%u,"
                      "\"line\":\"0x%llx\",\"op\":\"%s\",\"cache\":\"%c\"",
                      (unsigned long long)ev.cycle, ev.cpu,
                      (unsigned long long)ev.addr,
                      busOpName(BusOp(ev.a)),
                      CacheKind(ev.b) == CacheKind::Instr ? 'I' : 'D');
        EXPECT_NE(dump.find(want), std::string::npos)
            << "dump does not render ring tail event: " << want
            << "\n" << dump;
        checked = true;
        break;
    }
    EXPECT_TRUE(checked) << "no bus event in the ring to check";
}

// ------------------------------------------------------------------ //
// Golden trace: pinned config, byte-identical output                 //
// ------------------------------------------------------------------ //

#ifdef MPOS_GOLDEN_DIR
TEST(Trace, GoldenByteIdentical)
{
    // Pinned smoke configuration; ring mode keeps the committed
    // corpus small. Regenerate intentionally with
    // tests/golden/update.sh (which sets MPOS_UPDATE_GOLDEN).
    const std::string golden_jsonl =
        std::string(MPOS_GOLDEN_DIR) + "/trace_smoke.jsonl";
    const test::TempPath fresh_jsonl("golden_fresh.jsonl",
                                     test::TempPath::File);

    core::ExperimentConfig cfg;
    cfg.kind = workload::WorkloadKind::Pmake;
    cfg.warmupCycles = 50000;
    cfg.measureCycles = 100000;
    cfg.options.seed = 7;
    cfg.machine.trace = true;
    cfg.machine.traceFile = fresh_jsonl.path;
    cfg.machine.traceRingEntries = 256;
    cfg.machine.traceRingMode = true;
    core::Experiment exp(cfg);
    exp.run();

    if (std::getenv("MPOS_UPDATE_GOLDEN")) {
        std::ofstream(golden_jsonl, std::ios::binary)
            << slurp(fresh_jsonl.path);
        GTEST_LOG_(INFO) << "golden trace updated in "
                         << MPOS_GOLDEN_DIR;
        return;
    }

    // A missing golden is a failure, not a skip (check.sh policy).
    ASSERT_TRUE(std::ifstream(golden_jsonl).good())
        << "no committed golden trace; run tests/golden/update.sh";
    EXPECT_EQ(slurp(fresh_jsonl.path), slurp(golden_jsonl))
        << "JSONL trace differs from the committed golden";
}
#endif
