/** @file Trace exporter.
 *
 *  The contracts under test: every line of the JSONL trace is valid
 *  JSON; the file holds every event the tracer counted and ends with
 *  the last event the monitor delivered; the whole layer is a null
 *  pointer unless enabled; and a pinned configuration streams a trace
 *  whose tail is byte-identical to the committed golden file.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "core/experiment.hh"
#include "kernel/kernel.hh"
#include "sim/machine.hh"
#include "sim/trace/trace.hh"
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

/** The last n lines of text (all of it if it has fewer). */
std::string
lastLines(const std::string &text, uint64_t n)
{
    // The (n+1)-th newline from the end precedes the last n lines.
    size_t at = text.size();
    for (uint64_t i = 0; i <= n; ++i) {
        if (at == 0)
            return text;
        at = text.rfind('\n', at - 1);
        if (at == std::string::npos)
            return text;
    }
    return text.substr(at + 1);
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
runTracedWorkload(const std::string &trace_path)
{
    core::ExperimentConfig cfg;
    cfg.kind = workload::WorkloadKind::Pmake;
    cfg.warmupCycles = 20000;
    cfg.measureCycles = 60000;
    cfg.options.seed = 7;
    cfg.machine.trace = true;
    cfg.machine.traceFile = trace_path;
    auto e = std::make_unique<core::Experiment>(cfg);
    e->run(); // finishes (and closes) the trace
    return e;
}

} // namespace

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

    runTracedWorkload(jsonl.path);

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

    auto e = runTracedWorkload(jsonl.path);
    const uint64_t total = e->machine().tracer()->totalEvents();
    ASSERT_GT(total, 100u);

    // The file holds one line per counted event.
    EXPECT_EQ(lineCount(slurp(jsonl.path)), total);
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
        runTraced(cfg, 80000);
    }
    EXPECT_EQ(slurp(a.path), slurp(b.path)); // byte-identical
}

namespace
{

/** Remembers the last monitor event as its JSONL line would open. */
class LastEventObserver : public MonitorObserver
{
  public:
    uint64_t count = 0;
    std::string lastPrefix;

    void busTransaction(const BusRecord &rec) override
    {
        clocked("bus", rec.cycle, rec.cpu);
    }
    void evict(CpuId cpu, CacheKind, Addr, const MonitorContext &) override
    {
        stamped("evict", cpu);
    }
    void invalSharing(CpuId cpu, CacheKind, Addr) override
    {
        stamped("inval-sharing", cpu);
    }
    void invalPageRealloc(CpuId cpu, Addr) override
    {
        stamped("inval-realloc", cpu);
    }
    void flushPage(CpuId cpu, Addr, uint32_t) override
    {
        stamped("flush-page", cpu);
    }
    void osEnter(Cycle cycle, CpuId cpu, OsOp) override
    {
        clocked("os-enter", cycle, cpu);
    }
    void osExit(Cycle cycle, CpuId cpu, OsOp) override
    {
        clocked("os-exit", cycle, cpu);
    }
    void contextSwitch(Cycle cycle, CpuId cpu, Pid, Pid) override
    {
        clocked("context-switch", cycle, cpu);
    }

  private:
    void clocked(const char *kind, Cycle cycle, CpuId cpu)
    {
        lastCycle = cycle;
        stamped(kind, cpu);
    }
    /** Unclocked events carry the last clocked cycle, as the tracer
     *  stamps them. */
    void stamped(const char *kind, CpuId cpu)
    {
        ++count;
        char buf[128];
        std::snprintf(buf, sizeof buf,
                      "{\"kind\":\"%s\",\"cycle\":%llu,\"cpu\":%u",
                      kind, (unsigned long long)lastCycle, cpu);
        lastPrefix = buf;
    }

    Cycle lastCycle = 0;
};

} // namespace

TEST(Trace, FileEndsWithLastObservedEvent)
{
    // The streamed file is complete when finish() returns: its last
    // line is the last event the monitor delivered.
    const test::TempPath jsonl("last.jsonl", test::TempPath::File);

    LastEventObserver obs; // outlives the machine it watches
    core::ExperimentConfig cfg;
    cfg.kind = workload::WorkloadKind::Pmake;
    cfg.warmupCycles = 20000;
    cfg.measureCycles = 60000;
    cfg.options.seed = 7;
    cfg.machine.trace = true;
    cfg.machine.traceFile = jsonl.path;
    core::Experiment e(cfg);
    e.machine().monitor().attach(&obs);
    e.run(); // finishes (and closes) the trace
    e.machine().monitor().detach(&obs);

    const std::string text = slurp(jsonl.path);
    ASSERT_GT(obs.count, 100u);
    EXPECT_EQ(lineCount(text), e.machine().tracer()->totalEvents());
    const std::string last = lastLines(text, 1);
    EXPECT_EQ(last.compare(0, obs.lastPrefix.size(), obs.lastPrefix), 0)
        << "last line: " << last << "\nlast event: " << obs.lastPrefix;
}

// ------------------------------------------------------------------ //
// Golden trace: pinned config, byte-identical output                 //
// ------------------------------------------------------------------ //

#ifdef MPOS_GOLDEN_DIR
TEST(Trace, GoldenByteIdentical)
{
    // Pinned smoke configuration. The committed corpus keeps the
    // stream's last 256 lines, which keeps it small. Regenerate
    // intentionally with tests/golden/update.sh (which sets
    // MPOS_UPDATE_GOLDEN).
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
    core::Experiment exp(cfg);
    exp.run();
    const std::string tail = lastLines(slurp(fresh_jsonl.path), 256);

    if (std::getenv("MPOS_UPDATE_GOLDEN")) {
        std::ofstream(golden_jsonl, std::ios::binary) << tail;
        GTEST_LOG_(INFO) << "golden trace updated in "
                         << MPOS_GOLDEN_DIR;
        return;
    }

    // A missing golden is a failure, not a skip (check.sh policy).
    ASSERT_TRUE(std::ifstream(golden_jsonl).good())
        << "no committed golden trace; run tests/golden/update.sh";
    EXPECT_EQ(tail, slurp(golden_jsonl))
        << "JSONL trace tail differs from the committed golden";
}
#endif
