/**
 * @file
 * google-benchmark microbenchmarks of the simulator substrate itself:
 * cache probe/fill, coherent data access, TLB translation, and
 * whole-machine cycles per second on a live workload.
 */

#include <benchmark/benchmark.h>

#include "core/experiment.hh"
#include "sim/cache.hh"
#include "sim/memsys.hh"
#include "util/rng.hh"

using namespace mpos;
using namespace mpos::sim;

static void
BM_CacheTouch(benchmark::State &state)
{
    Cache c("bm", 64 * 1024, uint32_t(state.range(0)), 16);
    util::Rng rng(1);
    for (Addr a = 0; a < 64 * 1024; a += 16)
        c.fill(a);
    Addr a = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(c.touch(a));
        a = (a + 16) & (64 * 1024 - 1);
    }
}
BENCHMARK(BM_CacheTouch)->Arg(1)->Arg(2)->Arg(4);

static void
BM_CoherentDataAccess(benchmark::State &state)
{
    MachineConfig cfg;
    Monitor mon;
    MemorySystem mem(cfg, mon);
    MonitorContext ctx;
    util::Rng rng(2);
    Cycle now = 0;
    for (auto _ : state) {
        const CpuId cpu = CpuId(rng.below(4));
        const Addr a = rng.below(16384) * 16;
        benchmark::DoNotOptimize(
            mem.dataAccess(cpu, a, rng.chance(0.3), ++now, ctx));
    }
}
BENCHMARK(BM_CoherentDataAccess);

static void
BM_TlbTranslate(benchmark::State &state)
{
    Tlb tlb(64);
    for (uint32_t i = 0; i < 64; ++i)
        tlb.insert(1, i, i, true);
    uint64_t page = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(tlb.translate(1, page));
        page = (page + 1) & 63;
    }
}
BENCHMARK(BM_TlbTranslate);

static void
BM_MachineCyclesPmake(benchmark::State &state)
{
    core::ExperimentConfig cfg;
    cfg.kind = workload::WorkloadKind::Pmake;
    cfg.warmupCycles = 1000000;
    cfg.measureCycles = 0;
    cfg.collectMisses = false;
    core::Experiment exp(cfg);
    exp.run();
    for (auto _ : state)
        exp.machine().run(100000);
    state.SetItemsProcessed(int64_t(state.iterations()) * 100000);
}
// Fixed iteration count: every iteration advances the *same* machine,
// so with the adaptive loop the measured window would depend on how
// many calibration iterations already drained the workload. Pinning
// the count measures cycles 1M..11M -- the busy phase -- every run,
// which makes before/after comparisons meaningful.
BENCHMARK(BM_MachineCyclesPmake)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(100);

static void
BM_MachineCyclesPmake8(benchmark::State &state)
{
    // The wide-machine point: an 8-CPU Pmake (maxJobs keeps all CPUs
    // busy), so scans and snoop fan-out are twice the 4-CPU bench's.
    core::ExperimentConfig cfg;
    cfg.kind = workload::WorkloadKind::Pmake;
    cfg.machine.numCpus = 8;
    cfg.warmupCycles = 1000000;
    cfg.measureCycles = 0;
    cfg.collectMisses = false;
    core::Experiment exp(cfg);
    exp.run();
    for (auto _ : state)
        exp.machine().run(100000);
    state.SetItemsProcessed(int64_t(state.iterations()) * 100000);
}
BENCHMARK(BM_MachineCyclesPmake8)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(100);

BENCHMARK_MAIN();
