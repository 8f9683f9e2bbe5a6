/**
 * @file
 * Golden-counters equivalence test for the event-driven simulation
 * fast paths.
 *
 * The cycle-skipping scheduler, the snoop-filter bit walks, and the
 * packed cache/monitor fast paths are pure optimizations: they must
 * not change a single simulated event. This test runs the same
 * experiment twice -- once through the fast paths and once with
 * MachineConfig::slowSim selecting the one-cycle-at-a-time reference
 * scheduler and full snoop walks -- and requires every observable
 * counter to be identical: bus transactions, per-class miss counts,
 * and the per-mode cycle accounting. Wide, idle-heavy machines cover
 * the parking of spinning idle CPUs, which only the fast scheduler
 * does.
 */

#include <gtest/gtest.h>

#include "core/experiment.hh"
#include "workload/workload.hh"

using namespace mpos;
using core::MissCounts;
using core::numMissClasses;

namespace
{

core::ExperimentConfig
smallConfig(workload::WorkloadKind kind, bool slow)
{
    core::ExperimentConfig cfg;
    cfg.kind = kind;
    cfg.warmupCycles = 200000;
    cfg.measureCycles = 1000000;
    cfg.machine.slowSim = slow;
    // The goldens run under --check, so parking and the fast paths
    // must stay exact with the checker attached.
    cfg.machine.check = true;
    return cfg;
}

core::ExperimentConfig
matrixConfig(uint64_t seed, uint32_t num_cpus, bool slow)
{
    core::ExperimentConfig cfg =
        smallConfig(workload::WorkloadKind::Pmake, slow);
    // Shorter runs: the matrix multiplies this by seeds x CPU counts.
    cfg.warmupCycles = 100000;
    cfg.measureCycles = 400000;
    cfg.options.seed = seed;
    cfg.machine.numCpus = num_cpus;
    return cfg;
}

void
expectSameCounts(const MissCounts &fast, const MissCounts &slow)
{
    for (uint32_t c = 0; c < numMissClasses; ++c) {
        EXPECT_EQ(fast.osI[c], slow.osI[c]) << "osI class " << c;
        EXPECT_EQ(fast.osD[c], slow.osD[c]) << "osD class " << c;
        EXPECT_EQ(fast.appI[c], slow.appI[c]) << "appI class " << c;
        EXPECT_EQ(fast.appD[c], slow.appD[c]) << "appD class " << c;
        EXPECT_EQ(fast.idleI[c], slow.idleI[c]) << "idleI class " << c;
        EXPECT_EQ(fast.idleD[c], slow.idleD[c]) << "idleD class " << c;
    }
    EXPECT_EQ(fast.osDispossameI, slow.osDispossameI);
    EXPECT_EQ(fast.osDispossameD, slow.osDispossameD);
}

void
expectSameAccount(const sim::CycleAccount &fast,
                  const sim::CycleAccount &slow)
{
    for (unsigned m = 0; m < 3; ++m) {
        EXPECT_EQ(fast.total[m], slow.total[m]) << "total mode " << m;
        EXPECT_EQ(fast.stall[m], slow.stall[m]) << "stall mode " << m;
    }
}

void
runBothAndCompare(workload::WorkloadKind kind)
{
    core::Experiment fast(smallConfig(kind, false));
    fast.run();
    core::Experiment slow(smallConfig(kind, true));
    slow.run();

    EXPECT_EQ(fast.machine().now(), slow.machine().now());
    EXPECT_EQ(fast.machine().memory().busTransactions(),
              slow.machine().memory().busTransactions());
    expectSameCounts(fast.misses(), slow.misses());
    expectSameAccount(fast.account(), slow.account());
    EXPECT_EQ(fast.elapsed(), slow.elapsed());
}

} // namespace

TEST(Determinism, PmakeFastMatchesReference)
{
    runBothAndCompare(workload::WorkloadKind::Pmake);
}

TEST(Determinism, MultpgmFastMatchesReference)
{
    runBothAndCompare(workload::WorkloadKind::Multpgm);
}

TEST(Determinism, OracleFastMatchesReference)
{
    runBothAndCompare(workload::WorkloadKind::Oracle);
}

/**
 * Fast-vs-reference equivalence must hold for every machine shape and
 * every RNG stream, not just the default: sweep RNG seeds x CPU
 * counts, comparing the two schedulers at each point.
 */
TEST(Determinism, SeedAndCpuCountMatrix)
{
    for (uint64_t seed : {5u, 7u, 11u}) {
        for (uint32_t cpus : {1u, 2u, 4u}) {
            SCOPED_TRACE("seed " + std::to_string(seed) + " cpus " +
                         std::to_string(cpus));
            core::Experiment fast(matrixConfig(seed, cpus, false));
            fast.run();
            core::Experiment slow(matrixConfig(seed, cpus, true));
            slow.run();

            EXPECT_EQ(fast.machine().now(), slow.machine().now());
            EXPECT_EQ(fast.machine().memory().busTransactions(),
                      slow.machine().memory().busTransactions());
            expectSameCounts(fast.misses(), slow.misses());
            expectSameAccount(fast.account(), slow.account());
            EXPECT_EQ(fast.elapsed(), slow.elapsed());
        }
    }
}

/** Different seeds must actually change the simulated history (the
 *  matrix above would be vacuous if the seed were ignored). */
TEST(Determinism, SeedChangesTheSimulatedHistory)
{
    core::Experiment a(matrixConfig(5, 4, false));
    a.run();
    core::Experiment b(matrixConfig(11, 4, false));
    b.run();
    const bool differs =
        a.machine().memory().busTransactions() !=
            b.machine().memory().busTransactions() ||
        a.account().all() != b.account().all() ||
        a.misses().total() != b.misses().total();
    EXPECT_TRUE(differs);
}

namespace
{

/** Idle-heavy wide Pmake: 8 or 16 CPUs on the scaled workload. */
core::ExperimentConfig
wideConfig(uint32_t num_cpus, bool slow)
{
    core::ExperimentConfig cfg = matrixConfig(7, num_cpus, slow);
    cfg.options = workload::scaledOptions(cfg.options, num_cpus);
    return cfg;
}

/** Run fast and reference; the fast run must have parked CPUs. */
void
expectParkedRunMatchesReference(const core::ExperimentConfig &fast_cfg,
                                const core::ExperimentConfig &slow_cfg)
{
    // One experiment alive at a time: the wide classifiers are large.
    sim::Cycle now = 0;
    uint64_t bus_tx = 0, elapsed = 0;
    MissCounts misses;
    sim::CycleAccount account;
    {
        core::Experiment fast(fast_cfg);
        fast.run();
        EXPECT_GT(fast.machine().parkedCycles(), 0u);
        now = fast.machine().now();
        bus_tx = fast.machine().memory().busTransactions();
        misses = fast.misses();
        account = fast.account();
        elapsed = fast.elapsed();
    }
    core::Experiment slow(slow_cfg);
    slow.run();
    EXPECT_EQ(slow.machine().parkedCycles(), 0u);
    EXPECT_EQ(now, slow.machine().now());
    EXPECT_EQ(bus_tx, slow.machine().memory().busTransactions());
    expectSameCounts(misses, slow.misses());
    expectSameAccount(account, slow.account());
    EXPECT_EQ(elapsed, slow.elapsed());
}

} // namespace

/** Wide machines idle most of the time: parked CPUs must leave every
 *  counter exactly where the reference scheduler's stepping does. */
TEST(Determinism, WideIdleMachinesParkExactly)
{
    for (uint32_t cpus : {8u, 16u}) {
        SCOPED_TRACE("cpus " + std::to_string(cpus));
        expectParkedRunMatchesReference(wideConfig(cpus, false),
                                        wideConfig(cpus, true));
    }
}

/** Associative caches: an unparked CPU's LRU ranks must match. */
TEST(Determinism, AssociativeCachesParkExactly)
{
    core::ExperimentConfig fast = wideConfig(8, false);
    core::ExperimentConfig slow = wideConfig(8, true);
    for (core::ExperimentConfig *cfg : {&fast, &slow}) {
        cfg->machine.icacheAssoc = 2;
        cfg->machine.l1dAssoc = 2;
        cfg->machine.l2dAssoc = 2;
    }
    expectParkedRunMatchesReference(fast, slow);
}
