/**
 * @file
 * Tests for the differential fuzz harness itself.
 *
 * The heavy 64+ seed sweep lives in the mpos_fuzz binary; here a small
 * seed x CPU-count matrix runs inside the test suite so every ctest
 * invocation exercises the fast-vs-reference comparison end to end,
 * plus unit tests for the script generator's guarantees and the
 * failing-prefix minimizer.
 */

#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "sim/check/fuzz.hh"

using namespace mpos;
using sim::FuzzOptions;
using sim::ItemKind;
using sim::MarkerOp;
using sim::ScriptItem;

namespace
{

FuzzOptions
quickOptions(uint32_t num_cpus)
{
    FuzzOptions opt;
    opt.numCpus = num_cpus;
    opt.scriptLen = 1200;
    opt.runCycles = 25000;
    return opt;
}

} // namespace

TEST(FuzzScripts, DeterministicPerSeed)
{
    const FuzzOptions opt = quickOptions(4);
    const auto a = sim::buildFuzzScripts(42, opt);
    const auto b = sim::buildFuzzScripts(42, opt);
    ASSERT_EQ(a.size(), b.size());
    for (size_t c = 0; c < a.size(); ++c) {
        ASSERT_EQ(a[c].size(), b[c].size()) << "cpu " << c;
        for (size_t i = 0; i < a[c].size(); ++i) {
            EXPECT_EQ(a[c][i].kind, b[c][i].kind);
            EXPECT_EQ(a[c][i].addr, b[c][i].addr);
            EXPECT_EQ(a[c][i].arg2, b[c][i].arg2);
        }
    }
}

TEST(FuzzScripts, DifferentSeedsDiffer)
{
    const FuzzOptions opt = quickOptions(2);
    const auto a = sim::buildFuzzScripts(1, opt);
    const auto b = sim::buildFuzzScripts(2, opt);
    bool differ = false;
    for (size_t c = 0; c < a.size() && !differ; ++c) {
        for (size_t i = 0; i < a[c].size() && !differ; ++i) {
            differ = a[c][i].kind != b[c][i].kind ||
                     a[c][i].addr != b[c][i].addr;
        }
    }
    EXPECT_TRUE(differ);
}

TEST(FuzzScripts, GeneratorInvariants)
{
    const FuzzOptions opt = quickOptions(4);
    for (uint64_t seed : {3u, 17u, 99u}) {
        const sim::MachineConfig mc = opt.machineConfig(seed);
        const auto scripts = sim::buildFuzzScripts(seed, opt);
        ASSERT_EQ(scripts.size(), opt.numCpus);
        for (const auto &script : scripts) {
            // A program ends by releasing what it still holds, so the
            // generator can overshoot by one release per lock.
            EXPECT_GE(script.size(), opt.scriptLen);
            EXPECT_LE(script.size(), opt.scriptLen + opt.numLocks);
            int os_depth = 0;
            std::vector<std::pair<uint64_t, MarkerOp>> held;
            for (const ScriptItem &it : script) {
                // Cached references stay inside modeled memory;
                // uncached ones are the only out-of-range traffic.
                switch (it.kind) {
                case ItemKind::Load:
                case ItemKind::Store:
                case ItemKind::IFetchLine:
                case ItemKind::BypassLoad:
                case ItemKind::BypassStore:
                case ItemKind::PrefetchLoad:
                case ItemKind::PrefetchStore:
                    EXPECT_LT(it.addr, mc.memBytes);
                    break;
                case ItemKind::UncachedLoad:
                case ItemKind::UncachedStore:
                    EXPECT_GE(it.addr, mc.memBytes);
                    break;
                default:
                    break;
                }
                // OS enter/exit markers strictly alternate per CPU,
                // so any prefix is a well-formed monitor stream.
                if (it.kind == ItemKind::Marker) {
                    if (it.marker == MarkerOp::OsEnter) {
                        EXPECT_EQ(os_depth, 0);
                        os_depth = 1;
                    } else if (it.marker == MarkerOp::OsExit) {
                        EXPECT_EQ(os_depth, 1);
                        os_depth = 0;
                    }
                }
                // Locks are taken in ascending id order (so no two
                // CPUs can deadlock), as plain first attempts, and
                // released innermost first with the matching kind.
                if (it.kind != ItemKind::Marker)
                    continue;
                if (it.marker == MarkerOp::LockAcquire ||
                    it.marker == MarkerOp::LockAcquireShared) {
                    EXPECT_LT(it.addr, opt.numLocks);
                    EXPECT_EQ(it.arg2, 0u);
                    if (!held.empty()) {
                        EXPECT_GT(it.addr, held.back().first);
                    }
                    held.emplace_back(it.addr, it.marker);
                } else if (it.marker == MarkerOp::LockRelease ||
                           it.marker == MarkerOp::LockReleaseShared) {
                    ASSERT_FALSE(held.empty());
                    EXPECT_EQ(it.addr, held.back().first);
                    EXPECT_EQ(it.marker == MarkerOp::LockReleaseShared,
                              held.back().second ==
                                  MarkerOp::LockAcquireShared);
                    held.pop_back();
                }
            }
            EXPECT_TRUE(held.empty()) << "a program ends holding a lock";
        }
    }
}

TEST(FuzzMinimizer, FindsSmallestFailingPrefix)
{
    // fails(k) <=> k >= 37: the minimizer must land exactly there.
    uint64_t probes = 0;
    const uint64_t k = sim::minimizeFailingPrefix(
        1000, [&probes](uint64_t n) {
            ++probes;
            return n >= 37;
        });
    EXPECT_EQ(k, 37u);
    EXPECT_LE(probes, 12u); // ~log2(1000) probes, not a linear scan
}

TEST(FuzzMinimizer, HandlesEdges)
{
    EXPECT_EQ(sim::minimizeFailingPrefix(
                  1, [](uint64_t) { return true; }),
              1u);
    EXPECT_EQ(sim::minimizeFailingPrefix(
                  500, [](uint64_t n) { return n >= 500; }),
              500u);
    EXPECT_EQ(sim::minimizeFailingPrefix(
                  500, [](uint64_t n) { return n >= 1; }),
              1u);
}

TEST(FuzzDifferential, SingleSeedMatchesAndChecks)
{
    const sim::FuzzOutcome out =
        sim::runDifferential(7, quickOptions(4));
    EXPECT_TRUE(out.ok) << out.detail;
    EXPECT_TRUE(out.violations.empty());
    EXPECT_GT(out.eventsCompared, 0u);
    EXPECT_GT(out.checksPerformed, 0u);
}

TEST(FuzzDifferential, FinishedCpusParkAndWakeExactly)
{
    // Short programs: CPUs that finish spin on pool lines the others
    // still store to. The fast core parks them, the stores and
    // I-cache flushes wake them, and the reference core must agree on
    // every event. Under MI even the others' loads wake them.
    FuzzOptions opt = quickOptions(4);
    opt.scriptLen = 400;
    for (uint64_t seed : {7u, 8u, 9u}) {
        const sim::FuzzOutcome out = sim::runDifferential(seed, opt);
        EXPECT_TRUE(out.ok) << "seed " << seed << ": " << out.detail;
        EXPECT_GT(out.parkedCycles, 0u) << "seed " << seed;
    }
    opt.protocol = sim::Protocol::Mi;
    for (uint64_t seed : {8u, 9u}) {
        const sim::FuzzOutcome out = sim::runDifferential(seed, opt);
        EXPECT_TRUE(out.ok) << "mi seed " << seed << ": " << out.detail;
    }
}

TEST(FuzzDifferential, PrefixTruncationStillRuns)
{
    const sim::FuzzOutcome out =
        sim::runDifferential(7, quickOptions(2), 25);
    EXPECT_TRUE(out.ok) << out.detail;
}

TEST(FuzzDifferential, SmallMatrixAllCpuCountsPass)
{
    // The four seeds alternate the shipped inert bus and a queueing
    // one, so the matrix covers both bus occupancies.
    std::set<sim::Cycle> occupancies;
    for (uint64_t seed = 100; seed < 104; ++seed)
        occupancies.insert(quickOptions(4).machineConfig(seed)
                               .busOccupancy);
    EXPECT_EQ(occupancies, (std::set<sim::Cycle>{0, 2}));

    const sim::FuzzMatrixResult res = sim::runFuzzMatrix(
        100, 4, {1, 2, 4}, quickOptions(4));
    EXPECT_EQ(res.runs, 12u);
    EXPECT_TRUE(res.ok());
    for (const sim::FuzzFailure &f : res.failures) {
        ADD_FAILURE() << "seed " << f.seed << " cpus " << f.numCpus
                      << " prefix " << f.minimalPrefix << ": "
                      << f.detail;
    }
    EXPECT_GT(res.eventsCompared, 0u);
    EXPECT_GT(res.checksPerformed, 0u);
}

TEST(FuzzDifferential, EveryLockPolicyIsContended)
{
    // Outcomes come from lock state, not from the scripts, so prove
    // the matrix really exercises each policy's contended paths.
    for (const sim::LockPolicy policy :
         {sim::LockPolicy::TestAndSet, sim::LockPolicy::Ticket,
          sim::LockPolicy::Mcs, sim::LockPolicy::Futex,
          sim::LockPolicy::Rcu}) {
        FuzzOptions opt = quickOptions(4);
        opt.lockPolicy = policy;
        const sim::FuzzMatrixResult res =
            sim::runFuzzMatrix(100, 2, {2, 4}, opt);
        const char *name = sim::lockPolicyName(policy);
        EXPECT_TRUE(res.ok()) << name;
        for (const sim::FuzzFailure &f : res.failures) {
            ADD_FAILURE() << name << " seed " << f.seed << " cpus "
                          << f.numCpus << ": " << f.detail;
        }
        EXPECT_GT(res.locks.lostAcquires, 0u) << name;
        if (policy == sim::LockPolicy::Mcs) {
            EXPECT_GT(res.locks.handoffs, 0u);
        }
        if (policy == sim::LockPolicy::Rcu) {
            EXPECT_GT(res.locks.readSections, 0u);
            EXPECT_GT(res.locks.gracePeriods, 0u);
        }
    }
}
