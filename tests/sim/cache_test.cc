/** @file Unit and property tests for the set-associative cache model. */

#include <gtest/gtest.h>

#include "sim/cache.hh"
#include "util/rng.hh"

using mpos::sim::Cache;
using mpos::sim::Coh;
using mpos::sim::Victim;

TEST(Cache, MissThenHit)
{
    Cache c("t", 1024, 1, 16);
    EXPECT_FALSE(c.touch(0x100));
    c.fill(0x100);
    EXPECT_TRUE(c.touch(0x100));
    EXPECT_TRUE(c.contains(0x10f)); // same line
    EXPECT_FALSE(c.contains(0x110)); // next line
}

TEST(Cache, DirectMappedConflict)
{
    Cache c("t", 1024, 1, 16); // 64 sets
    c.fill(0x0);
    const Victim v = c.fill(0x400); // same set (1024 apart)
    EXPECT_TRUE(v.valid);
    EXPECT_EQ(v.lineAddr, 0x0u);
    EXPECT_FALSE(c.contains(0x0));
    EXPECT_TRUE(c.contains(0x400));
}

TEST(Cache, TwoWayAvoidsConflict)
{
    Cache c("t", 2048, 2, 16); // same 64 sets, 2 ways
    c.fill(0x0);
    const Victim v = c.fill(0x400);
    EXPECT_FALSE(v.valid);
    EXPECT_TRUE(c.contains(0x0));
    EXPECT_TRUE(c.contains(0x400));
}

TEST(Cache, LruEviction)
{
    Cache c("t", 2048, 2, 16);
    c.fill(0x0);
    c.fill(0x400);
    c.touch(0x0); // 0x400 becomes LRU
    const Victim v = c.fill(0x800);
    EXPECT_TRUE(v.valid);
    EXPECT_EQ(v.lineAddr, 0x400u);
}

TEST(Cache, RefillExistingLineIsSilent)
{
    Cache c("t", 1024, 1, 16);
    c.fill(0x100);
    const Victim v = c.fill(0x100);
    EXPECT_FALSE(v.valid);
}

TEST(Cache, CoherenceStateTracking)
{
    Cache c("t", 1024, 1, 16);
    EXPECT_EQ(c.state(0x100), Coh::Invalid); // absent
    c.fill(0x100);
    EXPECT_EQ(c.state(0x100), Coh::Shared); // the plain fill
    c.setState(0x100, Coh::Exclusive);
    EXPECT_EQ(c.state(0x100), Coh::Exclusive);
    EXPECT_TRUE(c.touch(0x100)); // state bits leave the probe alone
    c.setState(0x100, Coh::Modified);
    EXPECT_EQ(c.state(0x100), Coh::Modified);
    const Victim v = c.fill(0x500, Coh::Exclusive); // conflicting set
    EXPECT_TRUE(v.valid);
    EXPECT_EQ(v.lineAddr, 0x100u);
    EXPECT_EQ(v.state, Coh::Modified);
    EXPECT_EQ(c.state(0x500), Coh::Exclusive);
    c.setState(0x500, Coh::Invalid); // drops the line
    EXPECT_FALSE(c.contains(0x500));
    EXPECT_EQ(c.residentLines(), 0u);

    // Associative ways keep their states apart.
    Cache a("a", 2048, 2, 16);
    a.fill(0x100, Coh::Modified);
    a.fill(0x500, Coh::Shared); // same set, other way
    EXPECT_EQ(a.state(0x100), Coh::Modified);
    EXPECT_EQ(a.state(0x500), Coh::Shared);
    const Victim av = a.fill(0x900); // evicts LRU 0x100
    EXPECT_EQ(av.lineAddr, 0x100u);
    EXPECT_EQ(av.state, Coh::Modified);
}

TEST(Cache, Invalidate)
{
    Cache c("t", 1024, 1, 16);
    c.fill(0x100);
    EXPECT_TRUE(c.invalidate(0x100));
    EXPECT_FALSE(c.contains(0x100));
    EXPECT_FALSE(c.invalidate(0x100));
}

TEST(Cache, InvalidateRangeCallsBack)
{
    Cache c("t", 16384, 1, 16); // 1024 sets: the fills don't conflict
    c.fill(0x1000);
    c.fill(0x1010);
    c.fill(0x2000);
    int flushed = 0;
    c.invalidateRange(0x1000, 0x1100,
                      [&](mpos::sim::Addr) { ++flushed; });
    EXPECT_EQ(flushed, 2);
    EXPECT_FALSE(c.contains(0x1000));
    EXPECT_TRUE(c.contains(0x2000));
}

TEST(Cache, ResetEmptiesEverything)
{
    Cache c("t", 1024, 1, 16);
    c.fill(0x0);
    c.fill(0x10);
    EXPECT_EQ(c.residentLines(), 2u);
    c.reset();
    EXPECT_EQ(c.residentLines(), 0u);
}

TEST(Cache, CapacityGeometry)
{
    Cache c("t", 64 * 1024, 1, 16);
    EXPECT_EQ(c.sets(), 4096u);
    EXPECT_EQ(c.capacityBytes(), 64u * 1024);
    Cache c2("t2", 64 * 1024, 4, 16);
    EXPECT_EQ(c2.sets(), 1024u);
}

/** Property sweep: capacity is respected for any geometry. */
class CacheGeometry
    : public ::testing::TestWithParam<std::pair<uint64_t, uint32_t>>
{
};

TEST_P(CacheGeometry, NeverExceedsCapacityAndKeepsMRU)
{
    const auto [bytes, assoc] = GetParam();
    Cache c("t", bytes, assoc, 16);
    mpos::util::Rng rng(5);
    const uint64_t lines = bytes / 16;
    for (int i = 0; i < 20000; ++i) {
        const mpos::sim::Addr a = rng.below(lines * 4) * 16;
        if (!c.touch(a))
            c.fill(a);
        // The most recently used line must always be resident.
        EXPECT_TRUE(c.contains(a));
        EXPECT_LE(c.residentLines(), lines);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheGeometry,
    ::testing::Values(std::make_pair(uint64_t(1024), 1u),
                      std::make_pair(uint64_t(4096), 2u),
                      std::make_pair(uint64_t(65536), 1u),
                      std::make_pair(uint64_t(65536), 4u),
                      std::make_pair(uint64_t(262144), 1u),
                      std::make_pair(uint64_t(8192), 8u)));

/** A fully-warm direct-mapped cache holds exactly its line count. */
TEST(Cache, FullWarmup)
{
    Cache c("t", 1024, 1, 16);
    for (mpos::sim::Addr a = 0; a < 1024; a += 16)
        c.fill(a);
    EXPECT_EQ(c.residentLines(), 64u);
    for (mpos::sim::Addr a = 0; a < 1024; a += 16)
        EXPECT_TRUE(c.touch(a));
}
