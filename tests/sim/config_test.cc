/**
 * @file
 * Tests for the central machine-configuration validator.
 *
 * Every geometry rule the simulator relies on (power-of-two sets,
 * line/page/memory divisibility, the 64-CPU sharer-bitmask width,
 * the protocol id) is checked in one place --
 * validateConfig, run from
 * the Machine and MemorySystem constructor init-lists -- and each
 * violation must surface as a typed SimError(BadConfig), not as an
 * assert or a wrong simulation.
 */

#include <gtest/gtest.h>

#include "sim/machine.hh"
#include "sim/types.hh"
#include "util/error.hh"

using namespace mpos;
using sim::MachineConfig;
using util::ErrCode;
using util::SimError;

namespace
{

/** The validator must reject cfg with a typed BadConfig error. */
void
expectRejected(const MachineConfig &cfg, const char *why)
{
    try {
        sim::validateConfig(cfg);
        FAIL() << "validateConfig accepted a bad config: " << why;
    } catch (const SimError &e) {
        EXPECT_EQ(e.code(), ErrCode::BadConfig) << why;
    }
}

} // namespace

TEST(ConfigValidation, DefaultConfigIsValid)
{
    const MachineConfig cfg;
    EXPECT_NO_THROW(sim::validateConfig(cfg));
    // Returns its argument so constructors can run it in init-lists.
    EXPECT_EQ(&sim::validateConfig(cfg), &cfg);
}

TEST(ConfigValidation, CpuCountBounds)
{
    MachineConfig cfg;
    cfg.numCpus = 0;
    expectRejected(cfg, "zero CPUs");
    cfg.numCpus = 65; // sharer bitmasks are one uint64_t wide
    expectRejected(cfg, "more CPUs than the sharer masks track");
    cfg.numCpus = 64; // the widest machine the masks support
    EXPECT_NO_THROW(sim::validateConfig(cfg));
}

TEST(ConfigValidation, ProtocolBounds)
{
    MachineConfig cfg;
    for (const auto p : {sim::Protocol::Mesi, sim::Protocol::Msi,
                         sim::Protocol::Mi}) {
        cfg.protocol = p;
        EXPECT_NO_THROW(sim::validateConfig(cfg));
    }
    cfg.protocol = sim::Protocol(sim::numProtocols);
    expectRejected(cfg, "protocol id past the known protocols");
}

TEST(ConfigValidation, ProtocolNamesRoundTrip)
{
    for (uint8_t i = 0; i < sim::numProtocols; ++i) {
        const auto p = sim::Protocol(i);
        sim::Protocol parsed;
        ASSERT_TRUE(sim::parseProtocol(sim::protocolName(p), parsed))
            << sim::protocolName(p);
        EXPECT_EQ(parsed, p);
    }
    sim::Protocol parsed;
    EXPECT_FALSE(sim::parseProtocol("moesi", parsed));
    EXPECT_FALSE(sim::parseProtocol("", parsed));
}

TEST(ConfigValidation, LineAndPageGeometry)
{
    MachineConfig cfg;
    cfg.lineBytes = 24; // not a power of two
    expectRejected(cfg, "non-power-of-two line");

    cfg = MachineConfig{};
    cfg.lineBytes = 2; // below the minimum word
    expectRejected(cfg, "line smaller than a word");

    cfg = MachineConfig{};
    cfg.pageBytes = 3000; // not a power of two
    expectRejected(cfg, "non-power-of-two page");

    cfg = MachineConfig{};
    cfg.pageBytes = cfg.lineBytes / 2; // page must hold >= 1 line
    expectRejected(cfg, "page smaller than a line");
}

TEST(ConfigValidation, MemoryGeometry)
{
    MachineConfig cfg;
    cfg.memBytes = 0;
    expectRejected(cfg, "no memory");

    cfg = MachineConfig{};
    cfg.memBytes = cfg.pageBytes + 1; // not page-aligned
    expectRejected(cfg, "memory not a multiple of the page size");
}

TEST(ConfigValidation, CacheGeometry)
{
    MachineConfig cfg;
    cfg.icacheAssoc = 0;
    expectRejected(cfg, "zero-way I-cache");

    cfg = MachineConfig{};
    cfg.l1dBytes = 0;
    expectRejected(cfg, "zero-byte L1D");

    cfg = MachineConfig{};
    cfg.l2dBytes = 3 * cfg.lineBytes; // sets not a power of two
    expectRejected(cfg, "non-power-of-two L2 set count");
}

TEST(ConfigValidation, TlbAndTiming)
{
    MachineConfig cfg;
    cfg.tlbEntries = 0;
    expectRejected(cfg, "zero TLB entries");

    cfg = MachineConfig{};
    cfg.instrPerLine = 0;
    expectRejected(cfg, "zero instructions per line");

    cfg = MachineConfig{};
    cfg.cyclesPerInstr = 0;
    expectRejected(cfg, "zero cycles per instruction");
}

/** Constructors must route through the validator (init-list), so a
 *  bad geometry can never reach a partially built machine. */
TEST(ConfigValidation, MachineConstructorRejectsBadGeometry)
{
    MachineConfig cfg;
    cfg.lineBytes = 24;
    EXPECT_THROW({ sim::Machine m(cfg); }, SimError);

    MachineConfig wide;
    wide.numCpus = 65;
    EXPECT_THROW({ sim::Machine m(wide); }, SimError);
}
