/** @file Snapshot container and machine save/restore tests. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "sim/check/fuzz.hh"
#include "sim/machine.hh"
#include "sim/snapshot/container.hh"
#include "util/binio.hh"
#include "util/error.hh"
#include "temp_path.hh"

using namespace mpos;
using sim::snapshot::Section;

namespace
{

std::vector<uint8_t>
sampleImage()
{
    util::ByteWriter m, k;
    m.u64(0x1111);
    m.str("machine-bytes");
    k.u64(0x2222);
    std::vector<std::pair<Section, std::vector<uint8_t>>> sections;
    sections.emplace_back(Section::Machine, m.take());
    sections.emplace_back(Section::Kernel, k.take());
    return sim::snapshot::pack(0xfeedfacecafef00dULL,
                               std::move(sections));
}

} // namespace

TEST(SnapshotContainer, PackParseRoundTrip)
{
    const std::vector<uint8_t> image = sampleImage();
    const sim::snapshot::Parsed p = sim::snapshot::parse(image);
    EXPECT_EQ(p.configHash(), 0xfeedfacecafef00dULL);

    util::ByteReader r(p.section(Section::Machine));
    EXPECT_EQ(r.u64(), 0x1111u);
    EXPECT_EQ(r.str(), "machine-bytes");
    EXPECT_TRUE(r.atEnd());

    util::ByteReader rk(p.section(Section::Kernel));
    EXPECT_EQ(rk.u64(), 0x2222u);

    EXPECT_THROW(p.section(Section::Workload), util::SimError);
}

TEST(SnapshotContainer, EveryByteFlipIsDetected)
{
    const std::vector<uint8_t> image = sampleImage();
    for (size_t i = 0; i < image.size(); ++i) {
        std::vector<uint8_t> bad = image;
        bad[i] ^= 0x40;
        try {
            (void)sim::snapshot::parse(bad);
            FAIL() << "flip at byte " << i << " went undetected";
        } catch (const util::SimError &e) {
            EXPECT_EQ(e.code(), util::ErrCode::SnapshotCorrupt)
                << "flip at byte " << i;
        }
    }
}

TEST(SnapshotContainer, TruncationIsDetected)
{
    const std::vector<uint8_t> image = sampleImage();
    for (size_t keep : {size_t(0), size_t(4), image.size() - 1}) {
        std::vector<uint8_t> bad(image.begin(),
                                 image.begin() + long(keep));
        EXPECT_THROW((void)sim::snapshot::parse(bad), util::SimError)
            << "kept " << keep << " bytes";
    }
}

TEST(SnapshotContainer, FileRoundTripAtomic)
{
    const test::TempPath tmp("mpos_snapshot_test.bin", test::TempPath::File);
    const std::string &path = tmp.path;
    const std::vector<uint8_t> image = sampleImage();
    ASSERT_TRUE(sim::snapshot::writeFileAtomic(path, image));
    std::vector<uint8_t> back;
    ASSERT_TRUE(sim::snapshot::readFile(path, back));
    EXPECT_EQ(back, image);
    std::remove(path.c_str());
    EXPECT_FALSE(sim::snapshot::readFile(path, back));
}

TEST(SnapshotMachine, RestoreIntoWrongGeometryRaises)
{
    sim::FuzzOptions opt;
    opt.numCpus = 2;
    opt.scriptLen = 200;
    opt.runCycles = 4000;
    sim::MachineConfig cfg = opt.machineConfig(1);
    cfg.check = false;

    sim::Machine m(cfg, opt.numLocks);
    util::ByteWriter w;
    m.saveState(w);
    const std::vector<uint8_t> state = w.take();

    sim::MachineConfig other = cfg;
    other.numCpus = 4;
    sim::Machine m2(other, opt.numLocks);
    util::ByteReader r(state);
    EXPECT_THROW(m2.restoreState(r), util::SimError);
}

/**
 * Coherence state travels inside the L2 ways (format v4), so restore
 * validates it there: a packed word with both the Modified and the
 * Exclusive bit set, or a state the machine's protocol cannot produce
 * (Exclusive under MSI, Shared under MI), is a typed SnapshotCorrupt.
 */
TEST(SnapshotMachine, RestoreRejectsForgedL2States)
{
    constexpr sim::Addr line = 0x1000;
    const auto configFor = [](sim::Protocol proto) {
        sim::MachineConfig cfg;
        cfg.numCpus = 2;
        cfg.protocol = proto;
        cfg.check = false;
        return cfg;
    };
    // A machine image whose CPU 1 L2 holds line in state st.
    const auto machineSection = [&](sim::Protocol proto, sim::Coh st) {
        sim::Machine m(configFor(proto), 8);
        m.memory().caches(1).l2d.fill(line, st);
        util::ByteWriter w;
        m.saveState(w);
        return w.take();
    };
    // Pack, parse and restore; the error text, or "" if accepted.
    const auto restore = [&](sim::Protocol proto,
                             std::vector<uint8_t> section) {
        std::vector<std::pair<Section, std::vector<uint8_t>>> secs;
        secs.emplace_back(Section::Machine, std::move(section));
        const sim::snapshot::Parsed p =
            sim::snapshot::parse(sim::snapshot::pack(1, std::move(secs)));
        sim::Machine m(configFor(proto), 8);
        util::ByteReader r(p.section(Section::Machine));
        try {
            m.restoreState(r);
        } catch (const util::SimError &e) {
            EXPECT_EQ(e.code(), util::ErrCode::SnapshotCorrupt);
            return std::string(e.what());
        }
        EXPECT_EQ(m.memory().caches(1).getState(line), sim::Coh::Exclusive);
        EXPECT_EQ(m.memory().sharersMask(line), 0b10u);
        return std::string();
    };

    // The legal image restores, snoop filter rebuilt from the way.
    std::vector<uint8_t> mesi =
        machineSection(sim::Protocol::Mesi, sim::Coh::Exclusive);
    EXPECT_EQ(restore(sim::Protocol::Mesi, mesi), "");

    EXPECT_NE(restore(sim::Protocol::Msi,
                      machineSection(sim::Protocol::Msi,
                                     sim::Coh::Exclusive))
                  .find("illegal under protocol"),
              std::string::npos);
    EXPECT_NE(restore(sim::Protocol::Mi,
                      machineSection(sim::Protocol::Mi,
                                     sim::Coh::Shared))
                  .find("illegal under protocol"),
              std::string::npos);

    // Forge the Exclusive way's packed word (line | valid | E) into
    // line | valid | M | E, which no state encodes.
    util::ByteWriter want, forged;
    want.u64(line | 1 | 4);
    forged.u64(line | 1 | 2 | 4);
    const std::vector<uint8_t> a = want.take(), b = forged.take();
    auto at = std::search(mesi.begin(), mesi.end(), a.begin(), a.end());
    ASSERT_NE(at, mesi.end());
    std::copy(b.begin(), b.end(), at);
    EXPECT_NE(restore(sim::Protocol::Mesi, mesi).find("illegal packed way"),
              std::string::npos);
}

/**
 * The core differential: cutting a run at an arbitrary cycle,
 * serializing through the container, restoring into a fresh machine
 * and continuing must reproduce the uninterrupted run's event stream
 * and final state bit for bit -- with the coherence checker watching
 * both sides of the boundary.
 */
TEST(SnapshotMachine, DifferentialAcrossRestoreBoundary)
{
    sim::FuzzOptions opt;
    opt.scriptLen = 1200;
    opt.runCycles = 20000;
    for (uint32_t cpus : {1u, 2u, 4u}) {
        opt.numCpus = cpus;
        for (uint64_t seed : {3u, 11u}) {
            const sim::FuzzOutcome out =
                sim::runSnapshotDifferential(seed, opt, 7000);
            EXPECT_TRUE(out.ok)
                << "cpus=" << cpus << " seed=" << seed << ": "
                << out.detail;
            EXPECT_GT(out.eventsCompared, 0u);
        }
    }
}

TEST(SnapshotMachine, CutPointIsClamped)
{
    sim::FuzzOptions opt;
    opt.numCpus = 2;
    opt.scriptLen = 400;
    opt.runCycles = 6000;
    // Degenerate cut points clamp into [1, runCycles - 1] and still
    // satisfy the differential.
    for (sim::Cycle at : {sim::Cycle(0), sim::Cycle(6000),
                          sim::Cycle(1u << 30)}) {
        const sim::FuzzOutcome out =
            sim::runSnapshotDifferential(5, opt, at);
        EXPECT_TRUE(out.ok) << "at=" << at << ": " << out.detail;
    }
}
