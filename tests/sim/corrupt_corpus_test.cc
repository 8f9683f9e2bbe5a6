/** @file Committed corrupt-snapshot corpus tests.
 *
 *  tests/golden/corrupt/ holds five deliberately damaged MPOSSNAP
 *  images (regenerate with `mpos_fuzz --emit-corrupt-corpus`):
 *  truncated mid-image, trailing checksum flipped, a section length
 *  claiming more bytes than the image holds (with the outer checksum
 *  recomputed so the framing validator, not the checksum, must catch
 *  it), an unknown format version (likewise re-checksummed), and a
 *  well-formed container holding a garbage Machine section, which
 *  sails through the framing and must be stopped by the state
 *  decoders instead. Every one must be rejected with a typed
 *  SimError -- never a crash -- and the warm-start cache must treat
 *  such a file as a plain miss and fall back to a cold warmup.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/warmcache.hh"
#include "sim/machine.hh"
#include "sim/snapshot/container.hh"
#include "util/binio.hh"
#include "util/error.hh"
#include "temp_path.hh"

using namespace mpos;
using namespace mpos::sim;

namespace
{

std::vector<uint8_t>
corpusImage(const char *name)
{
    const std::string path =
        std::string(MPOS_GOLDEN_DIR) + "/corrupt/" + name;
    std::vector<uint8_t> bytes;
    if (!snapshot::readFile(path, bytes))
        ADD_FAILURE() << "missing corpus file " << path;
    return bytes;
}

void
expectRejected(const char *name)
{
    const std::vector<uint8_t> img = corpusImage(name);
    ASSERT_FALSE(img.empty());
    try {
        snapshot::parse(img);
        FAIL() << name << " was accepted";
    } catch (const util::SimError &e) {
        EXPECT_EQ(e.code(), util::ErrCode::SnapshotCorrupt)
            << name << ": " << e.what();
    }
}

} // namespace

TEST(CorruptCorpus, EveryCommittedImageIsRejectedWithATypedError)
{
    expectRejected("truncated.snap");
    expectRejected("flipped_crc.snap");
    expectRejected("oversize_len.snap");
    expectRejected("bad_version.snap");
}

TEST(CorruptCorpus, GarbageMachineSectionIsRejectedByStateDecoders)
{
    // The container framing of this image is intact and current, so
    // parse must accept it -- yet its Machine section is a 256-byte
    // pattern, so the deep state decoders have to reject it through
    // the typed error channel.
    const std::vector<uint8_t> img = corpusImage("garbage_section.snap");
    ASSERT_GE(img.size(), 20u);
    const snapshot::Parsed parsed = snapshot::parse(img);
    MachineConfig cfg;
    cfg.numCpus = 2;
    Machine m(cfg, 8);
    util::ByteReader r(parsed.section(snapshot::Section::Machine));
    EXPECT_THROW(m.restoreState(r), util::SimError);
}

TEST(CorruptCorpus, PreviousFormatVersionIsRejected)
{
    // The same intact image restamped with the previous format
    // version (and its checksum recomputed) must stop at the version
    // gate: a v4 machine section still ends with a fault-plan flag.
    std::vector<uint8_t> img = corpusImage("garbage_section.snap");
    ASSERT_GE(img.size(), 20u);
    const uint32_t old = snapshot::formatVersion - 1;
    for (unsigned i = 0; i < 4; ++i) // format version field
        img[8 + i] = uint8_t(old >> (8 * i));
    const uint64_t sum = snapshot::fnv1a(img.data(), img.size() - 8);
    for (unsigned i = 0; i < 8; ++i)
        img[img.size() - 8 + i] = uint8_t(sum >> (8 * i));
    try {
        snapshot::parse(img);
        FAIL() << "a version-" << old << " image was accepted";
    } catch (const util::SimError &e) {
        EXPECT_EQ(e.code(), util::ErrCode::SnapshotCorrupt);
        EXPECT_NE(std::string(e.what()).find(
                      "format version " + std::to_string(old)),
                  std::string::npos)
            << e.what();
    }
}

TEST(CorruptCorpus, WarmCacheTreatsACorruptDiskFileAsAMiss)
{
    const test::TempPath tmp("corrupt_warmcache", test::TempPath::Dir);
    const std::string &dir = tmp.path;

    // Plant every corpus image under the exact name the cache would
    // look up; a poisoned-by-corruption cache entry must read as a
    // miss (cold warmup), never an error or a crash.
    // garbage_section.snap parses, but carries a foreign config
    // hash, so the cache must also read it as a miss.
    const char *names[] = {"truncated.snap", "flipped_crc.snap",
                           "oversize_len.snap", "bad_version.snap",
                           "garbage_section.snap"};
    core::WarmStartCache cache(dir);
    uint64_t key = 0x1000;
    for (const char *name : names) {
        const std::vector<uint8_t> img = corpusImage(name);
        ASSERT_FALSE(img.empty());
        char leaf[32];
        std::snprintf(leaf, sizeof leaf, "/warm-%016llx",
                      (unsigned long long)key);
        const std::string path = dir + leaf;
        ASSERT_TRUE(snapshot::writeFileAtomic(path, img));
        EXPECT_EQ(cache.lookup(key), nullptr) << name;
        ++key;
    }
    EXPECT_EQ(cache.stats().misses, 5u);
    EXPECT_EQ(cache.stats().hits, 0u);
}
