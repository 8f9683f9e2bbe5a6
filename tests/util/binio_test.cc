/** @file Unit tests for the binary serialization primitives. */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/binio.hh"
#include "util/error.hh"

using mpos::util::ByteReader;
using mpos::util::ByteWriter;
using mpos::util::ErrCode;
using mpos::util::SimError;

TEST(BinIo, RoundTripEveryType)
{
    ByteWriter w;
    w.u8(0xab);
    w.u16(0xbeef);
    w.u32(0xdeadbeef);
    w.u64(0x0123456789abcdefULL);
    w.i64(-42);
    w.b(true);
    w.b(false);
    w.f64(3.14159);
    w.str("hello");
    w.str("");
    const uint8_t blob[3] = {1, 2, 3};
    w.raw(blob, sizeof blob);

    ByteReader r(w.bytes());
    EXPECT_EQ(r.u8(), 0xab);
    EXPECT_EQ(r.u16(), 0xbeef);
    EXPECT_EQ(r.u32(), 0xdeadbeefu);
    EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
    EXPECT_EQ(r.i64(), -42);
    EXPECT_TRUE(r.b());
    EXPECT_FALSE(r.b());
    EXPECT_EQ(r.f64(), 3.14159);
    EXPECT_EQ(r.str(), "hello");
    EXPECT_EQ(r.str(), "");
    uint8_t out[3] = {};
    r.raw(out, sizeof out);
    EXPECT_EQ(out[0], 1);
    EXPECT_EQ(out[2], 3);
    EXPECT_TRUE(r.atEnd());
    EXPECT_EQ(r.remaining(), 0u);
}

TEST(BinIo, LittleEndianOnTheWire)
{
    ByteWriter w;
    w.u32(0x11223344);
    const std::vector<uint8_t> &b = w.bytes();
    ASSERT_EQ(b.size(), 4u);
    EXPECT_EQ(b[0], 0x44);
    EXPECT_EQ(b[1], 0x33);
    EXPECT_EQ(b[2], 0x22);
    EXPECT_EQ(b[3], 0x11);
}

TEST(BinIo, DoublesRoundTripBitExactly)
{
    const double vals[] = {0.0, -0.0, 1.0 / 3.0, 1e-300,
                           std::nan("")};
    ByteWriter w;
    for (double v : vals)
        w.f64(v);
    ByteReader r(w.bytes());
    for (double v : vals) {
        const double got = r.f64();
        EXPECT_EQ(std::bit_cast<uint64_t>(got),
                  std::bit_cast<uint64_t>(v));
    }
}

TEST(BinIo, TruncatedReadRaisesSnapshotCorrupt)
{
    ByteWriter w;
    w.u32(7);
    ByteReader r(w.bytes());
    r.u16();
    EXPECT_THROW(r.u32(), SimError);
    try {
        ByteReader r2(w.bytes());
        r2.u64();
        FAIL() << "u64 from 4 bytes must throw";
    } catch (const SimError &e) {
        EXPECT_EQ(e.code(), ErrCode::SnapshotCorrupt);
    }
}

TEST(BinIo, TruncatedStringRaises)
{
    ByteWriter w;
    w.u32(100); // length prefix promising more than exists
    w.u8('x');
    ByteReader r(w.bytes());
    EXPECT_THROW(r.str(), SimError);
}

TEST(BinIo, BadBoolByteRaises)
{
    ByteWriter w;
    w.u8(2);
    ByteReader r(w.bytes());
    EXPECT_THROW(r.b(), SimError);
}

namespace
{

/** A walk over every archive call, the way a snapshot class writes one. */
struct Walked
{
    uint32_t slots = 3;
    int32_t owner = -1;
    bool flag = true;
    double prob = 0.25;
    std::string name = "cc1";
    std::vector<uint64_t> list{7, 9};
    std::unordered_map<uint64_t, uint32_t> table{{5, 50}, {2, 20}};

    template <class Ar>
    void
    state(Ar &ar)
    {
        ar.fixed(slots, "slot count");
        ar.i64(owner);
        ar.b(flag);
        ar.f64(prob);
        ar.str(name);
        ar.template seq<uint64_t>(list, 8, [&](uint64_t &v) { ar.u64(v); });
        ar.map(table, 12, [&](uint32_t &v) { ar.u32(v); });
    }
};

std::vector<uint8_t>
saved(Walked &x)
{
    ByteWriter w;
    mpos::util::SaveArchive ar(w);
    x.state(ar);
    return w.take();
}

} // namespace

TEST(BinIo, ArchivesReadBackWhatOneWalkWrites)
{
    Walked x;
    const std::vector<uint8_t> bytes = saved(x);

    // The wire is the plain ByteWriter encoding; the map goes in key
    // order whatever its hash layout.
    ByteWriter w;
    w.u32(3);
    w.i64(-1);
    w.b(true);
    w.f64(0.25);
    w.str("cc1");
    w.u64(2);
    w.u64(7);
    w.u64(9);
    w.u64(2);
    w.u64(2);
    w.u32(20);
    w.u64(5);
    w.u32(50);
    EXPECT_EQ(bytes, w.bytes());

    Walked y;
    y.owner = 0;
    y.flag = false;
    y.prob = 0;
    y.name.clear();
    y.list = {1, 2, 3};
    y.table = {{9, 90}};
    ByteReader r(bytes);
    mpos::util::LoadArchive ar(r);
    y.state(ar);
    EXPECT_TRUE(r.atEnd());
    EXPECT_EQ(saved(y), bytes);
}

TEST(BinIo, FixedSizeMismatchAndHugeCountsAreCorrupt)
{
    Walked x;
    const std::vector<uint8_t> bytes = saved(x);
    Walked y;
    y.slots = 4;
    ByteReader r(bytes);
    mpos::util::LoadArchive ar(r);
    try {
        y.state(ar);
        FAIL() << "a 3-slot image was accepted by a 4-slot object";
    } catch (const SimError &e) {
        EXPECT_EQ(e.code(), ErrCode::SnapshotCorrupt);
        EXPECT_NE(std::string(e.what()).find("slot count mismatch"),
                  std::string::npos);
    }

    // A sequence count larger than the remaining bytes could hold.
    std::vector<uint8_t> forged = bytes;
    const size_t at = 4 + 8 + 1 + 8 + 4 + 3; // the list's count
    forged[at + 7] = 0x10;
    Walked z;
    ByteReader fr(forged);
    mpos::util::LoadArchive far(fr);
    EXPECT_THROW(z.state(far), SimError);
}
