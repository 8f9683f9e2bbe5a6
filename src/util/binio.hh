/**
 * @file
 * Bounded little-endian binary serialization primitives.
 *
 * The snapshot container serializes full machine state as a flat byte
 * stream; these are the two halves of that contract. ByteWriter
 * appends fixed-width little-endian words (host endianness never
 * leaks into a snapshot file), and ByteReader decodes them with an
 * explicit bound on every access: a truncated or corrupted stream
 * raises util::SimError(SnapshotCorrupt) instead of reading past the
 * buffer. Doubles travel as their IEEE-754 bit patterns so workload
 * probability knobs round-trip bit-exactly.
 */

#ifndef MPOS_UTIL_BINIO_HH
#define MPOS_UTIL_BINIO_HH

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "util/error.hh"

namespace mpos::util
{

/** Append-only little-endian encoder over a growable byte buffer. */
class ByteWriter
{
  public:
    void
    u8(uint8_t v)
    {
        buf.push_back(v);
    }

    void
    u16(uint16_t v)
    {
        u8(uint8_t(v));
        u8(uint8_t(v >> 8));
    }

    void
    u32(uint32_t v)
    {
        u16(uint16_t(v));
        u16(uint16_t(v >> 16));
    }

    void
    u64(uint64_t v)
    {
        u32(uint32_t(v));
        u32(uint32_t(v >> 32));
    }

    void i64(int64_t v) { u64(uint64_t(v)); }
    void b(bool v) { u8(v ? 1 : 0); }
    void f64(double v) { u64(std::bit_cast<uint64_t>(v)); }

    /** Length-prefixed byte string. */
    void
    str(const std::string &s)
    {
        u32(uint32_t(s.size()));
        buf.insert(buf.end(), s.begin(), s.end());
    }

    /** Raw bytes, no length prefix (caller frames them). */
    void
    raw(const void *p, size_t n)
    {
        const uint8_t *b8 = static_cast<const uint8_t *>(p);
        buf.insert(buf.end(), b8, b8 + n);
    }

    size_t size() const { return buf.size(); }
    const std::vector<uint8_t> &bytes() const { return buf; }
    std::vector<uint8_t> take() { return std::move(buf); }

    /** Overwrite a previously written u32 (for back-patched lengths). */
    void
    patchU32(size_t at, uint32_t v)
    {
        if (at + 4 > buf.size())
            raise(ErrCode::SnapshotCorrupt,
                  "binio: patch at %zu past end %zu", at, buf.size());
        buf[at] = uint8_t(v);
        buf[at + 1] = uint8_t(v >> 8);
        buf[at + 2] = uint8_t(v >> 16);
        buf[at + 3] = uint8_t(v >> 24);
    }

  private:
    std::vector<uint8_t> buf;
};

/** Bounds-checked little-endian decoder over a fixed byte span. */
class ByteReader
{
  public:
    ByteReader(const uint8_t *data, size_t size)
        : p(data), end_(data + size), begin_(data)
    {
    }

    explicit ByteReader(const std::vector<uint8_t> &v)
        : ByteReader(v.data(), v.size())
    {
    }

    uint8_t
    u8()
    {
        need(1);
        return *p++;
    }

    uint16_t
    u16()
    {
        const uint16_t lo = u8();
        return uint16_t(lo | (uint16_t(u8()) << 8));
    }

    uint32_t
    u32()
    {
        const uint32_t lo = u16();
        return lo | (uint32_t(u16()) << 16);
    }

    uint64_t
    u64()
    {
        const uint64_t lo = u32();
        return lo | (uint64_t(u32()) << 32);
    }

    int64_t i64() { return int64_t(u64()); }
    double f64() { return std::bit_cast<double>(u64()); }

    bool
    b()
    {
        const uint8_t v = u8();
        if (v > 1)
            raise(ErrCode::SnapshotCorrupt,
                  "binio: bool byte 0x%02x at offset %zu", v,
                  offset() - 1);
        return v != 0;
    }

    std::string
    str()
    {
        const uint32_t n = u32();
        need(n);
        std::string s(reinterpret_cast<const char *>(p), n);
        p += n;
        return s;
    }

    void
    raw(void *out, size_t n)
    {
        need(n);
        if (n) // an empty destination may be null, which memcpy forbids
            std::memcpy(out, p, n);
        p += n;
    }

    /** Skip n bytes (bounds-checked). */
    void
    skip(size_t n)
    {
        need(n);
        p += n;
    }

    /**
     * Read a u32 element count whose elements occupy at least
     * min_bytes_per_elem each. A count that promises more elements
     * than the remaining bytes could possibly hold is corruption;
     * rejecting it here keeps a hostile count from driving a
     * multi-gigabyte reserve() before the per-element reads would
     * have tripped the bound anyway.
     */
    uint32_t
    countU32(size_t min_bytes_per_elem)
    {
        const uint32_t n = u32();
        checkCount(n, min_bytes_per_elem);
        return n;
    }

    /** u64 variant of countU32 for 64-bit-counted arrays. */
    uint64_t
    countU64(size_t min_bytes_per_elem)
    {
        const uint64_t n = u64();
        checkCount(n, min_bytes_per_elem);
        return n;
    }

    size_t remaining() const { return size_t(end_ - p); }
    size_t offset() const { return size_t(p - begin_); }
    bool atEnd() const { return p == end_; }

    /** Sub-reader over the next n bytes, consuming them. */
    ByteReader
    sub(size_t n)
    {
        need(n);
        ByteReader r(p, n);
        p += n;
        return r;
    }

  private:
    void
    checkCount(uint64_t n, size_t min_bytes_per_elem)
    {
        const size_t per = min_bytes_per_elem ? min_bytes_per_elem : 1;
        if (n > remaining() / per)
            raise(ErrCode::SnapshotCorrupt,
                  "binio: count %llu at offset %zu needs %llu+ bytes, "
                  "have %zu",
                  (unsigned long long)n, offset(),
                  (unsigned long long)(n * per), remaining());
    }

    void
    need(size_t n)
    {
        if (size_t(end_ - p) < n)
            raise(ErrCode::SnapshotCorrupt,
                  "binio: need %zu bytes at offset %zu, have %zu", n,
                  offset(), remaining());
    }

    const uint8_t *p;
    const uint8_t *end_;
    const uint8_t *begin_;
};

} // namespace mpos::util

#endif // MPOS_UTIL_BINIO_HH
