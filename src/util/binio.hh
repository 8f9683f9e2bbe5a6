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
 *
 * SaveArchive and LoadArchive put one interface over the two, so each
 * snapshot-able class lists its fields once, in a
 * `template <class Ar> void state(Ar &ar)` walk that serves both
 * directions.
 */

#ifndef MPOS_UTIL_BINIO_HH
#define MPOS_UTIL_BINIO_HH

#include <algorithm>
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

/**
 * The save side of a state walk. Each call names the field's wire
 * type (ar.u32(x) travels as 32 bits whatever x's type is), so a walk
 * reads back exactly the bytes it wrote. The walk runs on a mutable
 * object in both directions; a const save entry point casts constness
 * away, and nothing here writes through it.
 */
class SaveArchive
{
  public:
    static constexpr bool loading = false;

    explicit SaveArchive(ByteWriter &writer) : w(writer) {}

    template <class T> void u8(const T &v) { w.u8(uint8_t(v)); }
    template <class T> void u16(const T &v) { w.u16(uint16_t(v)); }
    template <class T> void u32(const T &v) { w.u32(uint32_t(v)); }
    template <class T> void u64(const T &v) { w.u64(uint64_t(v)); }
    template <class T> void i64(const T &v) { w.i64(int64_t(v)); }
    void b(bool v) { w.b(v); }
    void f64(double v) { w.f64(v); }
    void str(const std::string &s) { w.str(s); }
    void raw(const void *p, size_t n) { w.raw(p, n); }

    /** A size the restoring object already has (a u32 or u64). */
    template <class N> void fixed(N n, const char *) { word(n); }

    /** An element count (a u32 or u64); the loader guards it. */
    template <class N> void count(N &n, size_t) { word(n); }

    /** A counted sequence: count N, then elem(e) for each element. */
    template <class N, class C, class F>
    void
    seq(C &c, size_t min_elem_bytes, F &&elem)
    {
        N n = N(c.size());
        count(n, min_elem_bytes);
        for (auto &e : c)
            elem(e);
    }

    /**
     * A u64-counted map with u64 keys, written in key order so equal
     * contents give equal bytes whatever the hash layout: each key,
     * then val(value).
     */
    template <class M, class F>
    void
    map(M &m, size_t min_entry_bytes, F &&val)
    {
        std::vector<typename M::key_type> keys;
        keys.reserve(m.size());
        for (const auto &kv : m)
            keys.push_back(kv.first);
        std::sort(keys.begin(), keys.end());
        uint64_t n = keys.size();
        count(n, min_entry_bytes);
        for (const auto &key : keys) {
            u64(key);
            val(m.at(key));
        }
    }

    /** An object with a separate saveState/restoreState pair. */
    template <class T> void split(T &obj) { obj.saveState(w); }

    ByteWriter &w;

  private:
    void word(uint32_t n) { w.u32(n); }
    void word(uint64_t n) { w.u64(n); }
};

/** The load side of a state walk: the same calls, read back. */
class LoadArchive
{
  public:
    static constexpr bool loading = true;

    explicit LoadArchive(ByteReader &reader) : r(reader) {}

    template <class T> void u8(T &v) { v = T(r.u8()); }
    template <class T> void u16(T &v) { v = T(r.u16()); }
    template <class T> void u32(T &v) { v = T(r.u32()); }
    template <class T> void u64(T &v) { v = T(r.u64()); }
    template <class T> void i64(T &v) { v = T(r.i64()); }
    void b(bool &v) { v = r.b(); }
    void f64(double &v) { v = r.f64(); }
    void str(std::string &s) { s = r.str(); }
    void raw(void *p, size_t n) { r.raw(p, n); }

    /** Raises SnapshotCorrupt unless the image's size is n. */
    template <class N>
    void
    fixed(N n, const char *what)
    {
        const N got = sizeof(N) == 4 ? N(r.u32()) : N(r.u64());
        if (got != n)
            raise(ErrCode::SnapshotCorrupt,
                  "snapshot: %s mismatch (snapshot %llu, machine %llu)",
                  what, (unsigned long long)got, (unsigned long long)n);
    }

    /** A count whose elements take at least min_elem_bytes each. */
    template <class N>
    void
    count(N &n, size_t min_elem_bytes)
    {
        if constexpr (sizeof(N) == 4)
            n = r.countU32(min_elem_bytes);
        else
            n = r.countU64(min_elem_bytes);
    }

    template <class N, class C, class F>
    void
    seq(C &c, size_t min_elem_bytes, F &&elem)
    {
        N n;
        count(n, min_elem_bytes);
        c.clear();
        if constexpr (requires { c.reserve(n); })
            c.reserve(n);
        for (N i = 0; i < n; ++i)
            elem(c.emplace_back());
    }

    template <class M, class F>
    void
    map(M &m, size_t min_entry_bytes, F &&val)
    {
        uint64_t n;
        count(n, min_entry_bytes);
        m.clear();
        for (uint64_t i = 0; i < n; ++i)
            val(m[r.u64()]);
    }

    template <class T> void split(T &obj) { obj.restoreState(r); }

    ByteReader &r;
};

} // namespace mpos::util

#endif // MPOS_UTIL_BINIO_HH
