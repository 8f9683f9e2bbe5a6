#include "sim/snapshot/container.hh"

#include <cstdio>

#include "sim/fault/crash.hh"
#include "util/error.hh"

namespace mpos::sim::snapshot
{

namespace
{
/** 8-byte magic at offset 0 of every snapshot image. */
constexpr char magic[8] = {'M', 'P', 'O', 'S', 'S', 'N', 'P', '1'};
} // namespace

uint64_t
fnv1a(const uint8_t *data, size_t size, uint64_t seed)
{
    uint64_t h = seed;
    for (size_t i = 0; i < size; ++i) {
        h ^= data[i];
        h *= 0x100000001b3ULL;
    }
    return h;
}

const std::vector<uint8_t> &
Parsed::section(Section tag) const
{
    for (const auto &[t, bytes] : sections)
        if (t == uint32_t(tag))
            return bytes;
    util::raise(util::ErrCode::SnapshotCorrupt,
                "snapshot: missing section 0x%08x", uint32_t(tag));
}

std::vector<uint8_t>
pack(uint64_t config_hash,
     std::vector<std::pair<Section, std::vector<uint8_t>>> sections)
{
    util::ByteWriter w;
    w.raw(magic, sizeof(magic));
    w.u32(formatVersion);
    w.u64(config_hash);
    w.u32(uint32_t(sections.size()));
    for (const auto &[tag, bytes] : sections) {
        w.u32(uint32_t(tag));
        w.u32(uint32_t(bytes.size()));
        w.raw(bytes.data(), bytes.size());
    }
    const uint64_t sum = fnv1a(w.bytes().data(), w.size());
    w.u64(sum);
    return w.take();
}

Parsed
parse(const uint8_t *data, size_t size)
{
    if (size < sizeof(magic) + 4 + 8 + 4 + 8)
        util::raise(util::ErrCode::SnapshotCorrupt,
                    "snapshot: %zu bytes is shorter than a header",
                    size);
    // The checksum covers everything before its own 8 bytes.
    util::ByteReader tail(data + size - 8, 8);
    const uint64_t want = tail.u64();
    const uint64_t got = fnv1a(data, size - 8);
    if (want != got)
        util::raise(util::ErrCode::SnapshotCorrupt,
                    "snapshot: checksum mismatch (stored %016llx, "
                    "computed %016llx)",
                    (unsigned long long)want, (unsigned long long)got);

    util::ByteReader r(data, size - 8);
    char m[8];
    r.raw(m, sizeof(m));
    for (size_t i = 0; i < sizeof(magic); ++i)
        if (m[i] != magic[i])
            util::raise(util::ErrCode::SnapshotCorrupt,
                        "snapshot: bad magic");
    const uint32_t version = r.u32();
    if (version != formatVersion)
        util::raise(util::ErrCode::SnapshotCorrupt,
                    "snapshot: format version %u, this build reads %u",
                    version, formatVersion);

    Parsed p;
    p.hash = r.u64();
    // The section table is untrusted even after the checksum passes
    // (an attacker can recompute it): every count and length is
    // checked against the bytes actually present before any
    // allocation, tags must be known, and a tag may appear only once.
    const uint32_t n = r.u32();
    constexpr uint32_t maxSections = 16;
    if (n > maxSections)
        util::raise(util::ErrCode::SnapshotCorrupt,
                    "snapshot: %u sections (limit %u)", n,
                    maxSections);
    for (uint32_t i = 0; i < n; ++i) {
        const uint32_t tag = r.u32();
        if (tag != uint32_t(Section::Machine) &&
            tag != uint32_t(Section::Kernel) &&
            tag != uint32_t(Section::Workload))
            util::raise(util::ErrCode::SnapshotCorrupt,
                        "snapshot: unknown section tag 0x%08x", tag);
        for (const auto &[seen, bytes] : p.sections)
            if (seen == tag)
                util::raise(util::ErrCode::SnapshotCorrupt,
                            "snapshot: duplicate section 0x%08x", tag);
        const uint32_t len = r.u32();
        if (len > r.remaining())
            util::raise(util::ErrCode::SnapshotCorrupt,
                        "snapshot: section 0x%08x claims %u bytes, "
                        "%zu remain",
                        tag, len, r.remaining());
        std::vector<uint8_t> bytes(len);
        r.raw(bytes.data(), len);
        p.sections.emplace_back(tag, std::move(bytes));
    }
    if (!r.atEnd())
        util::raise(util::ErrCode::SnapshotCorrupt,
                    "snapshot: %zu trailing bytes after last section",
                    r.remaining());
    return p;
}

bool
writeFileAtomic(const std::string &path,
                const std::vector<uint8_t> &bytes)
{
    const std::string tmp = path + ".tmp";
    std::FILE *f = std::fopen(tmp.c_str(), "wb");
    if (!f)
        return false;
    if (crashPointArmed("snapshot.mid-write")) {
        // Torn-write fault: commit half the image to the temp file and
        // die before the rename. The recovery invariant under test:
        // the final path never exists torn (rename is the commit
        // point), so a restarted sweep falls back cold, never corrupt.
        std::fwrite(bytes.data(), 1, bytes.size() / 2, f);
        std::fflush(f);
        crashNow("snapshot.mid-write");
    }
    const size_t n =
        bytes.empty() ? 0
                      : std::fwrite(bytes.data(), 1, bytes.size(), f);
    const bool wrote = std::fclose(f) == 0 && n == bytes.size();
    if (!wrote || std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        return false;
    }
    return true;
}

bool
readFile(const std::string &path, std::vector<uint8_t> &out)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return false;
    out.clear();
    uint8_t buf[1 << 16];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        out.insert(out.end(), buf, buf + n);
    const bool ok = std::ferror(f) == 0;
    std::fclose(f);
    return ok;
}

} // namespace mpos::sim::snapshot
