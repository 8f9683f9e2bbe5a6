/**
 * @file
 * Versioned on-disk/in-memory container for machine snapshots.
 *
 * A snapshot is a flat byte image: a fixed header (magic, format
 * version, the producer's config-prefix hash), a sequence of tagged
 * length-prefixed sections (machine, kernel, workload), and a trailing
 * FNV-1a checksum over everything before it. Every field is
 * little-endian via util::ByteWriter/ByteReader, so images are
 * host-independent; parse() validates magic, version, checksum and
 * framing up front and raises util::SimError(SnapshotCorrupt) on any
 * mismatch -- a stale or truncated cache file is a typed, recoverable
 * error, never undefined behavior.
 *
 * The config hash in the header is the warm-start cache key (see
 * core/warmcache.hh): restore paths re-check it against the key they
 * looked up, so a renamed or hash-colliding file cannot restore into
 * an incompatible machine.
 */

#ifndef MPOS_SIM_SNAPSHOT_CONTAINER_HH
#define MPOS_SIM_SNAPSHOT_CONTAINER_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "util/binio.hh"

namespace mpos::sim::snapshot
{

/** Bumped whenever the serialized state layout changes.
 *  v2: sharer/spin/cached-at bitmasks widened to 64 bits for N-CPU
 *  machines. v4: coherence state lives in the L2 ways; the per-CPU
 *  state arrays and the snoop filter (rebuilt on restore) are gone. */
constexpr uint32_t formatVersion = 4;

/** Section tags (stable 32-bit constants, not an index). */
enum class Section : uint32_t
{
    Machine = 0x4843414d,  ///< "MACH": caches/TLBs/CPUs/clock.
    Kernel = 0x4e52454b,   ///< "KERN": process/lock/fs tables.
    Workload = 0x4b524f57, ///< "WORK": shared structs + cursors.
};

/** 64-bit FNV-1a over a byte span (checksums and config hashing). */
uint64_t fnv1a(const uint8_t *data, size_t size,
               uint64_t seed = 0xcbf29ce484222325ULL);

/** A parsed, validated snapshot image. */
class Parsed
{
  public:
    uint64_t configHash() const { return hash; }

    /** The named section's bytes; raises SnapshotCorrupt if absent. */
    const std::vector<uint8_t> &section(Section tag) const;

  private:
    friend Parsed parse(const uint8_t *data, size_t size);
    uint64_t hash = 0;
    std::vector<std::pair<uint32_t, std::vector<uint8_t>>> sections;
};

/** Assemble a container image from finished section payloads. */
std::vector<uint8_t>
pack(uint64_t config_hash,
     std::vector<std::pair<Section, std::vector<uint8_t>>> sections);

/** Validate and decode an image (magic/version/framing/checksum). */
Parsed parse(const uint8_t *data, size_t size);

inline Parsed
parse(const std::vector<uint8_t> &image)
{
    return parse(image.data(), image.size());
}

/**
 * Write bytes to path atomically (temp file + rename) so a crashed or
 * concurrent writer can never leave a torn snapshot behind. Returns
 * false (no throw) on I/O failure -- a cache store is best-effort.
 */
bool writeFileAtomic(const std::string &path,
                     const std::vector<uint8_t> &bytes);

/** Read a whole file; false if it does not exist or is unreadable. */
bool readFile(const std::string &path, std::vector<uint8_t> &out);

} // namespace mpos::sim::snapshot

#endif // MPOS_SIM_SNAPSHOT_CONTAINER_HH
