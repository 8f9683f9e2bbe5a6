/**
 * @file
 * The single machine-geometry validator.
 *
 * Historically each component policed its own corner: Machine rejected
 * non-power-of-two pages, CpuCaches rejected bad line sizes, and
 * MemorySystem rejected CPU counts the snoop filter cannot mask. A
 * config that failed one check could already have built (and sized)
 * everything that preceded it. All geometry now funnels through
 * validateConfig(), called from the constructors' initializer lists so
 * nothing is allocated for an impossible machine.
 */

#include <bit>

#include "sim/types.hh"
#include "util/error.hh"

namespace mpos::sim
{

namespace
{

/** One cache shape: the checks Cache's constructor would fail later,
 *  raised here with the machine-level parameter name attached. */
void
validateCache(const char *name, uint64_t bytes, uint32_t assoc,
              uint32_t line_bytes)
{
    using util::ErrCode;
    if (assoc == 0)
        util::raise(ErrCode::BadConfig, "%s associativity is zero",
                    name);
    if (bytes == 0 || bytes % (uint64_t(assoc) * line_bytes) != 0)
        util::raise(ErrCode::BadConfig,
                    "%s capacity %llu not a nonzero multiple of "
                    "assoc %u x line %u bytes", name,
                    static_cast<unsigned long long>(bytes), assoc,
                    line_bytes);
    if (!std::has_single_bit(bytes / (uint64_t(assoc) * line_bytes)))
        util::raise(ErrCode::BadConfig,
                    "%s set count %llu not a power of two", name,
                    static_cast<unsigned long long>(
                        bytes / (uint64_t(assoc) * line_bytes)));
}

} // namespace

const MachineConfig &
validateConfig(const MachineConfig &cfg)
{
    using util::ErrCode;

    if (cfg.numCpus == 0)
        util::raise(ErrCode::BadConfig, "numCpus is zero");
    if (cfg.numCpus > 64)
        util::raise(ErrCode::BadConfig,
                    "the per-line sharer bitmasks (snoop filter, sync "
                    "transport, lock spin masks) hold at most 64 CPUs, "
                    "got %u",
                    cfg.numCpus);

    if (uint8_t(cfg.protocol) >= numProtocols)
        util::raise(ErrCode::BadConfig,
                    "unknown coherence protocol %u",
                    unsigned(cfg.protocol));

    if (uint8_t(cfg.lockPolicy) >= numLockPolicies)
        util::raise(ErrCode::BadConfig, "unknown lock policy %u",
                    unsigned(cfg.lockPolicy));

    if (!std::has_single_bit(cfg.lineBytes))
        util::raise(ErrCode::BadConfig,
                    "line size %u not a power of two", cfg.lineBytes);
    if (cfg.lineBytes < 8)
        util::raise(ErrCode::BadConfig,
                    "line size %u leaves no room for the packed "
                    "valid/state tag bits", cfg.lineBytes);

    if (!std::has_single_bit(cfg.pageBytes))
        util::raise(ErrCode::BadConfig,
                    "page size %u not a power of two", cfg.pageBytes);
    if (cfg.pageBytes < cfg.lineBytes)
        util::raise(ErrCode::BadConfig,
                    "page size %u smaller than the %u-byte line",
                    cfg.pageBytes, cfg.lineBytes);

    if (cfg.memBytes == 0 || cfg.memBytes % cfg.pageBytes != 0)
        util::raise(ErrCode::BadConfig,
                    "memory size %llu not a nonzero multiple of the "
                    "%u-byte page",
                    static_cast<unsigned long long>(cfg.memBytes),
                    cfg.pageBytes);

    validateCache("icache", cfg.icacheBytes, cfg.icacheAssoc,
                  cfg.lineBytes);
    validateCache("l1d", cfg.l1dBytes, cfg.l1dAssoc, cfg.lineBytes);
    validateCache("l2d", cfg.l2dBytes, cfg.l2dAssoc, cfg.lineBytes);

    if (cfg.tlbEntries == 0)
        util::raise(ErrCode::BadConfig, "tlbEntries is zero");

    if (cfg.instrPerLine == 0 || cfg.cyclesPerInstr == 0)
        util::raise(ErrCode::BadConfig,
                    "instrPerLine %u / cyclesPerInstr %llu must be "
                    "nonzero", cfg.instrPerLine,
                    static_cast<unsigned long long>(cfg.cyclesPerInstr));

    return cfg;
}

} // namespace mpos::sim
