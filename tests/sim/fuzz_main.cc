/**
 * @file
 * mpos_fuzz: the differential fuzz driver.
 *
 * Sweeps a seed x CPU-count matrix through both simulation cores with
 * the invariant checkers on and compares monitor event streams and
 * final machine state bit for bit. Exit status 0 means every run
 * matched; 1 means at least one diverged, and each failure is printed
 * with its minimized script-prefix repro.
 *
 * With --snapshot-at C the matrix instead checks the snapshot
 * differential: each run is cut at cycle C, serialized through the
 * snapshot container, restored into a fresh machine and continued --
 * and must still produce the uninterrupted run's exact event stream
 * and final state.
 *
 * With --corrupt N the driver switches to the corrupt-input campaign:
 * N seeded byte-mutations of a pristine snapshot image are decoded,
 * and every one must either decode cleanly or raise a typed SimError
 * -- never crash (CI runs this mode under ASan+UBSan).
 * --emit-corrupt-corpus D regenerates the committed corrupt-snapshot
 * corpus under tests/golden/corrupt/.
 *
 * Numeric flags are strict: a value that is not a whole number in
 * range exits 2 naming the flag.
 *
 * Usage: mpos_fuzz [--seeds N] [--first-seed S] [--cpus a,b,c]
 *                  [--protocol p,q] [--lock-proto p,q]
 *                  [--script-len N] [--cycles N]
 *                  [--snapshot-at C] [--quiet]
 *                  [--corrupt N]
 *                  [--emit-corrupt-corpus D]
 */

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "sim/check/fuzz.hh"
#include "sim/snapshot/container.hh"
#include "sim/types.hh"
#include "util/cli.hh"

namespace
{

void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [options]\n"
        "  --seeds N       seeds per CPU count, 1 or more (default "
        "64)\n"
        "  --first-seed S  first seed (default 1)\n"
        "  --cpus a,b,c    CPU counts to sweep (default 1,2,4)\n"
        "  --protocol p,q  coherence protocols to sweep: any of\n"
        "                  mesi,msi,mi (default mesi)\n"
        "  --lock-proto p,q\n"
        "                  lock primitives to sweep: any of tas,"
        "ticket,mcs,\n"
        "                  futex,rcu (default tas)\n"
        "  --script-len N  script items per CPU (default 4000)\n"
        "  --cycles N      cycles per machine run (default 60000)\n"
        "  --snapshot-at C snapshot differential: cut every run at "
        "cycle C,\n"
        "                  save/restore through the snapshot container "
        "into a\n"
        "                  fresh machine, and require the identical "
        "event\n"
        "                  stream and final state (0 = off)\n"
        "  --quiet         only print the summary\n"
        "  --corrupt N     corrupt-input campaign: decode N (1 or "
        "more) seeded byte\n"
        "                  mutations of a snapshot image; each must "
        "decode or\n"
        "                  raise a typed SimError\n"
        "  --emit-corrupt-corpus D\n"
        "                  regenerate the committed corrupt-snapshot "
        "corpus\n"
        "                  (truncated/flipped-crc/oversize-len/"
        "bad-version/\n"
        "                  garbage-section)\n"
        "                  into D and exit\n",
        argv0);
}

bool
writeCorpusFile(const std::string &path,
                const std::vector<uint8_t> &bytes)
{
    FILE *f = std::fopen(path.c_str(), "wb");
    if (!f)
        return false;
    const bool ok =
        std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
    return (std::fclose(f) == 0) && ok;
}

/**
 * Write the five committed corrupt snapshots. Layout knowledge used
 * here (version u32 at offset 8, first section length u32 at offset
 * 24 + 4, trailing 8-byte FNV-1a) mirrors snapshot::pack; the two
 * variants that must get past the outer checksum to exercise the
 * framing validators have it recomputed. The fifth image is the
 * un-mutated base itself: valid framing around a garbage Machine
 * section, which must be rejected by the *state* decoders
 * (Machine::restoreState), not the container.
 */
int
emitCorruptCorpus(const std::string &dir)
{
    using mpos::sim::snapshot::fnv1a;
    namespace snapshot = mpos::sim::snapshot;

    // Every corpus file corrupts the container *framing*, which never
    // looks inside a section, so a small deterministic stand-in
    // payload keeps the committed files tiny while exercising exactly
    // the same validators a 600 KB machine image would.
    std::vector<uint8_t> payload(256);
    for (size_t i = 0; i < payload.size(); ++i)
        payload[i] = uint8_t(i * 7 + 3);
    std::vector<std::pair<snapshot::Section, std::vector<uint8_t>>>
        sections;
    sections.emplace_back(snapshot::Section::Machine, payload);
    const std::vector<uint8_t> base =
        snapshot::pack(0x4d50f05c0de42ULL, std::move(sections));
    if (base.size() < 40) {
        std::fprintf(stderr, "base image implausibly small\n");
        return 1;
    }
    const auto fixup = [](std::vector<uint8_t> &img) {
        const uint64_t sum = fnv1a(img.data(), img.size() - 8);
        for (unsigned i = 0; i < 8; ++i)
            img[img.size() - 8 + i] = uint8_t(sum >> (8 * i));
    };

    std::vector<uint8_t> truncated(base.begin(),
                                   base.begin() + base.size() / 2);

    std::vector<uint8_t> flippedCrc = base;
    flippedCrc.back() ^= 0xff;

    std::vector<uint8_t> oversizeLen = base;
    for (unsigned i = 0; i < 4; ++i) // first section's length field
        oversizeLen[28 + i] = uint8_t(0x7fffffffu >> (8 * i));
    fixup(oversizeLen);

    std::vector<uint8_t> badVersion = base;
    for (unsigned i = 0; i < 4; ++i) // format version field
        badVersion[8 + i] = uint8_t(0xdeadu >> (8 * i));
    fixup(badVersion);

    const std::pair<const char *, const std::vector<uint8_t> *>
        files[] = {
            {"truncated.snap", &truncated},
            {"flipped_crc.snap", &flippedCrc},
            {"oversize_len.snap", &oversizeLen},
            {"bad_version.snap", &badVersion},
            {"garbage_section.snap", &base},
        };
    for (const auto &[name, bytes] : files) {
        const std::string path = dir + "/" + name;
        if (!writeCorpusFile(path, *bytes)) {
            std::fprintf(stderr, "cannot write %s\n", path.c_str());
            return 1;
        }
        std::printf("wrote %s (%zu bytes)\n", path.c_str(),
                    bytes->size());
    }
    return 0;
}

std::vector<uint32_t>
parseCpuList(const char *s)
{
    std::vector<uint32_t> cpus;
    for (const char *p = s; *p;) {
        char *end = nullptr;
        const unsigned long v = std::strtoul(p, &end, 10);
        if (end == p || v == 0 || v > 64) {
            std::fprintf(stderr, "bad CPU list '%s'\n", s);
            std::exit(2);
        }
        cpus.push_back(uint32_t(v));
        p = (*end == ',') ? end + 1 : end;
    }
    return cpus;
}

std::vector<mpos::sim::Protocol>
parseProtocolList(const char *s)
{
    std::vector<mpos::sim::Protocol> protos;
    for (const char *p = s; *p;) {
        const char *end = p;
        while (*end && *end != ',')
            ++end;
        const std::string name(p, end);
        mpos::sim::Protocol proto;
        if (!mpos::sim::parseProtocol(name.c_str(), proto)) {
            std::fprintf(stderr, "bad protocol list '%s'\n", s);
            std::exit(2);
        }
        protos.push_back(proto);
        p = *end ? end + 1 : end;
    }
    if (protos.empty()) {
        std::fprintf(stderr, "bad protocol list '%s'\n", s);
        std::exit(2);
    }
    return protos;
}

std::vector<mpos::sim::LockPolicy>
parseLockPolicyList(const char *s)
{
    std::vector<mpos::sim::LockPolicy> policies;
    for (const char *p = s; *p;) {
        const char *end = p;
        while (*end && *end != ',')
            ++end;
        const std::string name(p, end);
        mpos::sim::LockPolicy policy;
        if (!mpos::sim::parseLockPolicy(name.c_str(), policy)) {
            std::fprintf(stderr, "bad lock-primitive list '%s'\n", s);
            std::exit(2);
        }
        policies.push_back(policy);
        p = *end ? end + 1 : end;
    }
    if (policies.empty()) {
        std::fprintf(stderr, "bad lock-primitive list '%s'\n", s);
        std::exit(2);
    }
    return policies;
}

} // namespace

int
main(int argc, char **argv)
{
    uint32_t numSeeds = 64;
    uint64_t firstSeed = 1;
    std::vector<uint32_t> cpus = {1, 2, 4};
    std::vector<mpos::sim::Protocol> protos = {
        mpos::sim::Protocol::Mesi};
    std::vector<mpos::sim::LockPolicy> lockPolicies = {
        mpos::sim::LockPolicy::TestAndSet};
    mpos::sim::FuzzOptions opt;
    mpos::sim::Cycle snapshotAt = 0;
    bool quiet = false;
    uint32_t corrupt = 0;
    std::string corpusDir;

    const auto number = [](const char *name, const char *v, uint64_t lo,
                           uint64_t hi) {
        return mpos::util::wholeNumber("mpos_fuzz", name, v, lo, hi);
    };
    for (int i = 1; i < argc; ++i) {
        const auto arg = [&](const char *name) -> const char * {
            if (std::strcmp(argv[i], name) != 0)
                return nullptr;
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs a value\n", name);
                std::exit(2);
            }
            return argv[++i];
        };
        if (const char *v = arg("--seeds")) {
            numSeeds = uint32_t(number("--seeds", v, 1, UINT32_MAX));
        } else if (const char *v = arg("--first-seed")) {
            firstSeed = number("--first-seed", v, 0, UINT64_MAX);
        } else if (const char *v = arg("--cpus")) {
            cpus = parseCpuList(v);
        } else if (const char *v = arg("--protocol")) {
            protos = parseProtocolList(v);
        } else if (const char *v = arg("--lock-proto")) {
            lockPolicies = parseLockPolicyList(v);
        } else if (const char *v = arg("--script-len")) {
            opt.scriptLen =
                uint32_t(number("--script-len", v, 1, UINT32_MAX));
        } else if (const char *v = arg("--cycles")) {
            opt.runCycles = number("--cycles", v, 1, UINT64_MAX);
        } else if (const char *v = arg("--snapshot-at")) {
            snapshotAt = number("--snapshot-at", v, 0, UINT64_MAX);
        } else if (const char *v = arg("--corrupt")) {
            corrupt = uint32_t(number("--corrupt", v, 1, UINT32_MAX));
        } else if (const char *v = arg("--emit-corrupt-corpus")) {
            corpusDir = v;
        } else if (!std::strcmp(argv[i], "--quiet")) {
            quiet = true;
        } else {
            usage(argv[0]);
            return 2;
        }
    }

    if (!corpusDir.empty())
        return emitCorruptCorpus(corpusDir);

    if (corrupt) {
        // The corrupt campaign decodes mutated images; the machine
        // that builds the pristine ones runs the first protocol,
        // lock primitive and CPU count.
        opt.protocol = protos.front();
        opt.lockPolicy = lockPolicies.front();
        opt.numCpus = cpus.front();
        const auto progress = [&](uint32_t done, uint32_t total) {
            if (!quiet && done % 64 == 0)
                std::fprintf(stderr, "[fuzz] %u/%u mutations decoded\n",
                             done, total);
        };
        const mpos::sim::CorruptCampaignResult res =
            mpos::sim::runCorruptCampaign(firstSeed, corrupt, opt,
                                          progress);
        std::printf("mpos_fuzz --corrupt: %u mutated images, %u "
                    "rejected with a typed error, %u decoded, %zu "
                    "contract violation(s)\n",
                    res.runs, res.rejected, res.accepted,
                    res.failures.size());
        for (const std::string &f : res.failures)
            std::printf("  %s\n", f.c_str());
        return res.ok() ? 0 : 1;
    }

    uint32_t done = 0;
    const uint32_t total = numSeeds * uint32_t(cpus.size()) *
                           uint32_t(protos.size()) *
                           uint32_t(lockPolicies.size());

    mpos::sim::FuzzMatrixResult res;
    std::vector<const char *> failProto;  // parallel to res.failures
    std::vector<const char *> failPolicy; // parallel to res.failures
    for (const mpos::sim::Protocol proto : protos) {
        opt.protocol = proto;
        const char *pname = mpos::sim::protocolName(proto);
        for (const mpos::sim::LockPolicy policy : lockPolicies) {
            opt.lockPolicy = policy;
            const char *lname = mpos::sim::lockPolicyName(policy);
            const auto progress =
                [&](uint64_t seed, uint32_t ncpus,
                    const mpos::sim::FuzzOutcome &out) {
                    ++done;
                    if (!out.ok) {
                        std::fprintf(
                            stderr,
                            "[fuzz] FAIL seed=%llu cpus=%u "
                            "protocol=%s lock-proto=%s: %s\n",
                            (unsigned long long)seed, ncpus, pname,
                            lname, out.detail.c_str());
                    } else if (!quiet && done % 16 == 0) {
                        std::fprintf(stderr, "[fuzz] %u/%u runs ok\n",
                                     done, total);
                    }
                };
            const mpos::sim::FuzzMatrixResult sub =
                snapshotAt
                    ? mpos::sim::runSnapshotMatrix(firstSeed, numSeeds,
                                                   cpus, opt,
                                                   snapshotAt,
                                                   progress)
                    : mpos::sim::runFuzzMatrix(firstSeed, numSeeds,
                                               cpus, opt, progress);
            res.runs += sub.runs;
            res.eventsCompared += sub.eventsCompared;
            res.checksPerformed += sub.checksPerformed;
            res.locks += sub.locks;
            for (const mpos::sim::FuzzFailure &f : sub.failures) {
                res.failures.push_back(f);
                failProto.push_back(pname);
                failPolicy.push_back(lname);
            }
        }
    }

    std::printf("mpos_fuzz%s: %u runs, %llu monitor events compared, "
                "%llu invariant checks, %zu failure(s)\n",
                snapshotAt ? " --snapshot-at" : "", res.runs,
                (unsigned long long)res.eventsCompared,
                (unsigned long long)res.checksPerformed,
                res.failures.size());
    std::printf("  locks: %llu losing acquires, %llu hand-offs, %llu "
                "read sections, %llu grace periods\n",
                (unsigned long long)res.locks.lostAcquires,
                (unsigned long long)res.locks.handoffs,
                (unsigned long long)res.locks.readSections,
                (unsigned long long)res.locks.gracePeriods);
    for (size_t i = 0; i < res.failures.size(); ++i) {
        const mpos::sim::FuzzFailure &f = res.failures[i];
        const std::string extra = std::string(" --protocol ") +
                                  failProto[i] + " --lock-proto " +
                                  failPolicy[i];
        if (snapshotAt) {
            std::printf("  seed %llu cpus %u protocol %s lock-proto "
                        "%s:\n    repro: "
                        "mpos_fuzz --seeds 1 --first-seed %llu "
                        "--cpus %u --snapshot-at %llu%s\n    %s\n",
                        (unsigned long long)f.seed, f.numCpus,
                        failProto[i], failPolicy[i],
                        (unsigned long long)f.seed, f.numCpus,
                        (unsigned long long)snapshotAt, extra.c_str(),
                        f.detail.c_str());
            continue;
        }
        std::printf("  seed %llu cpus %u protocol %s lock-proto %s: "
                    "minimal failing "
                    "prefix %u items\n    repro: mpos_fuzz --seeds 1 "
                    "--first-seed %llu --cpus %u --script-len %u%s\n"
                    "    %s\n",
                    (unsigned long long)f.seed, f.numCpus,
                    failProto[i], failPolicy[i], f.minimalPrefix,
                    (unsigned long long)f.seed, f.numCpus,
                    f.minimalPrefix, extra.c_str(), f.detail.c_str());
    }
    return res.ok() ? 0 : 1;
}
