#include "core/journal.hh"

#include <unistd.h>

#include <cstring>

#include "core/experiment.hh"
#include "core/warmcache.hh"
#include "sim/fault/plan.hh"
#include "sim/snapshot/container.hh"
#include "util/binio.hh"
#include "util/error.hh"
#include "util/logging.hh"

namespace mpos::core
{

namespace
{

constexpr char journalMagic[8] = {'M', 'P', 'O', 'S', 'J', 'R', 'N',
                                  '1'};
constexpr uint32_t journalVersion = 2;
constexpr size_t journalHeaderBytes = sizeof(journalMagic) + 4;

/** Largest payload replay will accept (journal files are small). */
constexpr uint32_t maxPayloadBytes = 16u << 20;

} // namespace

uint64_t
SweepJournal::jobConfigHash(const ExperimentConfig &cfg)
{
    // The warm key covers every event-affecting field of the resolved
    // config; extend it with the measurement-phase knobs it excludes
    // so jobs that warm identically but measure differently get
    // distinct journal identities.
    const ExperimentConfig res = Experiment::resolvedConfig(cfg);
    util::ByteWriter w;
    w.u64(warmConfigHash(res));
    w.u64(res.measureCycles);
    w.b(res.collectMisses);
    w.b(res.collectResim);
    return sim::snapshot::fnv1a(w.bytes().data(), w.size());
}

SweepJournal::~SweepJournal()
{
    if (f)
        std::fclose(f);
}

void
SweepJournal::open(const std::string &dir, bool resume)
{
    const std::string path = dir + "/sweep.mpj";
    if (f)
        util::raise(util::ErrCode::BadConfig,
                    "journal already open");
    bool fresh = true;
    if (resume) {
        std::FILE *probe = std::fopen(path.c_str(), "rb");
        if (probe) {
            std::fclose(probe);
            replay(path);
            fresh = false;
        }
    }
    if (fresh) {
        f = std::fopen(path.c_str(), "wb");
        if (!f)
            util::raise(util::ErrCode::BadConfig,
                        "cannot create journal '%s'", path.c_str());
        util::ByteWriter w;
        w.raw(journalMagic, sizeof(journalMagic));
        w.u32(journalVersion);
        std::fwrite(w.bytes().data(), 1, w.size(), f);
        std::fflush(f);
        return;
    }
    // Resume: drop any torn tail before appending, so a new record
    // never lands after garbage.
    f = std::fopen(path.c_str(), "ab");
    if (!f)
        util::raise(util::ErrCode::BadConfig,
                    "cannot reopen journal '%s'", path.c_str());
}

void
SweepJournal::replay(const std::string &path)
{
    std::vector<uint8_t> bytes;
    if (!sim::snapshot::readFile(path, bytes))
        util::raise(util::ErrCode::BadConfig,
                    "cannot read journal '%s'", path.c_str());
    if (bytes.size() < journalHeaderBytes ||
        std::memcmp(bytes.data(), journalMagic, sizeof(journalMagic)) !=
            0)
        util::raise(util::ErrCode::BadConfig,
                    "'%s' is not a sweep journal", path.c_str());
    {
        util::ByteReader hr(bytes.data() + sizeof(journalMagic), 4);
        const uint32_t version = hr.u32();
        if (version != journalVersion)
            util::raise(util::ErrCode::BadConfig,
                        "journal '%s' has version %u, this build "
                        "reads %u",
                        path.c_str(), version, journalVersion);
    }

    size_t good = journalHeaderBytes;
    size_t off = journalHeaderBytes;
    while (off < bytes.size()) {
        // Frame: u32 len, payload, u64 checksum. Anything that does
        // not parse cleanly from here on is the torn tail of the
        // record the kill interrupted: stop, do not raise.
        if (bytes.size() - off < 4)
            break;
        util::ByteReader lr(bytes.data() + off, 4);
        const uint32_t len = lr.u32();
        if (len > maxPayloadBytes || bytes.size() - off - 4 < len ||
            bytes.size() - off - 4 - len < 8)
            break;
        const uint8_t *payload = bytes.data() + off + 4;
        util::ByteReader sr(payload + len, 8);
        const uint64_t want = sr.u64();
        if (sim::snapshot::fnv1a(payload, len) != want)
            break;
        bool parsed = true;
        try {
            util::ByteReader r(payload, len);
            const uint8_t type = r.u8();
            switch (type) {
            case journalPlan: {
                std::string name = r.str();
                const uint64_t hash = r.u64();
                bool seen = false;
                for (const auto &[n, h] : st.plan)
                    if (n == name)
                        seen = true;
                if (!seen)
                    st.plan.emplace_back(std::move(name), hash);
                break;
            }
            case journalJobEnd: {
                JournalJobRow row;
                row.name = r.str();
                row.configHash = r.u64();
                row.status = r.u8();
                row.attempts = r.u32();
                row.error = r.str();
                row.monitorTransactions = r.u64();
                row.invariantChecks = r.u64();
                row.kind = r.u8();
                row.cpus = r.u32();
                row.measureCycles = r.u64();
                st.jobs[row.name] = std::move(row);
                break;
            }
            case journalAnalysisEnd: {
                JournalAnalysis a;
                a.name = r.str();
                a.ok = r.b();
                a.error = r.str();
                a.output = r.str();
                st.analyses[a.name] = std::move(a);
                break;
            }
            case journalPoisonKey:
                st.poisonedKeys.push_back(r.u64());
                break;
            default:
                parsed = false;
                break;
            }
            if (parsed && !r.atEnd())
                parsed = false;
        } catch (const util::SimError &) {
            parsed = false;
        }
        if (!parsed)
            break;
        off += 4 + size_t(len) + 8;
        good = off;
        ++st.records;
    }
    if (good < bytes.size()) {
        st.truncatedTail = true;
        util::warn("journal: dropping %zu torn byte(s) at end of %s",
                   bytes.size() - good, path.c_str());
        if (::truncate(path.c_str(), off_t(good)) != 0)
            util::raise(util::ErrCode::BadConfig,
                        "cannot truncate torn journal '%s'",
                        path.c_str());
    }
}

void
SweepJournal::append(const std::vector<uint8_t> &payload)
{
    std::lock_guard<std::mutex> lock(mu);
    if (!f)
        return;
    util::ByteWriter w;
    w.u32(uint32_t(payload.size()));
    w.raw(payload.data(), payload.size());
    w.u64(sim::snapshot::fnv1a(payload.data(), payload.size()));
    if (sim::crashPointArmed("journal.mid-append")) {
        // Torn-frame fault: commit half the frame and die. Replay
        // must drop exactly this record and resume cleanly.
        std::fwrite(w.bytes().data(), 1, w.size() / 2, f);
        std::fflush(f);
        sim::crashNow("journal.mid-append");
    }
    std::fwrite(w.bytes().data(), 1, w.size(), f);
    std::fflush(f);
}

void
SweepJournal::appendPlan(const std::string &name, uint64_t config_hash)
{
    util::ByteWriter w;
    w.u8(journalPlan);
    w.str(name);
    w.u64(config_hash);
    append(w.bytes());
}

void
SweepJournal::appendJobEnd(const JournalJobRow &row)
{
    // The two bracketing crash points model the classic write-ahead
    // hazard windows: die before the outcome is durable (the job
    // re-runs on resume) and die after it is durable but before the
    // caller consumed it (resume serves the journaled row).
    sim::crashPoint("journal.pre-append");
    util::ByteWriter w;
    w.u8(journalJobEnd);
    w.str(row.name);
    w.u64(row.configHash);
    w.u8(row.status);
    w.u32(row.attempts);
    w.str(row.error);
    w.u64(row.monitorTransactions);
    w.u64(row.invariantChecks);
    w.u8(row.kind);
    w.u32(row.cpus);
    w.u64(row.measureCycles);
    append(w.bytes());
    sim::crashPoint("journal.post-append");
}

void
SweepJournal::appendAnalysisEnd(const std::string &name, bool ok,
                                const std::string &error,
                                const std::string &output)
{
    sim::crashPoint("analysis.pre-record");
    util::ByteWriter w;
    w.u8(journalAnalysisEnd);
    w.str(name);
    w.b(ok);
    w.str(error);
    w.str(output);
    append(w.bytes());
    sim::crashPoint("analysis.post-record");
}

void
SweepJournal::appendPoison(uint64_t key)
{
    util::ByteWriter w;
    w.u8(journalPoisonKey);
    w.u64(key);
    append(w.bytes());
}

} // namespace mpos::core
