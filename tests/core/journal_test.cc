/** @file Sweep-journal tests.
 *
 *  The journal is the crash-recovery backbone: every record appended
 *  before a kill must replay intact, a torn tail (the kill landed
 *  mid-append) must be dropped and truncated away rather than poison
 *  the file, and the job-identity hash must be exactly as sensitive
 *  as the measured results are. These tests pin the round-trip of
 *  every record type, the torn-tail contract, poison persistence,
 *  fresh-open semantics, the version check and hash stability.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "core/journal.hh"
#include "sim/snapshot/container.hh"
#include "util/binio.hh"
#include "util/error.hh"
#include "temp_path.hh"

using namespace mpos;
using namespace mpos::core;

namespace
{

JournalJobRow
sampleRow(const std::string &name, uint64_t hash)
{
    JournalJobRow row;
    row.name = name;
    row.configHash = hash;
    row.status = 2; // JobStatus::Done
    row.monitorTransactions = 12345;
    row.invariantChecks = 67;
    row.kind = 1;
    row.cpus = 4;
    row.measureCycles = 300000;
    return row;
}

ExperimentConfig
quickConfig(uint64_t seed = 7)
{
    ExperimentConfig cfg;
    cfg.kind = workload::WorkloadKind::Pmake;
    cfg.warmupCycles = 150000;
    cfg.measureCycles = 300000;
    cfg.options.seed = seed;
    return cfg;
}

} // namespace

TEST(SweepJournal, RoundTripsEveryRecordType)
{
    const test::TempPath tmp("journal_roundtrip", test::TempPath::Dir);
    const std::string &dir = tmp.path;
    {
        SweepJournal j;
        j.open(dir, false);
        j.appendPlan("std/Pmake", 0x1111);
        j.appendPlan("fig11/cpus4", 0x2222);
        j.appendJobEnd(sampleRow("std/Pmake", 0x1111));
        j.appendAnalysisEnd("fig11_lock_scaling", true, "",
                            "table body\nwith two lines\n");
        j.appendPoison(0xdeadbeef);
    }
    SweepJournal j;
    j.open(dir, true);
    const JournalState &st = j.state();
    ASSERT_EQ(st.plan.size(), 2u);
    EXPECT_EQ(st.plan[0].first, "std/Pmake");
    EXPECT_EQ(st.plan[0].second, 0x1111u);
    EXPECT_EQ(st.plan[1].first, "fig11/cpus4");

    ASSERT_TRUE(st.jobs.count("std/Pmake"));
    const JournalJobRow &row = st.jobs.at("std/Pmake");
    EXPECT_EQ(row.configHash, 0x1111u);
    EXPECT_EQ(row.status, 2u);
    EXPECT_EQ(row.monitorTransactions, 12345u);
    EXPECT_EQ(row.invariantChecks, 67u);
    EXPECT_EQ(row.cpus, 4u);
    EXPECT_EQ(row.measureCycles, 300000u);
    EXPECT_FALSE(st.jobs.count("fig11/cpus4"));

    ASSERT_TRUE(st.analyses.count("fig11_lock_scaling"));
    EXPECT_TRUE(st.analyses.at("fig11_lock_scaling").ok);
    EXPECT_EQ(st.analyses.at("fig11_lock_scaling").output,
              "table body\nwith two lines\n");

    ASSERT_EQ(st.poisonedKeys.size(), 1u);
    EXPECT_EQ(st.poisonedKeys[0], 0xdeadbeefu);
    EXPECT_FALSE(st.truncatedTail);
}

TEST(SweepJournal, TornTailIsTruncatedNotFatal)
{
    const test::TempPath tmp("journal_torn", test::TempPath::Dir);
    const std::string &dir = tmp.path;
    {
        SweepJournal j;
        j.open(dir, false);
        j.appendPlan("std/Pmake", 0xabc);
        j.appendJobEnd(sampleRow("std/Pmake", 0xabc));
    }
    const std::string path = dir + "/sweep.mpj";
    const auto intact = std::filesystem::file_size(path);
    {
        // A kill mid-append: a frame length promising more bytes than
        // the file holds.
        FILE *f = std::fopen(path.c_str(), "ab");
        ASSERT_NE(f, nullptr);
        const unsigned char torn[6] = {0x40, 0, 0, 0, 0x03, 0x99};
        std::fwrite(torn, 1, sizeof torn, f);
        std::fclose(f);
    }
    {
        SweepJournal j;
        j.open(dir, true);
        EXPECT_TRUE(j.state().truncatedTail);
        EXPECT_EQ(j.state().records, 2u);
        ASSERT_TRUE(j.state().jobs.count("std/Pmake"));
        // The torn bytes are gone: the file ends at the last intact
        // record again.
        EXPECT_EQ(std::filesystem::file_size(path), intact);
        // And appending after the truncation keeps the file valid.
        j.appendPoison(0x42);
    }
    SweepJournal j;
    j.open(dir, true);
    EXPECT_FALSE(j.state().truncatedTail);
    EXPECT_EQ(j.state().records, 3u);
    ASSERT_EQ(j.state().poisonedKeys.size(), 1u);
    EXPECT_EQ(j.state().poisonedKeys[0], 0x42u);
}

TEST(SweepJournal, FreshOpenDiscardsAnExistingJournal)
{
    const test::TempPath tmp("journal_fresh", test::TempPath::Dir);
    const std::string &dir = tmp.path;
    {
        SweepJournal j;
        j.open(dir, false);
        j.appendPlan("std/Pmake", 1);
        j.appendJobEnd(sampleRow("std/Pmake", 1));
    }
    {
        SweepJournal j;
        j.open(dir, false); // resume=false: start over
        EXPECT_EQ(j.state().records, 0u);
        EXPECT_TRUE(j.state().plan.empty());
    }
    SweepJournal j;
    j.open(dir, true);
    EXPECT_EQ(j.state().records, 0u);
}

TEST(SweepJournal, LastJobEndWinsAndPlansDedup)
{
    const test::TempPath tmp("journal_lastwins", test::TempPath::Dir);
    const std::string &dir = tmp.path;
    {
        SweepJournal j;
        j.open(dir, false);
        j.appendPlan("std/Pmake", 5);
        j.appendPlan("std/Pmake", 5); // resubmission: deduped
        JournalJobRow first = sampleRow("std/Pmake", 5);
        first.status = 3; // Failed
        first.error = "watchdog";
        j.appendJobEnd(first);
        j.appendJobEnd(sampleRow("std/Pmake", 5));
    }
    SweepJournal j;
    j.open(dir, true);
    ASSERT_EQ(j.state().plan.size(), 1u);
    const JournalJobRow &row = j.state().jobs.at("std/Pmake");
    EXPECT_EQ(row.status, 2u);
    EXPECT_TRUE(row.error.empty());
}

TEST(SweepJournal, RejectsAForeignFile)
{
    const test::TempPath tmp("journal_foreign", test::TempPath::Dir);
    const std::string &dir = tmp.path;
    const std::string path = dir + "/sweep.mpj";
    FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("this is not a journal", f);
    std::fclose(f);
    SweepJournal j;
    EXPECT_THROW(j.open(dir, true), util::SimError);

    // A version-1 journal: intact frames, but its 0x02 attempt-start
    // record no longer exists. Replay must refuse the file outright
    // rather than read that record as a torn tail and truncate the
    // JobEnd after it away.
    util::ByteWriter v1;
    v1.raw("MPOSJRN1", 8);
    v1.u32(1);
    auto frame = [&v1](const util::ByteWriter &payload) {
        v1.u32(uint32_t(payload.size()));
        v1.raw(payload.bytes().data(), payload.size());
        v1.u64(sim::snapshot::fnv1a(payload.bytes().data(),
                                    payload.size()));
    };
    util::ByteWriter plan;
    plan.u8(0x01);
    plan.str("std/Pmake");
    plan.u64(0x1111);
    frame(plan);
    util::ByteWriter start;
    start.u8(0x02);
    start.str("std/Pmake");
    start.u64(0x1111);
    start.u64(7);
    start.u32(1);
    start.str("");
    frame(start);
    util::ByteWriter end;
    end.u8(0x03);
    end.str("std/Pmake");
    end.u64(0x1111);
    end.u8(2);
    end.u32(1); // attempts: gone from version 3
    end.str("");
    end.u64(12345);
    end.u64(0);
    end.u8(1);
    end.u32(4);
    end.u64(300000);
    frame(end);
    f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fwrite(v1.bytes().data(), 1, v1.size(), f);
    std::fclose(f);

    SweepJournal old;
    try {
        old.open(dir, true);
        ADD_FAILURE() << "a version-1 journal was accepted";
    } catch (const util::SimError &e) {
        EXPECT_EQ(e.code(), util::ErrCode::BadConfig);
        EXPECT_NE(std::string(e.what()).find("has version 1"),
                  std::string::npos)
            << e.what();
    }
    std::vector<uint8_t> after;
    ASSERT_TRUE(sim::snapshot::readFile(path, after));
    EXPECT_EQ(after, v1.bytes());

    // A version-2 journal: its JobEnd still carries the attempts
    // count that version 3 dropped. Replay must refuse it by version
    // instead of misreading every field after the status.
    util::ByteWriter v2;
    v2.raw("MPOSJRN1", 8);
    v2.u32(2);
    for (const util::ByteWriter *payload : {&plan, &end}) {
        v2.u32(uint32_t(payload->size()));
        v2.raw(payload->bytes().data(), payload->size());
        v2.u64(sim::snapshot::fnv1a(payload->bytes().data(),
                                    payload->size()));
    }
    f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fwrite(v2.bytes().data(), 1, v2.size(), f);
    std::fclose(f);

    SweepJournal older;
    try {
        older.open(dir, true);
        ADD_FAILURE() << "a version-2 journal was accepted";
    } catch (const util::SimError &e) {
        EXPECT_EQ(e.code(), util::ErrCode::BadConfig);
        EXPECT_NE(std::string(e.what()).find("has version 2"),
                  std::string::npos)
            << e.what();
    }
    ASSERT_TRUE(sim::snapshot::readFile(path, after));
    EXPECT_EQ(after, v2.bytes());
}

TEST(SweepJournal, JobConfigHashTracksMeasuredIdentity)
{
    const ExperimentConfig a = quickConfig(7);
    const ExperimentConfig b = quickConfig(7);
    EXPECT_EQ(SweepJournal::jobConfigHash(a),
              SweepJournal::jobConfigHash(b));

    ExperimentConfig seed = quickConfig(8);
    EXPECT_NE(SweepJournal::jobConfigHash(a),
              SweepJournal::jobConfigHash(seed));

    ExperimentConfig longer = quickConfig(7);
    longer.measureCycles = 600000;
    EXPECT_NE(SweepJournal::jobConfigHash(a),
              SweepJournal::jobConfigHash(longer));
}
