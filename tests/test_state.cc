/**
 * @file
 * Tests for the campaign state backend (driver/state.hh): the shared
 * JSON escape() and its inverse in json::parse(), checkpoint
 * write/resume with torn-tail quarantine, cooperative interruption,
 * deterministic sharding, and the headline guarantees — a
 * killed-and-resumed campaign's report and a sharded-and-merged report
 * are both byte-identical to an uninterrupted, unsharded run's at any
 * thread count.
 */

#include <gtest/gtest.h>

#include <cstdio>

#include "common/json.hh"
#include "driver/campaign.hh"
#include "driver/report.hh"
#include "driver/state.hh"
#include "sim/presets.hh"
#include "verify/diff_campaign.hh"
#include "verify/fuzzer.hh"
#include "verify/report.hh"

namespace msp {
namespace {

using driver::CampaignState;
using driver::CheckpointError;
using driver::SimCampaign;
using verify::DiffCampaign;

constexpr std::uint64_t kBudget = 3000;

// Labels chosen to break naive escaping: every two-char shorthand, a
// raw control byte, quotes, backslashes, and multi-byte UTF-8.
const std::vector<std::string> hostileStrings = {
    "plain",
    "quote\" backslash\\ slash/",
    "newline\n tab\t return\r",
    "bell\b feed\f",
    std::string("nul\0byte", 8),
    "\x01\x1f control",
    "caf\xc3\xa9 \xe2\x89\x88",   // café ≈ (UTF-8 passes through)
    "mix\"\\\n\t\r\b\f\x02!",
};

// ---- shared JSON primitives -----------------------------------------------

TEST(JsonEscape, EmitsTheFullControlSet)
{
    EXPECT_EQ(json::escape("a\"b"), "a\\\"b");
    EXPECT_EQ(json::escape("a\\b"), "a\\\\b");
    EXPECT_EQ(json::escape("\n\t\r\b\f"), "\\n\\t\\r\\b\\f");
    EXPECT_EQ(json::escape("\x01"), "\\u0001");
    EXPECT_EQ(json::escape("\x1f"), "\\u001f");
}

TEST(JsonEscape, UnescapeIsTheExactInverse)
{
    // parse() decodes a string literal back to exactly what escape()
    // encoded, for every byte string.
    for (const std::string &s : hostileStrings)
        EXPECT_EQ(json::parse("\"" + json::escape(s) + "\"").text, s);
    // Decodings escape() never emits but JSON allows.
    EXPECT_EQ(json::parse("\"a\\/b\"").text, "a/b");
    EXPECT_EQ(json::parse("\"\\u0041\"").text, "A");
}

// The historical bug: the verify-report reader kept the character
// after a backslash verbatim, so "\n" decoded to 'n'. getStr must
// decode exactly what writers emit.
TEST(JsonEscape, GetStrDecodesWhatWritersEmit)
{
    for (const std::string &s : hostileStrings) {
        const std::string obj = "{\"k\": \"" + json::escape(s) + "\"}";
        EXPECT_EQ(json::getStr(json::parse(obj), "k"), s);
    }
}

TEST(CsvQuote, CarriageReturnTriggersQuoting)
{
    driver::JobResult jr;
    jr.job.scenario = "a\rb";
    jr.job.config = baselineConfig(PredictorKind::Gshare);
    const std::string csv = driver::toCsv({jr});
    // Unquoted, the \r would split the record in two.
    EXPECT_NE(csv.find("\"a\rb\""), std::string::npos);
}

// ---- checkpoint payload codecs --------------------------------------------

TEST(StateCodec, SimResultRoundTripsExactly)
{
    RunResult r;
    r.workload = hostileStrings.back();
    r.config = "cfg\"\n";
    r.cycles = 123456789;
    r.committed = 42;
    r.mispredicts = 7;
    r.bankStallCycles[0] = 11;
    r.bankStallCycles[3] = ~std::uint64_t{0};
    const RunResult back =
        driver::simResultFromJson(driver::simResultToJson(r));
    EXPECT_EQ(back.workload, r.workload);
    EXPECT_EQ(back.config, r.config);
    EXPECT_EQ(back.cycles, r.cycles);
    EXPECT_EQ(back.committed, r.committed);
    EXPECT_EQ(back.mispredicts, r.mispredicts);
    EXPECT_EQ(back.bankStallCycles, r.bankStallCycles);
}

// Checkpoints written before the counters were listed in report order
// carry their keys in the old order; the reader looks keys up by name.
TEST(StateCodec, SimResultReadsTheEarlierKeyOrder)
{
    const std::string earlier =
        "{\"workload\": \"gzip\", \"config\": \"16-SP+Arb\", "
        "\"cycles\": 1, \"committed\": 2, \"wrong_path_exec\": 3, "
        "\"re_executed\": 4, \"total_executed\": 5, \"branches\": 6, "
        "\"mispredicts\": 7, \"recoveries\": 8, \"exceptions\": 9, "
        "\"rename_stall_cycles\": 10, \"reg_stall_cycles\": 11, "
        "\"sq_stall_cycles\": 12, \"iq_stall_cycles\": 13, "
        "\"checkpoints_taken\": 14, \"l2_misses\": 15, "
        "\"bank_stall_cycles\": [16, 0, 17]}";
    RunResult want;
    want.workload = "gzip";
    want.config = "16-SP+Arb";
    want.cycles = 1;
    want.committed = 2;
    want.wrongPathExec = 3;
    want.reExecuted = 4;
    want.totalExecuted = 5;
    want.branches = 6;
    want.mispredicts = 7;
    want.recoveries = 8;
    want.exceptions = 9;
    want.renameStallCycles = 10;
    want.regStallCycles = 11;
    want.sqStallCycles = 12;
    want.iqStallCycles = 13;
    want.checkpointsTaken = 14;
    want.l2Misses = 15;
    want.bankStallCycles[0] = 16;
    want.bankStallCycles[2] = 17;
    EXPECT_EQ(driver::simResultFromJson(earlier), want);
    EXPECT_EQ(driver::simResultFromJson(driver::simResultToJson(want)),
              want);
}

TEST(StateCodec, DiffOutcomeRoundTripsExactly)
{
    verify::DiffOutcome o;
    o.mix = "mix\"\n";
    o.seed = 99;
    o.config = hostileStrings[2];
    o.workload = "w\tx";
    o.committedCore = 1000;
    o.committedRef = 1001;
    o.cycles = 5000;
    o.streamHash = 0xdeadbeefcafe1234ull;
    o.snapshotEvery = 256;
    o.localized = true;
    o.badWindowLo = 512;
    o.badWindowHi = 768;
    o.divergences.push_back(
        verify::Divergence{"stream", hostileStrings.back()});
    const verify::DiffOutcome back =
        verify::outcomeFromJson(verify::outcomeToJson(o));
    EXPECT_EQ(back.mix, o.mix);
    EXPECT_EQ(back.seed, o.seed);
    EXPECT_EQ(back.config, o.config);
    EXPECT_EQ(back.workload, o.workload);
    EXPECT_EQ(back.committedCore, o.committedCore);
    EXPECT_EQ(back.committedRef, o.committedRef);
    EXPECT_EQ(back.cycles, o.cycles);
    EXPECT_EQ(back.streamHash, o.streamHash);
    EXPECT_EQ(back.snapshotEvery, o.snapshotEvery);
    EXPECT_EQ(back.localized, o.localized);
    EXPECT_EQ(back.badWindowLo, o.badWindowLo);
    EXPECT_EQ(back.badWindowHi, o.badWindowHi);
    ASSERT_EQ(back.divergences.size(), 1u);
    EXPECT_EQ(back.divergences[0].kind, "stream");
    EXPECT_EQ(back.divergences[0].detail, o.divergences[0].detail);
}

// ---- CampaignState file lifecycle -----------------------------------------

struct TempCheckpoint
{
    std::string path;
    explicit TempCheckpoint(const char *name)
        : path(std::string("/tmp/msp_test_") + name + ".ckpt")
    {
        std::remove(path.c_str());
        std::remove((path + ".torn").c_str());
    }
    ~TempCheckpoint()
    {
        std::remove(path.c_str());
        std::remove((path + ".torn").c_str());
    }
};

TEST(CampaignState, ResumeRestoresOnlyRecordedJobs)
{
    TempCheckpoint f("resume_basic");
    {
        CampaignState st;
        st.configure(f.path, 1, false);
        st.begin("sim", {0, 1, 2}, {"k0", "k1", "k2"});
        st.recordDone(0, "k0", "{\"v\": 1}");
        st.recordDone(2, "k2", "{\"v\": 3}");
        st.finalFlush();
    }
    CampaignState st;
    st.configure(f.path, 1, true);
    st.begin("sim", {0, 1, 2}, {"k0", "k1", "k2"});
    EXPECT_EQ(st.completedCount(), 2u);
    ASSERT_NE(st.completedPayload(0), nullptr);
    EXPECT_EQ(*st.completedPayload(0), "{\"v\": 1}");
    EXPECT_EQ(st.completedPayload(1), nullptr);
    ASSERT_NE(st.completedPayload(2), nullptr);
    EXPECT_EQ(*st.completedPayload(2), "{\"v\": 3}");
}

TEST(CampaignState, TornTrailingRecordIsQuarantinedNotFatal)
{
    TempCheckpoint f("torn_tail");
    {
        CampaignState st;
        st.configure(f.path, 1, false);
        st.begin("sim", {0, 1}, {"k0", "k1"});
        st.recordDone(0, "k0", "{\"v\": 1}");
        st.recordDone(1, "k1", "{\"v\": 2}");
        st.finalFlush();
    }
    // Tear the trailing record mid-line, as a crash mid-append would.
    const std::string content = driver::readFile(f.path);
    driver::writeFile(f.path, content.substr(0, content.size() - 5));

    CampaignState st;
    st.configure(f.path, 1, true);
    st.begin("sim", {0, 1}, {"k0", "k1"});
    EXPECT_EQ(st.completedCount(), 1u);
    EXPECT_EQ(st.tornRecords(), 1u);
    EXPECT_NE(st.completedPayload(0), nullptr);
    EXPECT_EQ(st.completedPayload(1), nullptr);
    // The torn bytes are preserved for post-mortems, not discarded.
    std::string torn;
    EXPECT_TRUE(driver::tryReadFile(f.path + ".torn", torn));
    EXPECT_NE(torn.find("\"index\": 1"), std::string::npos);
}

TEST(CampaignState, MidFileCorruptionThrows)
{
    TempCheckpoint f("mid_corrupt");
    {
        CampaignState st;
        st.configure(f.path, 1, false);
        st.begin("sim", {0, 1}, {"k0", "k1"});
        st.recordDone(0, "k0", "{\"v\": 1}");
        st.recordDone(1, "k1", "{\"v\": 2}");
        st.finalFlush();
    }
    // Corrupt the *first* record: only a torn tail is recoverable.
    std::string content = driver::readFile(f.path);
    const std::size_t firstNl = content.find('\n');
    driver::writeFile(f.path,
                      content.substr(0, firstNl + 1) + "garbage\n" +
                          content.substr(content.find(
                              '\n', firstNl + 1) + 1));
    CampaignState st;
    st.configure(f.path, 1, true);
    EXPECT_THROW(st.begin("sim", {0, 1}, {"k0", "k1"}),
                 CheckpointError);
}

TEST(CampaignState, DifferentCampaignOrModeIsRejected)
{
    TempCheckpoint f("fingerprint");
    {
        CampaignState st;
        st.configure(f.path, 1, false);
        st.begin("sim", {0, 1}, {"k0", "k1"});
        st.recordDone(0, "k0", "{\"v\": 1}");
        st.finalFlush();
    }
    CampaignState wrongKeys;
    wrongKeys.configure(f.path, 1, true);
    EXPECT_THROW(wrongKeys.begin("sim", {0, 1}, {"k0", "DIFFERENT"}),
                 CheckpointError);
    CampaignState wrongMode;
    wrongMode.configure(f.path, 1, true);
    EXPECT_THROW(wrongMode.begin("verify", {0, 1}, {"k0", "k1"}),
                 CheckpointError);
    CampaignState missing;
    missing.configure("/tmp/msp_test_no_such.ckpt", 1, true);
    EXPECT_THROW(missing.begin("sim", {0}, {"k0"}), CheckpointError);
}

TEST(ShardSelect, ShardsPartitionTheIndexSpace)
{
    std::vector<bool> seen(17, false);
    for (unsigned s = 0; s < 4; ++s) {
        for (std::size_t i : driver::shardSelect(17, s, 4)) {
            EXPECT_FALSE(seen[i]);   // disjoint
            seen[i] = true;
        }
    }
    for (bool b : seen)   // complete
        EXPECT_TRUE(b);
}

// ---- the headline guarantees, driver side ---------------------------------

std::vector<MachineConfig>
smallLadder()
{
    return {
        baselineConfig(PredictorKind::Gshare),
        nspConfig(16, PredictorKind::Gshare),
    };
}

// Eight jobs, so stopping after two (with two workers) always leaves
// jobs never started — the interrupt path has to handle both restored
// and fresh rows on resume.
void
addSimJobs(SimCampaign &c)
{
    c.addMatrix({"gzip", "swim"}, smallLadder(), kBudget, 1);
    c.addMatrix({"gzip", "swim"}, smallLadder(), kBudget, 2);
}

std::string
simReferenceReport()
{
    SimCampaign c(2);
    addSimJobs(c);
    return driver::toJson(c.run());
}

TEST(SimCampaign, InterruptedThenResumedReportIsByteIdentical)
{
    const std::string reference = simReferenceReport();

    for (unsigned resumeThreads : {1u, 4u}) {
        TempCheckpoint f("sim_resume");
        driver::setCampaignStop(false);

        // First run: stop cooperatively once two jobs completed.
        {
            SimCampaign c(2);
            addSimJobs(c);
            CampaignState st;
            st.configure(f.path, 1, false);
            c.attachState(&st);
            const auto partial =
                c.run([&](const driver::JobResult &, std::size_t done,
                          std::size_t) {
                    if (done >= 2)
                        driver::setCampaignStop(true);
                });
            std::size_t ran = 0;
            for (const auto &jr : partial)
                ran += jr.ran ? 1 : 0;
            EXPECT_GE(ran, 2u);
            EXPECT_LT(ran, partial.size());   // some jobs never started
            EXPECT_EQ(st.completedCount(), ran);
        }
        driver::setCampaignStop(false);

        // Resumed run: restored rows + fresh rows must render exactly
        // the uninterrupted report, at any thread count.
        SimCampaign c(resumeThreads);
        addSimJobs(c);
        CampaignState st;
        st.configure(f.path, 1, true);
        c.attachState(&st);
        EXPECT_EQ(driver::toJson(c.run()), reference);
    }
}

TEST(SimCampaign, ShardedReportsMergeToTheUnshardedReport)
{
    const std::string reference = simReferenceReport();

    std::vector<std::string> shardDocs;
    for (unsigned s = 0; s < 3; ++s) {
        SimCampaign c(2);
        addSimJobs(c);
        c.restrictToShard(s, 3);
        shardDocs.push_back(driver::toJson(c.run()));
    }
    EXPECT_EQ(driver::mergeReports(shardDocs), reference);
}

TEST(MergeReports, RejectsOverlapAndMixedKinds)
{
    SimCampaign c(1);
    c.addMatrix({"gzip"}, smallLadder(), kBudget);
    const std::string doc = driver::toJson(c.run());
    // The same shard twice: every index collides.
    EXPECT_THROW(driver::mergeReports({doc, doc}), CheckpointError);
    const std::string verifyDoc =
        verify::toJson(std::vector<verify::DiffOutcome>{});
    EXPECT_THROW(driver::mergeReports({doc, verifyDoc}),
                 CheckpointError);
    EXPECT_THROW(driver::mergeReports({}), CheckpointError);
}

// ---- the headline guarantees, verify side ---------------------------------

DiffCampaign
smallSweep(unsigned threads)
{
    DiffCampaign c(threads);
    c.addSweep({*verify::findMix("branchy")}, 3, 1,
               {idealMspConfig(PredictorKind::Gshare),
                nspConfig(16, PredictorKind::Gshare)},
               1u << 18);
    return c;
}

TEST(DiffCampaign, InterruptedThenResumedReportIsByteIdentical)
{
    const std::string reference =
        verify::toJson(smallSweep(2).run());

    TempCheckpoint f("diff_resume");
    driver::setCampaignStop(false);
    {
        DiffCampaign c = smallSweep(2);
        CampaignState st;
        st.configure(f.path, 1, false);
        c.attachState(&st);
        c.run([&](const verify::DiffOutcome &, std::size_t done,
                  std::size_t) {
            if (done >= 2)
                driver::setCampaignStop(true);
        });
        EXPECT_GE(st.completedCount(), 1u);
        EXPECT_LT(st.completedCount(), 6u);
    }
    driver::setCampaignStop(false);

    DiffCampaign c = smallSweep(1);
    CampaignState st;
    st.configure(f.path, 1, true);
    c.attachState(&st);
    EXPECT_EQ(verify::toJson(c.run()), reference);
}

TEST(DiffCampaign, ShardedReportsMergeToTheUnshardedReport)
{
    const std::string reference =
        verify::toJson(smallSweep(2).run());

    std::vector<std::string> shardDocs;
    for (unsigned s = 0; s < 3; ++s) {
        DiffCampaign c = smallSweep(2);
        c.restrictToShard(s, 3);
        shardDocs.push_back(verify::toJson(c.run()));
    }
    EXPECT_EQ(driver::mergeReports(shardDocs), reference);
}

// Sharding by (mix, seed) group keeps every config of one fuzzed
// program in the same shard — the contract applyTimingInvariant needs.
TEST(DiffCampaign, ShardingKeepsProgramGroupsIntact)
{
    for (unsigned s = 0; s < 3; ++s) {
        DiffCampaign c = smallSweep(1);
        c.restrictToShard(s, 3);
        EXPECT_EQ(c.size() % 2, 0u);   // both configs or neither
        const auto &jobs = c.pending();
        for (std::size_t i = 0; i + 1 < jobs.size(); i += 2)
            EXPECT_EQ(jobs[i].seed, jobs[i + 1].seed);
    }
}

} // anonymous namespace
} // namespace msp
