/**
 * @file
 * Tests for driver/bench.{hh,cc}: the BENCH_throughput.json schema
 * must round-trip exactly, repeated measurements must see a
 * deterministic simulator, the regression gate must fire on real
 * throughput drops only, and the count gate on any simulated-count
 * drift whatever the host.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "common/json.hh"
#include "driver/bench.hh"
#include "sim/machine.hh"
#include "sim/presets.hh"
#include "workload/registry.hh"
#include "workload/spec.hh"

namespace msp {
namespace driver {
namespace {

BenchReport
sampleReport()
{
    BenchReport r;
    r.host = "x86_64/Example CPU @ 2.0GHz/8t";
    r.sanitized = false;
    r.predictor = "gshare";
    r.instrs = 200000;
    r.reps = 3;
    r.seed = 1;
    r.workloads = {"gzip", "gcc"};
    BenchConfigResult base;
    base.config = "baseline";
    base.committed = 400000;
    base.cycles = 1300000;
    base.wallSec = {0.50, 0.45, 0.47};
    BenchConfigResult msp16;
    msp16.config = "16sp";
    msp16.committed = 400100;
    msp16.cycles = 1200000;
    msp16.wallSec = {0.90, 0.85, 0.88};
    r.configs = {base, msp16};
    return r;
}

TEST(BenchReport, BestRepetitionIsTheThroughputFigure)
{
    const BenchReport r = sampleReport();
    EXPECT_DOUBLE_EQ(r.configs[0].bestWallSec(), 0.45);
    EXPECT_NEAR(r.configs[0].minstrPerSec(), 400000 / 0.45 / 1e6, 1e-9);
    EXPECT_NEAR(r.configs[0].mcyclesPerSec(), 1300000 / 0.45 / 1e6,
                1e-9);
}

TEST(BenchReport, JsonRoundTripsEveryField)
{
    const BenchReport r = sampleReport();
    const BenchReport back = benchReportFromJson(benchReportToJson(r));
    EXPECT_EQ(back.host, r.host);
    EXPECT_EQ(back.sanitized, r.sanitized);
    EXPECT_EQ(back.predictor, r.predictor);
    EXPECT_EQ(back.instrs, r.instrs);
    EXPECT_EQ(back.reps, r.reps);
    EXPECT_EQ(back.seed, r.seed);
    EXPECT_EQ(back.workloads, r.workloads);
    ASSERT_EQ(back.configs.size(), r.configs.size());
    for (std::size_t i = 0; i < r.configs.size(); ++i) {
        EXPECT_EQ(back.configs[i].config, r.configs[i].config);
        EXPECT_EQ(back.configs[i].committed, r.configs[i].committed);
        EXPECT_EQ(back.configs[i].cycles, r.configs[i].cycles);
        ASSERT_EQ(back.configs[i].wallSec.size(),
                  r.configs[i].wallSec.size());
        for (std::size_t j = 0; j < r.configs[i].wallSec.size(); ++j)
            EXPECT_NEAR(back.configs[i].wallSec[j],
                        r.configs[i].wallSec[j], 1e-6);
        // The derived figures survive the round trip through the
        // stored wall times, not the serialised derived fields.
        EXPECT_NEAR(back.configs[i].minstrPerSec(),
                    r.configs[i].minstrPerSec(), 1e-3);
    }
}

TEST(BenchReport, FromJsonRejectsForeignAndCorruptDocuments)
{
    EXPECT_THROW((void)benchReportFromJson("{}"), json::JsonError);
    EXPECT_THROW(
        (void)benchReportFromJson("{\"schema\": \"msp-verify-v1\"}"),
        json::JsonError);
    // Right schema, no configs.
    EXPECT_THROW((void)benchReportFromJson(
                     "{\"schema\": \"msp-bench-v1\", \"configs\": []}"),
                 json::JsonError);
    // A garbled committed count must not decode as zero.
    std::string doc = benchReportToJson(sampleReport());
    const std::size_t pos = doc.find("\"committed\": 400000");
    ASSERT_NE(pos, std::string::npos);
    doc.replace(pos, 19, "\"committed\": 40x000");
    EXPECT_THROW((void)benchReportFromJson(doc), json::JsonError);
    // A garbled wall time likewise.
    std::string doc2 = benchReportToJson(sampleReport());
    const std::size_t wpos = doc2.find("0.500000");
    ASSERT_NE(wpos, std::string::npos);
    doc2.replace(wpos, 8, "0.5zz000");
    EXPECT_THROW((void)benchReportFromJson(doc2), json::JsonError);
}

TEST(BenchGate, FlagsOnlyRegressionsPastTheThreshold)
{
    const BenchReport base = sampleReport();
    BenchReport cur = sampleReport();

    // Identical throughput: clean gate.
    EXPECT_TRUE(benchRegressions(base, cur, 15.0).empty());

    // 10% slower: inside a 15% gate, outside a 5% gate.
    for (double &w : cur.configs[0].wallSec)
        w *= 1.0 / 0.9;
    EXPECT_TRUE(benchRegressions(base, cur, 15.0).empty());
    const auto tight = benchRegressions(base, cur, 5.0);
    ASSERT_EQ(tight.size(), 1u);
    EXPECT_NE(tight[0].find("baseline"), std::string::npos);

    // 30% slower on the second config: caught at 15%.
    for (double &w : cur.configs[1].wallSec)
        w *= 1.0 / 0.7;
    const auto res = benchRegressions(base, cur, 15.0);
    ASSERT_EQ(res.size(), 1u);
    EXPECT_NE(res[0].find("16sp"), std::string::npos);

    // A config absent from the baseline is not a regression (ladders
    // may grow), and a *faster* run never is.
    BenchConfigResult fresh;
    fresh.config = "32sp";
    fresh.committed = 400000;
    fresh.wallSec = {1.0};
    cur.configs.push_back(fresh);
    cur.configs[0].wallSec = {0.10};
    const auto still = benchRegressions(base, cur, 15.0);
    ASSERT_EQ(still.size(), 1u);
    EXPECT_NE(still[0].find("16sp"), std::string::npos);
}

TEST(BenchReport, CountGateFiresOnAnyCountDriftWhateverTheHost)
{
    const BenchReport base = sampleReport();
    BenchReport cur = sampleReport();
    // The count gate ignores the host and the wall times entirely.
    cur.host = "aarch64/Other CPU/2t";
    for (BenchConfigResult &c : cur.configs)
        for (double &w : c.wallSec)
            w *= 3.0;

    const auto clean = benchCountDrift(base, cur);
    ASSERT_TRUE(clean.has_value());
    EXPECT_TRUE(clean->empty());

    // One cycle of drift on one config fails, naming it.
    cur.configs[1].cycles += 1;
    const auto drift = benchCountDrift(base, cur);
    ASSERT_TRUE(drift.has_value());
    ASSERT_EQ(drift->size(), 1u);
    EXPECT_NE((*drift)[0].find("16sp"), std::string::npos);

    // A config absent from the baseline is not drift.
    BenchConfigResult fresh;
    fresh.config = "32sp";
    fresh.committed = 1;
    cur.configs.push_back(fresh);
    EXPECT_EQ(benchCountDrift(base, cur)->size(), 1u);

    // Different runs are not comparable: the gate skips.
    BenchReport other = cur;
    other.instrs = 100000;
    EXPECT_FALSE(benchCountDrift(base, other).has_value());
    other = cur;
    other.seed = 7;
    EXPECT_FALSE(benchCountDrift(base, other).has_value());
    other = cur;
    other.predictor = "tage";
    EXPECT_FALSE(benchCountDrift(base, other).has_value());
    other = cur;
    other.workloads = {"gzip"};
    EXPECT_FALSE(benchCountDrift(base, other).has_value());
}

TEST(BenchRun, RepetitionsAreDeterministic)
{
    BenchOptions o;
    o.configNames = {"baseline", "16sp"};
    o.workloads = {"gzip"};
    o.instrs = 3000;
    o.reps = 2;
    // runThroughputBench fatals internally if committed/cycle counts
    // diverge between repetitions; surviving it with both repetitions
    // recorded is the assertion.
    const BenchReport r = runThroughputBench(o);
    ASSERT_EQ(r.configs.size(), 2u);
    for (const BenchConfigResult &c : r.configs) {
        EXPECT_EQ(c.wallSec.size(), 2u);
        EXPECT_GT(c.committed, 0u);
        EXPECT_GT(c.cycles, 0u);
        EXPECT_GT(c.bestWallSec(), 0.0);
    }
    // And a second measurement sees the same simulated counts.
    const BenchReport r2 = runThroughputBench(o);
    for (std::size_t i = 0; i < r.configs.size(); ++i) {
        EXPECT_EQ(r2.configs[i].committed, r.configs[i].committed);
        EXPECT_EQ(r2.configs[i].cycles, r.configs[i].cycles);
    }
}

TEST(BenchRun, WorkloadsResolveThroughTheWorkloadRegistry)
{
    // The CLI accepts any workload-registry name for bench mode, so
    // the bench must build through that registry too: a micro kernel
    // such as ptrchase is not a SPEC synthetic.
    BenchOptions o;
    o.configNames = {"baseline"};
    o.workloads = {"ptrchase"};
    o.instrs = 500;
    o.reps = 1;
    const BenchReport r = runThroughputBench(o);
    ASSERT_EQ(r.configs.size(), 1u);
    Machine m(baselineConfig(PredictorKind::Gshare),
              workload::build("ptrchase", 1));
    const RunResult ref = m.run(500);
    EXPECT_EQ(r.configs[0].committed, ref.committed);
    EXPECT_EQ(r.configs[0].cycles, ref.cycles);

    o.workloads = {"no-such-workload"};
    EXPECT_THROW(runThroughputBench(o), workload::WorkloadError);
}

TEST(BenchRun, HostFingerprintIsStableAndDescriptive)
{
    const std::string fp = hostFingerprint();
    EXPECT_FALSE(fp.empty());
    EXPECT_EQ(fp, hostFingerprint());
    // arch/model/threads — at least the two separators.
    EXPECT_GE(std::count(fp.begin(), fp.end(), '/'), 2);
}

TEST(BenchRun, DynInstPoolKeepsRunsBitIdentical)
{
    // The arena-allocated instruction window must not perturb results:
    // two back-to-back machines over the same program commit the same
    // stream (the golden-stats fixtures pin the absolute values; this
    // guards the pool against nondeterministic reuse orders).
    const Program prog = spec::build("gcc", 1);
    const MachineConfig cfg = nspConfig(8, PredictorKind::Gshare);
    Machine a(cfg, prog);
    Machine b(cfg, prog);
    const RunResult ra = a.run(20000);
    const RunResult rb = b.run(20000);
    EXPECT_EQ(ra.committed, rb.committed);
    EXPECT_EQ(ra.cycles, rb.cycles);
    EXPECT_EQ(ra.mispredicts, rb.mispredicts);
    EXPECT_EQ(ra.recoveries, rb.recoveries);
}

} // namespace
} // namespace driver
} // namespace msp
