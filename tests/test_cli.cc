/**
 * @file
 * msp_sim argument-grammar tests (src/driver/cli.cc): happy paths for
 * all three modes plus every user-error path — unknown scenario,
 * malformed matrix specs, bad preset/predictor/mix names, flag misuse
 * across modes — which previously lived untested inside the binary.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>

#include "driver/cli.hh"
#include "driver/scenario.hh"

namespace msp {
namespace {

using driver::CliError;
using driver::CliOptions;
using driver::configByName;
using driver::parseCliArgs;
using driver::parseDoubleFlag;
using driver::parseU64Flag;
using driver::parseUnsignedFlag;
using driver::splitCommas;

TEST(SplitCommas, SplitsAndDropsEmpties)
{
    EXPECT_EQ(splitCommas("a,b,c"),
              (std::vector<std::string>{"a", "b", "c"}));
    EXPECT_EQ(splitCommas("a,,b,"), (std::vector<std::string>{"a", "b"}));
    EXPECT_TRUE(splitCommas("").empty());
    EXPECT_EQ(splitCommas("one"), (std::vector<std::string>{"one"}));
}

// Regression for the std::atoi/strtoull flag parsing: garbage parsed
// as 0, negatives wrapped to huge unsigneds, overflow saturated, and
// trailing junk was silently dropped — all without a word to the user.
TEST(CheckedParse, AcceptsExactDecimalSpellingsOnly)
{
    EXPECT_EQ(parseU64Flag("--instrs", "0"), 0u);
    EXPECT_EQ(parseU64Flag("--instrs", "123456789012345"),
              123456789012345ull);
    EXPECT_EQ(parseU64Flag("--seed", "18446744073709551615"),
              ~std::uint64_t{0});
    EXPECT_EQ(parseUnsignedFlag("--threads", "8"), 8u);
    EXPECT_EQ(parseUnsignedFlag("--seeds", "4294967295"), 4294967295u);
    EXPECT_DOUBLE_EQ(parseDoubleFlag("--budget-sec", "1.5"), 1.5);
    EXPECT_DOUBLE_EQ(parseDoubleFlag("--budget-sec", "0.25"), 0.25);
    EXPECT_DOUBLE_EQ(parseDoubleFlag("--budget-sec", ".5"), 0.5);
}

TEST(CheckedParse, RejectsGarbageNegativesAndOverflow)
{
    // Garbage and partial numbers.
    EXPECT_THROW(parseU64Flag("--seeds", ""), CliError);
    EXPECT_THROW(parseU64Flag("--seeds", "abc"), CliError);
    EXPECT_THROW(parseU64Flag("--seeds", "1o0"), CliError);
    EXPECT_THROW(parseU64Flag("--seeds", "25 "), CliError);
    EXPECT_THROW(parseU64Flag("--seeds", " 25"), CliError);
    EXPECT_THROW(parseU64Flag("--instrs", "0x10"), CliError);
    // Negatives must not wrap into huge unsigneds.
    EXPECT_THROW(parseU64Flag("--seeds", "-1"), CliError);
    EXPECT_THROW(parseUnsignedFlag("--threads", "-4"), CliError);
    // Signs in general (strtoull would happily take "+5").
    EXPECT_THROW(parseU64Flag("--seeds", "+5"), CliError);
    // Overflow: 2^64 and beyond.
    EXPECT_THROW(parseU64Flag("--seed", "18446744073709551616"),
                 CliError);
    EXPECT_THROW(parseU64Flag("--seed", "99999999999999999999999"),
                 CliError);
    // unsigned-ranged flags reject 2^32.
    EXPECT_THROW(parseUnsignedFlag("--seeds", "4294967296"), CliError);

    // Doubles: garbage, trailing junk, non-finite values.
    EXPECT_THROW(parseDoubleFlag("--budget-sec", "abc"), CliError);
    EXPECT_THROW(parseDoubleFlag("--budget-sec", "1.5x"), CliError);
    EXPECT_THROW(parseDoubleFlag("--budget-sec", "-1.5"), CliError);
    EXPECT_THROW(parseDoubleFlag("--budget-sec", "nan"), CliError);
    EXPECT_THROW(parseDoubleFlag("--budget-sec", "inf"), CliError);
    EXPECT_THROW(parseDoubleFlag("--budget-sec", "1e999"), CliError);
    // strtod would parse C99 hex floats ("0x8" == 8.0); the decimal
    // contract rejects them like the integer parsers do.
    EXPECT_THROW(parseDoubleFlag("--budget-sec", "0x8"), CliError);
    EXPECT_THROW(parseDoubleFlag("--budget-sec", "0X1p4"), CliError);

    // The error names the offending flag.
    try {
        parseU64Flag("--snapshot-every", "soon");
        FAIL() << "expected CliError";
    } catch (const CliError &e) {
        EXPECT_NE(std::string(e.what()).find("--snapshot-every"),
                  std::string::npos);
    }
}

TEST(CheckedParse, EveryNumericFlagGoesThroughTheCheckedPath)
{
    EXPECT_THROW(parseCliArgs({"verify", "--seeds", "1o0"}), CliError);
    EXPECT_THROW(parseCliArgs({"fig6", "--threads", "-4"}), CliError);
    EXPECT_THROW(parseCliArgs({"fig6", "--instrs", "5k"}), CliError);
    EXPECT_THROW(parseCliArgs({"verify", "--seed",
                               "18446744073709551616"}),
                 CliError);
    EXPECT_THROW(parseCliArgs({"verify", "--snapshot-every", "256x"}),
                 CliError);
    EXPECT_THROW(parseCliArgs({"verify", "--budget-sec", "soon"}),
                 CliError);
    EXPECT_THROW(parseCliArgs({"verify", "--budget-sec", "nan"}),
                 CliError);
    // The historical behaviour: all of these silently became 0 or
    // wrapped — and then half of them "worked".
    EXPECT_THROW(parseCliArgs({"matrix", "--workloads", "gzip",
                               "--configs", "cpr", "--seed", "-7"}),
                 CliError);
}

TEST(ConfigByName, ResolvesEveryPresetFamily)
{
    EXPECT_EQ(configByName("baseline", PredictorKind::Gshare).core.kind,
              CoreKind::Baseline);
    EXPECT_EQ(configByName("cpr", PredictorKind::Gshare).core.kind,
              CoreKind::Cpr);
    EXPECT_EQ(configByName("ideal", PredictorKind::Tage).core.kind,
              CoreKind::Msp);

    const MachineConfig sp = configByName("16sp", PredictorKind::Gshare);
    EXPECT_EQ(sp.core.kind, CoreKind::Msp);
    EXPECT_EQ(sp.core.regsPerBank, 16u);
    EXPECT_TRUE(sp.core.arbitration);

    const MachineConfig noarb =
        configByName("64sp-noarb", PredictorKind::Gshare);
    EXPECT_EQ(noarb.core.regsPerBank, 64u);
    EXPECT_FALSE(noarb.core.arbitration);
}

TEST(ConfigByName, RejectsUnknownNames)
{
    EXPECT_THROW(configByName("turbo", PredictorKind::Gshare), CliError);
    EXPECT_THROW(configByName("sp", PredictorKind::Gshare), CliError);
    EXPECT_THROW(configByName("0sp", PredictorKind::Gshare), CliError);
    EXPECT_THROW(configByName("16sp-bogus", PredictorKind::Gshare),
                 CliError);
}

TEST(ParseCliArgs, ScenarioModeWithOptions)
{
    const CliOptions o =
        parseCliArgs({"fig6", "--threads", "4", "--instrs", "5000",
                      "--json", "out.json", "--quiet"});
    EXPECT_EQ(o.mode, "fig6");
    EXPECT_EQ(o.threads, 4u);
    EXPECT_EQ(o.instrs, 5000u);
    EXPECT_EQ(o.jsonPath, "out.json");
    EXPECT_TRUE(o.quiet);
}

TEST(ParseCliArgs, EveryScenarioIsAnMspSimMode)
{
    // `msp_sim <name>` is the only way to run a registered sweep, so
    // every scenario must parse as a mode and build a non-empty job
    // list.
    ASSERT_FALSE(driver::scenarios().empty());
    for (const driver::Scenario &s : driver::scenarios()) {
        EXPECT_EQ(parseCliArgs({s.name}).mode, s.name);
        const driver::Scenario *found = driver::findScenario(s.name);
        ASSERT_NE(found, nullptr) << s.name;
        const std::vector<driver::CampaignJob> jobs = found->build(400);
        EXPECT_FALSE(jobs.empty()) << s.name;
        for (const driver::CampaignJob &j : jobs)
            EXPECT_EQ(j.maxInsts, 400u) << s.name;
    }
}

TEST(ParseCliArgs, MatrixMode)
{
    const CliOptions o = parseCliArgs(
        {"matrix", "--workloads", "gzip,gcc", "--configs",
         "baseline,16sp", "--predictor", "tage", "--seed", "7"});
    EXPECT_EQ(o.mode, "matrix");
    EXPECT_EQ(o.workloads, (std::vector<std::string>{"gzip", "gcc"}));
    EXPECT_EQ(o.configNames,
              (std::vector<std::string>{"baseline", "16sp"}));
    EXPECT_EQ(o.predictor, PredictorKind::Tage);
    EXPECT_EQ(o.seed, 7u);
}

TEST(ParseCliArgs, VerifyModeDefaultsAndFlags)
{
    const CliOptions defaults = parseCliArgs({"verify"});
    EXPECT_EQ(defaults.seeds, 100u);
    EXPECT_TRUE(defaults.configNames.empty());
    EXPECT_TRUE(defaults.mixNames.empty());

    const CliOptions o = parseCliArgs(
        {"verify", "--seeds", "25", "--mixes", "branchy,memory",
         "--configs", "cpr,8sp"});
    EXPECT_EQ(o.seeds, 25u);
    EXPECT_EQ(o.mixNames,
              (std::vector<std::string>{"branchy", "memory"}));
    EXPECT_EQ(o.configNames, (std::vector<std::string>{"cpr", "8sp"}));
}

TEST(ParseCliArgs, VerifyTriageFlags)
{
    const CliOptions defaults = parseCliArgs({"verify"});
    EXPECT_FALSE(defaults.failFast);
    EXPECT_EQ(defaults.snapshotEvery, 0u);
    EXPECT_EQ(defaults.budgetSec, 0.0);
    EXPECT_TRUE(defaults.reproPath.empty());

    const CliOptions o = parseCliArgs(
        {"verify", "--fail-fast", "--snapshot-every", "256",
         "--budget-sec", "1.5"});
    EXPECT_TRUE(o.failFast);
    EXPECT_EQ(o.snapshotEvery, 256u);
    EXPECT_DOUBLE_EQ(o.budgetSec, 1.5);

    const CliOptions r = parseCliArgs({"verify", "--repro", "div.json"});
    EXPECT_EQ(r.reproPath, "div.json");

    // Fpedge joined the standard mixes swept by verify.
    EXPECT_EQ(parseCliArgs({"verify", "--mixes", "fpedge"}).mixNames,
              (std::vector<std::string>{"fpedge"}));

    // Second-tier triage: exact-commit bisection + structural
    // reduction.
    EXPECT_FALSE(defaults.bisectExact);
    EXPECT_FALSE(defaults.reduce);
    const CliOptions t = parseCliArgs(
        {"verify", "--bisect-exact", "--reduce", "--snapshot-every",
         "128"});
    EXPECT_TRUE(t.bisectExact);
    EXPECT_TRUE(t.reduce);
}

TEST(ParseCliArgs, TriageFlagErrors)
{
    EXPECT_THROW(parseCliArgs({"verify", "--snapshot-every", "0"}),
                 CliError);
    EXPECT_THROW(parseCliArgs({"verify", "--budget-sec", "0"}), CliError);
    EXPECT_THROW(parseCliArgs({"verify", "--repro"}), CliError);
    // Triage flags are verify-only.
    EXPECT_THROW(parseCliArgs({"fig6", "--fail-fast"}), CliError);
    EXPECT_THROW(parseCliArgs({"matrix", "--workloads", "gzip",
                               "--configs", "cpr", "--snapshot-every",
                               "64"}),
                 CliError);
    // --repro replays the recorded spec; sweep axes don't combine.
    EXPECT_THROW(parseCliArgs({"verify", "--repro", "d.json", "--seeds",
                               "5"}),
                 CliError);
    EXPECT_THROW(parseCliArgs({"verify", "--repro", "d.json", "--mixes",
                               "branchy"}),
                 CliError);
    // --repro replays every recorded reproducer; campaign-shaping
    // flags would be silently ignored, so they are rejected.
    EXPECT_THROW(parseCliArgs({"verify", "--repro", "d.json",
                               "--fail-fast"}),
                 CliError);
    EXPECT_THROW(parseCliArgs({"verify", "--repro", "d.json",
                               "--budget-sec", "5"}),
                 CliError);
    EXPECT_THROW(parseCliArgs({"verify", "--repro", "d.json",
                               "--threads", "8"}),
                 CliError);
    // The second-tier stages re-search; replay just replays.
    EXPECT_THROW(parseCliArgs({"verify", "--repro", "d.json",
                               "--reduce"}),
                 CliError);
    EXPECT_THROW(parseCliArgs({"verify", "--repro", "d.json",
                               "--bisect-exact"}),
                 CliError);
    // Verify-only, like the other triage flags.
    EXPECT_THROW(parseCliArgs({"fig6", "--reduce"}), CliError);
    EXPECT_THROW(parseCliArgs({"fig6", "--bisect-exact"}), CliError);
    EXPECT_THROW(parseCliArgs({"matrix", "--workloads", "gzip",
                               "--configs", "cpr", "--reduce"}),
                 CliError);
    EXPECT_THROW(parseCliArgs({"spec", "--configs", "16sp",
                               "--bisect-exact"}),
                 CliError);
}

TEST(ParseCliArgs, MachineSpecFlags)
{
    const CliOptions o = parseCliArgs(
        {"verify", "--set", "lcs.latency=3", "--set",
         "cpr.checkpoints=4", "--machine", "spec.json"});
    EXPECT_EQ(o.sets, (std::vector<std::string>{"lcs.latency=3",
                                                "cpr.checkpoints=4"}));
    EXPECT_EQ(o.machinePath, "spec.json");

    // Matrix needs a machine source, but --machine alone suffices.
    const CliOptions m = parseCliArgs(
        {"matrix", "--workloads", "gzip", "--machine", "spec.json"});
    EXPECT_EQ(m.machinePath, "spec.json");
    EXPECT_TRUE(m.configNames.empty());
}

TEST(ParseCliArgs, BadSetOverridesFailAtParse)
{
    // Syntax, unknown key, bad value, out-of-range — all rejected
    // before any campaign starts.
    EXPECT_THROW(parseCliArgs({"verify", "--set", "lcs.latency"}),
                 CliError);
    EXPECT_THROW(parseCliArgs({"verify", "--set", "=3"}), CliError);
    EXPECT_THROW(parseCliArgs({"verify", "--set", "bogus.knob=1"}),
                 CliError);
    EXPECT_THROW(parseCliArgs({"verify", "--set", "width.fetch=abc"}),
                 CliError);
    EXPECT_THROW(parseCliArgs({"verify", "--set", "width.fetch=0"}),
                 CliError);
}

TEST(ParseCliArgs, SpecMode)
{
    const CliOptions o = parseCliArgs(
        {"spec", "--configs", "16sp", "--set", "lcs.latency=3",
         "--json", "out.json", "--quiet"});
    EXPECT_EQ(o.mode, "spec");
    EXPECT_EQ(o.configNames, (std::vector<std::string>{"16sp"}));

    EXPECT_NO_THROW(parseCliArgs({"spec", "--machine", "m.json"}));
    // Exactly one machine source.
    EXPECT_THROW(parseCliArgs({"spec"}), CliError);
    EXPECT_THROW(parseCliArgs({"spec", "--configs", "16sp,cpr"}),
                 CliError);
    EXPECT_THROW(parseCliArgs({"spec", "--configs", "16sp", "--machine",
                               "m.json"}),
                 CliError);
    // Campaign-only flags don't apply.
    EXPECT_THROW(parseCliArgs({"spec", "--configs", "16sp",
                               "--workloads", "gzip"}),
                 CliError);
    EXPECT_THROW(parseCliArgs({"spec", "--configs", "16sp", "--seeds",
                               "5"}),
                 CliError);
    EXPECT_THROW(parseCliArgs({"spec", "--configs", "16sp", "--threads",
                               "2"}),
                 CliError);
}

TEST(ParseCliArgs, SpecFlagsAreModeChecked)
{
    // Scenario modes fix their own machines.
    EXPECT_THROW(parseCliArgs({"fig6", "--set", "lcs.latency=3"}),
                 CliError);
    EXPECT_THROW(parseCliArgs({"fig6", "--machine", "m.json"}), CliError);
    // --repro replays the recorded spec; machine sources don't combine.
    EXPECT_THROW(parseCliArgs({"verify", "--repro", "d.json", "--set",
                               "lcs.latency=3"}),
                 CliError);
    EXPECT_THROW(parseCliArgs({"verify", "--repro", "d.json",
                               "--machine", "m.json"}),
                 CliError);
}

TEST(ParseCliArgs, HelpAndListNeedNoMode)
{
    EXPECT_TRUE(parseCliArgs({"--help"}).help);
    EXPECT_TRUE(parseCliArgs({"-h"}).help);
    EXPECT_TRUE(parseCliArgs({"--list"}).list);
}

TEST(ParseCliArgs, MissingModeThrows)
{
    EXPECT_THROW(parseCliArgs({}), CliError);
    EXPECT_THROW(parseCliArgs({"--threads", "2"}), CliError);
}

TEST(ParseCliArgs, UnknownScenarioThrows)
{
    EXPECT_THROW(parseCliArgs({"fig99"}), CliError);
    EXPECT_THROW(parseCliArgs({"bogus-sweep"}), CliError);
}

TEST(ParseCliArgs, BadMatrixSpecThrows)
{
    // Missing both axes / either axis.
    EXPECT_THROW(parseCliArgs({"matrix"}), CliError);
    EXPECT_THROW(parseCliArgs({"matrix", "--workloads", "gzip"}),
                 CliError);
    EXPECT_THROW(parseCliArgs({"matrix", "--configs", "cpr"}), CliError);
    // Unknown preset inside the list.
    EXPECT_THROW(parseCliArgs({"matrix", "--workloads", "gzip",
                               "--configs", "warp9"}),
                 CliError);
}

TEST(ParseCliArgs, ScenarioModeRejectsMatrixAndVerifyFlags)
{
    EXPECT_THROW(parseCliArgs({"fig6", "--workloads", "gzip"}), CliError);
    EXPECT_THROW(parseCliArgs({"fig6", "--configs", "cpr"}), CliError);
    EXPECT_THROW(parseCliArgs({"fig6", "--predictor", "tage"}), CliError);
    EXPECT_THROW(parseCliArgs({"fig6", "--seed", "3"}), CliError);
    EXPECT_THROW(parseCliArgs({"fig6", "--seeds", "10"}), CliError);
    EXPECT_THROW(parseCliArgs({"fig6", "--mixes", "branchy"}), CliError);
}

TEST(ParseCliArgs, VerifyModeFlagErrors)
{
    EXPECT_THROW(parseCliArgs({"verify", "--seeds", "0"}), CliError);
    // --workloads on its own is valid (named verification); combining
    // it with the fuzz-campaign flags is not (GridFlagGrammar).
    EXPECT_NO_THROW(parseCliArgs({"verify", "--workloads", "gzip"}));
    EXPECT_THROW(parseCliArgs({"verify", "--csv", "out.csv"}), CliError);
    EXPECT_THROW(parseCliArgs({"verify", "--mixes", "warp"}), CliError);
    EXPECT_THROW(parseCliArgs({"matrix", "--workloads", "gzip",
                               "--configs", "cpr", "--seeds", "5"}),
                 CliError);
}

TEST(ParseCliArgs, CampaignStateFlags)
{
    const CliOptions o = parseCliArgs(
        {"matrix", "--workloads", "gzip", "--configs", "cpr",
         "--checkpoint", "c.jsonl", "--checkpoint-every", "8",
         "--shard", "1/3"});
    EXPECT_EQ(o.checkpointPath, "c.jsonl");
    EXPECT_EQ(o.checkpointEvery, 8u);
    EXPECT_EQ(o.shardIndex, 1u);
    EXPECT_EQ(o.shardCount, 3u);

    // --resume alone checkpoints back into the file it resumes from.
    const CliOptions r = parseCliArgs({"verify", "--resume", "c.jsonl"});
    EXPECT_EQ(r.resumePath, "c.jsonl");
    EXPECT_EQ(r.checkpointPath, "c.jsonl");
}

TEST(ParseCliArgs, CampaignStateFlagErrors)
{
    // --checkpoint-every is meaningless without durable state.
    EXPECT_THROW(parseCliArgs({"matrix", "--workloads", "gzip",
                               "--configs", "cpr",
                               "--checkpoint-every", "8"}),
                 CliError);
    EXPECT_THROW(parseCliArgs({"matrix", "--workloads", "gzip",
                               "--configs", "cpr", "--checkpoint",
                               "c.jsonl", "--checkpoint-every", "0"}),
                 CliError);
    // Bad --shard spellings: not i/N, shard out of range, zero shards.
    for (const char *bad : {"3", "1-3", "3/3", "4/3", "0/0", "a/3",
                            "1/b", "1/3x"})
        EXPECT_THROW(parseCliArgs({"matrix", "--workloads", "gzip",
                                   "--configs", "cpr", "--shard", bad}),
                     CliError);
    // State is a campaign feature: spec/scenario/--repro reject it.
    EXPECT_THROW(parseCliArgs({"fig6", "--checkpoint", "c.jsonl"}),
                 CliError);
    EXPECT_THROW(parseCliArgs({"spec", "--configs", "cpr", "--shard",
                               "0/2"}),
                 CliError);
    EXPECT_THROW(parseCliArgs({"verify", "--repro", "d.json",
                               "--resume", "c.jsonl"}),
                 CliError);
}

TEST(ParseCliArgs, CoverageFlags)
{
    const CliOptions o = parseCliArgs(
        {"verify", "--coverage", "--corpus", "corpus.jsonl", "--waves",
         "3", "--tune"});
    EXPECT_TRUE(o.coverage);
    EXPECT_EQ(o.corpusPath, "corpus.jsonl");
    EXPECT_EQ(o.waves, 3u);
    EXPECT_TRUE(o.tune);

    // Defaults: coverage off, one wave, no corpus, no tuning.
    const CliOptions d = parseCliArgs({"verify"});
    EXPECT_FALSE(d.coverage);
    EXPECT_TRUE(d.corpusPath.empty());
    EXPECT_EQ(d.waves, 1u);
    EXPECT_FALSE(d.tune);

    // --coverage alone is a valid single-wave campaign.
    EXPECT_TRUE(parseCliArgs({"verify", "--coverage"}).coverage);
}

TEST(ParseCliArgs, CoverageFlagErrors)
{
    // Values are checked and the error names the flag.
    EXPECT_THROW(parseCliArgs({"verify", "--coverage", "--waves", "2x"}),
                 CliError);
    EXPECT_THROW(parseCliArgs({"verify", "--coverage", "--waves", "-1"}),
                 CliError);
    EXPECT_THROW(parseCliArgs({"verify", "--corpus"}), CliError);
    try {
        parseCliArgs({"verify", "--coverage", "--waves", "0"});
        FAIL() << "expected CliError";
    } catch (const CliError &e) {
        EXPECT_NE(std::string(e.what()).find("--waves"),
                  std::string::npos);
    }

    // --corpus/--waves/--tune steer the coverage map; without
    // --coverage there is nothing to steer.
    EXPECT_THROW(parseCliArgs({"verify", "--corpus", "c.jsonl"}),
                 CliError);
    EXPECT_THROW(parseCliArgs({"verify", "--waves", "2"}), CliError);
    EXPECT_THROW(parseCliArgs({"verify", "--tune"}), CliError);

    // Coverage is a verify-campaign feature: every other mode — and
    // --repro replay — rejects it.
    EXPECT_THROW(parseCliArgs({"matrix", "--workloads", "gzip",
                               "--configs", "cpr", "--coverage"}),
                 CliError);
    EXPECT_THROW(parseCliArgs({"bench", "--coverage"}), CliError);
    EXPECT_THROW(parseCliArgs({"spec", "--configs", "cpr", "--tune"}),
                 CliError);
    EXPECT_THROW(parseCliArgs({"fig6", "--coverage"}), CliError);
    EXPECT_THROW(parseCliArgs({"merge", "a.json", "--coverage"}),
                 CliError);
    EXPECT_THROW(parseCliArgs({"verify", "--repro", "d.json",
                               "--coverage"}),
                 CliError);

    // Wave retuning changes the job list mid-campaign, which durable
    // checkpoint identity cannot describe.
    EXPECT_THROW(parseCliArgs({"verify", "--coverage", "--checkpoint",
                               "c.jsonl"}),
                 CliError);
    EXPECT_THROW(parseCliArgs({"verify", "--coverage", "--resume",
                               "c.jsonl"}),
                 CliError);
    EXPECT_THROW(parseCliArgs({"verify", "--coverage", "--shard", "0/2"}),
                 CliError);
}

TEST(ParseCliArgs, MergeMode)
{
    const CliOptions o =
        parseCliArgs({"merge", "a.json", "b.json", "--json", "out.json"});
    EXPECT_EQ(o.mode, "merge");
    ASSERT_EQ(o.mergeInputs.size(), 2u);
    EXPECT_EQ(o.mergeInputs[0], "a.json");
    EXPECT_EQ(o.mergeInputs[1], "b.json");
    EXPECT_EQ(o.jsonPath, "out.json");

    // No inputs, and flags that make no sense when only folding files.
    EXPECT_THROW(parseCliArgs({"merge"}), CliError);
    EXPECT_THROW(parseCliArgs({"merge", "a.json", "--threads", "2"}),
                 CliError);
    EXPECT_THROW(parseCliArgs({"merge", "a.json", "--checkpoint",
                               "c.jsonl"}),
                 CliError);
}

TEST(ParseCliArgs, BenchMode)
{
    const CliOptions o = parseCliArgs(
        {"bench", "--configs", "baseline,16sp", "--workloads", "gzip",
         "--instrs", "50000", "--reps", "5", "--baseline", "base.json",
         "--gate-pct", "10", "--threads", "1", "--json", "out.json"});
    EXPECT_EQ(o.mode, "bench");
    EXPECT_EQ(o.reps, 5u);
    EXPECT_EQ(o.baselinePath, "base.json");
    EXPECT_DOUBLE_EQ(o.gatePct, 10.0);
    EXPECT_EQ(o.threads, 1u);
    EXPECT_EQ(o.instrs, 50000u);

    // Defaults: everything optional.
    const CliOptions d = parseCliArgs({"bench"});
    EXPECT_EQ(d.reps, 3u);
    EXPECT_DOUBLE_EQ(d.gatePct, 15.0);
    EXPECT_TRUE(d.baselinePath.empty());
}

TEST(ParseCliArgs, BenchModeFlagErrors)
{
    // Throughput is measured sequentially; a worker pool would time
    // the scheduler.
    EXPECT_THROW(parseCliArgs({"bench", "--threads", "2"}), CliError);
    EXPECT_THROW(parseCliArgs({"bench", "--reps", "0"}), CliError);
    EXPECT_THROW(parseCliArgs({"bench", "--reps", "3x"}), CliError);
    EXPECT_THROW(parseCliArgs({"bench", "--gate-pct", "0"}), CliError);
    EXPECT_THROW(parseCliArgs({"bench", "--gate-pct", "100"}), CliError);
    // Campaign/verify machinery does not apply to a timing run.
    EXPECT_THROW(parseCliArgs({"bench", "--seeds", "10"}), CliError);
    EXPECT_THROW(parseCliArgs({"bench", "--checkpoint", "c.jsonl"}),
                 CliError);
    EXPECT_THROW(parseCliArgs({"bench", "--set", "cpr.checkpoints=4"}),
                 CliError);
    // And the bench flags stay bench-only in both directions.
    EXPECT_THROW(parseCliArgs({"matrix", "--workloads", "gzip",
                               "--configs", "cpr", "--reps", "3"}),
                 CliError);
    EXPECT_THROW(parseCliArgs({"verify", "--baseline", "b.json"}),
                 CliError);
    EXPECT_THROW(parseCliArgs({"fig6", "--gate-pct", "10"}), CliError);
    EXPECT_THROW(parseCliArgs({"merge", "a.json", "--reps", "2"}),
                 CliError);
}

TEST(ParseCliArgs, GridFlagGrammar)
{
    // matrix: --grid replaces --configs/--machine (and, for a bound
    // grid, --workloads — enforced at expansion, not parse).
    const CliOptions o = parseCliArgs({"matrix", "--grid", "g.json"});
    EXPECT_EQ(o.mode, "matrix");
    EXPECT_EQ(o.gridPath, "g.json");
    EXPECT_NO_THROW(parseCliArgs({"matrix", "--grid", "g.json",
                                  "--workloads", "gzip"}));
    EXPECT_THROW(parseCliArgs({"matrix", "--grid", "g.json", "--configs",
                               "cpr"}),
                 CliError);
    EXPECT_THROW(parseCliArgs({"matrix", "--grid", "g.json", "--machine",
                               "m.json"}),
                 CliError);

    // verify: --grid XOR --workloads selects deterministic named
    // verification; campaign-style triage flags don't combine.
    EXPECT_NO_THROW(parseCliArgs({"verify", "--grid", "g.json"}));
    EXPECT_NO_THROW(parseCliArgs({"verify", "--workloads",
                                  "gzip,trace:t.jsonl"}));
    EXPECT_THROW(parseCliArgs({"verify", "--grid", "g.json",
                               "--workloads", "gzip"}),
                 CliError);
    EXPECT_THROW(parseCliArgs({"verify", "--grid", "g.json", "--seeds",
                               "4"}),
                 CliError);
    EXPECT_THROW(parseCliArgs({"verify", "--workloads", "gzip",
                               "--mixes", "fpedge"}),
                 CliError);
    EXPECT_THROW(parseCliArgs({"verify", "--workloads", "gzip",
                               "--fail-fast"}),
                 CliError);
    EXPECT_THROW(parseCliArgs({"verify", "--workloads", "gzip",
                               "--coverage"}),
                 CliError);
    EXPECT_NO_THROW(parseCliArgs({"verify", "--workloads", "gzip",
                                  "--snapshot-every", "256", "--configs",
                                  "cpr,16sp"}));

    // Workload names are validated at parse time.
    EXPECT_THROW(parseCliArgs({"verify", "--workloads", "frobnicate"}),
                 CliError);
    EXPECT_THROW(parseCliArgs({"matrix", "--grid", "g.json",
                               "--workloads", "trace:"}),
                 CliError);

    // The other modes reject --grid outright.
    EXPECT_THROW(parseCliArgs({"fig6", "--grid", "g.json"}), CliError);
    EXPECT_THROW(parseCliArgs({"merge", "a.json", "--grid", "g.json"}),
                 CliError);
    EXPECT_THROW(parseCliArgs({"bench", "--grid", "g.json"}), CliError);
    EXPECT_THROW(parseCliArgs({"spec", "--configs", "cpr", "--grid",
                               "g.json"}),
                 CliError);
}

TEST(ParseCliArgs, TraceMode)
{
    const CliOptions o = parseCliArgs(
        {"trace", "--workloads", "ptrchase", "--seed", "9", "--json",
         "out.jsonl"});
    EXPECT_EQ(o.mode, "trace");
    EXPECT_EQ(o.workloads, (std::vector<std::string>{"ptrchase"}));
    EXPECT_EQ(o.seed, 9u);
    EXPECT_EQ(o.jsonPath, "out.jsonl");

    EXPECT_THROW(parseCliArgs({"trace"}), CliError);
    EXPECT_THROW(parseCliArgs({"trace", "--workloads", "gzip,gcc"}),
                 CliError);
    EXPECT_THROW(parseCliArgs({"trace", "--workloads", "gzip",
                               "--configs", "cpr"}),
                 CliError);
    EXPECT_THROW(parseCliArgs({"trace", "--workloads", "gzip",
                               "--threads", "2"}),
                 CliError);
    EXPECT_THROW(parseCliArgs({"trace", "--workloads", "gzip", "--grid",
                               "g.json"}),
                 CliError);
}

using Args = std::vector<std::string>;

bool
parses(const Args &args)
{
    try {
        parseCliArgs(args);
        return true;
    } catch (const CliError &) {
        return false;
    }
}

// Which flag each invocation shape accepts, cell for cell: 'A' when
// the shape's command line plus the flag parses, '.' when it is a
// user error. A cell whose flag changes the shape (the sweep plus
// --workloads is verify --workloads) reads as the shape it becomes.
// The prerequisite of a dependent flag rides along in its cell
// (--corpus comes with --coverage); the rules themselves are pinned
// in CrossFlagRulesArePinned.
TEST(CliFlagTable, ShapeByFlagCellsArePinned)
{
    const std::vector<std::pair<const char *, Args>> shapes = {
        {"scenario", {"fig6"}},
        {"matrix", {"matrix", "--workloads", "gzip", "--configs", "cpr"}},
        {"matrix --grid", {"matrix", "--grid", "g.json"}},
        {"verify sweep", {"verify"}},
        {"verify --workloads", {"verify", "--workloads", "gzip"}},
        {"verify --grid", {"verify", "--grid", "g.json"}},
        {"verify --repro", {"verify", "--repro", "d.json"}},
        {"spec", {"spec", "--configs", "cpr"}},
        {"trace", {"trace", "--workloads", "gzip"}},
        {"bench", {"bench"}},
        {"merge", {"merge", "a.json"}},
    };
    // Columns follow the shapes above. Named verify (--workloads,
    // --grid) runs its jobs sequentially, so it rejects --threads as
    // --repro replay does; it used to accept and ignore it.
    const std::vector<std::pair<Args, const char *>> rows = {
        {{"--threads", "1"},                   "AAAA.....A."},
        {{"--instrs", "500"},                  "AAAAAAA..A."},
        {{"--seed", "3"},                      ".AAAAA..AA."},
        {{"--seeds", "5"},                     "...A......."},
        {{"--json", "out.json"},               "AAAAAAAAAAA"},
        {{"--csv", "out.csv"},                 "AAA........"},
        {{"--quiet"},                          "AAAAAAAAAAA"},
        {{"--fail-fast"},                      "...A......."},
        {{"--snapshot-every", "64"},           "...AAAA...."},
        {{"--budget-sec", "5"},                "...A......."},
        {{"--reps", "2"},                      ".........A."},
        {{"--baseline", "b.json"},             ".........A."},
        {{"--gate-pct", "10"},                 ".........A."},
        {{"--repro", "d.json"},                "...A..A...."},
        {{"--bisect-exact"},                   "...A......."},
        {{"--reduce"},                         "...A......."},
        {{"--coverage"},                       "...A......."},
        {{"--coverage", "--corpus", "c.jsonl"}, "...A......."},
        {{"--coverage", "--waves", "2"},       "...A......."},
        {{"--coverage", "--tune"},             "...A......."},
        {{"--checkpoint", "c.jsonl"},          ".AAA......."},
        {{"--checkpoint", "c.jsonl", "--checkpoint-every", "4"},
                                               ".AAA......."},
        {{"--resume", "c.jsonl"},              ".AAA......."},
        {{"--shard", "0/2"},                   ".AAA......."},
        {{"--machine", "m.json"},              ".A.AA......"},
        {{"--grid", "g.json"},                 "..AA.A....."},
        {{"--set", "lcs.latency=3"},           ".AAAAA.A..."},
        {{"--workloads", "gzip"},              ".AAAA...AA."},
        {{"--configs", "cpr"},                 ".A.AA..A.A."},
        {{"--mixes", "branchy"},               "...A......."},
        {{"--predictor", "tage"},              ".AAAAA.A.A."},
    };
    for (const auto &[shape, base] : shapes)
        EXPECT_TRUE(parses(base)) << shape;
    for (const auto &[flag, cells] : rows) {
        ASSERT_EQ(std::string(cells).size(), shapes.size());
        for (std::size_t s = 0; s < shapes.size(); ++s) {
            Args args = shapes[s].second;
            args.insert(args.end(), flag.begin(), flag.end());
            EXPECT_EQ(parses(args), cells[s] == 'A')
                << shapes[s].first << " + " << flag.front() << " "
                << flag.back();
        }
    }
}

// One case (or a few) per rule that spans flags rather than shapes.
TEST(CliFlagTable, CrossFlagRulesArePinned)
{
    const std::vector<std::pair<Args, bool>> cases = {
        // --shard grammar and ranges.
        {{"verify", "--shard", "1/2"}, true},
        {{"verify", "--shard", "2"}, false},
        {{"verify", "--shard", "2/2"}, false},
        {{"verify", "--shard", "0/0"}, false},
        // --checkpoint-every needs --checkpoint or --resume.
        {{"verify", "--checkpoint-every", "4"}, false},
        {{"verify", "--resume", "c.jsonl", "--checkpoint-every", "4"},
         true},
        // --corpus, --waves and --tune need --coverage.
        {{"verify", "--corpus", "c.jsonl"}, false},
        {{"verify", "--waves", "2"}, false},
        {{"verify", "--tune"}, false},
        // --coverage excludes durable state.
        {{"verify", "--coverage", "--checkpoint", "c.jsonl"}, false},
        {{"verify", "--coverage", "--resume", "c.jsonl"}, false},
        {{"verify", "--coverage", "--shard", "0/2"}, false},
        // --grid excludes --configs and --machine.
        {{"matrix", "--grid", "g.json", "--configs", "cpr"}, false},
        {{"verify", "--grid", "g.json", "--machine", "m.json"}, false},
        // matrix needs workloads and a machine, or a grid.
        {{"matrix"}, false},
        {{"matrix", "--workloads", "gzip"}, false},
        {{"matrix", "--configs", "cpr"}, false},
        {{"matrix", "--workloads", "gzip", "--machine", "m.json"}, true},
        // spec needs exactly one machine.
        {{"spec"}, false},
        {{"spec", "--machine", "m.json"}, true},
        {{"spec", "--configs", "cpr,16sp"}, false},
        {{"spec", "--configs", "cpr", "--machine", "m.json"}, false},
        // trace dumps exactly one workload.
        {{"trace"}, false},
        {{"trace", "--workloads", "gzip,gcc"}, false},
        // merge needs at least one report.
        {{"merge"}, false},
        {{"merge", "a.json", "b.json"}, true},
        // bench runs on one thread.
        {{"bench", "--threads", "2"}, false},
        {{"bench", "--threads", "0"}, false},
    };
    for (const auto &[args, ok] : cases) {
        std::string line;
        for (const std::string &a : args)
            line += a + " ";
        EXPECT_EQ(parses(args), ok) << line;
    }
}

TEST(CliFlagTable, UsageTextDocumentsExactlyTheTable)
{
    const std::string usage = driver::usageText();
    const std::vector<std::string> flags = driver::flagNames();
    // Whole tokens only: "-h" must not count as found inside "--help".
    std::set<std::string> tokens;
    const auto wordChar = [](char c) {
        return (c >= 'a' && c <= 'z') || c == '-';
    };
    for (std::size_t i = 0; i < usage.size(); ++i) {
        if (usage[i] != '-' || (i > 0 && wordChar(usage[i - 1])))
            continue;
        std::size_t end = i;
        while (end < usage.size() && wordChar(usage[end]))
            ++end;
        tokens.insert(usage.substr(i, end - i));
        i = end;
    }
    for (const std::string &f : flags)
        EXPECT_TRUE(tokens.count(f)) << f << " is not in usageText()";
    for (const std::string &tok : tokens) {
        if (tok.rfind("--", 0) != 0)
            continue;
        EXPECT_NE(std::find(flags.begin(), flags.end(), tok), flags.end())
            << tok << " in usageText() has no row in the flag table";
    }
}

// Named verification runs its jobs one after another; a --threads it
// would ignore is a user error, as it is for --repro replay.
TEST(ParseCliArgs, NamedVerifyRejectsThreads)
{
    EXPECT_THROW(parseCliArgs({"verify", "--workloads", "gzip",
                               "--threads", "4"}),
                 CliError);
    EXPECT_THROW(parseCliArgs({"verify", "--grid", "g.json", "--threads",
                               "4"}),
                 CliError);
    EXPECT_NO_THROW(parseCliArgs({"verify", "--threads", "4"}));
}

/** Run the built msp_sim with @p args; its exit status. */
int
runMspSim(const std::string &args)
{
    const int status =
        std::system((std::string(MSP_SIM_BIN) + " " + args).c_str());
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream s;
    s << in.rdbuf();
    return s.str();
}

// verify --grid resolves its machines like matrix --grid: --set lands
// on every point, and a point whose spec changed is relabelled.
TEST(MspSim, VerifyGridAppliesSetToEveryPoint)
{
    const std::string dir = ::testing::TempDir();
    const std::string grid = dir + "msp_cli_verify_grid.json";
    std::ofstream(grid) << "{\"name\": \"g\", \"base\": \"16sp\", \"axes\": "
                           "[{\"keys\": {\"workload.name\": [\"gzip\"]}}]}";
    const std::string run = "verify --grid " + grid +
                            " --instrs 2000 --quiet --json " + dir;
    ASSERT_EQ(runMspSim(run + "msp_cli_plain.json"), 0);
    ASSERT_EQ(runMspSim(run + "msp_cli_set.json --set lcs.latency=7 "
                              "--set width.issue=1"),
              0);
    const std::string plain = slurp(dir + "msp_cli_plain.json");
    const std::string set = slurp(dir + "msp_cli_set.json");
    EXPECT_NE(plain.find("\"config\": \"16-SP+Arb\""), std::string::npos)
        << plain;
    EXPECT_NE(plain, set);
    EXPECT_NE(set.find("\"config\": \"16sp+width.issue=1+lcs.latency=7\""),
              std::string::npos)
        << set;
    for (const char *f : {"msp_cli_verify_grid.json", "msp_cli_plain.json",
                          "msp_cli_set.json"})
        std::remove((dir + f).c_str());
}

TEST(ParseCliArgs, MalformedFlagsThrow)
{
    EXPECT_THROW(parseCliArgs({"fig6", "--bogus"}), CliError);
    EXPECT_THROW(parseCliArgs({"fig6", "--threads"}), CliError);
    EXPECT_THROW(parseCliArgs({"fig6", "extra-positional"}), CliError);
    EXPECT_THROW(parseCliArgs({"matrix", "--workloads", "gzip",
                               "--configs", "cpr", "--predictor",
                               "oracle"}),
                 CliError);
}

} // namespace
} // namespace msp
