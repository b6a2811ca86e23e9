/**
 * @file
 * MachineSpec registry tests (sim/spec.{hh,cc}): exhaustive per-field
 * round-trips proven with a randomised spec generator, the unknown-key
 * / out-of-range / type-mismatch error paths, deterministic
 * (registration-order) key emission, preset resolution through the
 * registry, diff-based pretty-printing, and the CLI precedence
 * contract `--set` over `--machine` over preset.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <set>

#include "common/random.hh"
#include "driver/cli.hh"
#include "sim/machine.hh"
#include "sim/presets.hh"
#include "sim/spec.hh"
#include "workload/registry.hh"

namespace msp {
namespace {

/** A uniformly random valid value for @p p. */
ParamValue
randomValue(const ParamSpec &p, Rng &rng)
{
    switch (p.type) {
      case ParamValue::Type::Bool:
        return ParamValue::ofBool(rng.chance(0.5));
      case ParamValue::Type::U64: {
        // Mostly near the low end (realistic machines), occasionally
        // the exact range bounds.
        const std::uint64_t span = p.maxU - p.minU;
        std::uint64_t v;
        switch (rng.below(8)) {
          case 0:  v = p.minU; break;
          case 1:  v = p.maxU; break;
          default:
            v = p.minU +
                rng.below(std::min<std::uint64_t>(span, 4096) + 1);
        }
        return ParamValue::ofU64(v);
      }
      case ParamValue::Type::F64:
        return ParamValue::ofF64(p.minF +
                                 rng.toDouble() * (p.maxF - p.minF));
      case ParamValue::Type::Str:
        return ParamValue::ofStr(p.choices[rng.below(p.choices.size())]);
    }
    return ParamValue{};
}

/** A machine no preset can name: every knob randomised. */
MachineConfig
randomSpec(std::uint64_t seed)
{
    Rng rng(seed);
    static const char *bases[] = {"default", "baseline", "cpr", "ideal",
                                  "16sp", "8sp-noarb"};
    MachineConfig m = presetByName(bases[rng.below(6)],
                                   rng.chance(0.5) ? PredictorKind::Tage
                                                   : PredictorKind::Gshare);
    for (const ParamSpec &p : machineParams())
        if (rng.chance(0.7))
            setParam(m, p.key, randomValue(p, rng));
    m.name = describeSpec(m);
    return m;
}

TEST(SpecRegistry, KeysAreUniqueAndResolvable)
{
    std::set<std::string> keys;
    for (const ParamSpec &p : machineParams()) {
        EXPECT_TRUE(keys.insert(p.key).second) << "duplicate " << p.key;
        EXPECT_EQ(findParam(p.key), &p);
        EXPECT_TRUE(p.get && p.set) << p.key;
        EXPECT_FALSE(p.doc.empty()) << p.key;
    }
    // The registry covers every CoreParams knob plus the predictor; a
    // new field must be registered (this count is the reminder).
    EXPECT_EQ(machineParams().size(), 36u);
    EXPECT_EQ(findParam("nope"), nullptr);
}

TEST(SpecRegistry, EveryKeyRoundTripsThroughItsTextForm)
{
    Rng rng(7);
    for (const ParamSpec &p : machineParams()) {
        for (int i = 0; i < 16; ++i) {
            const ParamValue v = randomValue(p, rng);
            MachineConfig m;
            setParam(m, p.key, v);
            EXPECT_EQ(getParam(m, p.key), v) << p.key;

            // The text form ("--set key=value") rebuilds the same
            // value bit-exactly, doubles included.
            MachineConfig m2;
            setParamFromString(m2, p.key, paramValueStr(v));
            EXPECT_EQ(getParam(m2, p.key), v) << p.key;
        }
    }
}

// The exhaustive round-trip property: any machine — randomised over
// every registered field — serialises to JSON and re-parses to an
// identical spec, label included.
TEST(SpecRegistry, RandomisedSpecsRoundTripThroughJson)
{
    for (std::uint64_t seed = 1; seed <= 50; ++seed) {
        const MachineConfig m = randomSpec(seed);
        const std::string json = specToJson(m);
        const MachineConfig back = specFromJson(json);
        EXPECT_TRUE(sameSpec(m, back)) << "seed " << seed << ": " << json;
        EXPECT_EQ(back.name, m.name) << seed;
        // And the round-trip is a fixpoint: re-serialising is
        // byte-identical (CI diffs specs).
        EXPECT_EQ(specToJson(back), json) << seed;
    }
}

TEST(SpecRegistry, JsonKeysFollowRegistrationOrder)
{
    // Deterministic key order is a contract: spec diffs in CI must be
    // stable across runs and builds.
    const std::string json = specToJson(nspConfig(16, PredictorKind::Gshare));
    std::size_t last = 0;
    for (const ParamSpec &p : machineParams()) {
        const std::size_t at = json.find("\"" + p.key + "\":");
        ASSERT_NE(at, std::string::npos) << p.key;
        EXPECT_GT(at, last) << p.key << " out of registration order";
        last = at;
    }
}

TEST(SpecRegistry, SameSpecIgnoresTheCosmeticLabel)
{
    MachineConfig a = nspConfig(16, PredictorKind::Gshare);
    MachineConfig b = a;
    b.name = "anything else";
    EXPECT_TRUE(sameSpec(a, b));
    b.core.lcsLatency++;
    EXPECT_FALSE(sameSpec(a, b));
}

TEST(SpecFromJson, ResolvesBasePresetsAndOverrides)
{
    const MachineConfig m =
        specFromJson("{\"base\": \"16sp\", \"lcs.latency\": 3}");
    MachineConfig expect = nspConfig(16, PredictorKind::Gshare);
    expect.core.lcsLatency = 3;
    EXPECT_TRUE(sameSpec(m, expect));
    EXPECT_EQ(m.name, "16sp+lcs.latency=3");   // no label -> describeSpec

    // "base" resolves first regardless of its position in the file.
    const MachineConfig late =
        specFromJson("{\"lcs.latency\": 5, \"base\": \"16sp\"}");
    EXPECT_EQ(late.core.lcsLatency, 5u);
    EXPECT_EQ(late.core.iqSize, 128u);

    // The predictor is an ordinary parameter.
    const MachineConfig tage =
        specFromJson("{\"base\": \"cpr\", \"predictor\": \"tage\"}");
    EXPECT_EQ(tage.predictor, PredictorKind::Tage);
    EXPECT_EQ(tage.core.kind, CoreKind::Cpr);

    // A full-dump wrapper document parses the nested "machine" object.
    const MachineConfig wrapped = specFromJson(
        "{\"machine\": {\"base\": \"baseline\", \"label\": \"X\"}}");
    EXPECT_TRUE(sameSpec(wrapped, baselineConfig(PredictorKind::Gshare)));
    EXPECT_EQ(wrapped.name, "X");
}

TEST(SpecFromJson, UnknownKeysErrorByName)
{
    try {
        specFromJson("{\"bogus.knob\": 1}");
        FAIL() << "no SpecError";
    } catch (const SpecError &e) {
        EXPECT_NE(std::string(e.what()).find("bogus.knob"),
                  std::string::npos);
    }
    MachineConfig m;
    EXPECT_THROW(setParamFromString(m, "bogus", "1"), SpecError);
    EXPECT_THROW(specFromJson("{\"base\": \"warp9\"}"), SpecError);
}

TEST(SpecFromJson, OutOfRangeValuesErrorByName)
{
    try {
        specFromJson("{\"width.fetch\": 0}");
        FAIL() << "no SpecError";
    } catch (const SpecError &e) {
        EXPECT_NE(std::string(e.what()).find("width.fetch"),
                  std::string::npos);
        EXPECT_NE(std::string(e.what()).find("out of range"),
                  std::string::npos);
    }
    EXPECT_THROW(specFromJson("{\"lcs.latency\": 9999}"), SpecError);
    MachineConfig m;
    EXPECT_THROW(setParamFromString(m, "cpr.sq_scan_penalty", "-1"),
                 SpecError);
}

/** Expect setting @p key to 1 to throw a SpecError naming @p key. */
void
expectOneRejected(const char *key)
{
    MachineConfig m;
    try {
        setParamFromString(m, key, "1");
        FAIL() << key << "=1 accepted";
    } catch (const SpecError &e) {
        EXPECT_NE(std::string(e.what()).find(key), std::string::npos)
            << e.what();
    }
    EXPECT_THROW(specFromJson(std::string("{\"") + key + "\": 1}"),
                 SpecError);
}

TEST(SpecFromJson, OneSubprocessorPerBankIsRejected)
{
    // A one-register SCT bank holds only its committed state and
    // asserts at construction; the registry refuses it up front.
    expectOneRejected("msp.subprocessors");
    EXPECT_THROW(presetByName("1sp", PredictorKind::Gshare), SpecError);
    EXPECT_THROW(presetByName("1sp-noarb", PredictorKind::Gshare),
                 SpecError);

    MachineConfig m = presetByName("16sp", PredictorKind::Gshare);
    setParamFromString(m, "msp.subprocessors", "3");
    EXPECT_EQ(m.core.regsPerBank, 3u);
    EXPECT_EQ(presetByName("3sp", PredictorKind::Gshare).core.regsPerBank,
              3u);
}

TEST(SpecFromJson, TwoSubprocessorsPerBankAreRejected)
{
    // With two registers a bank holding its committed version and the
    // open state's version has none left for the write that would
    // close the open state: commit deadlocks (gcc, vpr, crafty, parser
    // and eon all did within 1500 instructions). The registry and the
    // preset grammar refuse it up front, naming the key.
    MachineConfig m = presetByName("16sp", PredictorKind::Gshare);
    try {
        setParamFromString(m, "msp.subprocessors", "2");
        FAIL() << "msp.subprocessors=2 accepted";
    } catch (const SpecError &e) {
        EXPECT_NE(std::string(e.what()).find("msp.subprocessors"),
                  std::string::npos)
            << e.what();
    }
    EXPECT_THROW(specFromJson("{\"msp.subprocessors\": 2}"), SpecError);
    EXPECT_THROW(presetByName("2sp", PredictorKind::Gshare), SpecError);
    EXPECT_THROW(presetByName("2sp-noarb", PredictorKind::Gshare),
                 SpecError);
}

TEST(SpecFromJson, ThreeSubprocessorsPerBankCommitEveryDeadlockedWorkload)
{
    // The smallest accepted bank runs the workloads that deadlocked
    // at two to their budget.
    for (const char *w : {"gcc", "vpr", "crafty", "parser", "eon"}) {
        MachineConfig m = presetByName("16sp", PredictorKind::Gshare);
        setParamFromString(m, "msp.subprocessors", "3");
        Machine machine(m, workload::build(w, 1));
        EXPECT_GE(machine.run(1500).committed, 1500u) << w;
    }
}

TEST(SpecFromJson, OneCprCheckpointIsRejected)
{
    // CPR commits the oldest checkpoint only once a younger one
    // exists, so with one checkpoint nothing ever commits.
    expectOneRejected("cpr.checkpoints");

    MachineConfig m = presetByName("cpr", PredictorKind::Gshare);
    setParamFromString(m, "cpr.checkpoints", "2");
    EXPECT_EQ(m.core.numCheckpoints, 2u);
    const MachineConfig j =
        specFromJson("{\"base\": \"cpr\", \"cpr.checkpoints\": 2}");
    EXPECT_EQ(j.core.numCheckpoints, 2u);
}

TEST(SpecFromJson, TypeMismatchesErrorByName)
{
    // Number where a string (enum) is required, and vice versa.
    EXPECT_THROW(specFromJson("{\"predictor\": 3}"), SpecError);
    EXPECT_THROW(specFromJson("{\"width.fetch\": \"3\"}"), SpecError);
    EXPECT_THROW(specFromJson("{\"predictor\": \"oracle\"}"), SpecError);
    MachineConfig m;
    EXPECT_THROW(setParamFromString(m, "width.fetch", "abc"), SpecError);
    EXPECT_THROW(setParamFromString(m, "width.fetch", "-3"), SpecError);
    EXPECT_THROW(setParamFromString(m, "sq.infinite", "yes"), SpecError);
    EXPECT_THROW(setParamFromString(m, "width.fetch", "3.5"), SpecError);
}

TEST(SpecFromJson, MalformedDocumentsError)
{
    EXPECT_THROW(specFromJson(""), SpecError);
    EXPECT_THROW(specFromJson("not json"), SpecError);
    EXPECT_THROW(specFromJson("{\"width.fetch\": 3"), SpecError);
    EXPECT_THROW(specFromJson("{\"width.fetch\": {\"nested\": 1}}"),
                 SpecError);
    // Truncated wrappers and trailing content must not half-load: the
    // machine parsed would not be the machine in the file.
    EXPECT_THROW(specFromJson("{\"machine\": {\"base\": \"cpr\"}"),
                 SpecError);
    EXPECT_THROW(specFromJson("{\"kind\": \"msp\"} trailing"), SpecError);
    EXPECT_THROW(specFromJson("{\"kind\": \"msp\"}{\"kind\": \"cpr\"}"),
                 SpecError);
    EXPECT_THROW(specFromJson("{\"label\": \"x\\q\"}"), SpecError);
    EXPECT_THROW(specFromJson("{\"label\": \"\\u00g0\"}"), SpecError);
}

TEST(SpecFromJson, DecodesStandardJsonStringEscapes)
{
    // Labels written by standard JSON producers round-trip: escapes
    // decode to characters, not to the letter after the backslash.
    EXPECT_EQ(specFromJson("{\"label\": \"a\\nb\\tc\"}").name,
              "a\nb\tc");
    EXPECT_EQ(specFromJson("{\"label\": \"q\\\"\\\\e\"}").name,
              "q\"\\e");
    EXPECT_EQ(specFromJson("{\"label\": \"\\u0041\\u000a\"}").name,
              "A\n");

    MachineConfig m = nspConfig(16, PredictorKind::Gshare);
    m.name = "odd \"label\"\nwith\tcontrol";
    const MachineConfig back = specFromJson(specToJson(m));
    EXPECT_EQ(back.name, m.name);
}

TEST(SpecFromJson, DefaultPredictorSeedsPartialDocuments)
{
    // The CLI's --predictor reaches machines loaded from partial spec
    // files (and their "base" preset)...
    EXPECT_EQ(specFromJson("{\"base\": \"16sp\"}",
                           PredictorKind::Tage).predictor,
              PredictorKind::Tage);
    EXPECT_EQ(specFromJson("{}", PredictorKind::Tage).predictor,
              PredictorKind::Tage);
    // ...but an explicit "predictor" key always wins: a full dump is a
    // complete machine.
    EXPECT_EQ(specFromJson("{\"predictor\": \"gshare\"}",
                           PredictorKind::Tage).predictor,
              PredictorKind::Gshare);
}

TEST(SpecDiff, DescribesOverridesAgainstTheNearestPreset)
{
    MachineConfig m = nspConfig(16, PredictorKind::Gshare);
    EXPECT_EQ(describeSpec(m), "16sp");
    EXPECT_TRUE(specDiff(m, nspConfig(16, PredictorKind::Gshare)).empty());

    m.core.lcsLatency = 3;
    m.core.numCheckpoints = 4;
    const auto deltas =
        specDiff(m, nearestPreset(m).second);
    ASSERT_EQ(deltas.size(), 2u);
    // Registration order: lcs.latency is registered before
    // cpr.checkpoints.
    EXPECT_EQ(deltas[0].key, "lcs.latency");
    EXPECT_EQ(deltas[0].value, "3");
    EXPECT_EQ(deltas[0].baseValue, "1");
    EXPECT_EQ(deltas[1].key, "cpr.checkpoints");
    EXPECT_EQ(describeSpec(m), "16sp+lcs.latency=3+cpr.checkpoints=4");

    const std::string report = specDiffReport(m);
    EXPECT_NE(report.find("preset 16sp with 2 override(s)"),
              std::string::npos);
    EXPECT_NE(report.find("lcs.latency"), std::string::npos);
    EXPECT_NE(report.find("(preset: 1)"), std::string::npos);

    // presetNameFor is demoted to a cosmetic label: custom machines
    // simply have none, they are no longer second-class.
    EXPECT_EQ(presetNameFor(m), "");
}

TEST(SpecCheck, MspIqBeyondTheRelIqRowsIsAUserError)
{
    // The RelIQ keeps one use-bit row per IQ entry, 256 of them; the
    // registry's iq.size range is the flat-file cores'. A larger MSP IQ
    // is rejected naming the key and the limit, never built.
    MachineConfig m = presetByName("16sp", PredictorKind::Gshare);
    setParamFromString(m, "iq.size", "256");
    EXPECT_NO_THROW(checkSpec(m));
    setParamFromString(m, "iq.size", "300");
    try {
        checkSpec(m);
        FAIL() << "MSP iq.size=300 accepted";
    } catch (const SpecError &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("iq.size"), std::string::npos) << what;
        EXPECT_NE(what.find("256 RelIQ rows"), std::string::npos) << what;
    }
    for (const char *flat : {"baseline", "cpr"}) {
        MachineConfig f = presetByName(flat, PredictorKind::Gshare);
        setParamFromString(f, "iq.size", "65536");
        EXPECT_NO_THROW(checkSpec(f)) << flat;
    }

    // Through the CLI it is a CliError (exit 2) on the MSP rungs only,
    // whether --set or a --machine file asks for it.
    driver::CliOptions o;
    o.configNames = {"16sp"};
    o.sets = {"iq.size=300"};
    try {
        driver::resolveMachines(o);
        FAIL() << "--set iq.size=300 accepted on 16sp";
    } catch (const driver::CliError &e) {
        EXPECT_NE(std::string(e.what()).find("iq.size"), std::string::npos)
            << e.what();
    }
    o.configNames = {"baseline", "cpr"};
    EXPECT_EQ(driver::resolveMachines(o).size(), 2u);

    const std::string path = "/tmp/msp_test_big_msp_iq.json";
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        ASSERT_NE(f, nullptr);
        std::fputs("{\"base\": \"ideal\", \"iq.size\": 512}", f);
        std::fclose(f);
    }
    driver::CliOptions file;
    file.machinePath = path;
    EXPECT_THROW(driver::resolveMachines(file), driver::CliError);
    std::remove(path.c_str());
}

TEST(SpecCli, SetOverridesMachineFileOverridesPreset)
{
    // A spec file that itself overrides its base preset...
    const std::string path = "/tmp/msp_test_machine_spec.json";
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        ASSERT_NE(f, nullptr);
        std::fputs("{\"base\": \"16sp\", \"lcs.latency\": 3, "
                   "\"cpr.checkpoints\": 4}", f);
        std::fclose(f);
    }

    driver::CliOptions o;
    o.configNames = {"16sp"};
    o.machinePath = path;

    // ...loads on top of the preset list (machine file beats preset
    // defaults for the machine it defines)...
    auto machines = driver::resolveMachines(o);
    ASSERT_EQ(machines.size(), 2u);
    EXPECT_EQ(machines[0].core.lcsLatency, 1u);   // preset untouched
    EXPECT_EQ(machines[1].core.lcsLatency, 3u);   // file override
    EXPECT_EQ(machines[1].core.numCheckpoints, 4u);

    // ...and --set beats both, applied to every selected machine.
    o.sets = {"lcs.latency=7"};
    machines = driver::resolveMachines(o);
    ASSERT_EQ(machines.size(), 2u);
    EXPECT_EQ(machines[0].core.lcsLatency, 7u);
    EXPECT_EQ(machines[1].core.lcsLatency, 7u);
    EXPECT_EQ(machines[1].core.numCheckpoints, 4u);   // file keeps its win
    // Changed machines are relabelled with their spec identity.
    EXPECT_EQ(machines[0].name, "16sp+lcs.latency=7");

    std::remove(path.c_str());
}

TEST(SpecCli, ResolutionErrorsAreCliErrors)
{
    driver::CliOptions o;
    o.machinePath = "/tmp/msp_test_no_such_spec.json";
    EXPECT_THROW(driver::resolveMachines(o), driver::CliError);

    const std::string path = "/tmp/msp_test_bad_spec.json";
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        ASSERT_NE(f, nullptr);
        std::fputs("{\"bogus\": 1}", f);
        std::fclose(f);
    }
    driver::CliOptions bad;
    bad.machinePath = path;
    EXPECT_THROW(driver::resolveMachines(bad), driver::CliError);
    std::remove(path.c_str());

    driver::CliOptions badSet;
    badSet.configNames = {"16sp"};
    badSet.sets = {"lcs.latency"};   // no '='
    EXPECT_THROW(driver::resolveMachines(badSet), driver::CliError);
    badSet.sets = {"bogus=1"};
    EXPECT_THROW(driver::resolveMachines(badSet), driver::CliError);
}

TEST(Presets, PresetByNameResolvesEveryFamily)
{
    EXPECT_TRUE(sameSpec(presetByName("default", PredictorKind::Gshare),
                         MachineConfig{}));
    EXPECT_TRUE(sameSpec(presetByName("baseline", PredictorKind::Tage),
                         baselineConfig(PredictorKind::Tage)));
    EXPECT_TRUE(sameSpec(presetByName("cpr", PredictorKind::Gshare),
                         cprConfig(PredictorKind::Gshare)));
    EXPECT_TRUE(sameSpec(presetByName("ideal", PredictorKind::Gshare),
                         idealMspConfig(PredictorKind::Gshare)));
    EXPECT_TRUE(sameSpec(presetByName("64sp-noarb", PredictorKind::Gshare),
                         nspConfig(64, PredictorKind::Gshare, false)));
    EXPECT_THROW(presetByName("turbo", PredictorKind::Gshare), SpecError);
    EXPECT_THROW(presetByName("0sp", PredictorKind::Gshare), SpecError);
}

} // namespace
} // namespace msp
