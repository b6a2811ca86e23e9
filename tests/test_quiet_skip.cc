/**
 * @file
 * Quiet-cycle skipping tests. After a cycle in which no stage acted,
 * CoreBase::run() jumps `now` to the next timed event instead of
 * stepping; the jump must be exact. The reference is a chopped run:
 * Machine::run(N, cycle() + 1) called until it stops steps one cycle
 * per call and so never skips. It must match one whole run(N) in every
 * RunResult field, every PathEvents counter and every StatGroup counter,
 * across the core families, LCS latencies, the timing knobs, warmup,
 * the exception path and both predictors. Also here: the replicated
 * rename-stall counters pinned to their stepped values, a floor on how
 * much the skip saves, and the resumed-run deadlock window.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "sim/machine.hh"
#include "sim/presets.hh"
#include "sim/spec.hh"
#include "verify/fuzzer.hh"
#include "workload/spec.hh"

namespace msp {
namespace {

/** Everything a run leaves behind that a report or test can read. */
struct RunOutcome
{
    RunResult result;
    PathEvents events;
    std::vector<std::pair<std::string, std::uint64_t>> stats;
    std::uint64_t skipped = 0;
};

RunOutcome
capture(Machine &m, const RunResult &r)
{
    RunOutcome o{r, m.core().events(), {}, m.core().skippedCycles()};
    for (const Stat *s : m.stats().all())
        o.stats.emplace_back(s->name, s->value);
    return o;
}

RunOutcome
wholeRun(const MachineConfig &cfg, const Program &prog, std::uint64_t n)
{
    Machine m(cfg, prog);
    const RunResult r = m.run(n);
    return capture(m, r);
}

/** One cycle per run() call: the cycle cap leaves nothing to skip. */
RunOutcome
choppedRun(const MachineConfig &cfg, const Program &prog, std::uint64_t n)
{
    Machine m(cfg, prog);
    RunResult r;
    do {
        r = m.run(n, m.core().cycle() + 1);
    } while (!m.core().halted() && m.core().committed() < n &&
             m.core().cycle() < 5000000);
    return capture(m, r);
}

/** Chopped == whole; returns the whole run for case-specific checks. */
RunOutcome
expectSkipIsExact(const std::string &id, const MachineConfig &cfg,
                  const Program &prog, std::uint64_t n = 3000)
{
    SCOPED_TRACE(id);
    const RunOutcome whole = wholeRun(cfg, prog, n);
    const RunOutcome chopped = choppedRun(cfg, prog, n);
    EXPECT_EQ(chopped.skipped, 0u);
    EXPECT_GT(whole.skipped, 0u) << "the skip never engaged";
    EXPECT_EQ(whole.result.cycles, chopped.result.cycles);
    EXPECT_EQ(whole.result.committed, chopped.result.committed);
    EXPECT_EQ(whole.result.renameStallCycles,
              chopped.result.renameStallCycles);
    EXPECT_TRUE(whole.result == chopped.result) << "RunResult differs";
    EXPECT_EQ(whole.events.stallEdge, chopped.events.stallEdge);
    EXPECT_TRUE(whole.events == chopped.events) << "PathEvents differ";
    EXPECT_EQ(whole.stats, chopped.stats);
    return whole;
}

/** The Table I ladder rungs the skip must be exact on. */
std::vector<MachineConfig>
ladder(PredictorKind p)
{
    return {baselineConfig(p),      cprConfig(p),
            nspConfig(4, p, true),  nspConfig(4, p, false),
            nspConfig(16, p, true), nspConfig(16, p, false),
            idealMspConfig(p)};
}

void
expectLadderExact(const std::string &workload)
{
    const Program prog = spec::build(workload, 1);
    for (const PredictorKind p :
         {PredictorKind::Gshare, PredictorKind::Tage}) {
        for (const MachineConfig &cfg : ladder(p)) {
            const RunOutcome o = expectSkipIsExact(
                workload + "/" + cfg.name + "/" + predictorName(p), cfg,
                prog);
            if (cfg.name == "CPR") {
                EXPECT_GT(o.result.recoveries, 0u) << workload;
            }
        }
    }
}

TEST(QuietSkip, ExactOnFig6WorkloadAcrossLadder)
{
    expectLadderExact("mcf");
}

TEST(QuietSkip, ExactOnFig8WorkloadAcrossLadder)
{
    expectLadderExact("swim");
}

TEST(QuietSkip, ExactWithCprRollbacks)
{
    // gcc's hard branches drive CPR through checkpoint rollbacks.
    const RunOutcome o = expectSkipIsExact(
        "gcc/CPR", cprConfig(PredictorKind::Gshare), spec::build("gcc", 1));
    const auto rollbacks =
        std::find_if(o.stats.begin(), o.stats.end(), [](const auto &s) {
            return s.first == "cpr.rollbacks";
        });
    ASSERT_NE(rollbacks, o.stats.end());
    EXPECT_GT(rollbacks->second, 0u);
}

TEST(QuietSkip, ExactAcrossLcsLatencies)
{
    // A longer LCS delay line stays unsettled for longer after every
    // change; the skip must wait until it holds only its output.
    for (const std::uint64_t lat : {0u, 1u, 4u, 8u}) {
        for (const char *w : {"swim", "mcf"}) {
            MachineConfig cfg = nspConfig(16, PredictorKind::Tage);
            setParam(cfg, "lcs.latency", ParamValue::ofU64(lat));
            expectSkipIsExact(std::string(w) + "/lcs.latency=" +
                                  std::to_string(lat),
                              cfg, spec::build(w, 1));
        }
    }
}

TEST(QuietSkip, ExactAcrossTimingKnobs)
{
    // Every knob that moves a wake threshold (front-end depth, restart
    // penalties) or how much a stage can do per cycle.
    const std::vector<std::pair<const char *, const char *>> knobs = {
        {"frontend.depth", "1"},      {"frontend.depth", "12"},
        {"recovery.penalty", "7"},    {"cpr.rollback_penalty", "9"},
        {"cpr.sq_scan_penalty", "3"}, {"width.fetch", "1"},
        {"width.rename", "1"},        {"width.issue", "1"},
        {"width.retire", "1"},        {"ldq.release_at_exec", "true"},
        {"fu.mem", "1"},
    };
    for (const auto &[key, value] : knobs) {
        for (MachineConfig cfg : {cprConfig(PredictorKind::Gshare),
                                  nspConfig(16, PredictorKind::Gshare)}) {
            setParamFromString(cfg, key, value);
            expectSkipIsExact(std::string("gcc/") + cfg.name + "/" + key +
                                  "=" + value,
                              cfg, spec::build("gcc", 1));
        }
    }
}

TEST(QuietSkip, ExactAfterWarmup)
{
    for (MachineConfig cfg : {nspConfig(16, PredictorKind::Gshare),
                              cprConfig(PredictorKind::Gshare)}) {
        setParam(cfg, "warmup.instrs", ParamValue::ofU64(20000));
        expectSkipIsExact("mcf/warm/" + cfg.name, cfg,
                          spec::build("mcf", 1));
    }
}

TEST(QuietSkip, ExactOnTheExceptionPath)
{
    verify::FuzzMix mix;
    mix.trapProb = 0.05;
    mix.hotProb = 0.2;   // spread memory: cold misses open quiet runs
    for (const std::uint64_t seed : {3u, 11u}) {
        const Program prog = verify::fuzzProgram(seed, mix);
        for (const MachineConfig &cfg : ladder(PredictorKind::Gshare)) {
            const RunOutcome o = expectSkipIsExact(
                prog.name + "/" + cfg.name, cfg, prog, ~std::uint64_t{0});
            EXPECT_GT(o.result.exceptions, 0u) << prog.name;
        }
    }
}

// ---------------------------------------------------------------------------
// The counters a skip replicates, pinned to their stepped values (the
// same six runs as WindowLanes.IssueAttemptCountersArePinned), and a
// floor on the skip itself so a change that quietly disables it fails
// here and not only in the benchmark.
// ---------------------------------------------------------------------------

TEST(QuietSkip, ReplicatedStallCountersArePinned)
{
    struct Pin
    {
        const char *workload;
        MachineConfig cfg;
        std::uint64_t renameStall, regStall, iqStall, bankStallSum;
        std::array<std::uint64_t, PathEvents::stallKinds> stallDiagonal;
    };
    const PredictorKind p = PredictorKind::Tage;
    const std::vector<Pin> pins = {
        {"swim", baselineConfig(p), 2028, 1074, 248, 0,
         {0, 1071, 90, 0, 0, 704, 0}},
        {"swim", cprConfig(p), 482, 0, 482, 0, {0, 0, 226, 0, 0, 0, 0}},
        {"swim", nspConfig(16, p), 2638, 2638, 0, 2638,
         {0, 2417, 0, 0, 0, 0, 0}},
        {"applu", baselineConfig(p), 1830, 1830, 0, 0,
         {0, 1825, 0, 0, 0, 0, 0}},
        {"applu", cprConfig(p), 183, 0, 0, 0, {0, 0, 0, 0, 0, 0, 181}},
        {"applu", nspConfig(16, p), 2068, 2068, 0, 2068,
         {0, 2028, 0, 0, 0, 0, 0}},
    };

    for (const Pin &pin : pins) {
        Machine m(pin.cfg, spec::build(pin.workload, 1));
        const RunResult r = m.run(3000);
        const PathEvents &ev = m.core().events();
        const std::string id =
            std::string(pin.workload) + "/" + pin.cfg.name;
        std::array<std::uint64_t, PathEvents::stallKinds> diagonal{};
        for (unsigned i = 0; i < PathEvents::stallKinds; ++i)
            diagonal[i] = ev.stallEdge[i * PathEvents::stallKinds + i];
        EXPECT_EQ(r.renameStallCycles, pin.renameStall) << id;
        EXPECT_EQ(r.regStallCycles, pin.regStall) << id;
        EXPECT_EQ(r.iqStallCycles, pin.iqStall) << id;
        EXPECT_EQ(std::accumulate(r.bankStallCycles.begin(),
                                  r.bankStallCycles.end(),
                                  std::uint64_t{0}),
                  pin.bankStallSum)
            << id;
        EXPECT_EQ(diagonal, pin.stallDiagonal) << id;
    }
}

TEST(QuietSkip, SwimOn16SpSkipsMostCycles)
{
    Machine m(nspConfig(16, PredictorKind::Tage), spec::build("swim", 1));
    const RunResult r = m.run(10000);
    EXPECT_GE(2 * m.core().skippedCycles(), r.cycles)
        << "skipped " << m.core().skippedCycles() << " of " << r.cycles;
}

TEST(QuietSkip, ResumedRunPastTheDeadlockWindowKeepsGoing)
{
    // The no-progress panic counts from the start of each run() call:
    // a machine resumed more than 1M cycles into its life must not
    // blame the cycles before the call on the first commit-less one.
    Machine m(nspConfig(16, PredictorKind::Gshare), spec::build("mcf", 1));
    const RunResult first = m.run(~std::uint64_t{0}, 1000500);
    ASSERT_EQ(first.cycles, 1000500u);
    const RunResult second = m.run(~std::uint64_t{0}, 1000600);
    EXPECT_EQ(second.cycles, 1000600u);
    EXPECT_GE(second.committed, first.committed);
}

} // anonymous namespace
} // namespace msp
