/**
 * @file
 * Differential-verification subsystem tests: fuzzer determinism and
 * termination, clean cross-model runs, injected-fault detection (the
 * "does the oracle actually catch bugs?" property), thread-count
 * invariance of DiffCampaign, and the JSON divergence report.
 */

#include <gtest/gtest.h>

#include <set>

#include "functional/executor.hh"
#include "sim/presets.hh"
#include "sim/spec.hh"
#include "verify/bisect.hh"
#include "verify/diff_campaign.hh"
#include "verify/fuzzer.hh"
#include "verify/oracle.hh"
#include "verify/report.hh"
#include "verify/shrink.hh"

namespace msp {
namespace {

using verify::DiffCampaign;
using verify::DiffOutcome;
using verify::FuzzMix;

bool
sameProgram(const Program &a, const Program &b)
{
    if (a.name != b.name || a.code.size() != b.code.size() ||
        a.initData != b.initData || a.memWords != b.memWords) {
        return false;
    }
    for (std::size_t i = 0; i < a.code.size(); ++i) {
        const Instruction &x = a.code[i];
        const Instruction &y = b.code[i];
        if (x.op != y.op || x.rd != y.rd || x.rs1 != y.rs1 ||
            x.rs2 != y.rs2 || x.imm != y.imm) {
            return false;
        }
    }
    return true;
}

TEST(Fuzzer, SameSeedIsBitIdentical)
{
    for (const FuzzMix &mix : verify::standardMixes()) {
        Program a = verify::fuzzProgram(7, mix);
        Program b = verify::fuzzProgram(7, mix);
        EXPECT_TRUE(sameProgram(a, b)) << mix.name;
    }
}

TEST(Fuzzer, DifferentSeedsDiffer)
{
    Program a = verify::fuzzProgram(1);
    Program b = verify::fuzzProgram(2);
    EXPECT_FALSE(sameProgram(a, b));
}

TEST(Fuzzer, GeneratedProgramsTerminate)
{
    // Every backward branch is a countdown loop, so any seed of any
    // mix must reach HALT well inside the safety budget.
    for (const FuzzMix &mix : verify::standardMixes()) {
        for (std::uint64_t seed = 1; seed <= 10; ++seed) {
            Program p = verify::fuzzProgram(seed, mix);
            FunctionalExecutor ref(p);
            ref.run(1u << 20);
            EXPECT_TRUE(ref.halted())
                << mix.name << " seed " << seed << " did not halt";
        }
    }
}

TEST(Fuzzer, MixedMixCoversTheIsaFeatureClasses)
{
    // Across a handful of seeds the default mix must exercise every
    // class the differential oracle is meant to stress.
    bool condBranch = false, load = false, store = false, fp = false,
         call = false, indirect = false, trap = false;
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
        Program p = verify::fuzzProgram(seed);
        for (const Instruction &in : p.code) {
            const OpInfo &oi = in.info();
            condBranch |= oi.isCondBranch;
            load |= oi.isLoad;
            store |= oi.isStore;
            fp |= oi.fu == FuClass::FpAlu;
            call |= oi.isCall;
            indirect |= oi.isIndirect;
            trap |= oi.isTrap;
        }
    }
    EXPECT_TRUE(condBranch);
    EXPECT_TRUE(load);
    EXPECT_TRUE(store);
    EXPECT_TRUE(fp);
    EXPECT_TRUE(call);
    EXPECT_TRUE(indirect);
    EXPECT_TRUE(trap);
}

TEST(Fuzzer, MixLookup)
{
    EXPECT_NE(verify::findMix("branchy"), nullptr);
    EXPECT_NE(verify::findMix("fploop"), nullptr);
    EXPECT_NE(verify::findMix("fpedge"), nullptr);
    EXPECT_EQ(verify::findMix("nope"), nullptr);
    EXPECT_EQ(verify::standardMixes().size(), 5u);
}

TEST(Fuzzer, FpedgeSeedsCraftedBitPatterns)
{
    const verify::FuzzMix *fpedge = verify::findMix("fpedge");
    ASSERT_NE(fpedge, nullptr);
    EXPECT_GT(fpedge->fpEdgeProb, 0.0);

    // Every seed's data image must carry several distinct crafted
    // patterns — corner cases are reached by construction, not luck.
    const auto &pats = verify::fpEdgePatterns();
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        Program p = verify::fuzzProgram(seed, *fpedge);
        std::set<std::uint64_t> found;
        for (std::uint64_t w : p.initData)
            for (std::uint64_t pat : pats)
                if (w == pat && pat != 0)
                    found.insert(w);
        EXPECT_GE(found.size(), 3u) << "seed " << seed;
    }
}

TEST(Fuzzer, FpedgeRunsCleanDifferentially)
{
    const verify::FuzzMix *fpedge = verify::findMix("fpedge");
    ASSERT_NE(fpedge, nullptr);
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        Program p = verify::fuzzProgram(seed, *fpedge);
        verify::DiffOptions opt;
        opt.snapshotEvery = 256;
        DiffOutcome out =
            verify::diffRun(p, nspConfig(16, PredictorKind::Gshare), opt);
        EXPECT_TRUE(out.ok())
            << "seed " << seed << ": "
            << (out.divergences.empty()
                    ? ""
                    : out.divergences[0].kind + " " +
                          out.divergences[0].detail);
    }
}

// Regression for the hash asymmetry: the functional side used to feed
// raw StepResult fields while the core side zeroed non-memory fields at
// the call site. Masking now happens inside commit(), so records that
// differ only in fields meaningless for the op hash identically.
TEST(StreamHasher, StaleFieldsOfNonMemoryOpsDoNotChangeTheHash)
{
    verify::StreamHasher clean, stale;
    // An ALU op: memAddr/storeValue are don't-care.
    clean.commit(10, true, 42, false, false, 0, 0);
    stale.commit(10, true, 42, false, false, 0xdeadbeef, 0x1234);
    EXPECT_EQ(clean.h, stale.h);

    // A load: storeValue is don't-care, memAddr is not.
    verify::StreamHasher loadClean, loadStale, loadOther;
    loadClean.commit(11, true, 7, true, false, 0x40, 0);
    loadStale.commit(11, true, 7, true, false, 0x40, 0x9999);
    loadOther.commit(11, true, 7, true, false, 0x48, 0);
    EXPECT_EQ(loadClean.h, loadStale.h);
    EXPECT_NE(loadClean.h, loadOther.h);

    // A store hashes both address and data.
    verify::StreamHasher st1, st2;
    st1.commit(12, false, 0, false, true, 0x40, 5);
    st2.commit(12, false, 0, false, true, 0x40, 6);
    EXPECT_NE(st1.h, st2.h);
}

TEST(DiffOracle, AllCoreKindsMatchTheFunctionalModel)
{
    const std::vector<MachineConfig> configs = {
        baselineConfig(PredictorKind::Gshare),
        cprConfig(PredictorKind::Gshare),
        nspConfig(16, PredictorKind::Gshare),
    };
    for (const auto &cfg : configs) {
        for (std::uint64_t seed = 11; seed <= 14; ++seed) {
            Program p = verify::fuzzProgram(seed);
            DiffOutcome out = verify::diffRun(p, cfg);
            EXPECT_TRUE(out.ok())
                << cfg.name << " seed " << seed << ": "
                << (out.divergences.empty()
                        ? ""
                        : out.divergences[0].kind + " " +
                              out.divergences[0].detail);
            EXPECT_EQ(out.committedCore, out.committedRef);
            EXPECT_GT(out.committedCore, 0u);
        }
    }
}

// The acceptance property: an intentionally injected, *silent* commit-
// path bug (applied after the internal lock-step check) must be caught
// by the external differential oracle.
TEST(DiffOracle, CatchesAnInjectedCommitFault)
{
    Program p = verify::fuzzProgram(42);
    MachineConfig cfg = nspConfig(16, PredictorKind::Gshare);
    cfg.core.commitFaultAt = 100;
    DiffOutcome out = verify::diffRun(p, cfg);
    ASSERT_FALSE(out.ok());
    // The stream hash always sees the corruption, even when a later
    // write masks it from the final-state compare.
    bool streamCaught = false;
    for (const auto &d : out.divergences)
        streamCaught |= d.kind == "stream";
    EXPECT_TRUE(streamCaught);
}

TEST(DiffOracle, FaultInjectionCatchesOnEveryCoreKind)
{
    Program p = verify::fuzzProgram(43);
    for (auto cfg : {baselineConfig(PredictorKind::Gshare),
                     cprConfig(PredictorKind::Gshare),
                     nspConfig(8, PredictorKind::Gshare)}) {
        cfg.core.commitFaultAt = 37;
        DiffOutcome out = verify::diffRun(p, cfg);
        EXPECT_FALSE(out.ok()) << cfg.name;
    }
}

TEST(DiffOracle, SnapshotCompareIsCleanOnCorrectCores)
{
    // Mid-run compares must never false-positive on a correct core.
    for (const auto &cfg : {baselineConfig(PredictorKind::Gshare),
                            cprConfig(PredictorKind::Gshare),
                            nspConfig(16, PredictorKind::Gshare)}) {
        Program p = verify::fuzzProgram(21);
        verify::DiffOptions opt;
        opt.snapshotEvery = 128;
        DiffOutcome out = verify::diffRun(p, cfg, opt);
        EXPECT_TRUE(out.ok()) << cfg.name;
        EXPECT_FALSE(out.localized) << cfg.name;
        EXPECT_EQ(out.snapshotEvery, 128u);
    }
}

// The tentpole property: snapshot compare pins an injected fault to a
// commit window no wider than the snapshot cadence, instead of "the
// whole ~6k-instruction run diverged somewhere".
TEST(DiffOracle, SnapshotCompareLocalizesAnInjectedFault)
{
    constexpr std::uint64_t cadence = 64;
    Program p = verify::fuzzProgram(42);
    MachineConfig cfg = nspConfig(16, PredictorKind::Gshare);
    cfg.core.commitFaultAt = 100;   // Nth reg-writing commit

    verify::DiffOptions opt;
    opt.snapshotEvery = cadence;
    DiffOutcome out = verify::diffRun(p, cfg, opt);
    ASSERT_FALSE(out.ok());
    ASSERT_TRUE(out.localized);
    EXPECT_LE(out.badWindowHi - out.badWindowLo, cadence);
    // The corrupted commit is the 100th register write, so it cannot
    // sit below commit index 100: the window must end past it...
    EXPECT_GE(out.badWindowHi, 100u);
    // ...and a correctly-localizing window starts well under the full
    // run length.
    EXPECT_LT(out.badWindowLo, out.committedRef);
    bool snapshotKind = false;
    for (const auto &d : out.divergences)
        snapshotKind |= d.kind == "snapshot";
    EXPECT_TRUE(snapshotKind);
}

// A commit bypassing the observer tap used to abort the whole campaign
// process via msp_assert, contradicting the module contract that
// divergences surface as reports. It must now be an "observer-count"
// divergence.
TEST(DiffOracle, DroppedObserverCallbackIsReportedNotFatal)
{
    Program p = verify::fuzzProgram(42);
    MachineConfig cfg = nspConfig(16, PredictorKind::Gshare);
    cfg.core.observerFaultAt = 50;
    DiffOutcome out = verify::diffRun(p, cfg);
    ASSERT_FALSE(out.ok());
    bool counted = false;
    for (const auto &d : out.divergences)
        counted |= d.kind == "observer-count";
    EXPECT_TRUE(counted);
}

TEST(DiffOracle, RefBudgetExhaustionIsReported)
{
    Program p = verify::fuzzProgram(5);
    DiffOutcome out =
        verify::diffRun(p, nspConfig(16, PredictorKind::Gshare), 50);
    ASSERT_FALSE(out.ok());
    EXPECT_EQ(out.divergences[0].kind, "ref-no-halt");
}

TEST(DiffCampaign, SweepShapeAndDistinctSeeds)
{
    DiffCampaign c(1);
    const std::vector<FuzzMix> mixes = {verify::standardMixes()[0],
                                        verify::standardMixes()[1]};
    c.addSweep(mixes, 3, 1,
               {baselineConfig(PredictorKind::Gshare),
                nspConfig(16, PredictorKind::Gshare)});
    ASSERT_EQ(c.size(), 2u * 3u * 2u);

    std::set<std::uint64_t> seeds;
    for (const auto &j : c.pending())
        seeds.insert(j.seed);
    EXPECT_EQ(seeds.size(), 6u);   // distinct per (mix, seed index)
}

TEST(DiffCampaign, ProgramsAreSharedAcrossConfigsOfOneSeed)
{
    DiffCampaign c(1);
    c.addSweep({verify::standardMixes()[0]}, 1, 1,
               {baselineConfig(PredictorKind::Gshare),
                nspConfig(16, PredictorKind::Gshare)});
    (void)c.run();
    ASSERT_EQ(c.pending().size(), 2u);
    EXPECT_EQ(c.pending()[0].program.get(), c.pending()[1].program.get());
    EXPECT_NE(c.pending()[0].program.get(), nullptr);
}

// The headline property, mirrored from SimCampaign: outcomes are
// bit-identical regardless of worker count.
TEST(DiffCampaign, ParallelRunMatchesSingleThreaded)
{
    auto sweep = [](unsigned threads) {
        DiffCampaign c(threads);
        c.addSweep({verify::standardMixes()[0],
                    verify::standardMixes()[2]},
                   4, 9,
                   {baselineConfig(PredictorKind::Gshare),
                    nspConfig(16, PredictorKind::Gshare)});
        return c.run();
    };
    const auto ref = sweep(1);
    for (unsigned threads : {2u, 4u}) {
        const auto par = sweep(threads);
        ASSERT_EQ(par.size(), ref.size());
        for (std::size_t i = 0; i < ref.size(); ++i) {
            SCOPED_TRACE(ref[i].config + "/" + ref[i].workload);
            EXPECT_EQ(par[i].streamHash, ref[i].streamHash);
            EXPECT_EQ(par[i].committedCore, ref[i].committedCore);
            EXPECT_EQ(par[i].cycles, ref[i].cycles);
            EXPECT_EQ(par[i].divergences.size(),
                      ref[i].divergences.size());
        }
    }
}

TEST(DiffCampaign, ProgressReportsEveryJobOnce)
{
    DiffCampaign c(2);
    c.addSweep({verify::standardMixes()[0]}, 3, 2,
               {nspConfig(16, PredictorKind::Gshare)});
    std::set<std::uint64_t> seen;
    std::size_t calls = 0;
    (void)c.run([&](const DiffOutcome &o, std::size_t done,
                    std::size_t total) {
        EXPECT_EQ(total, 3u);
        EXPECT_LE(done, total);
        seen.insert(o.seed);
        ++calls;
    });
    EXPECT_EQ(calls, 3u);
    EXPECT_EQ(seen.size(), 3u);
}

TEST(DiffCampaign, FailFastSkipsAfterTheFirstDivergence)
{
    MachineConfig bad = nspConfig(16, PredictorKind::Gshare);
    bad.core.commitFaultAt = 50;   // every job diverges

    DiffCampaign c(1);             // deterministic in-order execution
    c.addSweep({verify::standardMixes()[0]}, 4, 1, {bad});
    c.setFailFast(true);
    const auto outcomes = c.run();
    ASSERT_EQ(outcomes.size(), 4u);
    EXPECT_FALSE(outcomes[0].ok());
    EXPECT_FALSE(outcomes[0].skipped);
    for (std::size_t i = 1; i < outcomes.size(); ++i) {
        EXPECT_TRUE(outcomes[i].skipped) << i;
        EXPECT_TRUE(outcomes[i].ok()) << i;
    }
    EXPECT_EQ(verify::countSkipped(outcomes), 3u);
}

TEST(DiffCampaign, ExhaustedBudgetSkipsEverything)
{
    DiffCampaign c(1);
    c.addSweep({verify::standardMixes()[0]}, 3, 1,
               {nspConfig(16, PredictorKind::Gshare)});
    c.setBudgetSec(1e-9);          // expires before the first job starts
    const auto outcomes = c.run();
    ASSERT_EQ(outcomes.size(), 3u);
    for (const auto &o : outcomes) {
        EXPECT_TRUE(o.skipped);
        EXPECT_TRUE(o.ok());
    }
    // Skipped jobs still carry their identity for the report.
    EXPECT_EQ(outcomes[0].config, "16-SP+Arb");
    EXPECT_NE(outcomes[0].seed, 0u);
}

TEST(DiffCampaign, SnapshotEveryIsAppliedToEveryJob)
{
    DiffCampaign c(1);
    c.addSweep({verify::standardMixes()[0]}, 2, 1,
               {nspConfig(16, PredictorKind::Gshare)});
    c.setSnapshotEvery(128);
    for (const auto &j : c.pending())
        EXPECT_EQ(j.snapshotEvery, 128u);
    const auto outcomes = c.run();
    for (const auto &o : outcomes) {
        EXPECT_TRUE(o.ok());
        EXPECT_EQ(o.snapshotEvery, 128u);
    }
}

// The shrinking acceptance property: from a diverging job, the shrinker
// must emit a reproducing program strictly smaller than the original
// that replays to the same divergence kind.
TEST(Shrink, EmitsAStrictlySmallerReproducerOfTheSameKind)
{
    verify::DiffJob job;
    job.mix = verify::standardMixes()[0];
    job.seed = 42;
    job.config = nspConfig(16, PredictorKind::Gshare);
    job.config.core.commitFaultAt = 100;
    job.snapshotEvery = 64;

    Program p = verify::fuzzProgram(job.seed, job.mix);
    verify::DiffOptions dopt;
    dopt.snapshotEvery = job.snapshotEvery;
    const DiffOutcome orig = verify::diffRun(p, job.config, dopt);
    ASSERT_FALSE(orig.ok());

    const verify::ShrinkResult res = verify::shrinkDivergence(job, orig);
    EXPECT_TRUE(res.reproduced);
    EXPECT_TRUE(res.shrunk);
    EXPECT_LT(res.shrunkDynamic, res.origDynamic);
    EXPECT_GT(res.attempts, 1u);
    EXPECT_FALSE(res.repro.kind.empty());
    // The injected fault makes this config deliberately *not*
    // CLI-reachable, so no preset may be recorded — replaying "16sp"
    // would show clean and the repro would lie.
    EXPECT_EQ(res.repro.preset, "");
    EXPECT_EQ(verify::shrinkDivergence(
                  [&] {
                      verify::DiffJob clean = job;
                      clean.config = nspConfig(16, PredictorKind::Gshare);
                      return clean;
                  }(),
                  orig)
                  .repro.preset,
              "16sp");

    // The recorded kind is one the original run reported...
    bool inOrig = false;
    for (const auto &d : orig.divergences)
        inOrig |= d.kind == res.repro.kind;
    EXPECT_TRUE(inOrig);

    // ...and regenerating the program from (seed, shrunk mix) replays
    // to that same kind deterministically.
    Program small = verify::fuzzProgram(res.repro.seed, res.repro.mix);
    EXPECT_LT(small.code.size(), p.code.size());
    const DiffOutcome replay = verify::diffRun(small, job.config, dopt);
    bool sameKind = false;
    for (const auto &d : replay.divergences)
        sameKind |= d.kind == res.repro.kind;
    EXPECT_TRUE(sameKind);

    // The fault still fires in the shrunk program, so its dynamic
    // length cannot go below the fault's commit index.
    EXPECT_GE(res.shrunkDynamic, 100u);
}

TEST(Shrink, NonReproducingDivergenceIsReportedAsSuch)
{
    // A clean job handed to the shrinker (as if the divergence were a
    // one-off of a flaky host) must come back reproduced=false rather
    // than looping.
    verify::DiffJob job;
    job.mix = verify::standardMixes()[0];
    job.seed = 7;
    job.config = nspConfig(16, PredictorKind::Gshare);

    DiffOutcome fake;
    fake.divergences.push_back({"stream", "synthetic"});
    const verify::ShrinkResult res = verify::shrinkDivergence(job, fake);
    EXPECT_FALSE(res.reproduced);
    EXPECT_FALSE(res.shrunk);
    EXPECT_EQ(res.attempts, 1u);
}

TEST(Shrink, ShrinkFailuresSelectsOnlyShrinkableOutcomes)
{
    MachineConfig good = nspConfig(16, PredictorKind::Gshare);
    MachineConfig bad = good;
    bad.core.commitFaultAt = 60;

    std::vector<verify::DiffJob> jobs(3);
    for (auto &j : jobs) {
        j.mix = verify::standardMixes()[0];
        j.seed = 42;
        j.config = good;
    }
    jobs[1].config = bad;

    std::vector<DiffOutcome> outcomes(3);
    Program p = verify::fuzzProgram(42, jobs[0].mix);
    outcomes[0] = verify::diffRun(p, jobs[0].config);   // clean
    outcomes[1] = verify::diffRun(p, jobs[1].config);   // divergent
    outcomes[2].skipped = true;                         // never ran

    std::size_t calls = 0;
    const auto results = verify::shrinkFailures(
        jobs, outcomes, verify::ShrinkOptions{},
        [&](const verify::ShrinkResult &, std::size_t done,
            std::size_t total) {
            ++calls;
            EXPECT_EQ(total, 1u);
            EXPECT_LE(done, total);
        });
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(calls, 1u);
    EXPECT_TRUE(results[0].reproduced);
}

TEST(Shrink, ExpiredBudgetMarksRemainingJobsTimedOutInsteadOfDropping)
{
    // The wall-clock budget is one deadline across every failing job,
    // not a fresh grant per job. An expired budget used to silently
    // *drop* the remaining failing jobs from the result list — a
    // partial triage pass that read as a complete one. Every failing
    // job must now come back, the unreached ones carrying
    // timedOut=true plus their full repro identity.
    MachineConfig bad = nspConfig(16, PredictorKind::Gshare);
    bad.core.commitFaultAt = 60;

    std::vector<verify::DiffJob> jobs(2);
    for (auto &j : jobs) {
        j.mix = verify::standardMixes()[0];
        j.seed = 42;
        j.config = bad;
    }
    Program p = verify::fuzzProgram(42, jobs[0].mix);
    std::vector<DiffOutcome> outcomes(2);
    outcomes[0] = verify::diffRun(p, bad);
    outcomes[1] = outcomes[0];
    ASSERT_FALSE(outcomes[0].ok());

    verify::ShrinkOptions sopt;
    sopt.budgetSec = 1e-9;
    std::size_t progressCalls = 0;
    const auto results = verify::shrinkFailures(
        jobs, outcomes, sopt,
        [&](const verify::ShrinkResult &, std::size_t, std::size_t total) {
            ++progressCalls;
            EXPECT_EQ(total, 2u);
        });
    ASSERT_EQ(results.size(), 2u);
    EXPECT_EQ(progressCalls, 2u);
    for (std::size_t i = 0; i < results.size(); ++i) {
        const verify::ShrinkResult &r = results[i];
        EXPECT_TRUE(r.timedOut) << i;
        EXPECT_FALSE(r.shrunk) << i;
        EXPECT_EQ(r.jobIndex, i);
        // Identity survives so the report still names the failure.
        EXPECT_EQ(r.repro.seed, 42u);
        EXPECT_TRUE(r.repro.hasMachine);
        EXPECT_TRUE(sameSpec(r.repro.machine, bad));
        EXPECT_FALSE(r.repro.kind.empty());
    }

    // The report surfaces the count and flags each entry.
    const std::string json = verify::toJson(outcomes, results);
    EXPECT_NE(json.find("\"shrink_timed_out\": 2"), std::string::npos);
    EXPECT_NE(json.find("\"timed_out\": true"), std::string::npos);
}

TEST(VerifyReport, ReproRoundTripsThroughJson)
{
    verify::DiffJob job;
    job.mix = verify::standardMixes()[0];
    job.seed = 42;
    job.config = nspConfig(16, PredictorKind::Gshare);
    job.config.core.commitFaultAt = 100;

    Program p = verify::fuzzProgram(job.seed, job.mix);
    const DiffOutcome orig = verify::diffRun(p, job.config);
    ASSERT_FALSE(orig.ok());
    verify::ShrinkOptions sopt;
    sopt.maxAttempts = 8;   // a partial shrink round-trips just as well
    const verify::ShrinkResult res =
        verify::shrinkDivergence(job, orig, sopt);
    ASSERT_TRUE(res.reproduced);

    const std::string json = verify::toJson({orig}, {res});
    EXPECT_NE(json.find("\"repros\": ["), std::string::npos);

    const auto specs = verify::parseRepros(json);
    ASSERT_EQ(specs.size(), 1u);
    const verify::ReproSpec &spec = specs[0];
    EXPECT_EQ(spec.seed, res.repro.seed);
    // Fault-injected configs match no preset, so the cosmetic label is
    // empty — but the complete machine spec round-trips regardless.
    EXPECT_EQ(spec.preset, "");
    EXPECT_EQ(spec.predictor, "gshare");
    ASSERT_TRUE(spec.hasMachine);
    EXPECT_TRUE(sameSpec(spec.machine, job.config));
    EXPECT_EQ(spec.machine.core.commitFaultAt, 100u);
    EXPECT_EQ(spec.kind, res.repro.kind);
    EXPECT_EQ(spec.mix.name, res.repro.mix.name);
    EXPECT_EQ(spec.mix.targetDynamic, res.repro.mix.targetDynamic);
    EXPECT_EQ(spec.mix.blocksMax, res.repro.mix.blocksMax);
    EXPECT_EQ(spec.mix.segMax, res.repro.mix.segMax);
    EXPECT_EQ(spec.mix.tripMax, res.repro.mix.tripMax);
    EXPECT_EQ(spec.mix.memWords, res.repro.mix.memWords);
    EXPECT_DOUBLE_EQ(spec.mix.loopProb, res.repro.mix.loopProb);
    EXPECT_DOUBLE_EQ(spec.mix.weights.fp, res.repro.mix.weights.fp);
    EXPECT_DOUBLE_EQ(spec.mix.fpEdgeProb, res.repro.mix.fpEdgeProb);

    // The parsed spec regenerates a byte-identical program: replaying
    // it on the same (faulty) machine reproduces the divergence.
    Program replayProg = verify::fuzzProgram(spec.seed, spec.mix);
    EXPECT_TRUE(sameProgram(
        replayProg, verify::fuzzProgram(res.repro.seed, res.repro.mix)));
    const DiffOutcome replay = verify::diffRun(replayProg, job.config);
    bool sameKind = false;
    for (const auto &d : replay.divergences)
        sameKind |= d.kind == spec.kind;
    EXPECT_TRUE(sameKind);
}

TEST(VerifyReport, ParseReprosToleratesForeignDocuments)
{
    EXPECT_TRUE(verify::parseRepros("").empty());
    EXPECT_TRUE(verify::parseRepros("{\"jobs\": []}").empty());
    EXPECT_TRUE(verify::parseRepros("{\"verify\": {\"repros\": []}}")
                    .empty());
}

TEST(VerifyReport, ParseReprosFallsBackToPresetForLegacyDocuments)
{
    // Pre-spec reports carried only the preset label; they still parse
    // (hasMachine=false) and the CLI replays them through the preset.
    const std::string legacy =
        "{\"verify\": {\"repros\": [{\"kind\": \"stream\", \"seed\": 9, "
        "\"preset\": \"16sp\", \"predictor\": \"tage\", "
        "\"max_insts\": 4096}]}}";
    const auto specs = verify::parseRepros(legacy);
    ASSERT_EQ(specs.size(), 1u);
    EXPECT_FALSE(specs[0].hasMachine);
    EXPECT_EQ(specs[0].preset, "16sp");
    EXPECT_EQ(specs[0].predictor, "tage");
}

TEST(VerifyReport, ParseReprosErrorsLoudlyOnUnparseableMachineSpecs)
{
    // A corrupt machine spec must throw (the CLI turns this into exit
    // 2), never silently fall back to the preset label: that could
    // replay a different machine and read as "fixed".
    const std::string unknownKey =
        "{\"verify\": {\"repros\": [{\"kind\": \"stream\", \"seed\": 1, "
        "\"preset\": \"16sp\", \"machine\": {\"bogus.knob\": 3}}]}}";
    EXPECT_THROW(verify::parseRepros(unknownKey), SpecError);

    const std::string badRange =
        "{\"verify\": {\"repros\": [{\"kind\": \"stream\", \"seed\": 1, "
        "\"machine\": {\"width.fetch\": 0}}]}}";
    EXPECT_THROW(verify::parseRepros(badRange), SpecError);

    // Valid key by key, but no MSP core can build a 300-entry IQ.
    const std::string unbuildable =
        "{\"verify\": {\"repros\": [{\"kind\": \"stream\", \"seed\": 1, "
        "\"machine\": {\"base\": \"16sp\", \"iq.size\": 300}}]}}";
    EXPECT_THROW(verify::parseRepros(unbuildable), SpecError);
}

// The acceptance property of the MachineSpec redesign: a divergence
// recorded on a machine *no preset can name* — a custom ablation
// config with an injected commit fault — round-trips through the JSON
// report and replays to the identical divergence kind and bad_window.
TEST(VerifyReport, CustomAblationMachineRoundTripsAndReplays)
{
    verify::DiffJob job;
    job.mix = verify::standardMixes()[0];
    job.seed = 42;
    job.snapshotEvery = 64;
    // An ablation-style machine: a 16-SP with a halved IQ, extra LCS
    // latency and a silent commit fault. presetNameFor has no name for
    // it; before the spec API this was unreplayable by design.
    job.config = nspConfig(16, PredictorKind::Gshare);
    job.config.core.iqSize = 96;
    job.config.core.lcsLatency = 2;
    job.config.core.commitFaultAt = 100;
    job.config.name = describeSpec(job.config);
    ASSERT_EQ(presetNameFor(job.config), "");

    Program p = verify::fuzzProgram(job.seed, job.mix);
    verify::DiffOptions dopt;
    dopt.snapshotEvery = job.snapshotEvery;
    const DiffOutcome orig = verify::diffRun(p, job.config, dopt);
    ASSERT_FALSE(orig.ok());
    ASSERT_TRUE(orig.localized);

    verify::ShrinkOptions sopt;
    sopt.maxAttempts = 8;
    const verify::ShrinkResult res =
        verify::shrinkDivergence(job, orig, sopt);
    ASSERT_TRUE(res.reproduced);

    // Through the report and back: the spec survives verbatim.
    const auto specs =
        verify::parseRepros(verify::toJson({orig}, {res}));
    ASSERT_EQ(specs.size(), 1u);
    const verify::ReproSpec &spec = specs[0];
    ASSERT_TRUE(spec.hasMachine);
    EXPECT_TRUE(sameSpec(spec.machine, job.config));
    EXPECT_EQ(spec.preset, "");
    EXPECT_EQ(spec.snapshotEvery, 64u);

    // Replaying the parsed spec (program, machine and options all
    // rebuilt from the report alone) reproduces the recorded outcome
    // exactly: same divergence kind, same localised bad_window.
    Program replayProg = verify::fuzzProgram(spec.seed, spec.mix);
    verify::DiffOptions ropt;
    ropt.maxInsts = spec.maxInsts;
    ropt.snapshotEvery = spec.snapshotEvery;
    const DiffOutcome replay =
        verify::diffRun(replayProg, spec.machine, ropt);
    ASSERT_FALSE(replay.ok());
    bool sameKind = false;
    for (const auto &d : replay.divergences)
        sameKind |= d.kind == spec.kind;
    EXPECT_TRUE(sameKind);
    EXPECT_EQ(replay.localized, res.outcome.localized);
    EXPECT_EQ(replay.badWindowLo, res.outcome.badWindowLo);
    EXPECT_EQ(replay.badWindowHi, res.outcome.badWindowHi);
    EXPECT_EQ(replay.streamHash, res.outcome.streamHash);
}

TEST(TimingInvariant, FlagsAnIdealMspSlowerThanSixteenSp)
{
    // Forged outcomes: the ideal MSP comes back slower than 16-SP on
    // the same fuzzed program — the invariant must flag exactly that
    // pair and attach a "timing" divergence to the ideal outcome.
    std::vector<verify::DiffJob> jobs(3);
    jobs[0].mix.name = "mixed";
    jobs[0].seed = 7;
    jobs[0].config = idealMspConfig(PredictorKind::Gshare);
    jobs[1].mix.name = "mixed";
    jobs[1].seed = 7;
    jobs[1].config = nspConfig(16, PredictorKind::Gshare);
    jobs[2].mix.name = "mixed";
    jobs[2].seed = 8;                       // different program: no pair
    jobs[2].config = nspConfig(16, PredictorKind::Gshare);

    std::vector<DiffOutcome> outcomes(3);
    for (std::size_t i = 0; i < 3; ++i) {
        outcomes[i].config = jobs[i].config.name;
        outcomes[i].committedCore = 6000;
    }
    outcomes[0].cycles = 4000;              // ideal IPC 1.5
    outcomes[1].cycles = 3000;              // 16-SP IPC 2.0: violation
    outcomes[2].cycles = 1000;

    EXPECT_EQ(verify::applyTimingInvariant(jobs, outcomes), 1u);
    ASSERT_EQ(outcomes[0].divergences.size(), 1u);
    EXPECT_EQ(outcomes[0].divergences[0].kind, "timing");
    EXPECT_TRUE(outcomes[1].ok());
    EXPECT_TRUE(outcomes[2].ok());

    // Within the coarse slack, no violation: predictor-timing noise
    // between the two frontends is not a regression.
    outcomes[0].divergences.clear();
    outcomes[0].cycles = 3300;              // ~9% slower than 16-SP
    EXPECT_EQ(verify::applyTimingInvariant(jobs, outcomes), 0u);

    // Tiny programs are skipped: one extra mispredict swings their
    // IPC far past any sensible slack.
    outcomes[0].cycles = 4000;
    outcomes[0].committedCore = outcomes[1].committedCore = 500;
    EXPECT_EQ(verify::applyTimingInvariant(jobs, outcomes), 0u);
    outcomes[0].committedCore = outcomes[1].committedCore = 6000;

    // Skipped or already-divergent outcomes never pair up.
    outcomes[1].skipped = true;
    EXPECT_EQ(verify::applyTimingInvariant(jobs, outcomes), 0u);
    outcomes[1].skipped = false;

    // A custom ablation of the ideal machine (--set degrading it)
    // gives up resource dominance on purpose: only the *exact* ideal
    // preset pairs up, so no spurious violation.
    jobs[0].config.core.issueWidth = 1;
    EXPECT_EQ(verify::applyTimingInvariant(jobs, outcomes), 0u);
}

TEST(TimingInvariant, HoldsOnRealCleanRuns)
{
    // The invariant the paper's resource argument implies: on real
    // fuzzed programs the ideal MSP (infinite banks/SQ, 0-cycle LCS,
    // full ports) dominates the finite 16-SP machine.
    verify::DiffCampaign c(1);
    c.addSweep({verify::standardMixes()[0]}, 2, 1,
               {nspConfig(16, PredictorKind::Gshare),
                idealMspConfig(PredictorKind::Gshare)});
    auto outcomes = c.run();
    for (const auto &o : outcomes)
        ASSERT_TRUE(o.ok());
    EXPECT_EQ(verify::applyTimingInvariant(c.pending(), outcomes), 0u);
}

/**
 * 1-based commit-stream index of the Nth register-writing instruction
 * of @p p — the stream position where CoreParams::commitFaultAt = N
 * plants its corruption.
 */
std::uint64_t
faultStreamIndex(const Program &p, std::uint64_t nthRegWrite)
{
    FunctionalExecutor ref(p);
    std::uint64_t regWrites = 0;
    while (!ref.halted()) {
        const StepResult sr = ref.step();
        if (sr.wroteReg && ++regWrites == nthRegWrite)
            return ref.instCount();
    }
    return 0;
}

// The tentpole property: bisection closes the gap from "a window no
// wider than the cadence" to "exactly this commit".
TEST(Bisect, PinsAnInjectedFaultToItsExactCommit)
{
    Program p = verify::fuzzProgram(42);
    MachineConfig cfg = nspConfig(16, PredictorKind::Gshare);
    cfg.core.commitFaultAt = 100;
    const std::uint64_t expected = faultStreamIndex(p, 100);
    ASSERT_GT(expected, 0u);

    verify::DiffOptions dopt;
    dopt.snapshotEvery = 256;
    const DiffOutcome orig = verify::diffRun(p, cfg, dopt);
    ASSERT_FALSE(orig.ok());
    ASSERT_TRUE(orig.localized);
    // The cadence window brackets the fault but does not pin it.
    ASSERT_GT(orig.badWindowHi - orig.badWindowLo, 1u);

    const verify::BisectResult b =
        verify::bisectFirstBadCommit(p, cfg, orig, dopt);
    EXPECT_TRUE(b.exact);
    EXPECT_EQ(b.firstBadCommit, expected);
    EXPECT_EQ(b.windowHi, b.windowLo + 1);
    EXPECT_GT(b.probes, 0u);
    // ceil(log2(window)) probes suffice; 256-wide window -> <= 8.
    EXPECT_LE(b.probes, 9u);
    EXPECT_TRUE(b.outcome.exactLocalized);
    EXPECT_EQ(b.outcome.firstBadCommit, expected);
    // The probe window the search converged to is inside the original.
    EXPECT_GE(b.firstBadCommit, orig.badWindowLo);
    EXPECT_LE(b.firstBadCommit, orig.badWindowHi);
}

TEST(Bisect, PrepassRecoversAWindowWhenSnapshotsWereOff)
{
    // A campaign run without --snapshot-every carries no bad window;
    // the bisection pre-pass re-runs with a coarse cadence first and
    // still converges to the same exact commit.
    Program p = verify::fuzzProgram(42);
    MachineConfig cfg = nspConfig(16, PredictorKind::Gshare);
    cfg.core.commitFaultAt = 100;
    const std::uint64_t expected = faultStreamIndex(p, 100);

    verify::DiffOptions dopt;   // no snapshots
    const DiffOutcome orig = verify::diffRun(p, cfg, dopt);
    ASSERT_FALSE(orig.ok());
    ASSERT_FALSE(orig.localized);

    const verify::BisectResult b =
        verify::bisectFirstBadCommit(p, cfg, orig, dopt);
    EXPECT_TRUE(b.exact);
    EXPECT_EQ(b.firstBadCommit, expected);
}

TEST(Bisect, CleanPrefixDivergenceComesBackInexact)
{
    // A divergence with no mid-run signature (forged: the outcome says
    // "divergent" but the machine is actually clean, so every probe
    // compares equal) must come back exact=false, not loop or lie.
    Program p = verify::fuzzProgram(7);
    MachineConfig cfg = nspConfig(16, PredictorKind::Gshare);
    verify::DiffOptions dopt;
    DiffOutcome fake = verify::diffRun(p, cfg, dopt);
    ASSERT_TRUE(fake.ok());
    fake.divergences.push_back({"commit-count", "synthetic"});

    const verify::BisectResult b =
        verify::bisectFirstBadCommit(p, cfg, fake, dopt);
    EXPECT_FALSE(b.exact);
    EXPECT_EQ(b.firstBadCommit, 0u);
}

// The full two-tier pipeline through shrinkDivergence: mix shrink,
// then exact bisection, then structural reduction — and the strict
// ordering the acceptance criterion demands: reduced < mix-shrunk.
TEST(Shrink, TierTwoBisectsAndTierThreeReducesBelowTheMixShrunkProgram)
{
    verify::DiffJob job;
    job.mix = verify::standardMixes()[0];
    job.seed = 42;
    job.config = nspConfig(16, PredictorKind::Gshare);
    job.config.core.commitFaultAt = 100;
    job.snapshotEvery = 64;

    Program p = verify::fuzzProgram(job.seed, job.mix);
    const std::uint64_t expected = faultStreamIndex(p, 100);
    verify::DiffOptions dopt;
    dopt.snapshotEvery = job.snapshotEvery;
    const DiffOutcome orig = verify::diffRun(p, job.config, dopt);
    ASSERT_FALSE(orig.ok());

    verify::ShrinkOptions sopt;
    sopt.bisectExact = true;
    sopt.reduce = true;
    const verify::ShrinkResult res =
        verify::shrinkDivergence(job, orig, sopt);
    ASSERT_TRUE(res.reproduced);
    EXPECT_FALSE(res.timedOut);

    // Tier 2: the exact first bad commit, against the original job.
    EXPECT_TRUE(res.exactBisected);
    EXPECT_EQ(res.firstBadCommit, expected);
    EXPECT_GT(res.bisectProbes, 0u);

    // Tier 3: strictly smaller than the mix-shrunk program, same kind.
    EXPECT_TRUE(res.reduced);
    ASSERT_NE(res.repro.program, nullptr);
    EXPECT_LT(res.reducedStatic, res.shrunkStatic);
    EXPECT_EQ(res.repro.program->code.size(), res.reducedStatic);

    // The repro's own first_bad_commit indexes the *replay* program —
    // the embedded reduced image — where the fault is still the 100th
    // register-writing commit.
    EXPECT_EQ(res.repro.firstBadCommit,
              faultStreamIndex(*res.repro.program, 100));
    EXPECT_LE(res.repro.firstBadCommit, res.reducedDynamic);

    // The reduced image still honours the termination guarantee...
    FunctionalExecutor ref(*res.repro.program);
    ref.run(1u << 20);
    EXPECT_TRUE(ref.halted());

    // ...and replays to the recorded kind with the recorded stream.
    const DiffOutcome replay =
        verify::diffRun(*res.repro.program, job.config, dopt);
    bool sameKind = false;
    for (const auto &d : replay.divergences)
        sameKind |= d.kind == res.repro.kind;
    EXPECT_TRUE(sameKind);
    EXPECT_EQ(replay.streamHash, res.outcome.streamHash);
}

TEST(VerifyReport, FirstBadCommitAndReducedProgramRoundTripThroughJson)
{
    verify::DiffJob job;
    job.mix = verify::standardMixes()[0];
    job.seed = 42;
    job.config = nspConfig(16, PredictorKind::Gshare);
    job.config.core.commitFaultAt = 100;
    job.snapshotEvery = 64;

    Program p = verify::fuzzProgram(job.seed, job.mix);
    verify::DiffOptions dopt;
    dopt.snapshotEvery = job.snapshotEvery;
    std::vector<DiffOutcome> outcomes = {
        verify::diffRun(p, job.config, dopt)};
    ASSERT_FALSE(outcomes[0].ok());

    verify::ShrinkOptions sopt;
    sopt.bisectExact = true;
    sopt.reduce = true;
    const std::vector<verify::ShrinkResult> shrinks =
        verify::shrinkFailures({job}, outcomes, sopt);
    ASSERT_EQ(shrinks.size(), 1u);
    const verify::ShrinkResult &res = shrinks[0];
    ASSERT_TRUE(res.exactBisected);
    ASSERT_TRUE(res.reduced);
    ASSERT_NE(res.repro.program, nullptr);

    // shrinkFailures writes the exact localisation back onto the
    // job's own outcome, so the result row carries it too.
    EXPECT_TRUE(outcomes[0].exactLocalized);
    EXPECT_EQ(outcomes[0].firstBadCommit, res.firstBadCommit);

    const std::string json = verify::toJson(outcomes, shrinks);
    EXPECT_NE(json.find("\"first_bad_commit\": "), std::string::npos);
    EXPECT_NE(json.find("\"reduced\": true"), std::string::npos);
    EXPECT_NE(json.find("\"program\": {"), std::string::npos);

    const auto specs = verify::parseRepros(json);
    ASSERT_EQ(specs.size(), 1u);
    const verify::ReproSpec &spec = specs[0];
    // The repro-level index (valid for the embedded replay program)
    // round-trips; the job-level index lives on the result row.
    EXPECT_EQ(spec.firstBadCommit, res.repro.firstBadCommit);
    EXPECT_GT(spec.firstBadCommit, 0u);
    ASSERT_NE(spec.program, nullptr);
    EXPECT_TRUE(sameProgram(*spec.program, *res.repro.program));
    ASSERT_TRUE(spec.hasMachine);
    EXPECT_TRUE(sameSpec(spec.machine, job.config));

    // Replaying the parsed embedded program is bit-identical to the
    // recorded reduction outcome: same kind, same stream hash.
    verify::DiffOptions ropt;
    ropt.maxInsts = spec.maxInsts;
    ropt.snapshotEvery = spec.snapshotEvery;
    const DiffOutcome replay =
        verify::diffRun(*spec.program, spec.machine, ropt);
    ASSERT_FALSE(replay.ok());
    bool sameKind = false;
    for (const auto &d : replay.divergences)
        sameKind |= d.kind == spec.kind;
    EXPECT_TRUE(sameKind);
    EXPECT_EQ(replay.streamHash, res.outcome.streamHash);
}

TEST(VerifyReport, ProgramJsonRoundTripsBitIdentically)
{
    const Program p = verify::fuzzProgram(11);
    const Program back = verify::programFromJson(verify::programToJson(p));
    EXPECT_TRUE(sameProgram(p, back));

    EXPECT_THROW(verify::programFromJson("{\"name\": \"x\"}"), SpecError);
    EXPECT_THROW(verify::programFromJson(
                     "{\"mem_words\": 3, \"code\": [[\"halt\", -1, -1, "
                     "-1, 0]]}"),
                 SpecError);
    EXPECT_THROW(verify::programFromJson(
                     "{\"code\": [[\"warp\", 1, 2, 3, 0]]}"),
                 SpecError);
    // Out-of-range register operands must fail loudly, not narrow to
    // int8_t and replay a silently different program.
    EXPECT_THROW(verify::programFromJson(
                     "{\"code\": [[\"add\", 300, 1, 2, 0]]}"),
                 SpecError);
    EXPECT_THROW(verify::programFromJson(
                     "{\"code\": [[\"add\", 1, -2, 2, 0]]}"),
                 SpecError);
    // Corrupt operand text must not silently truncate at the first
    // bad character (strtoll would read "1junk" as 1).
    EXPECT_THROW(verify::programFromJson(
                     "{\"code\": [[\"add\", 1junk, 2, 3, 0]]}"),
                 SpecError);
    EXPECT_THROW(verify::programFromJson(
                     "{\"code\": [[\"add\", , 2, 3, 0]]}"),
                 SpecError);
    EXPECT_THROW(verify::programFromJson(
                     "{\"init_data\": [\"zz5f\"], "
                     "\"code\": [[\"halt\", -1, -1, -1, 0]]}"),
                 SpecError);
    // A fifth operand must not be silently dropped.
    EXPECT_THROW(verify::programFromJson(
                     "{\"code\": [[\"add\", 1, 2, 3, 0, 99]]}"),
                 SpecError);
    // Geometry is validated at parse time, not left to blow up (or
    // corrupt memory) when ArchState materialises the image:
    // init_data longer than mem_words, and absurd mem_words.
    EXPECT_THROW(verify::programFromJson(
                     "{\"mem_words\": 1, \"init_data\": [\"1\", \"2\"], "
                     "\"code\": [[\"halt\", -1, -1, -1, 0]]}"),
                 SpecError);
    EXPECT_THROW(verify::programFromJson(
                     "{\"mem_words\": 9223372036854775808, "
                     "\"code\": [[\"halt\", -1, -1, -1, 0]]}"),
                 SpecError);
}

TEST(VerifyReport, LocalisationFieldsAreOmittedWhenSnapshotsWereOff)
{
    // A divergent run without snapshot compares must not emit a
    // meaningless "bad_window": [0, 0) / "snapshot_every": 0 — and
    // parseRepros must tolerate their absence.
    Program p = verify::fuzzProgram(42);
    MachineConfig bad = nspConfig(16, PredictorKind::Gshare);
    bad.core.commitFaultAt = 100;

    verify::DiffJob job;
    job.mix = verify::standardMixes()[0];
    job.seed = 42;
    job.config = bad;   // snapshotEvery stays 0

    const DiffOutcome out = verify::diffRun(p, bad);
    ASSERT_FALSE(out.ok());
    verify::ShrinkOptions sopt;
    sopt.maxAttempts = 4;
    const verify::ShrinkResult res =
        verify::shrinkDivergence(job, out, sopt);
    ASSERT_TRUE(res.reproduced);

    const std::string json = verify::toJson({out}, {res});
    EXPECT_EQ(json.find("\"bad_window\""), std::string::npos);
    EXPECT_EQ(json.find("\"snapshot_every\""), std::string::npos);
    EXPECT_EQ(json.find("\"first_bad_commit\""), std::string::npos);

    const auto specs = verify::parseRepros(json);
    ASSERT_EQ(specs.size(), 1u);
    EXPECT_EQ(specs[0].snapshotEvery, 0u);
    EXPECT_EQ(specs[0].firstBadCommit, 0u);
    EXPECT_EQ(specs[0].program, nullptr);
}

TEST(VerifyReport, JsonCarriesOutcomesAndDivergences)
{
    Program p = verify::fuzzProgram(42);
    MachineConfig good = nspConfig(16, PredictorKind::Gshare);
    MachineConfig bad = good;
    bad.core.commitFaultAt = 100;

    std::vector<DiffOutcome> outcomes;
    outcomes.push_back(verify::diffRun(p, good));
    outcomes.back().mix = "mixed";
    outcomes.back().seed = 42;
    outcomes.push_back(verify::diffRun(p, bad));
    outcomes.back().mix = "mixed";
    outcomes.back().seed = 42;

    EXPECT_GE(verify::countDivergences(outcomes), 1u);

    const std::string json = verify::toJson(outcomes);
    EXPECT_NE(json.find("\"jobs\": 2"), std::string::npos);
    EXPECT_NE(json.find("\"divergent\": 1"), std::string::npos);
    EXPECT_NE(json.find("\"mix\": \"mixed\""), std::string::npos);
    EXPECT_NE(json.find("\"config\": \"16-SP+Arb\""), std::string::npos);
    EXPECT_NE(json.find("\"kind\": \"stream\""), std::string::npos);
    EXPECT_NE(json.find("\"stream_hash\": "), std::string::npos);
}

} // namespace
} // namespace msp
