#include "workloads.hh"

#include <map>
#include <optional>
#include <stdexcept>
#include <utility>

#include "driver/campaign.hh"
#include "driver/cli.hh"
#include "driver/report.hh"
#include "driver/scenario.hh"
#include "functional/executor.hh"
#include "sim/machine.hh"
#include "verify/bisect.hh"
#include "verify/diff_campaign.hh"
#include "verify/fuzzer.hh"
#include "verify/oracle.hh"
#include "verify/reduce.hh"
#include "verify/report.hh"
#include "verify/shrink.hh"
#include "workload/registry.hh"

namespace perfbench {

using namespace msp;

namespace {

/** A span when tracing, nothing otherwise (set-up runs both ways). */
class MaybeSpan
{
  public:
    MaybeSpan(Tracer *t, const char *name)
    {
        if (t)
            scope.emplace(*t, name);
    }

  private:
    std::optional<Tracer::Scope> scope;
};

/**
 * Times successive jobs of a pass from its progress callbacks, running
 * the interlude after each job and leaving the interlude's time out.
 */
class JobClock
{
  public:
    JobClock(const Interlude &between, Clock::time_point start)
        : interlude(between), last(start)
    {}

    Segment
    lap()
    {
        const Clock::time_point now = Clock::now();
        const Segment s{std::chrono::duration<double>(now - last).count(),
                        now};
        if (interlude)
            interlude();
        last = Clock::now();
        excludedS += std::chrono::duration<double>(last - now).count();
        return s;
    }

    double excluded() const { return excludedS; }

  private:
    const Interlude &interlude;
    Clock::time_point last;
    double excludedS = 0;
};

/** LayerCounts family index and run-span name of a core kind. */
std::size_t
family(CoreKind k)
{
    switch (k) {
      case CoreKind::Baseline: return 0;
      case CoreKind::Cpr: return 1;
      default: return 2;
    }
}

const char *const familyRunSpan[3] = {"baseline.run", "cpr.run",
                                      "core.run"};

/**
 * Span of the work a traced pass does beside a job, right after it, to
 * split its time into layers. The pass leaves these spans out of its
 * wall time.
 */
const char *const asideSpan = "decompose";

/** Time the traced pass spent in aside spans (one traced pass a run). */
double
asideSeconds(const Tracer &tracer)
{
    double total = 0;
    for (double d : tracer.durations(asideSpan))
        total += d;
    return total;
}

void
addCounts(LayerCounts &c, Machine &m, const RunResult &r)
{
    const std::size_t f = family(m.config().core.kind);
    c.familyCommitted[f] += r.committed;
    c.familyCycles[f] += r.cycles;
    c.cycles += r.cycles;
    c.executed += r.totalExecuted;
    c.wrongPath += r.wrongPathExec;
    c.reExecuted += r.reExecuted;
    c.recoveries += r.recoveries;
    c.renameStallCycles += r.renameStallCycles;
    c.iqStallCycles += r.iqStallCycles;
    c.branches += r.branches;
    c.mispredicts += r.mispredicts;
    c.l2Misses += r.l2Misses;
    c.sqStallCycles += r.sqStallCycles;
    c.checkpoints += r.checkpointsTaken;
    for (std::uint64_t b : r.bankStallCycles)
        c.bankStallCycles += b;

    const StatGroup &s = m.stats();
    c.l1dHits += s.get("l1d.hits");
    c.l1dMisses += s.get("l1d.misses");
    c.portConflicts += s.get("msp.portConflicts");
    c.rollbacks += s.get("cpr.rollbacks");

    const PathEvents &e = m.core().events();
    using Kind = ForwardResult::Kind;
    c.forwards += e.sqProbe[static_cast<std::size_t>(Kind::Forward)];
    c.probeStalls += e.sqProbe[static_cast<std::size_t>(Kind::Stall)];
    c.lcsRecompute += e.lcsRecompute;
    c.lcsDirtyBanks += e.lcsDirtyBank;
    c.sctGateRelease += e.sctGateRelease;
}

// ---- fig6-int / fig8-fp ----------------------------------------------------

class SimWorkload final : public Workload
{
  public:
    SimWorkload(const WorkloadOptions &o, std::string scenarioName)
        : opt(o), scenario(std::move(scenarioName)),
          budget(o.tiny ? 3000 : 10000)
    {}

    void
    setup(Tracer *tracer) override
    {
        // A campaign holds one set of programs: drop the last set-up's
        // before building the next, so peak RSS counts one.
        jobList.clear();
        std::vector<driver::CampaignJob> jobs;
        {
            MaybeSpan s(tracer, "sim.expand");
            jobs = driver::findScenario(scenario)->build(budget);
            // Tiny: the first two benchmarks across the whole ladder.
            if (opt.tiny && jobs.size() > 16)
                jobs.erase(jobs.begin() + 16, jobs.end());
            for (driver::CampaignJob &j : jobs) {
                j.seed = opt.seed;
                std::vector<MachineConfig> one{j.config};
                driver::applySpecSets(one, opt.sets);
                j.config = one.front();
            }
        }
        {
            MaybeSpan s(tracer, "workload.build");
            std::map<std::pair<std::string, std::uint64_t>,
                     std::shared_ptr<const Program>> programs;
            for (driver::CampaignJob &j : jobs) {
                auto &p = programs[{j.workload, j.seed}];
                if (!p) {
                    p = std::make_shared<const Program>(
                        workload::build(j.workload, j.seed));
                }
                j.program = p;
            }
        }
        jobList = std::move(jobs);
    }

    std::size_t jobs() const override { return jobList.size(); }

    PassResult
    run(const std::string &reportPath, const Interlude &between) override
    {
        PassResult p;
        const Clock::time_point t0 = Clock::now();
        JobClock clock(between, t0);
        driver::SimCampaign campaign(1);
        for (const driver::CampaignJob &j : jobList)
            campaign.add(j);
        const std::vector<driver::JobResult> results = campaign.run(
            [&](const driver::JobResult &, std::size_t, std::size_t) {
                p.campaignJobs.push_back(clock.lap());
            });
        driver::writeFile(reportPath, driver::toJson(results));
        p.end = Clock::now();
        p.wallS = secondsSince(t0) - clock.excluded();
        finish(p, results);
        return p;
    }

    PassResult
    runTraced(Tracer &tracer, const std::string &reportPath,
              LayerCounts &counts) override
    {
        PassResult p;
        std::vector<driver::JobResult> results(jobList.size());
        const Clock::time_point t0 = Clock::now();
        {
            Tracer::Scope pass(tracer, "pass");
            for (std::size_t i = 0; i < jobList.size(); ++i) {
                const driver::CampaignJob &j = jobList[i];
                {
                    Tracer::Scope job(tracer, "job", i);
                    std::optional<Machine> m;
                    {
                        Tracer::Scope s(tracer, "sim.machine_ctor", i);
                        m.emplace(j.config, *j.program);
                    }
                    RunResult r;
                    {
                        Tracer::Scope s(
                            tracer, familyRunSpan[family(j.config.core.kind)],
                            i);
                        r = m->run(j.maxInsts, j.maxCycles);
                    }
                    addCounts(counts, *m, r);
                    results[i] = driver::JobResult{i, j, std::move(r)};
                    p.campaignJobs.push_back({job.seconds(), Clock::now()});
                }
                // The functional model on the same program and budget,
                // for scale: the lock-step oracle inside Machine::run
                // steps it too.
                Tracer::Scope aside(tracer, asideSpan, i);
                Tracer::Scope s(tracer, "functional.run", i);
                FunctionalExecutor ref(*j.program);
                ref.run(j.maxInsts);
            }
            Tracer::Scope s(tracer, "driver.report");
            driver::writeFile(reportPath, driver::toJson(results));
        }
        p.end = Clock::now();
        p.wallS = secondsSince(t0) - asideSeconds(tracer);
        finish(p, results);
        return p;
    }

  private:
    static void
    finish(PassResult &p, const std::vector<driver::JobResult> &results)
    {
        for (const driver::JobResult &jr : results) {
            const RunResult &r = jr.result;
            p.committed += r.committed;
            p.cycles += r.cycles;
            p.digests.push_back(Digest().add(r.committed).add(r.cycles).h);
            p.problems.emplace_back();
        }
    }

    WorkloadOptions opt;
    std::string scenario;
    std::uint64_t budget;
    std::vector<driver::CampaignJob> jobList;
};

// ---- verify-fuzz / triage-fault --------------------------------------------

/** The injected fault: flip the 20th committed register result. */
const char *const triageFault = "fault.commit_at=20";

/** Does shrinkFailures pick @p o up (a chaseable divergence kind)? */
bool
shrinkable(const verify::DiffOutcome &o)
{
    if (o.skipped)
        return false;
    for (const verify::Divergence &d : o.divergences)
        if (d.kind != "ref-no-halt" && d.kind != "timing")
            return true;
    return false;
}

class VerifyWorkload final : public Workload
{
  public:
    VerifyWorkload(const WorkloadOptions &o, bool triageFault)
        : opt(o), triage(triageFault),
          seeds(o.tiny ? 1 : triageFault ? 16 : 60)
    {}

    void
    setup(Tracer *tracer) override
    {
        jobList.clear();
        std::vector<verify::DiffJob> jobs;
        {
            MaybeSpan s(tracer, "sim.expand");
            std::vector<MachineConfig> configs;
            std::vector<std::string> sets;
            if (triage) {
                for (const char *n : {"baseline", "cpr", "16sp"})
                    configs.push_back(
                        driver::configByName(n, PredictorKind::Gshare));
                sets.push_back(triageFault);
            } else {
                configs = driver::figureLadder(PredictorKind::Gshare);
            }
            sets.insert(sets.end(), opt.sets.begin(), opt.sets.end());
            driver::applySpecSets(configs, sets);

            std::vector<verify::FuzzMix> mixes = verify::standardMixes();
            if (opt.tiny && triage)
                mixes.resize(2);
            verify::DiffCampaign sweep(1);
            sweep.addSweep(mixes, seeds, opt.seed, configs);
            jobs = sweep.pending();
        }
        {
            MaybeSpan s(tracer, "verify.fuzz");
            std::map<std::pair<std::string, std::uint64_t>,
                     std::shared_ptr<const Program>> programs;
            for (verify::DiffJob &j : jobs) {
                auto &p = programs[{j.mix.name, j.seed}];
                if (!p) {
                    p = std::make_shared<const Program>(
                        verify::fuzzProgram(j.seed, j.mix));
                }
                j.program = p;
            }
        }
        jobList = std::move(jobs);
    }

    std::size_t jobs() const override { return jobList.size(); }

    PassResult
    run(const std::string &reportPath, const Interlude &between) override
    {
        PassResult p;
        const Clock::time_point t0 = Clock::now();
        JobClock clock(between, t0);
        verify::DiffCampaign campaign(1);
        for (const verify::DiffJob &j : jobList)
            campaign.add(j);
        std::vector<verify::DiffOutcome> outcomes = campaign.run(
            [&](const verify::DiffOutcome &, std::size_t, std::size_t) {
                p.campaignJobs.push_back(clock.lap());
            });
        std::vector<verify::ShrinkResult> shrinks;
        if (triage) {
            verify::ShrinkOptions sopt;
            sopt.bisectExact = true;
            sopt.reduce = true;
            sopt.threads = 1;
            clock.lap();   // the first triage job starts here
            shrinks = verify::shrinkFailures(
                campaign.pending(), outcomes, sopt,
                [&](const verify::ShrinkResult &, std::size_t,
                    std::size_t) { p.triageJobs.push_back(clock.lap()); });
        } else if (verify::countDivergences(outcomes) == 0) {
            verify::applyTimingInvariant(campaign.pending(), outcomes);
        }
        driver::writeFile(reportPath, verify::toJson(outcomes, shrinks));
        p.end = Clock::now();
        p.wallS = secondsSince(t0) - clock.excluded();
        finish(p, outcomes, shrinks);
        return p;
    }

    PassResult
    runTraced(Tracer &tracer, const std::string &reportPath,
              LayerCounts &counts) override
    {
        PassResult p;
        std::vector<verify::DiffOutcome> outcomes(jobList.size());
        std::vector<verify::ShrinkResult> shrinks;
        std::vector<std::string> piecewise(jobList.size());
        const Clock::time_point t0 = Clock::now();
        {
            Tracer::Scope pass(tracer, "pass");
            for (std::size_t i = 0; i < jobList.size(); ++i) {
                const verify::DiffJob &j = jobList[i];
                {
                    Tracer::Scope s(tracer, "verify.diffrun", i);
                    outcomes[i] = verify::diffRun(*j.program, j.config,
                                                  diffOptions(j));
                    p.campaignJobs.push_back({s.seconds(), Clock::now()});
                }
                outcomes[i].index = i;
                outcomes[i].mix = j.mix.name;
                outcomes[i].seed = j.seed;
                Tracer::Scope aside(tracer, asideSpan, i);
                piecewise[i] = decompose(tracer, i, outcomes[i], counts);
            }
            if (triage) {
                for (std::size_t i = 0; i < outcomes.size(); ++i) {
                    if (!shrinkable(outcomes[i]))
                        continue;
                    Tracer::Scope job(tracer, "job", i);
                    shrinks.push_back(
                        triageOne(tracer, i, outcomes[i], counts));
                    p.triageJobs.push_back({job.seconds(), Clock::now()});
                }
            } else if (verify::countDivergences(outcomes) == 0) {
                verify::applyTimingInvariant(jobList, outcomes);
            }
            Tracer::Scope s(tracer, "driver.report");
            driver::writeFile(reportPath,
                              verify::toJson(outcomes, shrinks));
        }
        p.end = Clock::now();
        p.wallS = secondsSince(t0) - asideSeconds(tracer);
        finish(p, outcomes, shrinks);
        for (std::size_t i = 0; i < piecewise.size(); ++i)
            if (p.problems[i].empty())
                p.problems[i] = std::move(piecewise[i]);
        return p;
    }

  private:
    static verify::DiffOptions
    diffOptions(const verify::DiffJob &j)
    {
        verify::DiffOptions d;
        d.maxInsts = j.maxInsts;
        d.maxCycles = j.maxCycles;
        d.snapshotEvery = j.snapshotEvery;
        return d;
    }

    /**
     * What shrinkFailures does for one failing job under --bisect-exact
     * --reduce and no budget, one tier per public call: mix shrinking,
     * exact bisection of the original run, structural reduction of the
     * mix-shrunk program, and re-bisection of the replay program.
     */
    verify::ShrinkResult
    triageOne(Tracer &tracer, std::size_t i, verify::DiffOutcome &orig,
              LayerCounts &counts)
    {
        const verify::DiffJob &job = jobList[i];
        const verify::DiffOptions dopt = diffOptions(job);
        verify::ShrinkResult res;
        {
            Tracer::Scope s(tracer, "verify.shrink", i);
            res = verify::shrinkDivergence(job, orig);
        }
        res.jobIndex = i;
        counts.shrinkAttempts += res.attempts;
        counts.origDynamic += res.origDynamic;
        counts.shrunkDynamic += res.shrunkDynamic;
        if (!res.reproduced)
            return res;
        {
            Tracer::Scope s(tracer, "verify.bisect", i);
            const verify::BisectResult b = verify::bisectFirstBadCommit(
                *job.program, job.config, orig, dopt);
            res.attempts += b.probes;
            res.bisectProbes = b.probes;
            if (b.exact) {
                res.exactBisected = true;
                res.firstBadCommit = b.firstBadCommit;
            }
        }
        {
            Tracer::Scope s(tracer, "verify.reduce", i);
            const Program shrunk =
                verify::fuzzProgram(job.seed, res.repro.mix);
            verify::ReduceOptions ropt;
            ropt.threads = 1;
            const verify::ReduceResult rr = verify::reduceDivergence(
                shrunk, job.config, orig, dopt, ropt, &res.outcome);
            res.attempts += rr.attempts;
            counts.reduceAttempts += rr.attempts;
            if (rr.reproduced) {
                res.reducedStatic = rr.reducedStatic;
                res.reducedDynamic = rr.reducedDynamic;
                res.outcome = rr.outcome;
                res.repro.kind = rr.kind;
                if (rr.reduced) {
                    res.reduced = true;
                    res.repro.program =
                        std::make_shared<Program>(rr.program);
                }
            }
        }
        {
            Tracer::Scope s(tracer, "verify.bisect", i);
            const Program replay =
                res.repro.program
                    ? *res.repro.program
                    : verify::fuzzProgram(job.seed, res.repro.mix);
            const verify::BisectResult b = verify::bisectFirstBadCommit(
                replay, job.config, res.outcome, dopt);
            res.attempts += b.probes;
            res.bisectProbes += b.probes;
            if (b.exact)
                res.repro.firstBadCommit = b.firstBadCommit;
        }
        if (res.exactBisected) {
            orig.exactLocalized = true;
            orig.firstBadCommit = res.firstBadCommit;
        }
        return res;
    }

    /**
     * Re-run campaign job @p i piecewise on identical inputs, right
     * after its diffRun, so both see the same host speed: Machine
     * construction, Machine::run (commit observer off, as inside
     * diffRun) and FunctionalExecutor::run. diffRun's time then splits
     * into construction, timing core, functional reference and the
     * oracle's own overhead. Returns "" when the re-run commits and
     * cycles exactly as the diffRun did, else why not.
     */
    std::string
    decompose(Tracer &tracer, std::size_t i, const verify::DiffOutcome &out,
              LayerCounts &counts) const
    {
        const verify::DiffJob &j = jobList[i];
        MachineConfig cfg = j.config;
        cfg.core.oracleCheck = false;
        std::optional<Machine> m;
        {
            Tracer::Scope s(tracer, "sim.machine_ctor", i);
            m.emplace(cfg, *j.program);
        }
        RunResult r;
        {
            Tracer::Scope s(tracer, familyRunSpan[family(cfg.core.kind)], i);
            r = m->run(j.maxInsts, j.maxCycles);
        }
        addCounts(counts, *m, r);
        {
            Tracer::Scope s(tracer, "functional.run", i);
            FunctionalExecutor ref(*j.program);
            ref.run(j.maxInsts);
        }
        if (r.committed != out.committedCore || r.cycles != out.cycles)
            return "piecewise re-run differs from diffRun";
        return "";
    }

    void
    finish(PassResult &p, const std::vector<verify::DiffOutcome> &outcomes,
           const std::vector<verify::ShrinkResult> &shrinks) const
    {
        std::vector<const verify::ShrinkResult *> byJob(outcomes.size());
        for (const verify::ShrinkResult &s : shrinks)
            byJob[s.jobIndex] = &s;

        for (std::size_t i = 0; i < outcomes.size(); ++i) {
            const verify::DiffOutcome &o = outcomes[i];
            p.committed += o.committedCore;
            p.cycles += o.cycles;

            Digest d;
            d.add(o.committedCore).add(o.cycles).add(o.streamHash)
                .add(o.committedRef).add(o.divergences.size());
            std::string problem;
            const verify::ShrinkResult *s = byJob[i];
            if (!triage) {
                for (const verify::Divergence &dv : o.divergences) {
                    if (dv.kind == "timing")
                        ++p.timingViolations;
                    else if (problem.empty())
                        problem = "divergence " + dv.kind + ": " + dv.detail;
                }
            } else if (o.ok()) {
                problem = "injected fault not caught";
            } else if (!s || !s->reproduced) {
                problem = "fault did not reproduce for triage";
            } else if (!s->exactBisected) {
                problem = "first bad commit not found";
            } else if (!s->shrunk && !s->reduced) {
                problem = "fault not shrunk";
            }
            if (s) {
                d.add(s->attempts).add(s->bisectProbes)
                    .add(s->shrunkDynamic).add(s->firstBadCommit)
                    .add(s->repro.firstBadCommit).add(s->reducedStatic)
                    .add(s->reducedDynamic).add(s->reduced)
                    .add(s->shrunk);
            }
            p.digests.push_back(d.h);
            p.problems.push_back(std::move(problem));
        }
    }

    WorkloadOptions opt;
    bool triage;
    unsigned seeds;
    std::vector<verify::DiffJob> jobList;
};

} // anonymous namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "fig6-int", "fig8-fp", "verify-fuzz", "triage-fault"};
    return names;
}

std::unique_ptr<Workload>
makeWorkload(const WorkloadOptions &opt)
{
    if (opt.name == "fig6-int")
        return std::make_unique<SimWorkload>(opt, "fig6");
    if (opt.name == "fig8-fp")
        return std::make_unique<SimWorkload>(opt, "fig8");
    if (opt.name == "verify-fuzz")
        return std::make_unique<VerifyWorkload>(opt, false);
    if (opt.name == "triage-fault")
        return std::make_unique<VerifyWorkload>(opt, true);
    throw std::invalid_argument("unknown workload '" + opt.name + "'");
}

} // namespace perfbench
