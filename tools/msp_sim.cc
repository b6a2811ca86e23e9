/**
 * @file
 * msp_sim — the simulation-campaign CLI.
 *
 * One multi-threaded invocation reproduces any registered scenario
 * (the paper's Figs. 6-9 and the ablation sweeps), runs a custom
 * preset × workload matrix, or differentially verifies every core
 * against the functional executor on fuzzed programs:
 *
 *   msp_sim --list
 *   msp_sim fig6 --threads 8 --json fig6.json
 *   msp_sim matrix --workloads gzip,gcc --configs baseline,cpr,16sp \
 *           --predictor tage --instrs 100000 --csv out.csv
 *   msp_sim verify --seeds 100 --json divergences.json
 *
 * Argument parsing lives in src/driver/cli.{hh,cc} (unit-tested);
 * this file only renders reports and wires the campaigns.
 */

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <vector>

#ifdef __linux__
#include <sched.h>
#endif

#include "common/json.hh"
#include "common/logging.hh"
#include "common/table.hh"
#include "driver/bench.hh"
#include "driver/campaign.hh"
#include "driver/cli.hh"
#include "driver/report.hh"
#include "driver/scenario.hh"
#include "driver/state.hh"
#include "sim/grid.hh"
#include "sim/presets.hh"
#include "sim/spec.hh"
#include "verify/corpus.hh"
#include "verify/diff_campaign.hh"
#include "verify/report.hh"
#include "verify/shrink.hh"
#include "workload/registry.hh"
#include "workload/trace.hh"

namespace {

using namespace msp;
using namespace msp::driver;

/** Exit status of a campaign stopped by SIGINT/SIGTERM. */
constexpr int exitInterrupted = 3;

extern "C" void
handleStopSignal(int sig)
{
    // First signal: cooperative stop — campaigns stop starting jobs,
    // in-flight jobs finish and are checkpointed, and a partial report
    // is written before exiting with a distinct status. Second signal:
    // the user really means it; quit without unwinding. Both paths are
    // async-signal-safe (a lock-free atomic, then _Exit).
    if (driver::campaignStopRequested())
        std::_Exit(128 + sig);
    driver::setCampaignStop(true);
}

/** Shared --checkpoint/--resume wiring for matrix and verify. */
void
configureState(CampaignState &state, const CliOptions &o)
{
    if (o.checkpointPath.empty())
        return;
    state.configure(o.checkpointPath, o.checkpointEvery,
                    !o.resumePath.empty(), o.resumePath);
}

/** Dump one resolved machine spec as JSON plus its preset diff. */
int
runSpec(const CliOptions &o)
{
    const std::vector<MachineConfig> machines = resolveMachines(o);
    // parseCliArgs guarantees exactly one machine source in spec mode.
    const MachineConfig &m = machines.front();
    const std::string json = specToJson(m) + "\n";
    if (!o.quiet)
        std::fputs(specDiffReport(m).c_str(), stdout);
    if (o.jsonPath.empty())
        std::fputs(json.c_str(), stdout);
    else
        driver::writeFile(o.jsonPath, json);
    return 0;
}

/** Simulator-throughput measurement (see driver/bench.hh). */
int
runBench(const CliOptions &o)
{
    const bool sanitized = sanitizedBuild();
    if (sanitized) {
        std::fprintf(stderr,
                     "msp_sim: warning: sanitized build — timings are "
                     "not comparable and no report will be written\n");
    }

    if (o.threads == 1) {
#ifdef __linux__
        cpu_set_t set;
        CPU_ZERO(&set);
        CPU_SET(0, &set);
        if (sched_setaffinity(0, sizeof set, &set) != 0)
            std::fprintf(stderr, "msp_sim: warning: could not pin to "
                                 "CPU 0; timings may be noisier\n");
#else
        std::fprintf(stderr, "msp_sim: warning: CPU pinning is not "
                             "supported on this platform\n");
#endif
    }

    BenchOptions b;
    b.configNames = o.configNames;
    b.workloads = o.workloads;
    b.predictor = o.predictor;
    if (o.instrs)
        b.instrs = o.instrs;
    b.reps = o.reps;
    b.seed = o.seed;

    if (!o.quiet) {
        std::printf("Throughput bench: %zu config(s) x %u rep(s), "
                    "%llu instrs/run (%s).\n",
                    o.configNames.empty() ? 6 : o.configNames.size(),
                    b.reps,
                    static_cast<unsigned long long>(b.instrs),
                    predictorName(o.predictor));
        std::fflush(stdout);
    }
    const BenchReport report = runThroughputBench(
        b, o.quiet ? BenchProgressFn{}
                   : [](const std::string &cfg, unsigned rep,
                        unsigned reps, double wall) {
                         std::fprintf(stderr, "  [%s %u/%u] %.3f s\n",
                                      cfg.c_str(), rep, reps, wall);
                     });

    msp::Table t("Simulator throughput");
    t.header({"config", "committed", "cycles", "best_wall_s",
              "MInstr/s", "Mcycles/s"});
    for (const auto &c : report.configs) {
        t.row({c.config, std::to_string(c.committed),
               std::to_string(c.cycles),
               msp::Table::num(c.bestWallSec(), 3),
               msp::Table::num(c.minstrPerSec(), 2),
               msp::Table::num(c.mcyclesPerSec(), 2)});
    }
    std::fputs(t.str().c_str(), stdout);

    if (!o.jsonPath.empty() && !sanitized)
        driver::writeFile(o.jsonPath, benchReportToJson(report));

    if (!o.baselinePath.empty()) {
        std::string doc;
        if (!driver::tryReadFile(o.baselinePath, doc)) {
            std::fprintf(stderr, "msp_sim: cannot read baseline %s\n",
                         o.baselinePath.c_str());
            return 2;
        }
        const BenchReport base = benchReportFromJson(doc);
        // Simulated counts are host-independent: gate them everywhere,
        // sanitized builds included.
        const auto drift = benchCountDrift(base, report);
        if (!drift) {
            std::fprintf(stderr,
                         "msp_sim: warning: baseline measured different "
                         "runs (instrs/seed/predictor/workloads) — count "
                         "gate skipped\n");
        } else {
            for (const std::string &d : *drift)
                std::fprintf(stderr, "msp_sim: simulated count drift: "
                             "%s\n", d.c_str());
            if (!drift->empty())
                return 1;
            if (!o.quiet)
                std::printf("Count gate passed (committed/cycles equal "
                            "the baseline's).\n");
        }
        if (sanitized) {
            std::fprintf(stderr,
                         "msp_sim: sanitized build — regression gate "
                         "skipped\n");
            return 0;
        }
        if (base.host != report.host) {
            // MInstr/s on a different machine is not a regression
            // signal; gating on it would fail every contributor whose
            // laptop differs from the baseline host.
            std::fprintf(stderr,
                         "msp_sim: warning: baseline host '%s' differs "
                         "from this host '%s' — regression gate "
                         "skipped\n",
                         base.host.c_str(), report.host.c_str());
            return 0;
        }
        const auto regressions =
            benchRegressions(base, report, o.gatePct);
        for (const std::string &r : regressions)
            std::fprintf(stderr, "msp_sim: throughput regression: %s\n",
                         r.c_str());
        if (!regressions.empty())
            return 1;
        if (!o.quiet)
            std::printf("Regression gate passed (threshold %.0f%%).\n",
                        o.gatePct);
    }
    return 0;
}

/** Read and expand --grid FILE (grammar errors become CliError). */
grid::Grid
loadGrid(const CliOptions &o)
{
    std::string doc;
    if (!driver::tryReadFile(o.gridPath, doc)) {
        throw CliError(csprintf("cannot read grid spec %s",
                                o.gridPath.c_str()));
    }
    try {
        // --predictor seeds the document like it seeds --machine
        // files; a grid that sets its own "predictor" keeps it.
        return grid::expand(doc, o.predictor);
    } catch (const SpecError &e) {
        throw CliError(csprintf("%s: %s", o.gridPath.c_str(), e.what()));
    }
}

std::vector<JobResult>
runMatrix(const CliOptions &o)
{
    SimCampaign campaign(o.threads);
    std::string headline;   ///< header sentence, sans the job count
    std::string specDiffs;  ///< non-preset machines, as preset diffs
    if (!o.gridPath.empty()) {
        grid::Grid g = loadGrid(o);
        const std::vector<MachineConfig> configs = resolveMachines(o, &g);
        const bool bound =
            !g.points.empty() && !g.points.front().workload.empty();
        if (bound && !o.workloads.empty()) {
            throw CliError(csprintf("grid '%s' binds its own workloads; "
                                    "--workloads does not combine with "
                                    "it", g.name.c_str()));
        }
        if (!bound && o.workloads.empty()) {
            throw CliError(csprintf("grid '%s' binds no workloads; add "
                                    "a workload.name/workload.trace "
                                    "axis or pass --workloads",
                                    g.name.c_str()));
        }
        const std::string scen = g.name.empty() ? "matrix" : g.name;
        if (bound) {
            for (CampaignJob &j : gridJobs(scen, g, o.instrs, o.seed))
                campaign.add(std::move(j));
        } else {
            campaign.addMatrix(o.workloads, configs, o.instrs, o.seed,
                               scen);
        }
        headline = csprintf("Grid '%s': %zu point(s)%s.",
                            g.name.c_str(), g.points.size(),
                            bound ? ""
                                  : csprintf(" x %zu workload(s)",
                                             o.workloads.size())
                                        .c_str());
    } else {
        const std::vector<MachineConfig> configs = resolveMachines(o);
        campaign.addMatrix(o.workloads, configs, o.instrs, o.seed,
                           "matrix");
        headline = csprintf("Custom matrix: %zu workload(s) x %zu "
                            "config(s) (%s).",
                            o.workloads.size(), configs.size(),
                            predictorName(o.predictor));
        // Custom machines print as a diff against their preset
        // baseline, so a report reader sees exactly what was ablated.
        for (const MachineConfig &cfg : configs)
            if (presetNameFor(cfg).empty())
                specDiffs += specDiffReport(cfg);
    }
    if (o.shardCount)
        campaign.restrictToShard(o.shardIndex, o.shardCount);
    CampaignState state;
    configureState(state, o);
    campaign.attachState(&state);
    if (!o.quiet) {
        std::printf("%s Jobs: %zu on %u thread(s).\n", headline.c_str(),
                    campaign.size(), campaign.effectiveThreads());
        std::fputs(specDiffs.c_str(), stdout);
        std::printf("\n");
        std::fflush(stdout);
    }
    auto results = campaign.run(
        o.quiet ? ProgressFn{} : SimCampaign::stderrProgress());

    {
        msp::Table t("IPC");
        t.header({"workload", "config", "ipc", "cycles", "committed"});
        for (const auto &jr : results) {
            if (!jr.ran)   // interrupted before this job started
                continue;
            t.row({jr.result.workload, jr.result.config,
                   msp::Table::num(jr.result.ipc(), 3),
                   std::to_string(jr.result.cycles),
                   std::to_string(jr.result.committed)});
        }
        std::fputs(t.str().c_str(), stdout);
    }
    return results;
}

void
printDivergences(const verify::DiffOutcome &out, std::size_t done,
                 std::size_t total)
{
    if (out.ok() || out.skipped)
        return;
    std::fprintf(stderr, "  DIVERGENCE [%zu/%zu] %s seed=%llu %s:\n",
                 done, total, out.mix.c_str(),
                 static_cast<unsigned long long>(out.seed),
                 out.config.c_str());
    for (const auto &d : out.divergences)
        std::fprintf(stderr, "    %-14s %s\n", d.kind.c_str(),
                     d.detail.c_str());
}

/** Replay the shrunk reproducers of a saved divergence report. */
int
runRepro(const CliOptions &o)
{
    std::string doc;
    if (!driver::tryReadFile(o.reproPath, doc)) {
        std::fprintf(stderr, "msp_sim: cannot read repro report %s\n",
                     o.reproPath.c_str());
        return 2;
    }
    std::vector<verify::ReproSpec> specs;
    try {
        specs = verify::parseRepros(doc);
    } catch (const SpecError &e) {
        // A repro whose document or machine spec does not parse must
        // fail loudly: silently skipping (or falling back to a preset)
        // could replay a different machine and read as "fixed".
        std::fprintf(stderr, "msp_sim: unparseable repro in %s: %s\n",
                     o.reproPath.c_str(), e.what());
        return 2;
    }
    if (specs.empty()) {
        std::fprintf(stderr,
                     "msp_sim: no repros found in %s (a clean report, "
                     "or not a verify --json report)\n",
                     o.reproPath.c_str());
        return 2;
    }

    std::vector<verify::DiffOutcome> outcomes;
    std::size_t unreplayable = 0;
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const verify::ReproSpec &spec = specs[i];
        MachineConfig cfg;
        if (spec.hasMachine) {
            // The embedded spec is the replay authority: any machine
            // replays, whether or not a preset names it.
            cfg = spec.machine;
        } else if (spec.preset.empty()) {
            // Legacy pre-spec report entry for a non-preset machine:
            // nothing recorded can rebuild it.
            std::fprintf(stderr,
                         "  repro %zu: no machine spec and no CLI "
                         "preset recorded; skipping\n", i);
            ++unreplayable;
            continue;
        } else {
            const PredictorKind pred = spec.predictor == "tage"
                                           ? PredictorKind::Tage
                                           : PredictorKind::Gshare;
            try {
                cfg = configByName(spec.preset, pred);
            } catch (const CliError &e) {
                // A hand-edited or cross-version report names a preset
                // this binary does not know; skip it like a missing one.
                std::fprintf(stderr, "  repro %zu: %s; skipping\n", i,
                             e.what());
                ++unreplayable;
                continue;
            }
        }
        // A structurally reduced image is the program authority: no
        // (seed, mix) pair can regenerate it, so it replays verbatim.
        const Program prog = spec.program
                                 ? *spec.program
                                 : verify::fuzzProgram(spec.seed,
                                                       spec.mix);

        verify::DiffOptions dopt;
        dopt.maxInsts = o.instrs ? o.instrs : spec.maxInsts;
        dopt.snapshotEvery =
            o.snapshotEvery ? o.snapshotEvery : spec.snapshotEvery;
        verify::DiffOutcome out = verify::diffRun(prog, cfg, dopt);
        out.mix = spec.mix.name;
        out.seed = spec.seed;

        if (!o.quiet) {
            std::printf("repro %zu/%zu: mix=%s seed=%llu %s%s expecting "
                        "'%s' -> %s\n",
                        i + 1, specs.size(), spec.mix.name.c_str(),
                        static_cast<unsigned long long>(spec.seed),
                        cfg.name.c_str(),
                        spec.program ? " (reduced program)" : "",
                        spec.kind.c_str(),
                        out.ok() ? "clean"
                                 : out.divergences[0].kind.c_str());
        }
        printDivergences(out, i + 1, specs.size());
        outcomes.push_back(std::move(out));
    }

    if (!o.jsonPath.empty())
        driver::writeFile(o.jsonPath, verify::toJson(outcomes));
    if (outcomes.empty()) {
        // Exit 0 here would read as "replayed clean" when nothing ran.
        std::fprintf(stderr,
                     "msp_sim: none of the %zu repro(s) were "
                     "replayable (%zu with no usable machine spec)\n",
                     specs.size(), unreplayable);
        return 2;
    }
    return verify::countDivergences(outcomes) == 0 ? 0 : 1;
}

/**
 * Deterministic named-workload verification (verify --workloads or a
 * workload-binding --grid): each (workload, machine) pair runs once
 * under the differential oracle, sequentially — there is no fuzzing,
 * shrinking or campaign state, just the plain divergence check.
 */
int
runVerifyNamed(const CliOptions &o)
{
    struct NamedJob
    {
        std::string workload;
        std::uint64_t seed;
        MachineConfig config;
    };
    std::vector<NamedJob> jobs;
    if (!o.gridPath.empty()) {
        grid::Grid g = loadGrid(o);
        for (const grid::GridPoint &pt : g.points) {
            if (pt.workload.empty()) {
                throw CliError(csprintf("grid '%s' binds no workloads; "
                                        "verify --grid needs a "
                                        "workload.name or "
                                        "workload.trace axis",
                                        g.name.c_str()));
            }
        }
        resolveMachines(o, &g);
        for (const grid::GridPoint &pt : g.points)
            jobs.push_back({pt.workload, pt.hasSeed ? pt.seed : o.seed,
                            pt.machine});
    } else {
        const std::vector<MachineConfig> configs = resolveMachines(o);
        for (const std::string &w : o.workloads)
            for (const MachineConfig &cfg : configs)
                jobs.push_back({w, o.seed, cfg});
    }

    if (!o.quiet) {
        std::printf("Differential verification: %zu named workload "
                    "job(s), sequential.\n", jobs.size());
        std::fflush(stdout);
    }
    std::vector<verify::DiffOutcome> outcomes;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const NamedJob &j = jobs[i];
        const Program prog = workload::build(j.workload, j.seed);
        verify::DiffOptions dopt;
        dopt.maxInsts = o.instrs ? o.instrs : (1u << 20);
        dopt.snapshotEvery = o.snapshotEvery;
        // Registry workloads include unbounded IPC loops (the SPEC
        // synthetics); verify them over the budget-bounded prefix.
        dopt.boundedOk = true;
        verify::DiffOutcome out = verify::diffRun(prog, j.config, dopt);
        out.mix = "";   // named runs have no fuzz mix (see DiffOutcome)
        out.seed = j.seed;
        if (!o.quiet) {
            std::printf("  [%zu/%zu] %s on %s seed=%llu -> %s\n",
                        i + 1, jobs.size(), j.workload.c_str(),
                        j.config.name.c_str(),
                        static_cast<unsigned long long>(j.seed),
                        out.ok() ? "clean"
                                 : out.divergences[0].kind.c_str());
        }
        printDivergences(out, i + 1, jobs.size());
        outcomes.push_back(std::move(out));
    }

    if (!o.jsonPath.empty())
        driver::writeFile(o.jsonPath, verify::toJson(outcomes));
    const std::size_t divergences = verify::countDivergences(outcomes);
    if (!o.quiet) {
        std::printf("\n%zu run(s), %zu divergence(s).\n",
                    outcomes.size(), divergences);
    }
    return divergences == 0 ? 0 : 1;
}

int
runVerify(const CliOptions &o)
{
    if (!o.reproPath.empty())
        return runRepro(o);
    if (!o.workloads.empty() || !o.gridPath.empty())
        return runVerifyNamed(o);

    const std::vector<MachineConfig> configs = resolveMachines(o);

    std::vector<verify::FuzzMix> mixes;
    if (o.mixNames.empty()) {
        mixes = verify::standardMixes();
    } else {
        for (const auto &n : o.mixNames)
            mixes.push_back(*verify::findMix(n));   // validated by parse
    }

    const std::vector<verify::FuzzMix> baseMixes = mixes;

    // Coverage-guided campaigns grow a corpus of coverage-novel
    // (mix, seed) runs; an existing --corpus file seeds the aggregate
    // map, so repeated campaigns only chase what is still unreached.
    verify::Corpus corpus;
    if (!o.corpusPath.empty() && corpus.load(o.corpusPath)) {
        if (corpus.tornRecords() > 0) {
            std::fprintf(stderr,
                         "msp_sim: corpus %s had a torn trailing record "
                         "(quarantined to %s.torn)\n",
                         o.corpusPath.c_str(), o.corpusPath.c_str());
        }
        if (!o.quiet) {
            std::printf("Corpus: %zu entr%s, %zu coverage bit(s).\n",
                        corpus.entries().size(),
                        corpus.entries().size() == 1 ? "y" : "ies",
                        corpus.aggregate().bitsSet());
        }
    }

    verify::CoverageReport covReport;
    covReport.enabled = o.coverage;
    covReport.waves = o.waves;

    CampaignState state;
    configureState(state, o);

    const auto campaignStart = std::chrono::steady_clock::now();
    std::vector<verify::DiffJob> allJobs;
    std::vector<verify::DiffOutcome> outcomes;

    for (unsigned w = 0; w < o.waves; ++w) {
        // Wave 0 always fuzzes the user's mixes; later waves reweight
        // them toward the aggregate map's holes under --tune. Tuning is
        // a pure function of (mixes, aggregate, wave, seed) and corpus
        // admission is sequential, so the whole multi-wave campaign is
        // bit-identical at any --threads.
        const std::vector<verify::FuzzMix> waveMixes =
            (w > 0 && o.tune)
                ? verify::tuneMixes(baseMixes, corpus.aggregate(), w,
                                    o.seed)
                : baseMixes;

        verify::DiffCampaign campaign(o.threads);
        campaign.addSweep(waveMixes, o.seeds, o.seed, configs,
                          o.instrs ? o.instrs : (1u << 20));
        campaign.setSnapshotEvery(o.snapshotEvery);
        campaign.setFailFast(o.failFast);
        campaign.setCollectCoverage(o.coverage);
        if (o.budgetSec > 0.0) {
            // One budget spans every wave; a token floor because 0
            // means "no budget" (the same rule the shrink slice uses).
            const std::chrono::duration<double> spent =
                std::chrono::steady_clock::now() - campaignStart;
            campaign.setBudgetSec(
                w == 0 ? o.budgetSec
                       : std::max(1e-3, o.budgetSec - spent.count()));
        }
        if (o.shardCount)
            campaign.restrictToShard(o.shardIndex, o.shardCount);
        campaign.attachState(&state);
        if (!o.quiet && w == 0) {
            std::printf("Differential verification: %u seed(s) x %zu "
                        "mix(es) x %zu config(s) (%s). Jobs: %zu on %u "
                        "thread(s).\n",
                        o.seeds, baseMixes.size(), configs.size(),
                        predictorName(o.predictor), campaign.size(),
                        campaign.effectiveThreads());
            for (const MachineConfig &cfg : configs)
                if (presetNameFor(cfg).empty())
                    std::fputs(specDiffReport(cfg).c_str(), stdout);
            std::printf("\n");
            std::fflush(stdout);
        } else if (!o.quiet) {
            std::printf("\nWave %u/%u: %zu job(s)%s.\n", w + 1, o.waves,
                        campaign.size(),
                        o.tune ? " (mixes retuned toward coverage holes)"
                               : "");
            std::fflush(stdout);
        }

        // Progress: stay silent per job (campaigns run thousands), but
        // report every divergence the moment it is found.
        auto waveOutcomes = campaign.run(printDivergences);
        const std::vector<verify::DiffJob> &waveJobs = campaign.pending();

        const bool interrupted = driver::campaignStopRequested();

        // Coarse timing invariant, only meaningful after a clean batch
        // (correctness divergences already fail the run and would make
        // an IPC comparison moot): the ideal MSP must dominate 16-SP on
        // every fuzzed program both machines ran.
        if (!interrupted &&
            verify::countDivergences(waveOutcomes) == 0) {
            const std::size_t violations = verify::applyTimingInvariant(
                waveJobs, waveOutcomes);
            if (violations > 0) {
                std::fprintf(stderr,
                             "msp_sim: %zu timing-invariant "
                             "violation(s) — ideal MSP slower than "
                             "16-SP\n", violations);
                for (std::size_t i = 0; i < waveOutcomes.size(); ++i)
                    if (!waveOutcomes[i].ok())
                        printDivergences(waveOutcomes[i], i + 1,
                                         waveOutcomes.size());
            }
        }

        // Corpus admission: sequential, in submission order, after the
        // parallel wave — the aggregate (and everything tuned from it)
        // never depends on worker scheduling.
        if (o.coverage && !interrupted) {
            const std::size_t before = corpus.aggregate().bitsSet();
            for (std::size_t i = 0; i < waveOutcomes.size(); ++i) {
                verify::DiffOutcome &out = waveOutcomes[i];
                if (!out.hasCoverage)
                    continue;
                out.covNewBits =
                    out.coverage.newBitsVs(corpus.aggregate());
                out.covNovel = corpus.consider(waveJobs[i].mix, out.seed,
                                               w, out.coverage);
                covReport.novelRuns += out.covNovel ? 1 : 0;
            }
            covReport.waveBits.push_back(corpus.aggregate().bitsSet() -
                                         before);
            if (!o.quiet) {
                std::printf("Wave %u coverage: +%llu new bit(s), "
                            "aggregate %zu/%u features, %zu bit(s), "
                            "corpus %zu entr%s.\n",
                            w + 1,
                            static_cast<unsigned long long>(
                                covReport.waveBits.back()),
                            corpus.aggregate().featuresHit(),
                            verify::CoverageMap::numFeatures,
                            corpus.aggregate().bitsSet(),
                            corpus.entries().size(),
                            corpus.entries().size() == 1 ? "y" : "ies");
                std::fflush(stdout);
            }
        }

        allJobs.insert(allJobs.end(), waveJobs.begin(), waveJobs.end());
        for (auto &out : waveOutcomes)
            outcomes.push_back(std::move(out));

        // An interrupted sweep writes its partial report and stops:
        // the timing invariant and the shrinker both reason over the
        // whole sweep, which this run no longer is — the --resume run
        // redoes them over the complete set.
        if (interrupted) {
            if (!o.jsonPath.empty())
                driver::writeFile(o.jsonPath, verify::toJson(outcomes));
            std::fprintf(stderr,
                         "msp_sim: interrupted — %zu of %zu job(s) "
                         "done%s\n",
                         outcomes.size() - verify::countSkipped(outcomes),
                         outcomes.size(),
                         o.checkpointPath.empty()
                             ? ""
                             : "; resume with --resume");
            return exitInterrupted;
        }
    }

    if (!o.corpusPath.empty())
        corpus.save(o.corpusPath);
    if (o.coverage) {
        covReport.featuresHit = corpus.aggregate().featuresHit();
        covReport.bitsSet = corpus.aggregate().bitsSet();
        covReport.corpusEntries = corpus.entries().size();
    }

    // Re-fuzz every divergent job through the shrinker so the report
    // carries a minimal reproducer, not just a whole-run mismatch.
    // --budget-sec bounds campaign *and* shrinking together: the
    // shrinker gets whatever the campaign left over.
    std::vector<verify::ShrinkResult> shrinks;
    if (verify::countDivergences(outcomes) > 0) {
        if (!o.quiet)
            std::printf("\nShrinking divergent job(s)...\n");
        verify::ShrinkOptions sopt;
        sopt.bisectExact = o.bisectExact;
        sopt.reduce = o.reduce;
        sopt.threads = o.threads;
        if (o.budgetSec > 0.0) {
            const std::chrono::duration<double> spent =
                std::chrono::steady_clock::now() - campaignStart;
            // Never go below a token slice: shrinkFailures treats an
            // expired deadline as "skip everything", and 0 means
            // "no budget" — an exhausted campaign should not unbound
            // the shrinker.
            sopt.budgetSec = std::max(1e-3, o.budgetSec - spent.count());
        }
        shrinks = verify::shrinkFailures(
            allJobs, outcomes, sopt,
            [&](const verify::ShrinkResult &s, std::size_t done,
                std::size_t total) {
                if (o.quiet)
                    return;
                std::printf("  [%zu/%zu] seed=%llu %s: %s '%s' "
                            "dynamic %llu -> %llu (%u attempts)%s\n",
                            done, total,
                            static_cast<unsigned long long>(s.repro.seed),
                            s.outcome.config.c_str(),
                            s.reproduced
                                ? (s.shrunk ? "shrunk" : "reproduced")
                                : (s.timedOut ? "budget expired before"
                                              : "did not re-reproduce"),
                            s.repro.kind.c_str(),
                            static_cast<unsigned long long>(s.origDynamic),
                            static_cast<unsigned long long>(
                                s.shrunkDynamic),
                            s.attempts,
                            s.timedOut ? " [timed out]" : "");
                if (s.exactBisected) {
                    std::printf("           first bad commit: %llu "
                                "(%u probes)\n",
                                static_cast<unsigned long long>(
                                    s.firstBadCommit),
                                s.bisectProbes);
                }
                if (s.reduced) {
                    std::printf("           reduced program: %llu -> "
                                "%llu static instrs (dynamic %llu)\n",
                                static_cast<unsigned long long>(
                                    s.shrunkStatic),
                                static_cast<unsigned long long>(
                                    s.reducedStatic),
                                static_cast<unsigned long long>(
                                    s.reducedDynamic));
                }
            });

        std::size_t shrinkTimedOut = 0;
        for (const verify::ShrinkResult &s : shrinks)
            shrinkTimedOut += s.timedOut ? 1 : 0;
        if (shrinkTimedOut > 0) {
            // Even under --quiet: a triage pass the budget cut short
            // must leave a trace, or the report reads as complete.
            std::fprintf(stderr,
                         "msp_sim: shrink budget expired — %zu of %zu "
                         "failing job(s) not fully shrunk (timed_out in "
                         "report)\n",
                         shrinkTimedOut, shrinks.size());
        }

        // Coverage campaigns canonicalise each failure to its root
        // cause (kind | first bad commit | reduced-program shape) and
        // fold duplicates into one representative repro.
        if (o.coverage && !shrinks.empty()) {
            const std::size_t before = shrinks.size();
            const std::size_t folded = verify::dedupShrinks(shrinks);
            if (folded > 0 && !o.quiet) {
                std::printf("  deduplicated %zu failure(s) into %zu "
                            "distinct root cause(s)\n",
                            before, shrinks.size());
            }
        }
    }

    // Per-config summary.
    struct Tally { std::size_t jobs = 0, divergent = 0, skipped = 0; };
    std::vector<std::pair<std::string, Tally>> tallies;
    for (const auto &out : outcomes) {
        Tally *t = nullptr;
        for (auto &[name, tally] : tallies)
            if (name == out.config)
                t = &tally;
        if (!t) {
            tallies.emplace_back(out.config, Tally{});
            t = &tallies.back().second;
        }
        ++t->jobs;
        t->divergent += out.ok() ? 0 : 1;
        t->skipped += out.skipped ? 1 : 0;
    }
    msp::Table t("Differential verification");
    t.header({"config", "runs", "divergent", "skipped"});
    for (const auto &[name, tally] : tallies)
        t.row({name, std::to_string(tally.jobs),
               std::to_string(tally.divergent),
               std::to_string(tally.skipped)});
    if (!o.quiet)
        std::fputs(t.str().c_str(), stdout);

    if (!o.jsonPath.empty()) {
        driver::writeFile(o.jsonPath,
                          verify::toJson(outcomes, shrinks, covReport));
    }

    const std::size_t divergences = verify::countDivergences(outcomes);
    const std::size_t skipped = verify::countSkipped(outcomes);
    if (!o.quiet) {
        std::printf("\n%zu run(s), %zu divergence(s), %zu skipped.\n",
                    outcomes.size(), divergences, skipped);
    }
    if (divergences == 0 && skipped == outcomes.size() &&
        !outcomes.empty()) {
        // An exhausted --budget-sec must not read as a clean sweep:
        // nothing was actually verified.
        std::fprintf(stderr,
                     "msp_sim: budget expired before any job ran — "
                     "nothing was verified\n");
        return 2;
    }
    if (skipped > 0) {
        // Even under --quiet: a partial sweep that exits 0 must leave
        // a trace that it was partial.
        std::fprintf(stderr,
                     "msp_sim: partial sweep — %zu of %zu job(s) "
                     "skipped (fail-fast/budget)\n",
                     skipped, outcomes.size());
    }
    return divergences == 0 ? 0 : 1;
}

/** Dump one registry workload as a JSONL trace. */
int
runTrace(const CliOptions &o)
{
    const Program prog = workload::build(o.workloads.front(), o.seed);
    const std::string doc = trace::toJsonl(prog);
    // Round-trip guard: what is written must re-ingest as the exact
    // same program, or the dump is not a usable trace.
    if (trace::toJsonl(trace::fromJsonl(doc)) != doc) {
        std::fprintf(stderr, "msp_sim: internal error: trace "
                             "round-trip mismatch\n");
        return 2;
    }
    if (o.jsonPath.empty()) {
        std::fputs(doc.c_str(), stdout);
    } else {
        driver::writeFile(o.jsonPath, doc);
        if (!o.quiet) {
            std::printf("Wrote %s: %zu static instr(s), "
                        "%zu mem word(s).\n",
                        o.jsonPath.c_str(), prog.code.size(),
                        prog.memWords);
        }
    }
    return 0;
}

/**
 * Run the parsed mode. User errors (unreadable or malformed input
 * files, bad specs, unknown workloads) escape as exceptions; main()
 * turns them into exit status 2.
 */
int
runMode(const CliOptions &o)
{
    if (o.mode == "merge") {
        std::vector<std::string> docs;
        for (const std::string &p : o.mergeInputs) {
            std::string doc;
            if (!driver::tryReadFile(p, doc)) {
                std::fprintf(stderr,
                             "msp_sim: cannot read shard report %s\n",
                             p.c_str());
                return 2;
            }
            docs.push_back(std::move(doc));
        }
        const std::string merged = driver::mergeReports(docs);
        if (o.jsonPath.empty())
            std::fputs(merged.c_str(), stdout);
        else
            driver::writeFile(o.jsonPath, merged);
        return 0;
    }

    // Campaign modes run long enough that ^C deserves better than a
    // lost run: the first signal drains in-flight jobs, flushes the
    // final checkpoint and writes a partial report (exit 3); the
    // second force-quits.
    std::signal(SIGINT, handleStopSignal);
    std::signal(SIGTERM, handleStopSignal);

    if (o.mode == "spec")
        return runSpec(o);
    if (o.mode == "bench")
        return runBench(o);
    if (o.mode == "trace")
        return runTrace(o);
    if (o.mode == "verify")
        return runVerify(o);

    const std::vector<JobResult> results =
        o.mode == "matrix"
            ? runMatrix(o)
            : runScenario(o.mode, o.threads, o.instrs, !o.quiet);
    if (!o.jsonPath.empty())
        driver::writeFile(o.jsonPath, driver::toJson(results));
    if (!o.csvPath.empty())
        driver::writeFile(o.csvPath, driver::toCsv(results));
    if (driver::campaignStopRequested()) {
        std::size_t ran = 0;
        for (const JobResult &jr : results)
            ran += jr.ran ? 1 : 0;
        std::fprintf(stderr,
                     "msp_sim: interrupted — %zu of %zu job(s) done%s\n",
                     ran, results.size(),
                     o.checkpointPath.empty() ? ""
                                              : "; resume with --resume");
        return exitInterrupted;
    }
    return 0;
}

/** Report a user error (bad input, not a simulator bug): exit 2. */
int
userError(const std::exception &e)
{
    std::fprintf(stderr, "msp_sim: %s\n", e.what());
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    CliOptions o;
    try {
        o = parseCliArgs(std::vector<std::string>(argv + 1, argv + argc));
    } catch (const CliError &e) {
        std::fprintf(stderr, "msp_sim: %s\n", e.what());
        std::fputs(usageText(), stderr);
        return 2;
    }

    if (o.help) {
        std::fputs(usageText(), stdout);
        return 0;
    }
    if (o.list) {
        for (const auto &s : scenarios())
            std::printf("%-22s %s\n", s.name.c_str(), s.title.c_str());
        return 0;
    }
    try {
        return runMode(o);
    } catch (const CliError &e) {
        // Machine resolution (--machine / --grid file errors) happens
        // at run time, past the grammar check above.
        return userError(e);
    } catch (const CheckpointError &e) {
        // A checkpoint or shard report that cannot be read back must
        // not silently rerun from scratch or merge as zeros.
        return userError(e);
    } catch (const SpecError &e) {
        // Bad preset names, spec-level validation failures past the
        // grammar check, corrupt repro payload fields.
        return userError(e);
    } catch (const workload::WorkloadError &e) {
        return userError(e);
    } catch (const trace::TraceError &e) {
        // A missing or malformed trace file behind trace:FILE.
        return userError(e);
    } catch (const json::JsonError &e) {
        // A garbled report, baseline or repro document.
        return userError(e);
    }
}
