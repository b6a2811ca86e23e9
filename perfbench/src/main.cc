/**
 * @file
 * msp_perfbench — the repository benchmark.
 *
 *   msp_perfbench --workload W --seed N --seconds S --trace 0|1
 *                 [--size full|tiny] [--set key=value]...
 *                 [--reference FILE [--record]] [--out DIR]
 *
 * One process, one worker thread. A run sets the workload up several
 * times (median = setup_s), then repeats untraced passes until S
 * seconds have passed (at least two, and at least 100 job samples).
 * With --trace 1 a traced pass follows, and the per-layer metrics come
 * from its spans and counters. Every pass yields one digest per job;
 * the run checks them against each other and, when FILE holds a
 * reference for this (workload, size, seed), against that reference.
 * Any failed check counts failed jobs and makes the exit code 1.
 *
 * Standard output ends with one JSON line:
 *   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
 * carrying the end-to-end metrics (--trace 0) or the per-layer metrics
 * (--trace 1). End-to-end host times are scaled to a nominal host speed
 * (see HostSpeed); per-layer host times are raw. sim_* and count
 * metrics are simulated and exact.
 */

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "driver/cli.hh"
#include "driver/report.hh"
#include "trace.hh"
#include "workloads.hh"
#include "yardstick.hh"

using namespace perfbench;

namespace {

struct Options
{
    WorkloadOptions workload;
    double seconds = 10;
    bool trace = false;
    std::string referencePath;
    bool record = false;
    std::string outDir = ".";
};

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "msp_perfbench: %s\n"
                 "usage: msp_perfbench --workload W [--seed N] "
                 "[--seconds S] [--trace 0|1]\n"
                 "                     [--size full|tiny] [--set k=v]... "
                 "[--reference FILE [--record]] [--out DIR]\n",
                 why.c_str());
    std::exit(2);
}

std::uint64_t
parseU64(const std::string &flag, const std::string &v)
{
    std::size_t used = 0;
    unsigned long long x = 0;
    try {
        x = std::stoull(v, &used, 10);
    } catch (const std::exception &) {
        used = 0;
    }
    if (v.empty() || used != v.size() || v[0] == '-' || v[0] == '+')
        usage(flag + " needs a non-negative integer, got '" + v + "'");
    return x;
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(a + " needs a value");
            return argv[++i];
        };
        if (a == "--workload") {
            o.workload.name = value();
        } else if (a == "--seed") {
            o.workload.seed = parseU64(a, value());
        } else if (a == "--seconds") {
            const std::uint64_t s = parseU64(a, value());
            if (s == 0)
                usage("--seconds must be at least 1");
            o.seconds = static_cast<double>(s);
        } else if (a == "--trace") {
            const std::string v = value();
            if (v != "0" && v != "1")
                usage("--trace takes 0 or 1");
            o.trace = v == "1";
        } else if (a == "--size") {
            const std::string v = value();
            if (v != "full" && v != "tiny")
                usage("--size takes full or tiny");
            o.workload.tiny = v == "tiny";
        } else if (a == "--set") {
            o.workload.sets.push_back(value());
        } else if (a == "--reference") {
            o.referencePath = value();
        } else if (a == "--record") {
            o.record = true;
        } else if (a == "--out") {
            o.outDir = value();
        } else {
            usage("unknown argument '" + a + "'");
        }
    }
    const auto &names = workloadNames();
    if (std::find(names.begin(), names.end(), o.workload.name) ==
        names.end()) {
        usage("unknown or missing --workload '" + o.workload.name + "'");
    }
    if (o.record && o.referencePath.empty())
        usage("--record needs --reference FILE");
    return o;
}

double
median(std::vector<double> xs)
{
    if (xs.empty())
        return 0;
    std::sort(xs.begin(), xs.end());
    const std::size_t n = xs.size();
    return n % 2 ? xs[n / 2] : (xs[n / 2 - 1] + xs[n / 2]) / 2;
}

/** Linear-interpolated percentile @p q in [0, 1]. */
double
percentile(std::vector<double> xs, double q)
{
    if (xs.empty())
        return 0;
    std::sort(xs.begin(), xs.end());
    const double pos = q * static_cast<double>(xs.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, xs.size() - 1);
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - static_cast<double>(lo));
}

double
ratio(double num, double den)
{
    return den == 0 ? 0.0 : num / den;
}

/**
 * Host speed, followed with the frozen Yardstick (see yardstick.hh). Its
 * rate is the host calibration metric. The shared hosts this benchmark
 * runs on drift in speed by up to 1.7x within seconds, and the
 * simulator slows down with the yardstick (both spend their time in
 * interpreter-style code), so the run samples the yardstick every
 * ~100 ms, between jobs, and scales each job's host time to a nominal
 * yardstick speed.
 */
class HostSpeed
{
  public:
    /** Yardstick speed the scaled host-time metrics are quoted at. */
    static constexpr double nominalMinstrPerS = 160.0;

    /** Yardstick instructions per sample (about 5 ms). */
    static constexpr std::uint64_t sampleInstrs = 1'000'000;

    /** Time one yardstick run. */
    void
    sample()
    {
        const Clock::time_point t0 = Clock::now();
        sink ^= yardstick.run(sampleInstrs);
        const Clock::time_point t1 = Clock::now();
        const double s = std::chrono::duration<double>(t1 - t0).count();
        samples.push_back({t0 + (t1 - t0) / 2,
                           static_cast<double>(sampleInstrs) / s / 1e6});
    }

    /** sample() when 100 ms have passed since the last sample. */
    void
    sampleIfDue()
    {
        using std::chrono::milliseconds;
        if (samples.empty() ||
            Clock::now() - samples.back().at >= milliseconds(100))
            sample();
    }

    /**
     * Factor that scales host time spent around @p t to the nominal
     * yardstick speed: the median rate of the five samples nearest in
     * time, over the nominal rate.
     */
    double
    scaleAt(Clock::time_point t) const
    {
        const auto it = std::lower_bound(
            samples.begin(), samples.end(), t,
            [](const Sample &s, Clock::time_point at) { return s.at < at; });
        const std::size_t i =
            static_cast<std::size_t>(it - samples.begin());
        const std::size_t hi =
            std::min(samples.size(), std::max<std::size_t>(i + 3, 5));
        const std::size_t lo = hi > 5 ? hi - 5 : 0;
        std::vector<double> rates;
        for (std::size_t k = lo; k < hi; ++k)
            rates.push_back(samples[k].rate);
        return median(rates) / nominalMinstrPerS;
    }

    /** Host time of @p seg scaled to the nominal yardstick speed. */
    double
    scaled(const Segment &seg) const
    {
        const auto half = std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double>(seg.seconds / 2));
        return seg.seconds * scaleAt(seg.end - half);
    }

    double
    medianRate() const
    {
        std::vector<double> rates;
        for (const Sample &s : samples)
            rates.push_back(s.rate);
        return median(rates);
    }

  private:
    struct Sample
    {
        Clock::time_point at;
        double rate;     ///< MInstr/s
    };

    Yardstick yardstick;
    std::uint64_t sink = 0;          ///< keeps the runs observable
    std::vector<Sample> samples;    ///< in time order
};

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;   // KiB on Linux
}

// ---- reference digests ------------------------------------------------------
//
// One line per recorded (workload, size, seed):
//   <workload> <size> <seed> <jobs> <run digest> <job digest>...
// in lowercase hex, 16 digits each.

struct Reference
{
    bool found = false;
    std::uint64_t runDigest = 0;
    std::vector<std::uint64_t> jobs;
};

std::string
referenceKey(const Options &o)
{
    return o.workload.name + " " + (o.workload.tiny ? "tiny" : "full") +
           " " + std::to_string(o.workload.seed);
}

std::string
hex16(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
    return buf;
}

std::uint64_t
runDigest(const std::vector<std::uint64_t> &jobs)
{
    Digest d;
    for (std::uint64_t j : jobs)
        d.add(j);
    return d.h;
}

/**
 * The reference for @p key in @p path.
 * @throws std::runtime_error when @p path cannot be read or is malformed.
 */
Reference
loadReference(const std::string &path, const std::string &key)
{
    Reference ref;
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot read reference file " + path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind(key + " ", 0) != 0)
            continue;
        std::istringstream fields(line.substr(key.size() + 1));
        std::size_t n = 0;
        std::string tok;
        fields >> n >> tok;
        ref.runDigest = std::stoull(tok, nullptr, 16);
        while (fields >> tok)
            ref.jobs.push_back(std::stoull(tok, nullptr, 16));
        if (ref.jobs.size() != n) {
            throw std::runtime_error(
                "reference '" + key + "' in " + path + " lists " +
                std::to_string(ref.jobs.size()) + " digests, header says " +
                std::to_string(n));
        }
        ref.found = true;
    }
    return ref;
}

void
recordReference(const std::string &path, const std::string &key,
                const std::vector<std::uint64_t> &jobs)
{
    std::vector<std::string> lines;
    {
        std::ifstream in(path);
        std::string line;
        while (std::getline(in, line))
            if (line.rfind(key + " ", 0) != 0)
                lines.push_back(line);
    }
    std::string entry = key + " " + std::to_string(jobs.size()) + " " +
                        hex16(runDigest(jobs));
    for (std::uint64_t j : jobs)
        entry += " " + hex16(j);
    lines.push_back(entry);
    std::sort(lines.begin(), lines.end());
    std::string doc;
    for (const std::string &l : lines)
        doc += l + "\n";
    msp::driver::writeFile(path, doc);
}

// ---- metrics ----------------------------------------------------------------

struct Metric
{
    std::string name;
    std::string unit;
    double value;
};

std::string
resultJson(bool correct, std::uint64_t attempted, std::uint64_t failed,
           const std::vector<Metric> &metrics)
{
    std::string s = std::string("{\"correct\": ") +
                    (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
    char buf[64];
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const double v = std::isfinite(metrics[i].value) ? metrics[i].value
                                                         : 0.0;
        std::snprintf(buf, sizeof buf, "%.17g", v);
        s += (i ? ", \"" : "\"") + metrics[i].name +
             "\": {\"value\": " + buf + ", \"unit\": \"" + metrics[i].unit +
             "\"}";
    }
    return s + "}}";
}

/** Per-layer metrics from the traced pass's spans and counters. */
std::vector<Metric>
layerMetrics(const Tracer &t, const LayerCounts &c, const PassResult &traced,
             double tracedOverhead, double rawWall, double calib)
{
    const double ctor = t.selfTotal("sim.machine_ctor");
    const double runs[3] = {t.selfTotal("baseline.run"),
                            t.selfTotal("cpr.run"), t.selfTotal("core.run")};
    const double functional = t.selfTotal("functional.run");
    const double diffrun = t.selfTotal("verify.diffrun");
    const double oracle =
        diffrun > 0 ? diffrun - ctor - runs[0] - runs[1] - runs[2] -
                          functional
                    : 0.0;
    const auto nsPer = [](double s, std::uint64_t n) {
        return ratio(s * 1e9, static_cast<double>(n));
    };
    const auto n = [](std::uint64_t v) { return static_cast<double>(v); };

    return {
        {"workload.build_s", "s", t.selfTotal("workload.build")},
        {"sim.expand_s", "s", t.selfTotal("sim.expand")},
        {"sim.machine_ctor_s", "s", ctor},
        {"sim.machine_ctor_us_p50", "us",
         median(t.durations("sim.machine_ctor")) * 1e6},
        {"baseline.run_s", "s", runs[0]},
        {"cpr.run_s", "s", runs[1]},
        {"core.run_s", "s", runs[2]},
        {"baseline.ns_per_inst", "ns/inst",
         nsPer(runs[0], c.familyCommitted[0])},
        {"cpr.ns_per_inst", "ns/inst", nsPer(runs[1], c.familyCommitted[1])},
        {"core.ns_per_inst", "ns/inst", nsPer(runs[2], c.familyCommitted[2])},
        {"core.ns_per_cycle", "ns/cycle", nsPer(runs[2], c.familyCycles[2])},
        {"functional.run_s", "s", functional},
        {"verify.fuzz_s", "s", t.selfTotal("verify.fuzz")},
        {"verify.diffrun_s", "s", diffrun},
        {"verify.oracle_overhead_s", "s", oracle},
        {"verify.shrink_s", "s", t.selfTotal("verify.shrink")},
        {"verify.bisect_s", "s", t.selfTotal("verify.bisect")},
        {"verify.reduce_s", "s", t.selfTotal("verify.reduce")},
        {"verify.shrink_attempts", "count", n(c.shrinkAttempts)},
        {"verify.reduce_attempts", "count", n(c.reduceAttempts)},
        {"verify.shrink_ratio", "ratio",
         ratio(n(c.shrunkDynamic), n(c.origDynamic))},
        {"verify.timing_violations", "count", n(traced.timingViolations)},
        {"driver.report_s", "s", t.selfTotal("driver.report")},
        {"pipeline.executed", "count", n(c.executed)},
        {"pipeline.wrong_path_frac", "ratio",
         ratio(n(c.wrongPath), n(c.executed))},
        {"pipeline.reexec_frac", "ratio",
         ratio(n(c.reExecuted), n(c.executed))},
        {"pipeline.recoveries", "count", n(c.recoveries)},
        {"pipeline.rename_stall_frac", "ratio",
         ratio(n(c.renameStallCycles), n(c.cycles))},
        {"pipeline.iq_stall_cycles", "count", n(c.iqStallCycles)},
        {"bpred.mispredict_rate", "ratio",
         ratio(n(c.mispredicts), n(c.branches))},
        {"memory.l1d_miss_rate", "ratio",
         ratio(n(c.l1dMisses), n(c.l1dHits + c.l1dMisses))},
        {"memory.l2_misses", "count", n(c.l2Misses)},
        {"lsq.sq_stall_cycles", "count", n(c.sqStallCycles)},
        {"lsq.forwards", "count", n(c.forwards)},
        {"lsq.probe_stalls", "count", n(c.probeStalls)},
        {"core.lcs_recompute", "count", n(c.lcsRecompute)},
        {"core.lcs_dirty_banks", "count", n(c.lcsDirtyBanks)},
        {"core.sct_gate_release", "count", n(c.sctGateRelease)},
        {"core.bank_stall_cycles", "count", n(c.bankStallCycles)},
        {"core.port_conflicts", "count", n(c.portConflicts)},
        {"cpr.checkpoints", "count", n(c.checkpoints)},
        {"cpr.rollbacks", "count", n(c.rollbacks)},
        {"trace.wall_s", "s", traced.wallS},
        {"trace.overhead_s", "s", tracedOverhead},
        {"trace.unattributed_s", "s",
         t.selfTotal("pass") + t.selfTotal("job")},
        {"host.wall_raw_s", "s", rawWall},
        {"host.calib_minstr_per_s", "MInstr/s", calib},
    };
}

int
run(const Options &o)
{
    std::filesystem::create_directories(o.outDir);
    const std::string stem = o.outDir + "/" + o.workload.name;
    const std::unique_ptr<Workload> w = makeWorkload(o.workload);

    // The default seed always has a reference: a missing entry means a
    // renamed workload or size, not a held-out seed, so fail before
    // measuring rather than silently skip the check.
    const std::string key = referenceKey(o);
    Reference ref;
    if (!o.referencePath.empty() && !o.record) {
        ref = loadReference(o.referencePath, key);
        if (!ref.found && o.workload.seed == WorkloadOptions{}.seed) {
            throw std::runtime_error("no reference '" + key + "' in " +
                                     o.referencePath + " for the default "
                                     "seed; record one with --record");
        }
    }

    // Stay on one CPU, so the yardstick samples the same CPU the passes
    // run on (sibling and neighbour load differ between CPUs).
    if (const int cpu = sched_getcpu(); cpu >= 0) {
        cpu_set_t cpus;
        CPU_ZERO(&cpus);
        CPU_SET(cpu, &cpus);
        sched_setaffinity(0, sizeof cpus, &cpus);
    }

    HostSpeed host;
    host.sample();

    // Set-up is paid once per campaign; time it several times and keep
    // the median, so a stray slow set-up does not read as a regression.
    std::vector<double> setupS;
    const Clock::time_point setupStart = Clock::now();
    while (setupS.size() < 11 ||
           (setupS.size() < 101 && secondsSince(setupStart) < 0.3)) {
        const Clock::time_point t0 = Clock::now();
        w->setup(nullptr);
        setupS.push_back(secondsSince(t0));
        host.sample();
        setupS.back() *= host.scaleAt(t0);
    }

    // Untraced passes: at least two (cross-pass determinism) and at
    // least 100 job samples (so p90 has ten beyond it). Peak RSS is
    // taken after the first: later passes repeat the same work.
    const Interlude between = [&] { host.sampleIfDue(); };
    std::vector<PassResult> passes;
    std::size_t jobSamples = 0;
    double rssMb = 0;
    const Clock::time_point measureStart = Clock::now();
    while (passes.size() < 2 || jobSamples < 100 ||
           secondsSince(measureStart) < o.seconds) {
        passes.push_back(w->run(stem + ".json", between));
        host.sample();
        jobSamples += passes.back().latencyJobs().size();
        if (passes.size() == 1)
            rssMb = peakRssMb();
    }
    const std::size_t untraced = passes.size();

    Tracer tracer;
    LayerCounts counts;
    if (o.trace) {
        {
            Tracer::Scope s(tracer, "setup");
            w->setup(&tracer);
        }
        passes.push_back(w->runTraced(tracer, stem + ".traced.json", counts));
        host.sample();
        tracer.writeChromeTrace(stem + ".trace.json");
    }

    // ---- correctness ------------------------------------------------------
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::size_t reported = 0;
    const PassResult &first = passes.front();
    for (std::size_t p = 0; p < passes.size(); ++p) {
        const PassResult &pass = passes[p];
        for (std::size_t i = 0; i < pass.digests.size(); ++i) {
            std::string why = pass.problems[i];
            if (why.empty() && pass.digests[i] != first.digests[i])
                why = "result differs from the first pass";
            if (why.empty() && ref.found &&
                (ref.jobs.size() != pass.digests.size() ||
                 pass.digests[i] != ref.jobs[i])) {
                why = "digest differs from the reference";
            }
            ++attempted;
            if (why.empty())
                continue;
            ++failed;
            if (reported++ < 10) {
                std::fprintf(stderr, "msp_perfbench: pass %zu%s job %zu: "
                             "%s\n", p + 1,
                             o.trace && p + 1 == passes.size() ? " (traced)"
                                                               : "",
                             i, why.c_str());
            }
        }
    }
    const bool correct = failed == 0;
    const std::uint64_t digest = runDigest(first.digests);

    std::printf("workload %s, seed %" PRIu64 ", size %s: %zu jobs, %zu "
                "untraced pass(es)%s; caches start cold "
                "(warmup.instrs=0); one worker thread\n",
                o.workload.name.c_str(), o.workload.seed,
                o.workload.tiny ? "tiny" : "full", w->jobs(),
                untraced,
                o.trace ? " + 1 traced pass" : "");
    std::printf("digest %s (reference: %s)\n", hex16(digest).c_str(),
                !ref.found ? "none for this seed, so determinism and "
                             "oracle checks only"
                : ref.runDigest == digest ? "match"
                                          : "MISMATCH");
    std::printf("checks: %" PRIu64 " job run(s), %" PRIu64 " failed\n",
                attempted, failed);
    if (first.timingViolations > 0) {
        std::printf("timing invariant: %" PRIu64 " job(s) per pass with "
                    "ideal-MSP IPC below 16-SP (reported, not failed: a "
                    "coarse IPC heuristic, not an oracle divergence)\n",
                    first.timingViolations);
    }

    if (o.record) {
        if (!correct) {
            std::fprintf(stderr, "msp_perfbench: not recording a reference "
                         "from a run that failed its checks\n");
            return 1;
        }
        recordReference(o.referencePath, key, first.digests);
        std::printf("recorded reference '%s' in %s\n", key.c_str(),
                    o.referencePath.c_str());
    }

    // ---- metrics ----------------------------------------------------------
    // Host times scaled to the nominal yardstick speed, job by job.
    std::vector<double> walls;
    std::vector<double> rawWalls;
    std::vector<double> jobMs;
    double jobS = 0;
    double committed = 0;
    for (std::size_t p = 0; p < untraced; ++p) {
        const PassResult &pass = passes[p];
        double rest = pass.wallS;
        double wall = 0;
        for (const auto *segs : {&pass.campaignJobs, &pass.triageJobs}) {
            for (const Segment &seg : *segs) {
                rest -= seg.seconds;
                wall += host.scaled(seg);
            }
        }
        for (const Segment &seg : pass.campaignJobs)
            jobS += host.scaled(seg);
        for (const Segment &seg : pass.latencyJobs())
            jobMs.push_back(host.scaled(seg) * 1e3);
        walls.push_back(wall + host.scaled({rest, pass.end}));
        rawWalls.push_back(pass.wallS);
        committed += static_cast<double>(pass.committed);
    }

    std::vector<Metric> metrics;
    if (o.trace) {
        // The untraced median, brought to the host speed of the traced
        // pass, is what the traced pass would have cost untraced.
        const PassResult &traced = passes.back();
        const double overhead =
            traced.wallS *
            (1 - median(walls) / host.scaled({traced.wallS, traced.end}));
        metrics = layerMetrics(tracer, counts, traced, overhead,
                               median(rawWalls), host.medianRate());
    } else {
        metrics = {
            {"setup_s", "s", median(setupS)},
            {"wall_s", "s", median(walls)},
            {"minstr_per_s", "MInstr/s", ratio(committed / 1e6, jobS)},
            {"job_ms_p50", "ms", percentile(jobMs, 0.5)},
            {"job_ms_p90", "ms", percentile(jobMs, 0.9)},
            {"peak_rss_mb", "MB", rssMb},
            {"sim_ipc", "inst/cycle",
             ratio(static_cast<double>(first.committed),
                   static_cast<double>(first.cycles))},
        };
    }
    std::printf("host yardstick: median %.1f MInstr/s; host times below "
                "are scaled to %.0f MInstr/s\n", host.medianRate(),
                HostSpeed::nominalMinstrPerS);
    std::printf("%zu job latency sample(s); raw pass wall times (s):",
                jobMs.size());
    for (double wall : rawWalls)
        std::printf(" %.3f", wall);
    std::printf("\nscaled pass wall times (s):");
    for (double wall : walls)
        std::printf(" %.3f", wall);
    std::printf("\n");
    for (const Metric &m : metrics)
        std::printf("  %-26s %14.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    std::printf("%s\n", resultJson(correct, attempted, failed, metrics)
                            .c_str());
    return correct ? 0 : 1;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    const Options o = parseArgs(argc, argv);
    try {
        return run(o);
    } catch (const msp::driver::CliError &e) {
        std::fprintf(stderr, "msp_perfbench: %s\n", e.what());
        return 2;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "msp_perfbench: %s\n", e.what());
        return 2;
    }
}
