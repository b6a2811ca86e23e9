/**
 * @file
 * Simulator *throughput* benchmarking: how many simulated instructions
 * per wall-clock second the host sustains, per machine configuration.
 *
 * This is deliberately separate from the figure/ablation harnesses in
 * bench/ — those measure the *simulated machine* (IPC); this measures
 * the *simulator* (MInstr/s), which is what hot-path optimisation work
 * must not regress. `msp_sim bench` renders a BENCH_throughput.json
 * report through these helpers; CI gates pull requests against the
 * committed baseline: simulated counts on any host, throughput only
 * against a baseline of the same host fingerprint.
 *
 * Measurement discipline:
 *  - single-threaded, sequential runs (optionally CPU-pinned by the
 *    CLI) — thread scheduling noise never enters the numbers;
 *  - each configuration is timed over the full workload set, repeated
 *    `reps` times; the *best* repetition is the throughput figure (the
 *    minimum wall time is the run least disturbed by the host);
 *  - committed-instruction and cycle counts must be bit-identical
 *    across repetitions (the simulator is deterministic; a mismatch
 *    means the build is broken and the timing numbers are garbage);
 *  - sanitized builds are detected and flagged — their timings are
 *    meaningless and must never become a baseline.
 */

#ifndef MSPLIB_DRIVER_BENCH_HH
#define MSPLIB_DRIVER_BENCH_HH

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "sim/machine.hh"

namespace msp {
namespace driver {

/** Report format identity; readers reject anything else. */
inline constexpr const char *benchSchemaId = "msp-bench-v1";

/** What to measure (defaults reproduce the committed baseline). */
struct BenchOptions
{
    /** Preset names; empty = the Table I ladder with both references. */
    std::vector<std::string> configNames;
    /**
     * Workload-registry names (workload/registry.hh); empty =
     * gzip,gcc,swim,mcf (two int, two fp).
     */
    std::vector<std::string> workloads;
    PredictorKind predictor = PredictorKind::Gshare;
    std::uint64_t instrs = 200000;  ///< committed budget per run
    unsigned reps = 3;              ///< timed repetitions per config
    std::uint64_t seed = 1;         ///< workload-synthesis seed
};

/** Measured throughput of one configuration. */
struct BenchConfigResult
{
    std::string config;
    std::uint64_t committed = 0;  ///< total over the workload set
    std::uint64_t cycles = 0;     ///< total over the workload set
    std::vector<double> wallSec;  ///< one entry per repetition

    /** Fastest repetition (least host interference). */
    double bestWallSec() const;

    /** Committed MInstr per wall-clock second, best repetition. */
    double minstrPerSec() const;

    /** Simulated Mcycles per wall-clock second, best repetition. */
    double mcyclesPerSec() const;
};

/** One complete throughput measurement. */
struct BenchReport
{
    std::string host;             ///< hostFingerprint() of the machine
    bool sanitized = false;       ///< built with a sanitizer
    std::string predictor;        ///< "gshare" or "tage"
    std::uint64_t instrs = 0;
    unsigned reps = 0;
    std::uint64_t seed = 1;
    std::vector<std::string> workloads;
    std::vector<BenchConfigResult> configs;
};

/**
 * Stable identity of this host for baseline comparison: architecture,
 * CPU model and hardware-thread count. Two runs on the same machine
 * fingerprint identically; CI skips the regression gate (loudly) when
 * the fingerprints differ, because MInstr/s across different hosts is
 * not a regression signal.
 */
std::string hostFingerprint();

/**
 * True when this binary was built under ASan/TSan/MSan (compiler
 * macros) or with any -fsanitize flag (the MSP_SANITIZED_BUILD define
 * CMake injects — UBSan sets no detection macro of its own).
 */
bool sanitizedBuild();

/** Called after each timed repetition of each config. */
using BenchProgressFn = std::function<void(
    const std::string &config, unsigned rep, unsigned reps,
    double wallSec)>;

/**
 * Run the measurement: sequential, on the calling thread. Workloads
 * are synthesised once and shared; each (config, repetition) times the
 * full workload set back-to-back. @throws SpecError on an unknown
 * preset name, workload::WorkloadError / trace::TraceError on an
 * unknown or unreadable workload; msp_fatal if committed/cycle counts
 * differ between repetitions (a non-deterministic simulator has no
 * valid throughput).
 */
BenchReport runThroughputBench(const BenchOptions &o,
                               const BenchProgressFn &progress = nullptr);

/** Serialise @p r as the BENCH_throughput.json document. */
std::string benchReportToJson(const BenchReport &r);

/**
 * Parse a report written by benchReportToJson. @throws json::JsonError
 * on a missing/foreign schema tag, malformed numbers, or a report with
 * no configurations.
 */
BenchReport benchReportFromJson(const std::string &doc);

/**
 * Regression check: configurations in @p current whose MInstr/s fell
 * more than @p pct percent below the same-named configuration in
 * @p baseline. Configurations missing from either side are ignored
 * (ladders may grow). @return human-readable violation lines, empty
 * when the gate passes.
 */
std::vector<std::string> benchRegressions(const BenchReport &baseline,
                                          const BenchReport &current,
                                          double pct);

/**
 * Host-independent drift check: when @p baseline and @p current
 * measured the same runs (equal instrs, seed, predictor and workload
 * list), every configuration present in both must report exactly the
 * baseline's committed and cycle counts — the simulator is
 * deterministic, so any difference is a timing-model change or a
 * determinism bug, on whatever host. @return std::nullopt when the
 * runs are not comparable, else the drift lines (empty = clean).
 */
std::optional<std::vector<std::string>>
benchCountDrift(const BenchReport &baseline, const BenchReport &current);

} // namespace driver
} // namespace msp

#endif // MSPLIB_DRIVER_BENCH_HH
