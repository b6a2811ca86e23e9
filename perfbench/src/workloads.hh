/**
 * @file
 * The benchmark's four workloads, each driven through the entry points
 * users run.
 *
 *  - fig6-int / fig8-fp: the `msp_sim fig6` / `fig8` scenarios through
 *    driver::SimCampaign, JSON report through driver::toJson.
 *  - verify-fuzz: a `msp_sim verify` batch (5 standard mixes x seeds x
 *    the gshare figure ladder) through verify::DiffCampaign, the timing
 *    invariant, and verify::toJson.
 *  - triage-fault: a verify batch with fault.commit_at injected on the
 *    baseline, cpr and 16sp rungs, triaged with `--bisect-exact
 *    --reduce` semantics and no wall-clock budget through
 *    verify::shrinkFailures.
 *
 * Every workload offers two kinds of pass over the same job list. The
 * untraced pass calls the campaign entry point once and is what the
 * end-to-end metrics time. The traced pass performs the same work one
 * public call at a time (Machine construction, Machine::run, diffRun,
 * shrinkDivergence / bisectFirstBadCommit / reduceDivergence, the
 * report) inside Tracer spans. Both produce one digest per job, so the
 * caller can check the two kinds of pass computed the same thing.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "trace.hh"

namespace perfbench {

/** FNV-1a over 64-bit words: the per-job and whole-run digests. */
struct Digest
{
    std::uint64_t h = 1469598103934665603ull;

    Digest &
    add(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 1099511628211ull;
        }
        return *this;
    }
};

/** What to build: the workload, its seed, its size and overrides. */
struct WorkloadOptions
{
    std::string name;
    std::uint64_t seed = 1;

    /** The small variant used by the benchmark's own test. */
    bool tiny = false;

    /** "key=value" machine-spec overrides applied to every machine. */
    std::vector<std::string> sets;
};

/** Names accepted by makeWorkload(), in presentation order. */
const std::vector<std::string> &workloadNames();

/**
 * Simulated work of the traced pass's jobs, summed over jobs. Exact:
 * the same code and inputs always give the same counts.
 */
struct LayerCounts
{
    /** Per core family, indexed baseline / cpr / core (MSP). */
    std::array<std::uint64_t, 3> familyCommitted{};
    std::array<std::uint64_t, 3> familyCycles{};

    std::uint64_t cycles = 0;
    std::uint64_t executed = 0;
    std::uint64_t wrongPath = 0;
    std::uint64_t reExecuted = 0;
    std::uint64_t recoveries = 0;
    std::uint64_t renameStallCycles = 0;
    std::uint64_t iqStallCycles = 0;
    std::uint64_t branches = 0;
    std::uint64_t mispredicts = 0;
    std::uint64_t l1dHits = 0;
    std::uint64_t l1dMisses = 0;
    std::uint64_t l2Misses = 0;
    std::uint64_t sqStallCycles = 0;
    std::uint64_t forwards = 0;
    std::uint64_t probeStalls = 0;
    std::uint64_t lcsRecompute = 0;
    std::uint64_t lcsDirtyBanks = 0;
    std::uint64_t sctGateRelease = 0;
    std::uint64_t bankStallCycles = 0;
    std::uint64_t portConflicts = 0;
    std::uint64_t checkpoints = 0;
    std::uint64_t rollbacks = 0;

    // Triage (triage-fault only).
    std::uint64_t shrinkAttempts = 0;   ///< mix-shrinking diffRuns
    std::uint64_t reduceAttempts = 0;   ///< structural-reduction candidates
    std::uint64_t origDynamic = 0;      ///< failing programs' lengths
    std::uint64_t shrunkDynamic = 0;    ///< their mix-shrunk lengths
};

/** One timed stretch of a pass: a job, measured between callbacks. */
struct Segment
{
    double seconds = 0;
    Clock::time_point end;
};

/**
 * Called between the jobs of an untraced pass. Returns nothing; the
 * pass leaves the time it takes out of every timing it reports. The
 * run uses it to sample host speed while a pass is in flight.
 */
using Interlude = std::function<void()>;

/** One pass over a workload's job list. */
struct PassResult
{
    /** First job through written report, interludes left out. */
    double wallS = 0;
    Clock::time_point end;            ///< when the report was written

    std::vector<Segment> campaignJobs;  ///< one per campaign job

    /** triage-fault only: the triage of each failing job. */
    std::vector<Segment> triageJobs;

    /** The jobs whose latency the run reports. */
    const std::vector<Segment> &
    latencyJobs() const
    {
        return triageJobs.empty() ? campaignJobs : triageJobs;
    }

    std::uint64_t committed = 0;      ///< simulated, over campaign jobs
    std::uint64_t cycles = 0;

    /**
     * verify-fuzz: jobs the coarse timing invariant flagged (ideal MSP
     * IPC below 16-SP). A cross-machine IPC heuristic, not an oracle
     * divergence, so these are reported and not counted as failures.
     */
    std::uint64_t timingViolations = 0;

    std::vector<std::uint64_t> digests;   ///< one per job
    /** One per job: "" when the job's own checks passed, else why not. */
    std::vector<std::string> problems;
};

class Workload
{
  public:
    virtual ~Workload() = default;

    /**
     * Expand the job list and synthesise or fuzz every program. With
     * @p tracer, the expansion and generation steps are recorded as
     * spans.
     */
    virtual void setup(Tracer *tracer) = 0;

    /** Number of jobs in a pass (valid after setup). */
    virtual std::size_t jobs() const = 0;

    /**
     * The untraced pass: the campaign entry point, then the report;
     * @p between runs after every job.
     */
    virtual PassResult run(const std::string &reportPath,
                           const Interlude &between) = 0;

    /**
     * The traced pass: the same work one public call at a time, inside
     * spans; adds the simulated work to @p counts. Right after each
     * campaign job, under a "decompose" span that the pass leaves out of
     * its wall time, the functional model runs on the job's program, and
     * where a public call hides a layer split (diffRun) the same inputs
     * are re-run piecewise.
     */
    virtual PassResult runTraced(Tracer &tracer,
                                 const std::string &reportPath,
                                 LayerCounts &counts) = 0;
};

/** @throws std::invalid_argument on an unknown workload name. */
std::unique_ptr<Workload> makeWorkload(const WorkloadOptions &opt);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
