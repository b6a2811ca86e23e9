/**
 * @file
 * SimCampaign — a multi-threaded simulation-campaign driver.
 *
 * A campaign is a declarative list of jobs, each pairing one machine
 * configuration (see sim/presets.hh) with one workload. run() fans the
 * jobs across a pool of worker threads; every job owns its Machine,
 * its Program copy and its RNG state, so results are bit-identical
 * regardless of the thread count or scheduling order (the property
 * tests/test_campaign.cc asserts). Nothing is read from the
 * environment: a job's budget is its maxInsts or the constant
 * defaultInstBudget.
 */

#ifndef MSPLIB_DRIVER_CAMPAIGN_HH
#define MSPLIB_DRIVER_CAMPAIGN_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "isa/program.hh"
#include "sim/grid.hh"
#include "sim/machine.hh"

namespace msp {
namespace driver {

class CampaignState;

/** One cell of the campaign matrix: a machine running a workload. */
struct CampaignJob
{
    std::string scenario;      ///< grouping label in reports ("fig6", ...)
    std::string workload;      ///< workload::build() registry name
    MachineConfig config;
    std::uint64_t maxInsts = 0;///< committed-instruction budget (0 = default)
    std::uint64_t maxCycles = ~std::uint64_t{0};
    std::uint64_t seed = 1;    ///< workload-synthesis seed

    /**
     * Pre-built program; overrides @c workload / @c seed when set.
     * Shared across jobs without copying: Machine takes its own copy.
     */
    std::shared_ptr<const Program> program;
};

/** A finished job, in submission order. */
struct JobResult
{
    std::size_t index = 0;     ///< global submission index (the shard's
                               ///< parent campaign when sharded)
    CampaignJob job;
    RunResult result;

    /**
     * False when an interrupted campaign (driver::setCampaignStop)
     * never started this job: @c result is empty and the report
     * writers skip the row, so a partial report carries only real
     * results.
     */
    bool ran = true;
};

/**
 * Called after each job finishes (under a lock, so it may print).
 *
 * @param done  Jobs finished so far, including this one.
 * @param total Total jobs in the campaign.
 */
using ProgressFn =
    std::function<void(const JobResult &, std::size_t done,
                       std::size_t total)>;

/**
 * Per-run committed-instruction budget used when a job leaves
 * maxInsts at 0. `msp_sim --instrs N` sets maxInsts to trade time for
 * fidelity.
 */
constexpr std::uint64_t defaultInstBudget = 60000;

/**
 * Deterministic per-job seed derivation (splitmix64 of base and
 * index) for campaigns that want independent streams per repetition.
 */
std::uint64_t jobSeed(std::uint64_t base, std::uint64_t index);

/**
 * Run @p fn(0) .. @p fn(n-1) across a pool of @p threads workers (0 =
 * one per hardware thread; the pool never exceeds @p n). Indices are
 * claimed atomically, so @p fn runs exactly once per index but in no
 * particular order — callers index into pre-sized output slots for
 * order-independent results. The first exception thrown by any index
 * is re-thrown after all workers drain; the throwing worker stops,
 * the others finish their remaining indices.
 *
 * This is the shared worker pool under SimCampaign and
 * verify::DiffCampaign.
 */
void parallelFor(unsigned threads, std::size_t n,
                 const std::function<void(std::size_t)> &fn);

/** The worker count parallelFor(threads, n, ...) actually uses. */
unsigned effectivePoolThreads(unsigned threads, std::size_t n);

/**
 * The full cross product workloads × configs as a job list,
 * workload-major (all configs of workloads[0] first). This ordering
 * is a contract: scenario reports rebuild their figure grid from it.
 */
std::vector<CampaignJob>
matrixJobs(const std::string &scenario,
           const std::vector<std::string> &workloads,
           const std::vector<MachineConfig> &configs,
           std::uint64_t maxInsts = 0, std::uint64_t seed = 1);

/**
 * One job per grid point, in expansion order. A grid whose points bind
 * workloads (a "workload.name"/"workload.trace" axis) is a complete
 * campaign; expansion order for a workload-first grid is workload-major,
 * so the matrixJobs reporting contract carries over.
 *
 * @throws SpecError when a point binds no workload — cross such a grid
 *         with an explicit workload list via matrixJobs instead.
 */
std::vector<CampaignJob>
gridJobs(const std::string &scenario, const grid::Grid &grid,
         std::uint64_t maxInsts = 0, std::uint64_t seed = 1);

/** A batch of simulation jobs run on a worker pool. */
class SimCampaign
{
  public:
    /**
     * @param threads Worker count; 0 means one per hardware thread.
     *                A value of 1 runs every job inline on the calling
     *                thread (the single-threaded reference).
     */
    explicit SimCampaign(unsigned threads = 0);

    /** Append one job; returns its submission index. */
    std::size_t add(CampaignJob job);

    /** Append matrixJobs(scenario, workloads, configs, ...). */
    void addMatrix(const std::vector<std::string> &workloads,
                   const std::vector<MachineConfig> &configs,
                   std::uint64_t maxInsts = 0, std::uint64_t seed = 1,
                   const std::string &scenario = "");

    std::size_t size() const { return jobs.size(); }
    const std::vector<CampaignJob> &pending() const { return jobs; }

    /** Effective worker count for @c size() jobs. */
    unsigned effectiveThreads() const;

    /**
     * Keep only shard @p shard of @p shards (jobs whose submission
     * index is congruent to @p shard mod @p shards). Surviving jobs
     * remember their global index, so shard reports carry the parent
     * campaign's indices and mergeReports() can reassemble them into
     * the exact unsharded report.
     */
    void restrictToShard(unsigned shard, unsigned shards);

    /**
     * Checkpoint per-job completion through @p st (not owned; may be
     * null to detach). run() binds the backend with every job's
     * identity key, skips jobs whose results the backend restored, and
     * records each fresh completion — so a killed run resumes with the
     * work it already did, byte-identical to an uninterrupted run.
     */
    void attachState(CampaignState *st) { state = st; }

    /**
     * Run every job and return results in submission order.
     *
     * Workloads are synthesised once per distinct (name, seed) pair —
     * sequentially, before the pool starts — then shared read-only.
     * The first exception thrown by any job is re-thrown here after
     * all workers have drained.
     */
    std::vector<JobResult> run(const ProgressFn &progress = nullptr);

    /** A ProgressFn that prints "[done/total config/workload]" lines. */
    static ProgressFn stderrProgress();

  private:
    unsigned requestedThreads;
    std::vector<CampaignJob> jobs;
    std::vector<std::uint64_t> globalIndex;  ///< empty = identity
    CampaignState *state = nullptr;
};

/**
 * Stable identity hash of one simulation job: scenario, workload,
 * seed, budgets and the full serialised machine spec. Two runs of the
 * same command line derive the same keys, which is what lets a
 * checkpoint record prove it belongs to the job it claims.
 */
std::string simJobKey(const CampaignJob &job);

/** One RunResult counter under the name reports and checkpoints use. */
struct RunCounter
{
    const char *name;
    std::uint64_t RunResult::*member;
    bool reported;   ///< false: carried in checkpoints, not report rows
};

/**
 * Every RunResult counter, in report order: the one field list of the
 * report writer (driver/report.cc), which interleaves the derived ipc
 * and mispredict_rate, and of the checkpoint codec below, which adds
 * bank_stall_cycles.
 */
inline constexpr RunCounter runCounters[] = {
    {"cycles", &RunResult::cycles, true},
    {"committed", &RunResult::committed, true},
    {"branches", &RunResult::branches, true},
    {"mispredicts", &RunResult::mispredicts, true},
    {"recoveries", &RunResult::recoveries, true},
    {"wrong_path_exec", &RunResult::wrongPathExec, true},
    {"re_executed", &RunResult::reExecuted, true},
    {"total_executed", &RunResult::totalExecuted, true},
    {"rename_stall_cycles", &RunResult::renameStallCycles, true},
    {"reg_stall_cycles", &RunResult::regStallCycles, true},
    {"sq_stall_cycles", &RunResult::sqStallCycles, true},
    {"iq_stall_cycles", &RunResult::iqStallCycles, true},
    {"checkpoints_taken", &RunResult::checkpointsTaken, true},
    {"l2_misses", &RunResult::l2Misses, true},
    {"exceptions", &RunResult::exceptions, false},
};

/**
 * Serialise / parse one RunResult as the checkpoint payload. Integer
 * counters and escaped strings only — the round trip is exact, so a
 * report rendered from restored results is byte-identical to one
 * rendered from fresh results.
 */
std::string simResultToJson(const RunResult &r);
RunResult simResultFromJson(const std::string &json);

} // namespace driver
} // namespace msp

#endif // MSPLIB_DRIVER_CAMPAIGN_HH
