/**
 * @file
 * Named simulation scenarios: the paper's figure and ablation sweeps
 * expressed as declarative campaign-job tables.
 *
 * Each scenario pairs a job builder (the preset × workload ×
 * predictor × parameter matrix) with a report function that formats
 * the finished JobResults into the tables and headline ratios the
 * paper quotes. Adding a sweep is one entry in scenarios() — not a
 * new binary; `msp_sim <name>` is the one entry point, a thin wrapper
 * over runScenario().
 */

#ifndef MSPLIB_DRIVER_SCENARIO_HH
#define MSPLIB_DRIVER_SCENARIO_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "driver/campaign.hh"

namespace msp {
namespace driver {

/** One named sweep: how to build its jobs and print its report. */
struct Scenario
{
    std::string name;   ///< CLI key, e.g. "fig6"
    std::string title;  ///< header line, e.g. "Reproduction of Fig. 6 ..."

    /**
     * The sweep as a grid document (sim/grid.hh). Every scenario is
     * data: build() is grid::expand(gridJson) piped through gridJobs().
     * The same documents ship as examples/grids/<name>.json.
     */
    std::string gridJson;

    /** Produce the job list; @p maxInsts is the per-run budget. */
    std::function<std::vector<CampaignJob>(std::uint64_t maxInsts)> build;

    /** Print the scenario's tables/summary for the finished jobs. */
    std::function<void(const std::vector<JobResult> &)> report;
};

/** All registered scenarios, in presentation order. */
const std::vector<Scenario> &scenarios();

/** Look up a scenario by name; nullptr when unknown. */
const Scenario *findScenario(const std::string &name);

/**
 * Build, run and report one scenario.
 *
 * @param name     Scenario key (see scenarios()).
 * @param threads  Worker threads (0 = hardware concurrency).
 * @param maxInsts Per-run budget (0 = defaultInstBudget).
 * @param verbose  Print the header and per-job progress.
 * @return The raw results (for JSON/CSV serialisation).
 */
std::vector<JobResult> runScenario(const std::string &name,
                                   unsigned threads = 0,
                                   std::uint64_t maxInsts = 0,
                                   bool verbose = true);

/** The Figs. 6-8 machine ladder for one predictor. */
std::vector<MachineConfig> figureLadder(PredictorKind predictor);

/** Sum of the three largest per-bank stall-cycle counts (Figs. 6-8). */
std::uint64_t top3BankStalls(const RunResult &r);

/** Arithmetic mean. */
double mean(const std::vector<double> &xs);

} // namespace driver
} // namespace msp

#endif // MSPLIB_DRIVER_SCENARIO_HH
