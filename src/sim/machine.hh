/**
 * @file
 * Machine — a configured core plus its statistics, ready to run a
 * program. This is the primary entry point of the msplib public API.
 */

#ifndef MSPLIB_SIM_MACHINE_HH
#define MSPLIB_SIM_MACHINE_HH

#include <memory>
#include <string>

#include "bpred/branch_unit.hh"
#include "common/stats.hh"
#include "isa/program.hh"
#include "pipeline/core_base.hh"
#include "pipeline/params.hh"

namespace msp {

/** Everything needed to instantiate one simulated machine. */
struct MachineConfig
{
    std::string name;              ///< e.g. "16-SP+Arb", "CPR", "Baseline"
    CoreParams core;
    PredictorKind predictor = PredictorKind::Gshare;
};

/** A runnable simulated machine. */
class Machine
{
  public:
    /**
     * @param config  Machine configuration (see presets.hh).
     * @param program The program image to execute.
     */
    Machine(const MachineConfig &config, const Program &program);
    ~Machine();

    Machine(const Machine &) = delete;
    Machine &operator=(const Machine &) = delete;

    /**
     * Run the program.
     *
     * @param maxInsts  Stop after this many committed instructions.
     * @param maxCycles Hard cycle cap (default: effectively unlimited).
     * @return Per-run statistics (IPC, instruction breakdown, stalls).
     */
    RunResult run(std::uint64_t maxInsts,
                  std::uint64_t maxCycles = ~std::uint64_t{0});

    /** The underlying core (for white-box tests). */
    CoreBase &core() { return *coreImpl; }

    /** Raw statistic counters. */
    StatGroup &stats() { return statGroup; }

    const MachineConfig &config() const { return cfg; }

  private:
    MachineConfig cfg;
    StatGroup statGroup;
    /** The machine outlives caller scopes, so it keeps its own copy:
     *  the code is copied, the initial data image is shared. */
    Program prog;
    std::unique_ptr<CoreBase> coreImpl;
};

} // namespace msp

#endif // MSPLIB_SIM_MACHINE_HH
