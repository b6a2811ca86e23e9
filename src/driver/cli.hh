/**
 * @file
 * msp_sim command-line parsing, split from the binary so the argument
 * grammar and its error paths are unit-testable (tests/test_cli.cc).
 *
 * The grammar is one static flag table (cli.cc): each row names a flag,
 * parses its value into CliOptions through the checked parse*Flag
 * helpers, and lists the invocation shapes that read it. The shapes
 * are a scenario, matrix, matrix --grid, the fuzzed verify sweep,
 * verify --workloads, verify --grid, verify --repro, spec, trace,
 * bench and merge. A flag given to a shape its row does not list is
 * rejected, so no mode silently ignores a flag. usageText() sits next
 * to the table, and a test checks the two against each other.
 *
 * Machine selection has one path too: resolveMachines().
 *
 * Parsing never exits the process: every user error throws CliError,
 * which tools/msp_sim.cc turns into a message plus usage text.
 */

#ifndef MSPLIB_DRIVER_CLI_HH
#define MSPLIB_DRIVER_CLI_HH

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/machine.hh"

namespace msp {

namespace grid {
struct Grid;
} // namespace grid

namespace driver {

/** A user error in the command line (bad flag, bad value, bad combo). */
struct CliError : std::runtime_error
{
    using std::runtime_error::runtime_error;
};

/** Parsed msp_sim invocation. */
struct CliOptions
{
    std::string mode;     ///< scenario name, "matrix", "verify", "spec",
                          ///< "bench", "trace" or "merge"
    bool help = false;         ///< --help: print usage, exit 0
    bool list = false;         ///< --list: print scenarios, exit 0
    unsigned threads = 0;      ///< 0 = all hardware threads
    std::uint64_t instrs = 0;  ///< per-run budget (0 = mode default)
    std::uint64_t seed = 1;    ///< workload / fuzz base seed
    unsigned seeds = 100;      ///< verify: fuzz seeds per mix
    std::string jsonPath;
    std::string csvPath;
    bool quiet = false;
    std::vector<std::string> workloads;    ///< matrix
    std::vector<std::string> configNames;  ///< matrix + verify + spec
    std::vector<std::string> mixNames;     ///< verify
    PredictorKind predictor = PredictorKind::Gshare;

    // ---- MachineSpec sources (matrix / verify / spec modes) ---------------
    std::string machinePath;           ///< --machine FILE spec to load
    std::vector<std::string> sets;     ///< --set key=value, in flag order
    std::string gridPath;              ///< --grid FILE (sim/grid.hh document)

    // ---- verify-mode triage knobs -----------------------------------------
    bool failFast = false;             ///< stop starting jobs on divergence
    std::uint64_t snapshotEvery = 0;   ///< mid-run state compare cadence
    double budgetSec = 0.0;            ///< wall-clock budget (0 = none)
    std::string reproPath;             ///< replay repros from this report
    bool bisectExact = false;          ///< bisect to the first bad commit
    bool reduce = false;               ///< structurally reduce repro programs

    // ---- verify-mode coverage-guided fuzzing (verify/corpus.hh) -----------
    bool coverage = false;             ///< --coverage: harvest path coverage
    std::string corpusPath;            ///< --corpus FILE (JSONL corpus)
    unsigned waves = 1;                ///< --waves N: campaign waves
    bool tune = false;                 ///< --tune: reweight mixes per wave

    // ---- bench-mode knobs -------------------------------------------------
    unsigned reps = 3;                 ///< timed repetitions per config
    std::string baselinePath;          ///< --baseline FILE to gate against
    double gatePct = 15.0;             ///< --gate-pct regression threshold

    // ---- campaign state (matrix + verify; see driver/state.hh) ------------
    std::string checkpointPath;        ///< --checkpoint FILE (durable state)
    unsigned checkpointEvery = 32;     ///< --checkpoint-every N completions
    std::string resumePath;            ///< --resume FILE (implies checkpoint)
    unsigned shardIndex = 0;           ///< --shard i/N: this process is i
    unsigned shardCount = 0;           ///< --shard i/N: of N (0 = unsharded)
    std::vector<std::string> mergeInputs;  ///< merge mode: shard reports
};

/** "a,b,,c" -> {"a","b","c"} (empty items dropped). */
std::vector<std::string> splitCommas(const std::string &s);

/**
 * Checked numeric flag parsing. The historical std::atoi/strtoull
 * calls silently accepted garbage ("--seeds 1o0" ran 1 seed), wrapped
 * negatives ("--threads -1" spawned 4 billion workers' worth of
 * unsigned) and saturated overflow to noise; these reject anything
 * that is not the complete, in-range decimal spelling of a value,
 * throwing CliError that names the offending flag.
 */
std::uint64_t parseU64Flag(const std::string &flag,
                           const std::string &value);

/** As parseU64Flag, additionally bounded to unsigned's range. */
unsigned parseUnsignedFlag(const std::string &flag,
                           const std::string &value);

/** Checked finite-double parse (rejects garbage, trailing text, NaN
 *  and infinities — a NaN --budget-sec would disable the budget while
 *  claiming to set one). */
double parseDoubleFlag(const std::string &flag, const std::string &value);

/**
 * Resolve a preset name: default, baseline, cpr, ideal, <n>sp or
 * <n>sp-noarb (sim::presetByName with SpecError mapped to CliError).
 * @throws CliError on anything else.
 */
MachineConfig configByName(const std::string &name,
                           PredictorKind predictor);

/**
 * Apply @p sets ("key=value" each, already syntax-checked by
 * parseCliArgs) to every machine, relabelling any machine whose spec
 * actually changed with its describeSpec() identity.
 * @throws CliError naming the key on unknown/invalid overrides.
 */
void applySpecSets(std::vector<MachineConfig> &machines,
                   const std::vector<std::string> &sets);

/**
 * checkSpec() for a machine that is complete (after --set).
 * @throws CliError naming the machine and the key on a violation.
 */
void checkMachine(const MachineConfig &m);

/**
 * The one machine path of an invocation. The base machines are the
 * points of @p points when given (a --grid run); otherwise the presets
 * named by --configs, then the --machine FILE spec (parsed through
 * sim/spec.hh), or, when neither names a machine, the figureLadder()
 * of --predictor. Every --set override then applies on top of each
 * (relabelling a machine whose spec changed), and each result passes
 * checkMachine(). Grid points receive their finished machines.
 * @throws CliError on unreadable/unparseable specs, bad overrides or
 *         machines no core can build.
 */
std::vector<MachineConfig> resolveMachines(const CliOptions &o,
                                           grid::Grid *points = nullptr);

/** Every flag of the parser's table, in table order. */
std::vector<std::string> flagNames();

/** The --help text; it documents every flag of the table. */
const char *usageText();

/**
 * Parse and validate argv[1..] (program name excluded).
 *
 * Each argument is looked up in the flag table, which parses its
 * value. The mode and the switching flags (--grid, --workloads,
 * --repro) then give the invocation shape, and any flag whose row does
 * not list that shape is rejected with a message naming both. Explicit
 * checks remain only for rules that span flags: --grid excludes
 * --configs and --machine; --checkpoint-every needs --checkpoint or
 * --resume; --corpus, --waves and --tune need --coverage, which in
 * turn excludes --checkpoint, --resume and --shard; matrix needs
 * workloads and a machine (or a grid), spec exactly one machine, trace
 * exactly one workload and merge at least one report; bench takes only
 * --threads 1. Scenario, preset, workload and mix names and every --set
 * override are checked against their registries.
 *
 * @throws CliError on any user error.
 */
CliOptions parseCliArgs(const std::vector<std::string> &args);

} // namespace driver
} // namespace msp

#endif // MSPLIB_DRIVER_CLI_HH
