#include "driver/cli.hh"

#include <bitset>
#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdlib>
#include <iterator>

#include "common/logging.hh"
#include "common/parse.hh"
#include "driver/report.hh"
#include "driver/scenario.hh"
#include "sim/grid.hh"
#include "sim/presets.hh"
#include "sim/spec.hh"
#include "verify/fuzzer.hh"
#include "workload/registry.hh"

namespace msp {
namespace driver {

std::uint64_t
parseU64Flag(const std::string &flag, const std::string &value)
{
    // strtoull accepts leading whitespace, a sign, and trailing junk,
    // and wraps negatives into huge positives — all of which a flag
    // value must reject outright; parse::decimalU64 is the strict
    // digits-only core every checked reader shares.
    std::uint64_t v = 0;
    switch (parse::decimalU64(value, v)) {
      case parse::Status::Ok:
        return v;
      case parse::Status::Overflow:
        throw CliError(csprintf("%s: value '%s' overflows 64 bits",
                                flag.c_str(), value.c_str()));
      case parse::Status::Empty:
      case parse::Status::BadChar:
        break;
    }
    throw CliError(csprintf("%s: expected a non-negative integer, "
                            "got '%s'", flag.c_str(), value.c_str()));
}

unsigned
parseUnsignedFlag(const std::string &flag, const std::string &value)
{
    const std::uint64_t v = parseU64Flag(flag, value);
    if (v > UINT_MAX) {
        throw CliError(csprintf("%s: value '%s' is out of range",
                                flag.c_str(), value.c_str()));
    }
    return static_cast<unsigned>(v);
}

double
parseDoubleFlag(const std::string &flag, const std::string &value)
{
    if (value.empty() ||
        !((value[0] >= '0' && value[0] <= '9') || value[0] == '.')) {
        throw CliError(csprintf("%s: expected a non-negative number, "
                                "got '%s'", flag.c_str(), value.c_str()));
    }
    // strtod parses C99 hex floats ("0x8" == 8.0), which the decimal
    // contract — and the integer parsers — reject.
    if (value.find('x') != std::string::npos ||
        value.find('X') != std::string::npos) {
        throw CliError(csprintf("%s: expected a decimal number, got "
                                "'%s'", flag.c_str(), value.c_str()));
    }
    errno = 0;
    char *end = nullptr;
    const double v = std::strtod(value.c_str(), &end);
    if (end != value.c_str() + value.size()) {
        throw CliError(csprintf("%s: trailing garbage in '%s'",
                                flag.c_str(), value.c_str()));
    }
    if (errno == ERANGE || !std::isfinite(v)) {
        throw CliError(csprintf("%s: value '%s' is out of range",
                                flag.c_str(), value.c_str()));
    }
    return v;
}

std::vector<std::string>
splitCommas(const std::string &s)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    while (start <= s.size()) {
        const std::size_t comma = s.find(',', start);
        const std::string item =
            s.substr(start, comma == std::string::npos ? std::string::npos
                                                       : comma - start);
        if (!item.empty())
            out.push_back(item);
        if (comma == std::string::npos)
            break;
        start = comma + 1;
    }
    return out;
}

MachineConfig
configByName(const std::string &name, PredictorKind predictor)
{
    try {
        return presetByName(name, predictor);
    } catch (const SpecError &e) {
        throw CliError(e.what());
    }
}

void
applySpecSets(std::vector<MachineConfig> &machines,
              const std::vector<std::string> &sets)
{
    for (MachineConfig &m : machines) {
        const MachineConfig before = m;
        for (const std::string &kv : sets) {
            const std::size_t eq = kv.find('=');
            if (eq == std::string::npos || eq == 0) {
                throw CliError(csprintf("--set needs key=value, got "
                                        "'%s'", kv.c_str()));
            }
            try {
                setParamFromString(m, kv.substr(0, eq),
                                   kv.substr(eq + 1));
            } catch (const SpecError &e) {
                throw CliError(std::string("--set ") + e.what());
            }
        }
        // Overrides that changed the spec invalidate the preset label;
        // a no-op --set keeps the machine's pretty name.
        if (!sameSpec(before, m))
            m.name = describeSpec(m);
    }
}

void
checkMachine(const MachineConfig &m)
{
    try {
        checkSpec(m);
    } catch (const SpecError &e) {
        throw CliError(csprintf("machine %s: %s", m.name.c_str(),
                                e.what()));
    }
}

std::vector<MachineConfig>
resolveMachines(const CliOptions &o, grid::Grid *points)
{
    std::vector<MachineConfig> machines;
    if (points) {
        for (const grid::GridPoint &pt : points->points)
            machines.push_back(pt.machine);
    } else {
        for (const std::string &n : o.configNames)
            machines.push_back(configByName(n, o.predictor));
        if (!o.machinePath.empty()) {
            std::string doc;
            if (!tryReadFile(o.machinePath, doc)) {
                throw CliError(csprintf("cannot read machine spec %s",
                                        o.machinePath.c_str()));
            }
            try {
                // --predictor seeds partial spec files; a file that sets
                // its own "predictor" key keeps it (a spec is complete).
                machines.push_back(specFromJson(doc, o.predictor));
            } catch (const SpecError &e) {
                throw CliError(csprintf("%s: %s", o.machinePath.c_str(),
                                        e.what()));
            }
        }
        if (machines.empty())
            machines = figureLadder(o.predictor);
    }
    applySpecSets(machines, o.sets);
    for (const MachineConfig &m : machines)
        checkMachine(m);
    if (points) {
        for (std::size_t i = 0; i < machines.size(); ++i)
            points->points[i].machine = machines[i];
    }
    return machines;
}

namespace {

/**
 * The invocation shapes: a mode, refined by the flag that switches what
 * it runs (matrix --grid; verify --workloads, --grid or --repro).
 */
enum Shape : unsigned
{
    ScenarioRun,
    Matrix,
    MatrixGrid,
    VerifySweep,
    VerifyWorkloads,
    VerifyGrid,
    VerifyRepro,
    Spec,
    Trace,
    Bench,
    Merge,
};

const char *const shapeNames[] = {
    "a scenario", "matrix", "matrix --grid", "the fuzzed verify sweep",
    "verify --workloads", "verify --grid", "verify --repro", "spec",
    "trace", "bench", "merge",
};

/** A set of shapes, one bit per Shape. */
template <typename... S>
constexpr unsigned
shapes(S... s)
{
    return ((1u << s) | ... | 0u);
}

constexpr unsigned anyShape = ~0u;
constexpr unsigned campaigns = shapes(Matrix, MatrixGrid, VerifySweep);
constexpr unsigned verifyShapes =
    shapes(VerifySweep, VerifyWorkloads, VerifyGrid, VerifyRepro);

/** The flag as spelled, and its value ("" for a switch). */
struct FlagArg
{
    const std::string &flag;
    const std::string &value;
};

unsigned
positiveFlag(const FlagArg &a)
{
    const unsigned v = parseUnsignedFlag(a.flag, a.value);
    if (v == 0)
        throw CliError(a.flag + " needs a value > 0");
    return v;
}

/**
 * One row per flag: its spelling, whether it takes a value, the shapes
 * that read it, and how its value lands in CliOptions. A flag given to
 * a shape its row does not list is a user error, so no mode can
 * silently ignore a flag.
 */
struct FlagRow
{
    const char *name;
    bool takesValue;
    unsigned readBy;   ///< the shapes that read the flag
    void (*set)(CliOptions &o, const FlagArg &a);
};

const FlagRow flagTable[] = {
    {"--help", false, anyShape,
     [](CliOptions &o, const FlagArg &) { o.help = true; }},
    {"-h", false, anyShape,
     [](CliOptions &o, const FlagArg &) { o.help = true; }},
    {"--list", false, anyShape,
     [](CliOptions &o, const FlagArg &) { o.list = true; }},
    {"--threads", true, campaigns | shapes(ScenarioRun, Bench),
     [](CliOptions &o, const FlagArg &a) {
         o.threads = parseUnsignedFlag(a.flag, a.value);
     }},
    {"--instrs", true,
     shapes(ScenarioRun, Matrix, MatrixGrid, Bench) | verifyShapes,
     [](CliOptions &o, const FlagArg &a) {
         o.instrs = parseU64Flag(a.flag, a.value);
     }},
    {"--seed", true,
     campaigns | shapes(VerifyWorkloads, VerifyGrid, Trace, Bench),
     [](CliOptions &o, const FlagArg &a) {
         o.seed = parseU64Flag(a.flag, a.value);
     }},
    {"--seeds", true, shapes(VerifySweep),
     [](CliOptions &o, const FlagArg &a) { o.seeds = positiveFlag(a); }},
    {"--json", true, anyShape,
     [](CliOptions &o, const FlagArg &a) { o.jsonPath = a.value; }},
    {"--csv", true, shapes(ScenarioRun, Matrix, MatrixGrid),
     [](CliOptions &o, const FlagArg &a) { o.csvPath = a.value; }},
    {"--quiet", false, anyShape,
     [](CliOptions &o, const FlagArg &) { o.quiet = true; }},
    {"--fail-fast", false, shapes(VerifySweep),
     [](CliOptions &o, const FlagArg &) { o.failFast = true; }},
    {"--snapshot-every", true, verifyShapes,
     [](CliOptions &o, const FlagArg &a) {
         o.snapshotEvery = parseU64Flag(a.flag, a.value);
         if (o.snapshotEvery == 0)
             throw CliError("--snapshot-every needs a value > 0");
     }},
    {"--budget-sec", true, shapes(VerifySweep),
     [](CliOptions &o, const FlagArg &a) {
         o.budgetSec = parseDoubleFlag(a.flag, a.value);
         if (o.budgetSec <= 0.0)
             throw CliError("--budget-sec needs a value > 0");
     }},
    {"--reps", true, shapes(Bench),
     [](CliOptions &o, const FlagArg &a) { o.reps = positiveFlag(a); }},
    {"--baseline", true, shapes(Bench),
     [](CliOptions &o, const FlagArg &a) { o.baselinePath = a.value; }},
    {"--gate-pct", true, shapes(Bench),
     [](CliOptions &o, const FlagArg &a) {
         o.gatePct = parseDoubleFlag(a.flag, a.value);
         if (o.gatePct <= 0.0 || o.gatePct >= 100.0)
             throw CliError("--gate-pct wants a percentage in (0, 100)");
     }},
    {"--repro", true, shapes(VerifyRepro),
     [](CliOptions &o, const FlagArg &a) { o.reproPath = a.value; }},
    {"--bisect-exact", false, shapes(VerifySweep),
     [](CliOptions &o, const FlagArg &) { o.bisectExact = true; }},
    {"--reduce", false, shapes(VerifySweep),
     [](CliOptions &o, const FlagArg &) { o.reduce = true; }},
    {"--coverage", false, shapes(VerifySweep),
     [](CliOptions &o, const FlagArg &) { o.coverage = true; }},
    {"--corpus", true, shapes(VerifySweep),
     [](CliOptions &o, const FlagArg &a) { o.corpusPath = a.value; }},
    {"--waves", true, shapes(VerifySweep),
     [](CliOptions &o, const FlagArg &a) { o.waves = positiveFlag(a); }},
    {"--tune", false, shapes(VerifySweep),
     [](CliOptions &o, const FlagArg &) { o.tune = true; }},
    {"--checkpoint", true, campaigns,
     [](CliOptions &o, const FlagArg &a) { o.checkpointPath = a.value; }},
    {"--checkpoint-every", true, campaigns,
     [](CliOptions &o, const FlagArg &a) {
         o.checkpointEvery = positiveFlag(a);
     }},
    {"--resume", true, campaigns,
     [](CliOptions &o, const FlagArg &a) { o.resumePath = a.value; }},
    {"--shard", true, campaigns,
     [](CliOptions &o, const FlagArg &a) {
         const std::size_t slash = a.value.find('/');
         if (slash == std::string::npos) {
             throw CliError(csprintf("--shard wants i/N (e.g. 0/3), "
                                     "got '%s'", a.value.c_str()));
         }
         o.shardIndex = parseUnsignedFlag(a.flag, a.value.substr(0, slash));
         o.shardCount = parseUnsignedFlag(a.flag, a.value.substr(slash + 1));
         if (o.shardCount == 0 || o.shardIndex >= o.shardCount) {
             throw CliError(csprintf("--shard %s: the index must be < "
                                     "the shard count (0-based)",
                                     a.value.c_str()));
         }
     }},
    {"--machine", true, shapes(Matrix, VerifySweep, VerifyWorkloads, Spec),
     [](CliOptions &o, const FlagArg &a) { o.machinePath = a.value; }},
    {"--grid", true, shapes(MatrixGrid, VerifyGrid),
     [](CliOptions &o, const FlagArg &a) { o.gridPath = a.value; }},
    {"--set", true, campaigns | shapes(VerifyWorkloads, VerifyGrid, Spec),
     [](CliOptions &o, const FlagArg &a) { o.sets.push_back(a.value); }},
    {"--workloads", true,
     shapes(Matrix, MatrixGrid, VerifyWorkloads, Trace, Bench),
     [](CliOptions &o, const FlagArg &a) {
         o.workloads = splitCommas(a.value);
     }},
    {"--configs", true,
     shapes(Matrix, VerifySweep, VerifyWorkloads, Spec, Bench),
     [](CliOptions &o, const FlagArg &a) {
         o.configNames = splitCommas(a.value);
     }},
    {"--mixes", true, shapes(VerifySweep),
     [](CliOptions &o, const FlagArg &a) {
         o.mixNames = splitCommas(a.value);
     }},
    {"--predictor", true,
     campaigns | shapes(VerifyWorkloads, VerifyGrid, Spec, Bench),
     [](CliOptions &o, const FlagArg &a) {
         if (a.value == "gshare")
             o.predictor = PredictorKind::Gshare;
         else if (a.value == "tage")
             o.predictor = PredictorKind::Tage;
         else
             throw CliError(csprintf("unknown predictor '%s'",
                                     a.value.c_str()));
     }},
};

constexpr std::size_t numFlags = std::size(flagTable);

std::size_t
rowOf(const std::string &flag)
{
    for (std::size_t r = 0; r < numFlags; ++r)
        if (flag == flagTable[r].name)
            return r;
    return numFlags;
}

Shape
shapeOf(const CliOptions &o)
{
    if (o.mode == "matrix")
        return o.gridPath.empty() ? Matrix : MatrixGrid;
    if (o.mode == "verify") {
        if (!o.reproPath.empty())
            return VerifyRepro;
        if (!o.gridPath.empty())
            return VerifyGrid;
        return o.workloads.empty() ? VerifySweep : VerifyWorkloads;
    }
    if (o.mode == "spec")
        return Spec;
    if (o.mode == "trace")
        return Trace;
    if (o.mode == "bench")
        return Bench;
    if (o.mode == "merge")
        return Merge;
    if (!findScenario(o.mode))
        throw CliError(csprintf("unknown scenario '%s' (see --list)",
                                o.mode.c_str()));
    return ScenarioRun;
}

} // anonymous namespace

std::vector<std::string>
flagNames()
{
    std::vector<std::string> names;
    for (const FlagRow &row : flagTable)
        names.push_back(row.name);
    return names;
}

const char *
usageText()
{
    return
        "usage: msp_sim <scenario> [options]\n"
        "       msp_sim matrix --workloads A,B --configs C,D [options]\n"
        "       msp_sim matrix --grid FILE [options]\n"
        "       msp_sim verify [--seeds N] [--mixes M,N] [options]\n"
        "       msp_sim verify (--workloads A,B | --grid FILE) [options]\n"
        "       msp_sim trace --workloads NAME [--seed N] [--json FILE]\n"
        "       msp_sim bench [--reps N] [--baseline FILE] [options]\n"
        "       msp_sim spec (--configs P | --machine FILE) [--set k=v]\n"
        "       msp_sim merge SHARD.json... [--json FILE]\n"
        "       msp_sim --list\n"
        "       msp_sim --help | -h\n"
        "\n"
        "options:\n"
        "  --threads N    worker threads (default: all hardware threads;\n"
        "                 1 = single-threaded reference run). Named\n"
        "                 verify and --repro replay run sequentially\n"
        "                 and take no --threads\n"
        "  --instrs N     committed-instruction budget per run\n"
        "                 (default: 60000;\n"
        "                 verify default: 1M as a safety bound)\n"
        "  --json FILE    write per-job results as JSON\n"
        "  --csv FILE     write per-job results as CSV (not verify)\n"
        "  --quiet        suppress the header and per-job progress\n"
        "\n"
        "campaign state (matrix and verify modes):\n"
        "  --checkpoint FILE\n"
        "                 append per-job completion records to FILE as\n"
        "                 the campaign runs (atomic header rewrite, then\n"
        "                 flushed appends)\n"
        "  --checkpoint-every N\n"
        "                 flush cadence in completed jobs (default 32)\n"
        "  --resume FILE  skip jobs already recorded in FILE and keep\n"
        "                 checkpointing to it; the final report is\n"
        "                 byte-identical to an uninterrupted run at any\n"
        "                 thread count. A torn trailing record (crash\n"
        "                 mid-append) is quarantined to FILE.torn; any\n"
        "                 other corruption or a checkpoint from a\n"
        "                 different command line fails with exit 2\n"
        "  --shard i/N    run only shard i of N (deterministic split;\n"
        "                 verify shards by fuzzed program so the timing\n"
        "                 invariant stays intra-shard); write each\n"
        "                 shard's --json, then fold them with merge\n"
        "  merge mode reassembles shard reports into one document\n"
        "  byte-identical to the unsharded run's (--json FILE or stdout)\n"
        "  SIGINT/SIGTERM stop a campaign cooperatively: in-flight jobs\n"
        "  finish and are checkpointed, a partial report is written, and\n"
        "  msp_sim exits 3; a second signal force-quits\n"
        "\n"
        "machine specs (matrix, verify and spec modes):\n"
        "  --machine FILE load a machine from a JSON spec file (flat\n"
        "                 {\"key\": value} object of registered dotted\n"
        "                 parameters; optional \"base\" preset and\n"
        "                 \"label\"); added to the --configs machines\n"
        "  --set k=v      override one registered parameter (e.g.\n"
        "                 --set cpr.checkpoints=4 --set lcs.latency=3)\n"
        "                 on every selected machine; repeatable.\n"
        "                 Precedence: --set over --machine over preset\n"
        "  spec mode dumps the resolved machine as JSON (--json FILE or\n"
        "  stdout) plus its diff against the nearest preset baseline —\n"
        "  the file round-trips through --machine bit-identically\n"
        "\n"
        "matrix mode:\n"
        "  --workloads    comma-separated workload-registry names:\n"
        "                 SPEC benchmarks (gzip, gcc, swim, ...),\n"
        "                 tight-loop, ptrchase, prodcons, interp, or\n"
        "                 trace:FILE (a JSONL trace; see trace mode)\n"
        "  --configs      comma-separated presets: baseline, cpr, ideal,\n"
        "                 <n>sp (e.g. 16sp), <n>sp-noarb\n"
        "  --predictor    gshare (default) or tage\n"
        "  --seed N       workload-synthesis seed (default 1)\n"
        "  --grid FILE    expand a grid document (named axes of dotted\n"
        "                 spec keys, crossed or zipped) into the job\n"
        "                 list; the per-figure documents ship in\n"
        "                 examples/grids/. A grid with a workload.name\n"
        "                 or workload.trace axis is a complete campaign;\n"
        "                 one without is a machine list crossed with\n"
        "                 --workloads. Composes with --set (applied on\n"
        "                 top of every point), --shard, --checkpoint/\n"
        "                 --resume and merge\n"
        "\n"
        "trace mode (dump a registry workload as an editable trace):\n"
        "  --workloads NAME   the workload to dump (one name)\n"
        "  --seed N           synthesis seed (default 1)\n"
        "  --json FILE        write the JSONL trace (default: stdout);\n"
        "                     re-ingest it with workload trace:FILE or\n"
        "                     a workload.trace grid axis\n"
        "\n"
        "bench mode (simulator throughput, MInstr/s per config):\n"
        "  --configs      presets to time (default: baseline, cpr,\n"
        "                 ideal, 4sp, 8sp, 16sp)\n"
        "  --workloads    workloads per timed sweep (default:\n"
        "                 gzip,gcc,swim,mcf)\n"
        "  --instrs N     committed budget per run (default 200000)\n"
        "  --reps N       timed repetitions per config (default 3);\n"
        "                 the best repetition is the throughput figure,\n"
        "                 and committed/cycle counts must be identical\n"
        "                 across repetitions (determinism check)\n"
        "  --threads 1    pin the process to one CPU before timing\n"
        "                 (bench always runs sequentially)\n"
        "  --json FILE    write the BENCH_throughput.json report\n"
        "                 (refused with a warning in sanitized builds:\n"
        "                 those timings must never become a baseline)\n"
        "  --baseline FILE\n"
        "                 gate against a previous report: exit 1 when\n"
        "                 any config's MInstr/s fell more than the gate\n"
        "                 percentage; skipped loudly when the host\n"
        "                 fingerprint differs from the baseline's\n"
        "  --gate-pct P   regression threshold (default 15)\n"
        "\n"
        "verify mode (differential fuzzing against the functional "
        "executor):\n"
        "  --seeds N      fuzzed programs per mix (default 100)\n"
        "  --mixes A,B    fuzz mixes: mixed, branchy, memory, fploop,\n"
        "                 fpedge (default: all)\n"
        "  --configs      presets to verify (default: the full Table I\n"
        "                 ladder incl. Baseline and CPR)\n"
        "  --predictor    gshare (default) or tage\n"
        "  --seed N       base seed for program generation (default 1)\n"
        "  --workloads A,B\n"
        "                 verify named registry workloads instead of\n"
        "                 fuzzed programs: each workload runs on each\n"
        "                 selected machine under the differential\n"
        "                 oracle, sequentially (exit 1 on divergence)\n"
        "  --grid FILE    verify every point of a workload-binding grid\n"
        "                 document (point machine x point workload);\n"
        "                 --set applies on top of every point\n"
        "  --snapshot-every N\n"
        "                 compare architectural state against the\n"
        "                 functional model every N commits, localising\n"
        "                 a divergence to a commit window\n"
        "  --fail-fast    stop starting new jobs after the first\n"
        "                 divergence (remaining jobs report skipped)\n"
        "  --budget-sec S wall-clock budget; jobs not started in time\n"
        "                 report skipped\n"
        "  --repro FILE   replay the reproducers recorded in a --json\n"
        "                 divergence report (each carries its complete\n"
        "                 machine spec — and, for structurally reduced\n"
        "                 failures, the reduced program image itself —\n"
        "                 so custom ablation machines and reduced\n"
        "                 programs replay bit-identically; exit 2 on\n"
        "                 unparseable repros)\n"
        "  --bisect-exact after shrinking, re-run each divergent job\n"
        "                 with binary-searched probe points until the\n"
        "                 single first divergent commit is found\n"
        "                 (first_bad_commit in the report)\n"
        "  --reduce       after shrinking, structurally reduce the\n"
        "                 program image itself (drop whole blocks /\n"
        "                 helpers / loop bodies, relink branches) and\n"
        "                 embed the reduced program in the report\n"
        "  --coverage     harvest per-run path coverage (stall\n"
        "                 transitions, predictor edges, squash depths,\n"
        "                 SQ forwarding, SCT/LCS activity) into a\n"
        "                 (feature, bucket) bitmap; adds a \"coverage\"\n"
        "                 summary and per-row coverage to the report and\n"
        "                 canonicalises repros by root cause (duplicate\n"
        "                 failures fold into one repro with a\n"
        "                 \"duplicates\" count). Does not combine with\n"
        "                 --checkpoint/--resume/--shard\n"
        "  --corpus FILE  keep the coverage-novel (mix, seed) entries in\n"
        "                 a JSONL corpus (atomic rewrite; a torn\n"
        "                 trailing record is quarantined to FILE.torn);\n"
        "                 an existing corpus seeds the aggregate map\n"
        "  --waves N      run the sweep N times (needs --coverage);\n"
        "                 corpus admission happens between waves\n"
        "  --tune         reweight the fuzz mixes between waves toward\n"
        "                 coverage holes (pure function of the\n"
        "                 aggregated map and --seed, so campaigns stay\n"
        "                 bit-identical at any --threads)\n"
        "  Divergent jobs are re-fuzzed through the shrinker; minimal\n"
        "  reproducers land in the --json report under \"repros\".\n"
        "  After a clean sweep that ran both machines, a coarse timing\n"
        "  invariant (ideal-MSP IPC >= 16-SP IPC per fuzzed program)\n"
        "  is asserted; violations report as \"timing\" divergences.\n"
        "  exit status 1 when any run diverges\n";
}

CliOptions
parseCliArgs(const std::vector<std::string> &args)
{
    CliOptions o;
    std::bitset<numFlags> seen;
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &a = args[i];
        const std::size_t r = rowOf(a);
        if (r < numFlags) {
            const FlagRow &row = flagTable[r];
            if (row.takesValue && i + 1 >= args.size())
                throw CliError(a + " needs a value");
            static const std::string none;
            row.set(o, FlagArg{a, row.takesValue ? args[++i] : none});
            seen.set(r);
        } else if (!a.empty() && a[0] == '-') {
            throw CliError("unknown option " + a);
        } else if (o.mode.empty()) {
            o.mode = a;
        } else if (o.mode == "merge") {
            // merge takes shard reports as positional operands.
            o.mergeInputs.push_back(a);
        } else {
            throw CliError("unexpected argument " + a);
        }
    }

    if (o.help || o.list)
        return o;
    if (o.mode.empty())
        throw CliError("missing scenario or mode");

    const Shape shape = shapeOf(o);
    const auto saw = [&](const char *flag) {
        return seen.test(rowOf(flag));
    };

    // A grid document carries its own machines; say so before the
    // table's generic rejection.
    if (!o.gridPath.empty() && (saw("--configs") || saw("--machine")))
        throw CliError("--grid carries its own machines; --configs/"
                       "--machine do not combine with it");
    for (std::size_t r = 0; r < numFlags; ++r) {
        if (seen[r] && !(flagTable[r].readBy & (1u << shape))) {
            throw CliError(csprintf("%s does not apply to %s (see --help)",
                                    flagTable[r].name, shapeNames[shape]));
        }
    }

    // The rules that span flags rather than shapes.
    if (saw("--checkpoint-every") && o.checkpointPath.empty() &&
        o.resumePath.empty()) {
        throw CliError("--checkpoint-every needs --checkpoint or "
                       "--resume");
    }
    if ((saw("--corpus") || saw("--waves") || saw("--tune")) &&
        !o.coverage) {
        throw CliError("--corpus/--waves/--tune need --coverage "
                       "(they manage and steer the coverage map)");
    }
    if (o.coverage &&
        (saw("--checkpoint") || saw("--resume") || saw("--shard"))) {
        throw CliError("--coverage does not combine with "
                       "--checkpoint/--resume/--shard: wave "
                       "retuning changes the job list mid-campaign, "
                       "which checkpoint identity cannot describe");
    }
    if (shape == Matrix &&
        (o.workloads.empty() ||
         (o.configNames.empty() && o.machinePath.empty()))) {
        throw CliError("matrix mode needs --workloads and a machine "
                       "(--configs and/or --machine), or a --grid "
                       "document");
    }
    if (shape == Spec &&
        o.configNames.size() + (o.machinePath.empty() ? 0 : 1) != 1) {
        throw CliError("spec mode needs exactly one machine: one "
                       "--configs preset or one --machine FILE");
    }
    if (shape == Trace && o.workloads.size() != 1) {
        throw CliError("trace mode dumps exactly one workload "
                       "(--workloads NAME)");
    }
    if (shape == Merge && o.mergeInputs.empty())
        throw CliError("merge mode needs at least one shard report");
    // Throughput measurement is strictly sequential; more than one
    // worker would time thread scheduling, not the simulator.
    // --threads 1 additionally pins the process to one CPU.
    if (shape == Bench && saw("--threads") && o.threads != 1) {
        throw CliError("bench mode is single-threaded; only --threads 1 "
                       "(which pins the CPU) applies");
    }

    // Every name must resolve at parse, not mid-campaign: presets,
    // workloads (a trace file itself is only read at run time), mixes,
    // and every --set override (proven against a scratch machine).
    for (const std::string &c : o.configNames)
        (void)configByName(c, o.predictor);
    for (const std::string &w : o.workloads) {
        if (!workload::known(w)) {
            throw CliError(csprintf("unknown workload '%s' (want a "
                                    "registry name such as gzip, swim, "
                                    "tight-loop, ptrchase, prodcons or "
                                    "interp, or trace:FILE)",
                                    w.c_str()));
        }
    }
    for (const std::string &m : o.mixNames) {
        if (!verify::findMix(m))
            throw CliError(csprintf("unknown mix '%s' (want mixed, "
                                    "branchy, memory, fploop or "
                                    "fpedge)", m.c_str()));
    }
    {
        std::vector<MachineConfig> scratch(1);
        applySpecSets(scratch, o.sets);
    }

    // --resume without --checkpoint keeps checkpointing to the file it
    // resumes from: an interrupted resume stays resumable.
    if (!o.resumePath.empty() && o.checkpointPath.empty())
        o.checkpointPath = o.resumePath;
    return o;
}

} // namespace driver
} // namespace msp
