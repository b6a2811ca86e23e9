#include "driver/cli.hh"

#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdlib>

#include "common/logging.hh"
#include "common/parse.hh"
#include "driver/report.hh"
#include "driver/scenario.hh"
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
resolveMachines(const CliOptions &o)
{
    std::vector<MachineConfig> machines;
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
    applySpecSets(machines, o.sets);
    for (const MachineConfig &m : machines)
        checkMachine(m);
    return machines;
}

CliOptions
parseCliArgs(const std::vector<std::string> &args)
{
    CliOptions o;
    bool predictorSet = false;
    bool seedSet = false;
    bool seedsSet = false;
    bool threadsSet = false;
    bool checkpointEverySet = false;
    bool repsSet = false;
    bool gatePctSet = false;
    bool wavesSet = false;

    auto value = [&](std::size_t &i) -> const std::string & {
        if (i + 1 >= args.size())
            throw CliError(args[i] + " needs a value");
        return args[++i];
    };

    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &a = args[i];
        if (a == "--help" || a == "-h") {
            o.help = true;
        } else if (a == "--list") {
            o.list = true;
        } else if (a == "--threads") {
            o.threads = parseUnsignedFlag(a, value(i));
            threadsSet = true;
        } else if (a == "--instrs") {
            o.instrs = parseU64Flag(a, value(i));
        } else if (a == "--seed") {
            o.seed = parseU64Flag(a, value(i));
            seedSet = true;
        } else if (a == "--seeds") {
            o.seeds = parseUnsignedFlag(a, value(i));
            seedsSet = true;
        } else if (a == "--json") {
            o.jsonPath = value(i);
        } else if (a == "--csv") {
            o.csvPath = value(i);
        } else if (a == "--quiet") {
            o.quiet = true;
        } else if (a == "--fail-fast") {
            o.failFast = true;
        } else if (a == "--snapshot-every") {
            o.snapshotEvery = parseU64Flag(a, value(i));
            if (o.snapshotEvery == 0)
                throw CliError("--snapshot-every needs a value > 0");
        } else if (a == "--budget-sec") {
            o.budgetSec = parseDoubleFlag(a, value(i));
            if (o.budgetSec <= 0.0)
                throw CliError("--budget-sec needs a value > 0");
        } else if (a == "--reps") {
            o.reps = parseUnsignedFlag(a, value(i));
            if (o.reps == 0)
                throw CliError("--reps needs a value > 0");
            repsSet = true;
        } else if (a == "--baseline") {
            o.baselinePath = value(i);
        } else if (a == "--gate-pct") {
            o.gatePct = parseDoubleFlag(a, value(i));
            if (o.gatePct <= 0.0 || o.gatePct >= 100.0)
                throw CliError("--gate-pct wants a percentage in (0, 100)");
            gatePctSet = true;
        } else if (a == "--repro") {
            o.reproPath = value(i);
        } else if (a == "--bisect-exact") {
            o.bisectExact = true;
        } else if (a == "--reduce") {
            o.reduce = true;
        } else if (a == "--coverage") {
            o.coverage = true;
        } else if (a == "--corpus") {
            o.corpusPath = value(i);
        } else if (a == "--waves") {
            o.waves = parseUnsignedFlag(a, value(i));
            if (o.waves == 0)
                throw CliError("--waves needs a value > 0");
            wavesSet = true;
        } else if (a == "--tune") {
            o.tune = true;
        } else if (a == "--checkpoint") {
            o.checkpointPath = value(i);
        } else if (a == "--checkpoint-every") {
            o.checkpointEvery = parseUnsignedFlag(a, value(i));
            if (o.checkpointEvery == 0)
                throw CliError("--checkpoint-every needs a value > 0");
            checkpointEverySet = true;
        } else if (a == "--resume") {
            o.resumePath = value(i);
        } else if (a == "--shard") {
            const std::string &v = value(i);
            const std::size_t slash = v.find('/');
            if (slash == std::string::npos) {
                throw CliError(csprintf("--shard wants i/N (e.g. 0/3), "
                                        "got '%s'", v.c_str()));
            }
            o.shardIndex = parseUnsignedFlag(a, v.substr(0, slash));
            o.shardCount = parseUnsignedFlag(a, v.substr(slash + 1));
            if (o.shardCount == 0 || o.shardIndex >= o.shardCount) {
                throw CliError(csprintf("--shard %s: the index must be "
                                        "< the shard count (0-based)",
                                        v.c_str()));
            }
        } else if (a == "--machine") {
            o.machinePath = value(i);
        } else if (a == "--grid") {
            o.gridPath = value(i);
        } else if (a == "--set") {
            o.sets.push_back(value(i));
        } else if (a == "--workloads") {
            o.workloads = splitCommas(value(i));
        } else if (a == "--configs") {
            o.configNames = splitCommas(value(i));
        } else if (a == "--mixes") {
            o.mixNames = splitCommas(value(i));
        } else if (a == "--predictor") {
            const std::string &p = value(i);
            if (p == "gshare")
                o.predictor = PredictorKind::Gshare;
            else if (p == "tage")
                o.predictor = PredictorKind::Tage;
            else
                throw CliError(csprintf("unknown predictor '%s'",
                                        p.c_str()));
            predictorSet = true;
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

    // Every config name must resolve (fail at parse, not mid-campaign).
    for (const std::string &c : o.configNames)
        (void)configByName(c, o.predictor);

    // Every workload name must be registered (the trace file itself is
    // only read at run time; here only the reference shape is checked).
    for (const std::string &w : o.workloads) {
        if (!workload::known(w)) {
            throw CliError(csprintf("unknown workload '%s' (want a "
                                    "registry name such as gzip, swim, "
                                    "tight-loop, ptrchase, prodcons or "
                                    "interp, or trace:FILE)",
                                    w.c_str()));
        }
    }

    // Every --set override must name a registered parameter and carry a
    // valid value (proven against a scratch machine) — fail at parse,
    // not mid-campaign.
    {
        std::vector<MachineConfig> scratch(1);
        applySpecSets(scratch, o.sets);
    }

    const bool triageFlags = o.failFast || o.snapshotEvery != 0 ||
                             o.budgetSec > 0.0 || !o.reproPath.empty() ||
                             o.bisectExact || o.reduce;
    const bool benchFlags = repsSet || gatePctSet ||
                            !o.baselinePath.empty();
    const bool coverageFlags = o.coverage || !o.corpusPath.empty() ||
                               wavesSet || o.tune;
    const bool specSources = !o.machinePath.empty() || !o.sets.empty();
    const bool gridFlag = !o.gridPath.empty();
    const bool stateFlags = !o.checkpointPath.empty() ||
                            !o.resumePath.empty() || o.shardCount != 0 ||
                            checkpointEverySet;

    if (checkpointEverySet && o.checkpointPath.empty() &&
        o.resumePath.empty()) {
        throw CliError("--checkpoint-every needs --checkpoint or "
                       "--resume");
    }
    // --resume without --checkpoint keeps checkpointing to the file it
    // resumes from: an interrupted resume stays resumable.
    if (!o.resumePath.empty() && o.checkpointPath.empty())
        o.checkpointPath = o.resumePath;

    if (o.mode == "merge") {
        if (o.mergeInputs.empty())
            throw CliError("merge mode needs at least one shard report");
        if (!o.workloads.empty() || !o.configNames.empty() ||
            !o.mixNames.empty() || predictorSet || seedSet || seedsSet ||
            threadsSet || o.instrs != 0 || !o.csvPath.empty() ||
            triageFlags || specSources || gridFlag || stateFlags ||
            benchFlags || coverageFlags) {
            throw CliError("merge mode only takes shard reports and "
                           "--json/--quiet");
        }
        return o;
    }
    if (o.mode == "bench") {
        // Throughput measurement is strictly sequential; more than one
        // worker would time thread scheduling, not the simulator.
        // --threads 1 additionally pins the process to one CPU.
        if (threadsSet && o.threads != 1) {
            throw CliError("bench mode is single-threaded; only "
                           "--threads 1 (which pins the CPU) applies");
        }
        if (seedsSet || !o.mixNames.empty() || !o.csvPath.empty() ||
            triageFlags || specSources || gridFlag || stateFlags ||
            coverageFlags) {
            throw CliError("bench mode takes --workloads/--configs/"
                           "--predictor/--instrs/--seed/--reps/"
                           "--baseline/--gate-pct/--json/--quiet/"
                           "--threads 1 only");
        }
        return o;
    }
    if (o.mode == "spec") {
        if (o.configNames.size() + (o.machinePath.empty() ? 0 : 1) != 1) {
            throw CliError("spec mode needs exactly one machine: one "
                           "--configs preset or one --machine FILE");
        }
        if (!o.workloads.empty() || seedsSet || seedSet ||
            !o.mixNames.empty() || !o.csvPath.empty() || triageFlags ||
            gridFlag || threadsSet || o.instrs != 0 || stateFlags ||
            benchFlags || coverageFlags) {
            throw CliError("spec mode only takes --configs/--machine/"
                           "--set/--predictor/--json/--quiet");
        }
    } else if (o.mode == "trace") {
        if (o.workloads.size() != 1) {
            throw CliError("trace mode dumps exactly one workload "
                           "(--workloads NAME)");
        }
        if (!o.configNames.empty() || specSources || gridFlag ||
            seedsSet || !o.mixNames.empty() || predictorSet ||
            threadsSet || o.instrs != 0 || !o.csvPath.empty() ||
            triageFlags || benchFlags || coverageFlags || stateFlags) {
            throw CliError("trace mode only takes --workloads NAME, "
                           "--seed, --json and --quiet");
        }
    } else if (o.mode == "matrix") {
        if (gridFlag) {
            // A grid document carries its own machines (and usually its
            // own workloads); --workloads stays legal so a machine-only
            // grid can be crossed with an explicit workload list.
            if (!o.configNames.empty() || !o.machinePath.empty()) {
                throw CliError("--grid carries its own machines; "
                               "--configs/--machine do not combine "
                               "with it");
            }
        } else if (o.workloads.empty() ||
                   (o.configNames.empty() && o.machinePath.empty())) {
            throw CliError("matrix mode needs --workloads and a machine "
                           "(--configs and/or --machine), or a --grid "
                           "document");
        }
        if (seedsSet || !o.mixNames.empty())
            throw CliError("--seeds/--mixes only apply to verify mode");
        if (triageFlags)
            throw CliError("--fail-fast/--snapshot-every/--budget-sec/"
                           "--repro/--bisect-exact/--reduce only apply "
                           "to verify mode");
        if (benchFlags)
            throw CliError("--reps/--baseline/--gate-pct only apply to "
                           "bench mode");
        if (coverageFlags)
            throw CliError("--coverage/--corpus/--waves/--tune only "
                           "apply to verify mode");
    } else if (o.mode == "verify") {
        if (o.seeds == 0)
            throw CliError("verify mode needs --seeds > 0");
        if (benchFlags)
            throw CliError("--reps/--baseline/--gate-pct only apply to "
                           "bench mode");
        // --workloads (or a workload-binding --grid) switches verify
        // from fuzzed sweeps to deterministic named-workload runs: a
        // small sequential diffRun loop, so the fuzz-campaign and
        // checkpoint machinery does not apply.
        if (!o.workloads.empty() && gridFlag) {
            throw CliError("--grid binds its own workloads in verify "
                           "mode; --workloads does not combine with it");
        }
        if (gridFlag && (!o.configNames.empty() ||
                         !o.machinePath.empty())) {
            throw CliError("--grid carries its own machines; "
                           "--configs/--machine do not combine with it");
        }
        if (!o.workloads.empty() || gridFlag) {
            if (seedsSet || !o.mixNames.empty()) {
                throw CliError("--seeds/--mixes fuzz programs; they do "
                               "not apply when verifying named "
                               "workloads (--workloads/--grid)");
            }
            if (o.failFast || o.budgetSec > 0.0 || !o.reproPath.empty() ||
                o.bisectExact || o.reduce || coverageFlags) {
                throw CliError("--fail-fast/--budget-sec/--repro/"
                               "--bisect-exact/--reduce/--coverage/"
                               "--corpus/--waves/--tune only apply to "
                               "the fuzzed verify sweep, not "
                               "--workloads/--grid verification");
            }
            if (stateFlags) {
                throw CliError("named-workload verification runs its "
                               "few jobs sequentially; --checkpoint/"
                               "--resume/--shard do not apply");
            }
        }
        if (!o.csvPath.empty())
            throw CliError("--csv does not apply to verify mode "
                           "(use --json)");
        for (const std::string &m : o.mixNames) {
            if (!verify::findMix(m))
                throw CliError(csprintf("unknown mix '%s' (want mixed, "
                                        "branchy, memory, fploop or "
                                        "fpedge)", m.c_str()));
        }
        if (!o.reproPath.empty() &&
            (seedsSet || seedSet || !o.mixNames.empty() ||
             !o.configNames.empty() || predictorSet || specSources)) {
            throw CliError("--repro replays the report's own seed/mix/"
                           "machine spec; --seeds/--seed/--mixes/"
                           "--configs/--machine/--set/--predictor do "
                           "not combine with it");
        }
        if (!o.reproPath.empty() &&
            (o.failFast || o.budgetSec > 0.0 || threadsSet ||
             o.bisectExact || o.reduce || stateFlags || coverageFlags)) {
            throw CliError("--fail-fast/--budget-sec/--threads/"
                           "--bisect-exact/--reduce/--checkpoint/"
                           "--resume/--shard/--coverage/--corpus/"
                           "--waves/--tune do not apply to --repro "
                           "replay (it runs every recorded reproducer "
                           "sequentially)");
        }
        if (coverageFlags && !o.coverage) {
            throw CliError("--corpus/--waves/--tune need --coverage "
                           "(they manage and steer the coverage map)");
        }
        if (o.coverage && stateFlags) {
            throw CliError("--coverage does not combine with "
                           "--checkpoint/--resume/--shard: wave "
                           "retuning changes the job list mid-campaign, "
                           "which checkpoint identity cannot describe");
        }
    } else {
        if (!findScenario(o.mode))
            throw CliError(csprintf("unknown scenario '%s' (see --list)",
                                    o.mode.c_str()));
        // Scenarios fix their own matrix; silently ignoring these
        // flags would mislabel the results the user asked for.
        if (!o.workloads.empty() || !o.configNames.empty() ||
            predictorSet || seedSet || seedsSet || !o.mixNames.empty() ||
            triageFlags || specSources || gridFlag || stateFlags ||
            benchFlags || coverageFlags) {
            throw CliError(csprintf(
                "--workloads/--configs/--machine/--set/--grid/"
                "--predictor/"
                "--seed/--seeds/--mixes/--fail-fast/--snapshot-every/"
                "--budget-sec/--repro/--bisect-exact/--reduce/"
                "--coverage/--corpus/--waves/--tune/"
                "--checkpoint/--resume/--shard/--reps/--baseline/"
                "--gate-pct only apply to matrix, verify, spec or "
                "bench mode, not scenario '%s' (its grid document "
                "ships in examples/grids/)", o.mode.c_str()));
        }
    }
    return o;
}

} // namespace driver
} // namespace msp
