/**
 * @file
 * MachineSpec — the introspectable, fully-serialisable machine
 * configuration API.
 *
 * Every CoreParams/MachineConfig knob is registered exactly once with a
 * dotted name (e.g. "cpr.checkpoints", "msp.subprocessors",
 * "lcs.latency", "predictor"), its type, and its valid range. The
 * registry gives, generically over all parameters:
 *
 *  - JSON serialise/deserialise with validation errors that name the
 *    offending key (specToJson / specFromJson),
 *  - string-keyed get/set for CLI overrides (`--set key=value`) and
 *    `--machine FILE` config files (setParamFromString),
 *  - label-blind structural equality (sameSpec) and diff-based pretty
 *    printing against the nearest preset baseline (specDiff,
 *    describeSpec, specDiffReport).
 *
 * Presets (sim/presets.hh) are named MachineSpecs resolved through
 * this registry; divergence reproducers (verify/) serialise the
 * complete spec so *any* machine — including ablation-style custom
 * configs no preset name can express — replays bit-identically.
 *
 * Keys are emitted in registration order everywhere, so serialised
 * specs diff stably across runs and CI.
 */

#ifndef MSPLIB_SIM_SPEC_HH
#define MSPLIB_SIM_SPEC_HH

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/json.hh"
#include "sim/machine.hh"

namespace msp {

/** A user error in a machine spec (unknown key, bad value, bad JSON). */
struct SpecError : std::runtime_error
{
    using std::runtime_error::runtime_error;
};

/** Typed value of one machine parameter. */
struct ParamValue
{
    enum class Type { Bool, U64, F64, Str };

    Type type = Type::U64;
    bool b = false;
    std::uint64_t u = 0;
    double f = 0.0;
    std::string s;

    static ParamValue ofBool(bool v);
    static ParamValue ofU64(std::uint64_t v);
    static ParamValue ofF64(double v);
    static ParamValue ofStr(std::string v);

    bool operator==(const ParamValue &o) const;
    bool operator!=(const ParamValue &o) const { return !(*this == o); }
};

/** One registered machine parameter: name, type, range, accessors. */
struct ParamSpec
{
    std::string key;           ///< dotted name, e.g. "cpr.checkpoints"
    ParamValue::Type type = ParamValue::Type::U64;

    // Valid range (inclusive) for U64 / F64 parameters.
    std::uint64_t minU = 0, maxU = 0;
    double minF = 0.0, maxF = 0.0;

    /** Permitted values of a Str (enum) parameter. */
    std::vector<std::string> choices;

    std::string doc;           ///< one-line description

    std::function<ParamValue(const MachineConfig &)> get;
    std::function<void(MachineConfig &, const ParamValue &)> set;
};

/** All registered parameters, in registration (= serialisation) order. */
const std::vector<ParamSpec> &machineParams();

/** Look up a parameter by dotted key; nullptr when unknown. */
const ParamSpec *findParam(const std::string &key);

/** Read one parameter. @throws SpecError on an unknown key. */
ParamValue getParam(const MachineConfig &m, const std::string &key);

/**
 * Set one parameter from a typed value, validating type and range.
 * @throws SpecError naming the key on any violation.
 */
void setParam(MachineConfig &m, const std::string &key,
              const ParamValue &v);

/**
 * Set one parameter from its text form ("3", "0.125", "true", "tage").
 * This is the `--set key=value` entry point.
 * @throws SpecError naming the key on unknown keys, type mismatches
 *         and out-of-range values.
 */
void setParamFromString(MachineConfig &m, const std::string &key,
                        const std::string &value);

/**
 * Check the constraints between parameters that no single key's range
 * can express: an MSP machine's IQ is at most maxIqSlots (256) entries,
 * the rows of its RelIQ use-bit matrix. Call it once a spec is
 * complete; setParam checks one key at a time, in any order.
 * @throws SpecError naming the key on any violation.
 */
void checkSpec(const MachineConfig &m);

/** Canonical text form of a value (bit-exact for doubles). */
std::string paramValueStr(const ParamValue &v);

/**
 * Structural equality over every registered parameter. The cosmetic
 * label (MachineConfig::name) is deliberately not a parameter, so two
 * machines that simulate identically compare equal regardless of what
 * they are called.
 */
bool sameSpec(const MachineConfig &a, const MachineConfig &b);

/**
 * Serialise the complete spec as one JSON object, keys in registration
 * order: {"base": "<preset>", "label": "...", "kind": ..., ...}.
 * "base" (the matching preset name, omitted when none matches) and
 * "label" are cosmetic; every registered parameter follows, so parsing
 * never depends on preset resolution.
 */
std::string specToJson(const MachineConfig &m);

/**
 * Parse a machine spec: either a flat spec object, or a document whose
 * top level carries it under a "machine" key. Reserved keys: "base"
 * (start from this preset instead of the defaults) and "label". All
 * other keys must be registered parameters; unknown keys, type
 * mismatches, out-of-range values and JSON syntax errors (duplicate
 * keys and trailing content included) throw SpecError naming the
 * problem. When no label is given the machine is named by
 * describeSpec().
 *
 * @p defaultPredictor seeds the machine (and any "base" preset) for
 * documents that do not set the "predictor" key themselves — the CLI
 * passes --predictor here so partial spec files honour it; a full
 * dump always carries its own "predictor" and is unaffected.
 */
MachineConfig specFromJson(const std::string &json,
                           PredictorKind defaultPredictor =
                               PredictorKind::Gshare);

/** specFromJson over an already-parsed document (or nested object). */
MachineConfig specFromJson(const json::Value &doc,
                           PredictorKind defaultPredictor);

/** One differing parameter between a spec and its baseline. */
struct SpecDelta
{
    std::string key;
    std::string value;      ///< the spec's value (text form)
    std::string baseValue;  ///< the baseline's value (text form)
};

/** Parameters of @p m that differ from @p base, registration order. */
std::vector<SpecDelta> specDiff(const MachineConfig &m,
                                const MachineConfig &base);

/**
 * The preset family @p m belongs to by its identity fields (kind,
 * banking), as a (CLI name, rebuilt config) pair — the baseline that
 * diff displays compare against. Unlike presetNameFor this never
 * fails: a custom ablation machine maps to its nearest family preset.
 */
std::pair<std::string, MachineConfig> nearestPreset(const MachineConfig &m);

/**
 * Compact human-readable identity: the exact preset name when one
 * matches ("16sp"), else the nearest preset plus its overrides in
 * registration order ("16sp+msp.subprocessors=24+lcs.latency=3").
 */
std::string describeSpec(const MachineConfig &m);

/**
 * Multi-line "spec vs preset baseline" report: the nearest preset and
 * one line per override with both values; "exact preset" when clean.
 */
std::string specDiffReport(const MachineConfig &m);

} // namespace msp

#endif // MSPLIB_SIM_SPEC_HH
