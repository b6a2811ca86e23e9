#include "sim/spec.hh"

#include <cerrno>
#include <cstdlib>

#include "common/logging.hh"
#include "core/sct.hh"
#include "sim/presets.hh"

namespace msp {

// ---- ParamValue ------------------------------------------------------------

ParamValue
ParamValue::ofBool(bool v)
{
    ParamValue pv;
    pv.type = Type::Bool;
    pv.b = v;
    return pv;
}

ParamValue
ParamValue::ofU64(std::uint64_t v)
{
    ParamValue pv;
    pv.type = Type::U64;
    pv.u = v;
    return pv;
}

ParamValue
ParamValue::ofF64(double v)
{
    ParamValue pv;
    pv.type = Type::F64;
    pv.f = v;
    return pv;
}

ParamValue
ParamValue::ofStr(std::string v)
{
    ParamValue pv;
    pv.type = Type::Str;
    pv.s = std::move(v);
    return pv;
}

bool
ParamValue::operator==(const ParamValue &o) const
{
    if (type != o.type)
        return false;
    switch (type) {
      case Type::Bool: return b == o.b;
      case Type::U64:  return u == o.u;
      case Type::F64:  return f == o.f;   // specs round-trip bit-exactly
      case Type::Str:  return s == o.s;
    }
    return false;
}

std::string
paramValueStr(const ParamValue &v)
{
    switch (v.type) {
      case ParamValue::Type::Bool: return v.b ? "true" : "false";
      case ParamValue::Type::U64:  return std::to_string(v.u);
      case ParamValue::Type::F64:  return csprintf("%.17g", v.f);
      case ParamValue::Type::Str:  return v.s;
    }
    return "";
}

// ---- the registry ----------------------------------------------------------

namespace {

/** Registration helpers: one ParamSpec per CoreParams member type. */

ParamSpec
u32Param(const char *key, unsigned CoreParams::*field, std::uint64_t lo,
         std::uint64_t hi, const char *doc)
{
    ParamSpec p;
    p.key = key;
    p.type = ParamValue::Type::U64;
    p.minU = lo;
    p.maxU = hi;
    p.doc = doc;
    p.get = [field](const MachineConfig &m) {
        return ParamValue::ofU64(m.core.*field);
    };
    p.set = [field](MachineConfig &m, const ParamValue &v) {
        m.core.*field = static_cast<unsigned>(v.u);
    };
    return p;
}

ParamSpec
u64Param(const char *key, std::uint64_t CoreParams::*field,
         std::uint64_t lo, std::uint64_t hi, const char *doc)
{
    ParamSpec p;
    p.key = key;
    p.type = ParamValue::Type::U64;
    p.minU = lo;
    p.maxU = hi;
    p.doc = doc;
    p.get = [field](const MachineConfig &m) {
        return ParamValue::ofU64(m.core.*field);
    };
    p.set = [field](MachineConfig &m, const ParamValue &v) {
        m.core.*field = v.u;
    };
    return p;
}

ParamSpec
f64Param(const char *key, double CoreParams::*field, double lo, double hi,
         const char *doc)
{
    ParamSpec p;
    p.key = key;
    p.type = ParamValue::Type::F64;
    p.minF = lo;
    p.maxF = hi;
    p.doc = doc;
    p.get = [field](const MachineConfig &m) {
        return ParamValue::ofF64(m.core.*field);
    };
    p.set = [field](MachineConfig &m, const ParamValue &v) {
        m.core.*field = v.f;
    };
    return p;
}

ParamSpec
boolParam(const char *key, bool CoreParams::*field, const char *doc)
{
    ParamSpec p;
    p.key = key;
    p.type = ParamValue::Type::Bool;
    p.doc = doc;
    p.get = [field](const MachineConfig &m) {
        return ParamValue::ofBool(m.core.*field);
    };
    p.set = [field](MachineConfig &m, const ParamValue &v) {
        m.core.*field = v.b;
    };
    return p;
}

std::vector<ParamSpec>
buildRegistry()
{
    constexpr std::uint64_t u64Max = ~std::uint64_t{0};
    std::vector<ParamSpec> r;

    // -- identity ------------------------------------------------------------
    {
        ParamSpec p;
        p.key = "kind";
        p.type = ParamValue::Type::Str;
        p.choices = {"baseline", "cpr", "msp"};
        p.doc = "microarchitecture family";
        p.get = [](const MachineConfig &m) {
            switch (m.core.kind) {
              case CoreKind::Baseline: return ParamValue::ofStr("baseline");
              case CoreKind::Cpr:      return ParamValue::ofStr("cpr");
              case CoreKind::Msp:      break;
            }
            return ParamValue::ofStr("msp");
        };
        p.set = [](MachineConfig &m, const ParamValue &v) {
            m.core.kind = v.s == "baseline" ? CoreKind::Baseline
                        : v.s == "cpr"      ? CoreKind::Cpr
                                            : CoreKind::Msp;
        };
        r.push_back(std::move(p));
    }
    {
        ParamSpec p;
        p.key = "predictor";
        p.type = ParamValue::Type::Str;
        p.choices = {"gshare", "tage"};
        p.doc = "branch direction predictor";
        p.get = [](const MachineConfig &m) {
            return ParamValue::ofStr(
                m.predictor == PredictorKind::Tage ? "tage" : "gshare");
        };
        p.set = [](MachineConfig &m, const ParamValue &v) {
            m.predictor = v.s == "tage" ? PredictorKind::Tage
                                        : PredictorKind::Gshare;
        };
        r.push_back(std::move(p));
    }

    // -- pipeline widths -----------------------------------------------------
    r.push_back(u32Param("width.fetch", &CoreParams::fetchWidth, 1, 64,
                         "instructions fetched per cycle"));
    r.push_back(u32Param("width.rename", &CoreParams::renameWidth, 1, 64,
                         "instructions renamed per cycle"));
    r.push_back(u32Param("width.issue", &CoreParams::issueWidth, 1, 64,
                         "instructions issued per cycle"));
    r.push_back(u32Param("width.retire", &CoreParams::retireWidth, 1, 64,
                         "instructions retired per cycle (baseline)"));
    r.push_back(u32Param("frontend.depth", &CoreParams::frontendDepth, 1,
                         64, "fetch-to-rename depth in cycles"));

    // -- capacities ----------------------------------------------------------
    r.push_back(u32Param("iq.size", &CoreParams::iqSize, 1, 1u << 16,
                         "issue-queue entries (at most 256 on an MSP "
                         "machine: one RelIQ use-bit row per entry)"));
    r.push_back(u32Param("rob.size", &CoreParams::robSize, 1, 1u << 16,
                         "reorder-buffer entries (baseline)"));
    r.push_back(u32Param("regs.int", &CoreParams::numIntPhys, 1, 1u << 20,
                         "integer physical registers (flat-file cores)"));
    r.push_back(u32Param("regs.fp", &CoreParams::numFpPhys, 1, 1u << 20,
                         "fp physical registers (flat-file cores)"));
    r.push_back(u32Param("ldq.size", &CoreParams::ldqSize, 1, 1u << 16,
                         "load-queue entries"));
    r.push_back(u32Param("sq.l1", &CoreParams::sq1Size, 1, 1u << 16,
                         "L1 store-queue entries"));
    r.push_back(u32Param("sq.l2", &CoreParams::sq2Size, 0, 1u << 20,
                         "L2 store-queue entries (0 = no L2 SQ)"));
    r.push_back(boolParam("sq.infinite", &CoreParams::infiniteSq,
                          "unbounded store queue (ideal MSP)"));

    // -- functional units ----------------------------------------------------
    r.push_back(u32Param("fu.int", &CoreParams::intUnits, 1, 64,
                         "integer functional units"));
    r.push_back(u32Param("fu.fp", &CoreParams::fpUnits, 1, 64,
                         "fp functional units"));
    r.push_back(u32Param("fu.mem", &CoreParams::memUnits, 1, 64,
                         "load/store units"));

    // -- MSP -----------------------------------------------------------------
    r.push_back(u32Param("msp.subprocessors", &CoreParams::regsPerBank, 3,
                         1u << 20,
                         "state processors per logical register (n-SP; "
                         ">= 3: the youngest state commits only once a "
                         "later write renames, and with two a bank "
                         "holding its committed and open versions has no "
                         "register left for that write)"));
    r.push_back(boolParam("msp.infinite_banks", &CoreParams::infiniteBanks,
                          "unbounded banks (ideal MSP)"));
    r.push_back(u32Param("lcs.latency", &CoreParams::lcsLatency, 0, 1024,
                         "LCS propagation delay in cycles (0 for ideal)"));
    r.push_back(boolParam("msp.arbitration", &CoreParams::arbitration,
                          "banked-RF port arbitration pipeline stage"));
    r.push_back(u32Param("rename.same_reg",
                         &CoreParams::maxSameRegRenames, 1, 64,
                         "same-logical-register renames per cycle"));
    r.push_back(u32Param("rename.dests", &CoreParams::maxRenameDests, 1,
                         64, "destination registers renamed per cycle"));

    // -- CPR -----------------------------------------------------------------
    r.push_back(u32Param("cpr.checkpoints", &CoreParams::numCheckpoints,
                         2, 4096,
                         "checkpoint count (>= 2: the oldest checkpoint "
                         "commits only once a younger one exists)"));
    r.push_back(u32Param("cpr.interval", &CoreParams::ckptInterval, 1,
                         1u << 20,
                         "force a checkpoint after this many insts"));
    r.push_back(u32Param("cpr.min_dist", &CoreParams::minCkptDist, 0,
                         1u << 20, "min instructions between checkpoints"));
    r.push_back(f64Param("cpr.sq_scan_penalty",
                         &CoreParams::sqScanPenaltyPerEntry, 0.0, 1e6,
                         "L2 SQ rollback scan cycles per entry"));
    r.push_back(u64Param("cpr.rollback_penalty",
                         &CoreParams::rollbackRestorePenalty, 0,
                         1u << 20, "RAT copy + free-list repair cycles"));

    // -- misc ----------------------------------------------------------------
    r.push_back(boolParam("ldq.release_at_exec",
                          &CoreParams::ldqReleaseAtExec,
                          "release load-queue entries at execution"));
    r.push_back(boolParam("oracle.check", &CoreParams::oracleCheck,
                          "internal lock-step functional comparison"));
    r.push_back(u64Param("recovery.penalty", &CoreParams::recoveryPenalty,
                         0, 1u << 20, "extra cycles on any recovery"));
    r.push_back(u64Param("warmup.instrs", &CoreParams::warmupInstrs, 0,
                         u64Max,
                         "instructions fast-forwarded architecturally "
                         "before timing starts (0 = no warmup)"));
    r.push_back(u64Param("msp.max_intra_state_id",
                         &CoreParams::maxIntraStateId, 1, u64Max,
                         "same-state ordering id limit"));

    // -- verification-only fault injection -----------------------------------
    r.push_back(u64Param("fault.commit_at", &CoreParams::commitFaultAt, 0,
                         u64Max,
                         "flip a result bit at the Nth committed write "
                         "(test-only)"));
    r.push_back(u64Param("fault.observer_at",
                         &CoreParams::observerFaultAt, 0, u64Max,
                         "drop the Nth commit-observer callback "
                         "(test-only)"));
    return r;
}

} // anonymous namespace

const std::vector<ParamSpec> &
machineParams()
{
    static const std::vector<ParamSpec> registry = buildRegistry();
    return registry;
}

const ParamSpec *
findParam(const std::string &key)
{
    for (const ParamSpec &p : machineParams())
        if (p.key == key)
            return &p;
    return nullptr;
}

ParamValue
getParam(const MachineConfig &m, const std::string &key)
{
    const ParamSpec *p = findParam(key);
    if (!p)
        throw SpecError(csprintf("unknown machine parameter '%s'",
                                 key.c_str()));
    return p->get(m);
}

namespace {

std::string
choiceList(const ParamSpec &p)
{
    std::string out;
    for (const std::string &c : p.choices) {
        if (!out.empty())
            out += "|";
        out += c;
    }
    return out;
}

/** Range/choice validation shared by setParam and the JSON parser. */
void
validate(const ParamSpec &p, const ParamValue &v)
{
    switch (p.type) {
      case ParamValue::Type::Bool:
        break;
      case ParamValue::Type::U64:
        if (v.u < p.minU || v.u > p.maxU) {
            throw SpecError(csprintf(
                "%s: %llu out of range [%llu, %llu]", p.key.c_str(),
                static_cast<unsigned long long>(v.u),
                static_cast<unsigned long long>(p.minU),
                static_cast<unsigned long long>(p.maxU)));
        }
        break;
      case ParamValue::Type::F64:
        if (!(v.f >= p.minF && v.f <= p.maxF)) {   // rejects NaN too
            throw SpecError(csprintf("%s: %g out of range [%g, %g]",
                                     p.key.c_str(), v.f, p.minF, p.maxF));
        }
        break;
      case ParamValue::Type::Str: {
        for (const std::string &c : p.choices)
            if (v.s == c)
                return;
        throw SpecError(csprintf("%s: '%s' is not one of %s",
                                 p.key.c_str(), v.s.c_str(),
                                 choiceList(p).c_str()));
      }
    }
}

const char *
typeName(ParamValue::Type t)
{
    switch (t) {
      case ParamValue::Type::Bool: return "bool";
      case ParamValue::Type::U64:  return "unsigned integer";
      case ParamValue::Type::F64:  return "number";
      case ParamValue::Type::Str:  return "string";
    }
    return "?";
}

/** Parse @p text into @p p's type; throws SpecError naming the key. */
ParamValue
valueFromText(const ParamSpec &p, const std::string &text)
{
    const char *begin = text.c_str();
    char *end = nullptr;
    switch (p.type) {
      case ParamValue::Type::Bool:
        if (text == "true")
            return ParamValue::ofBool(true);
        if (text == "false")
            return ParamValue::ofBool(false);
        throw SpecError(csprintf("%s: '%s' is not a bool (true|false)",
                                 p.key.c_str(), text.c_str()));
      case ParamValue::Type::U64: {
        if (text.empty() || text[0] == '-')
            throw SpecError(csprintf("%s: '%s' is not an %s",
                                     p.key.c_str(), text.c_str(),
                                     typeName(p.type)));
        errno = 0;
        const std::uint64_t u = std::strtoull(begin, &end, 10);
        if (end != begin + text.size() || errno == ERANGE)
            throw SpecError(csprintf("%s: '%s' is not an %s",
                                     p.key.c_str(), text.c_str(),
                                     typeName(p.type)));
        return ParamValue::ofU64(u);
      }
      case ParamValue::Type::F64: {
        const double f = std::strtod(begin, &end);
        if (text.empty() || end != begin + text.size())
            throw SpecError(csprintf("%s: '%s' is not a %s",
                                     p.key.c_str(), text.c_str(),
                                     typeName(p.type)));
        return ParamValue::ofF64(f);
      }
      case ParamValue::Type::Str:
        return ParamValue::ofStr(text);
    }
    throw SpecError(p.key + ": unreachable");
}

} // anonymous namespace

void
setParam(MachineConfig &m, const std::string &key, const ParamValue &v)
{
    const ParamSpec *p = findParam(key);
    if (!p)
        throw SpecError(csprintf("unknown machine parameter '%s'",
                                 key.c_str()));
    if (v.type != p->type) {
        throw SpecError(csprintf("%s: expected %s, got %s", key.c_str(),
                                 typeName(p->type), typeName(v.type)));
    }
    validate(*p, v);
    p->set(m, v);
}

void
setParamFromString(MachineConfig &m, const std::string &key,
                   const std::string &value)
{
    const ParamSpec *p = findParam(key);
    if (!p)
        throw SpecError(csprintf("unknown machine parameter '%s'",
                                 key.c_str()));
    const ParamValue v = valueFromText(*p, value);
    validate(*p, v);
    p->set(m, v);
}

void
checkSpec(const MachineConfig &m)
{
    if (m.core.kind == CoreKind::Msp && m.core.iqSize > maxIqSlots) {
        throw SpecError(csprintf("iq.size: %u exceeds the %u RelIQ rows "
                                 "of an MSP machine (kind msp)",
                                 m.core.iqSize, maxIqSlots));
    }
}

bool
sameSpec(const MachineConfig &a, const MachineConfig &b)
{
    for (const ParamSpec &p : machineParams())
        if (p.get(a) != p.get(b))
            return false;
    return true;
}

// ---- serialisation ---------------------------------------------------------

namespace {

std::string
jsonStr(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) < 0x20)
            out += csprintf("\\u%04x", c);
        else
            out += c;
    }
    out += '"';
    return out;
}

std::string
jsonValue(const ParamValue &v)
{
    return v.type == ParamValue::Type::Str ? jsonStr(v.s)
                                           : paramValueStr(v);
}

} // anonymous namespace

std::string
specToJson(const MachineConfig &m)
{
    std::string out = "{";
    const std::string base = presetNameFor(m);
    if (!base.empty())
        out += "\"base\": " + jsonStr(base) + ", ";
    out += "\"label\": " + jsonStr(m.name);
    for (const ParamSpec &p : machineParams()) {
        out += ", ";
        out += jsonStr(p.key) + ": " + jsonValue(p.get(m));
    }
    out += "}";
    return out;
}

MachineConfig
specFromJson(const json::Value &doc, PredictorKind defaultPredictor)
{
    if (!doc.isObject())
        throw SpecError("machine spec: expected a JSON object");
    // Accept a wrapper document {"machine": {...}}.
    const json::Value *spec = &doc;
    if (doc.keys.size() == 1 && doc.keys[0] == "machine" &&
        doc.items[0].isObject()) {
        spec = &doc.items[0];
    }

    MachineConfig m;
    m.predictor = defaultPredictor;

    // "base" resolves first regardless of position, so parameter keys
    // always override the preset. (Each key appears once: the parser
    // rejects duplicates.)
    if (const json::Value *base = spec->find("base")) {
        if (base->type != json::Value::Type::String)
            throw SpecError("base: expected a preset name string");
        m = presetByName(base->text, defaultPredictor);
    }
    std::string label;
    bool haveLabel = false;
    for (std::size_t i = 0; i < spec->keys.size(); ++i) {
        const std::string &key = spec->keys[i];
        const json::Value &v = spec->items[i];
        if (v.isObject() || v.isArray()) {
            throw SpecError(csprintf("machine spec: key '%s' must not "
                                     "hold a nested value", key.c_str()));
        }
        const bool quoted = v.type == json::Value::Type::String;
        if (key == "base")
            continue;
        if (key == "label") {
            if (!quoted)
                throw SpecError("label: expected a string");
            label = v.text;
            haveLabel = true;
            continue;
        }
        const ParamSpec *p = findParam(key);
        if (!p)
            throw SpecError(csprintf("unknown machine parameter '%s'",
                                     key.c_str()));
        if (p->type == ParamValue::Type::Str) {
            if (!quoted)
                throw SpecError(csprintf("%s: expected a string (%s)",
                                         p->key.c_str(),
                                         choiceList(*p).c_str()));
        } else if (quoted) {
            throw SpecError(csprintf("%s: expected %s, got a string",
                                     p->key.c_str(), typeName(p->type)));
        }
        const ParamValue pv = valueFromText(*p, v.text);
        validate(*p, pv);
        p->set(m, pv);
    }

    m.name = haveLabel ? label : describeSpec(m);
    return m;
}

MachineConfig
specFromJson(const std::string &json, PredictorKind defaultPredictor)
{
    json::Value doc;
    try {
        doc = json::parse(json);
    } catch (const json::JsonError &e) {
        throw SpecError(std::string("machine spec: ") + e.what());
    }
    return specFromJson(doc, defaultPredictor);
}

// ---- diffing ---------------------------------------------------------------

std::vector<SpecDelta>
specDiff(const MachineConfig &m, const MachineConfig &base)
{
    std::vector<SpecDelta> deltas;
    for (const ParamSpec &p : machineParams()) {
        const ParamValue a = p.get(m);
        const ParamValue b = p.get(base);
        if (a != b)
            deltas.push_back({p.key, paramValueStr(a), paramValueStr(b)});
    }
    return deltas;
}

std::pair<std::string, MachineConfig>
nearestPreset(const MachineConfig &m)
{
    const CoreParams &c = m.core;
    switch (c.kind) {
      case CoreKind::Baseline:
        return {"baseline", baselineConfig(m.predictor)};
      case CoreKind::Cpr:
        return {"cpr", cprConfig(m.predictor)};
      case CoreKind::Msp:
        break;
    }
    if (c.infiniteBanks)
        return {"ideal", idealMspConfig(m.predictor)};
    const unsigned n = c.regsPerBank ? c.regsPerBank : 1;
    return {csprintf("%usp%s", n, c.arbitration ? "" : "-noarb"),
            nspConfig(n, m.predictor, c.arbitration)};
}

std::string
describeSpec(const MachineConfig &m)
{
    const auto [name, base] = nearestPreset(m);
    std::string out = name;
    for (const SpecDelta &d : specDiff(m, base))
        out += "+" + d.key + "=" + d.value;
    return out;
}

std::string
specDiffReport(const MachineConfig &m)
{
    const auto [name, base] = nearestPreset(m);
    const std::vector<SpecDelta> deltas = specDiff(m, base);
    std::string out = csprintf("machine '%s'", m.name.c_str());
    if (deltas.empty()) {
        out += csprintf(" = preset %s (exact)\n", name.c_str());
        return out;
    }
    out += csprintf(" = preset %s with %zu override(s):\n", name.c_str(),
                    deltas.size());
    for (const SpecDelta &d : deltas) {
        out += csprintf("  %-24s = %s (preset: %s)\n", d.key.c_str(),
                        d.value.c_str(), d.baseValue.c_str());
    }
    return out;
}

} // namespace msp
