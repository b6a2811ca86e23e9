#include "sim/grid.hh"

#include <cerrno>
#include <cstdlib>
#include <set>

#include "common/logging.hh"
#include "sim/presets.hh"

namespace msp {
namespace grid {

namespace {

/** One axis element, quoted values kept distinct from raw tokens. */
struct RawValue
{
    std::string text;
    bool quoted = false;
};

struct AxisKey
{
    std::string key;
    std::vector<RawValue> values;
};

struct Axis
{
    bool zip = false;
    std::vector<AxisKey> keys;
};

struct Doc
{
    std::string name;
    std::string labelFormat;
    bool haveLabelFormat = false;
    std::string basePreset;
    bool haveBasePreset = false;
    json::Value baseObject;   ///< flat spec object (Null when absent)
    PredictorKind predictor = PredictorKind::Gshare;
    bool havePredictor = false;
    std::vector<Axis> axes;
};

[[noreturn]] void
failAxis(std::size_t axis, const std::string &what)
{
    throw SpecError(csprintf("grid axis %zu: %s", axis + 1,
                             what.c_str()));
}

[[noreturn]] void
failKey(std::size_t axis, const std::string &key, const std::string &what)
{
    throw SpecError(csprintf("grid axis %zu, key '%s': %s", axis + 1,
                             key.c_str(), what.c_str()));
}

[[noreturn]] void
failElem(std::size_t axis, const std::string &key, std::size_t elem,
         const std::string &what)
{
    throw SpecError(csprintf("grid axis %zu, key '%s', element %zu: %s",
                             axis + 1, key.c_str(), elem,
                             what.c_str()));
}

std::uint64_t
parseSeed(const std::string &text, std::size_t axis, std::size_t elem)
{
    errno = 0;
    char *end = nullptr;
    const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
    if (errno == ERANGE || end != text.c_str() + text.size() ||
        text.empty() || text[0] == '-') {
        failElem(axis, "workload.seed", elem,
                 "expected an unsigned integer, got '" + text + "'");
    }
    return v;
}

/** @p v as a string, or a grid-spec error naming @p what. */
const std::string &
docStr(const json::Value &v, const std::string &what)
{
    if (v.type != json::Value::Type::String)
        throw SpecError("grid spec: " + what + " must be a string");
    return v.text;
}

Axis
parseAxis(const json::Value &obj, std::size_t axisIdx)
{
    if (!obj.isObject())
        failAxis(axisIdx, "expected an object");
    Axis axis;
    for (std::size_t i = 0; i < obj.keys.size(); ++i) {
        const std::string &key = obj.keys[i];
        const json::Value &val = obj.items[i];
        if (key == "mode") {
            const std::string &mode = docStr(val, "axis mode");
            if (mode == "zip")
                axis.zip = true;
            else if (mode != "product")
                failAxis(axisIdx, "unknown mode '" + mode +
                                  "' (want \"product\" or \"zip\")");
        } else if (key == "keys") {
            if (!val.isObject())
                failAxis(axisIdx, "\"keys\" must be an object");
            for (std::size_t k = 0; k < val.keys.size(); ++k) {
                AxisKey ak;
                ak.key = val.keys[k];
                const json::Value &list = val.items[k];
                if (!list.isArray())
                    failKey(axisIdx, ak.key, "expected a list of values");
                for (const json::Value &e : list.items) {
                    if (e.isObject() || e.isArray())
                        failKey(axisIdx, ak.key,
                                "elements must be scalars");
                    ak.values.push_back(
                        {e.text, e.type == json::Value::Type::String});
                }
                axis.keys.push_back(std::move(ak));
            }
        } else {
            failAxis(axisIdx, "unknown axis key '" + key +
                              "' (want \"mode\" or \"keys\")");
        }
    }
    if (axis.keys.empty())
        failAxis(axisIdx, "empty axis (no keys)");
    return axis;
}

Doc
parseDoc(const std::string &text)
{
    json::Value root;
    try {
        root = json::parse(text);
    } catch (const json::JsonError &e) {
        throw SpecError(std::string("grid spec: ") + e.what());
    }
    if (!root.isObject())
        throw SpecError("grid spec: expected a JSON object");
    Doc doc;
    for (std::size_t i = 0; i < root.keys.size(); ++i) {
        const std::string &key = root.keys[i];
        json::Value &val = root.items[i];
        if (key == "name") {
            doc.name = docStr(val, "\"name\"");
        } else if (key == "predictor") {
            const std::string &p = docStr(val, "\"predictor\"");
            if (p == "gshare")
                doc.predictor = PredictorKind::Gshare;
            else if (p == "tage")
                doc.predictor = PredictorKind::Tage;
            else
                throw SpecError("grid spec: unknown predictor '" + p +
                                "' (want gshare or tage)");
            doc.havePredictor = true;
        } else if (key == "base") {
            if (val.isObject()) {
                doc.baseObject = std::move(val);
            } else {
                doc.basePreset = docStr(val, "\"base\"");
                doc.haveBasePreset = true;
            }
        } else if (key == "label_format") {
            doc.labelFormat = docStr(val, "\"label_format\"");
            doc.haveLabelFormat = true;
        } else if (key == "axes") {
            if (!val.isArray())
                throw SpecError("grid spec: \"axes\" must be an array");
            for (const json::Value &axis : val.items)
                doc.axes.push_back(parseAxis(axis, doc.axes.size()));
        } else {
            throw SpecError("grid spec: unknown top-level key '" + key +
                            "'");
        }
    }
    return doc;
}

/**
 * Validate every element of every axis against the spec registry (or
 * the reserved-key rules) before any expansion happens: a bad element
 * fails the whole document up front, naming axis/key/element.
 */
void
validateDoc(const Doc &doc, const MachineConfig &scratchBase)
{
    std::set<std::string> seenKeys;
    bool haveName = false, haveTrace = false;
    for (std::size_t a = 0; a < doc.axes.size(); ++a) {
        const Axis &axis = doc.axes[a];
        std::size_t zipLen = 0;
        for (std::size_t k = 0; k < axis.keys.size(); ++k) {
            const AxisKey &ak = axis.keys[k];
            // "label" fragments may come from several axes; every
            // other key must expand from exactly one place.
            if (ak.key != "label" && !seenKeys.insert(ak.key).second) {
                throw SpecError(csprintf("grid: key '%s' appears in "
                                         "more than one axis",
                                         ak.key.c_str()));
            }
            if (ak.values.empty())
                failKey(a, ak.key, "empty value list");
            if (axis.zip) {
                if (k == 0) {
                    zipLen = ak.values.size();
                } else if (ak.values.size() != zipLen) {
                    failAxis(a, csprintf(
                        "zip keys have unequal lengths ('%s' has %zu, "
                        "'%s' has %zu)", axis.keys[0].key.c_str(),
                        zipLen, ak.key.c_str(), ak.values.size()));
                }
            }
            if (ak.key == "workload.name")
                haveName = true;
            if (ak.key == "workload.trace")
                haveTrace = true;

            for (std::size_t e = 0; e < ak.values.size(); ++e) {
                const RawValue &v = ak.values[e];
                if (ak.key == "base") {
                    if (!v.quoted)
                        failElem(a, ak.key, e,
                                 "expected a preset name string");
                    try {
                        presetByName(v.text, doc.predictor);
                    } catch (const SpecError &err) {
                        failElem(a, ak.key, e, err.what());
                    }
                    continue;
                }
                if (ak.key == "label" || ak.key == "workload.name" ||
                    ak.key == "workload.trace") {
                    if (!v.quoted)
                        failElem(a, ak.key, e, "expected a string");
                    if (ak.key != "label" && v.text.empty())
                        failElem(a, ak.key, e, "empty name");
                    continue;
                }
                if (ak.key == "workload.seed") {
                    if (v.quoted)
                        failElem(a, ak.key, e,
                                 "expected an unsigned integer, got a "
                                 "string");
                    parseSeed(v.text, a, e);
                    continue;
                }
                const ParamSpec *p = findParam(ak.key);
                if (!p)
                    failKey(a, ak.key, "unknown machine parameter");
                if (p->type == ParamValue::Type::Str) {
                    if (!v.quoted)
                        failElem(a, ak.key, e, "expected a string");
                } else if (v.quoted) {
                    failElem(a, ak.key, e, "expected a number or "
                                           "boolean, got a string");
                }
                try {
                    MachineConfig scratch = scratchBase;
                    setParamFromString(scratch, ak.key, v.text);
                } catch (const SpecError &err) {
                    failElem(a, ak.key, e, err.what());
                }
            }
        }
    }
    if (haveName && haveTrace) {
        throw SpecError("grid: both workload.name and workload.trace "
                        "are set; a point binds one workload");
    }
}

/** Elements-per-point contributed by one axis. */
std::size_t
axisCount(const Axis &axis)
{
    if (axis.zip)
        return axis.keys[0].values.size();
    std::size_t n = 1;
    for (const AxisKey &ak : axis.keys)
        n *= ak.values.size();
    return n;
}

/** Element index of key @p k within @p axis at axis position @p idx. */
std::size_t
elemIndex(const Axis &axis, std::size_t k, std::size_t idx)
{
    if (axis.zip)
        return idx;
    // First key slowest: divide out the sizes of all later keys.
    std::size_t stride = 1;
    for (std::size_t j = axis.keys.size(); j-- > k + 1;)
        stride *= axis.keys[j].values.size();
    return (idx / stride) % axis.keys[k].values.size();
}

std::string
formatLabel(const std::string &fmt, const MachineConfig &m,
            const GridPoint &pt)
{
    std::string out;
    for (std::size_t i = 0; i < fmt.size();) {
        if (fmt[i] != '{') {
            out += fmt[i++];
            continue;
        }
        const std::size_t close = fmt.find('}', i);
        if (close == std::string::npos)
            throw SpecError("grid label_format: unterminated '{'");
        const std::string key = fmt.substr(i + 1, close - i - 1);
        if (key == "workload.name") {
            out += pt.workload;
        } else if (key == "workload.seed") {
            out += std::to_string(pt.seed);
        } else {
            // getParam throws SpecError naming the key when unknown.
            out += paramValueStr(getParam(m, key));
        }
        i = close + 1;
    }
    return out;
}

} // anonymous namespace

Grid
expand(const std::string &json, PredictorKind defaultPredictor)
{
    Doc doc = parseDoc(json);
    // A document that names no predictor inherits the caller's (the
    // CLI threads --predictor through here).
    if (!doc.havePredictor)
        doc.predictor = defaultPredictor;
    if (doc.haveBasePreset && doc.basePreset.empty())
        throw SpecError("grid spec: empty base preset name");

    // The document's starting machine: a preset, an inline flat spec
    // object (the --machine file grammar), or the registry defaults.
    MachineConfig docBase;
    bool namedDocBase = false;
    if (doc.baseObject.isObject()) {
        docBase = specFromJson(doc.baseObject, doc.predictor);
        namedDocBase = true;
    } else if (doc.haveBasePreset) {
        docBase = presetByName(doc.basePreset, doc.predictor);
        namedDocBase = true;
    } else {
        docBase.predictor = doc.predictor;
    }

    validateDoc(doc, docBase);

    std::size_t total = 1;
    for (const Axis &axis : doc.axes)
        total *= axisCount(axis);

    Grid grid;
    grid.name = doc.name;
    grid.points.reserve(total);
    for (std::size_t pi = 0; pi < total; ++pi) {
        // Axis positions for this point, first axis slowest.
        std::vector<std::size_t> pos(doc.axes.size());
        {
            std::size_t rest = pi;
            for (std::size_t a = doc.axes.size(); a-- > 0;) {
                const std::size_t n = axisCount(doc.axes[a]);
                pos[a] = rest % n;
                rest /= n;
            }
        }

        // "base" resolves first regardless of which axis carries it,
        // so parameter keys from any axis override the preset — the
        // same rule the flat spec reader applies.
        GridPoint pt;
        MachineConfig m = docBase;
        bool namedStart = namedDocBase;
        for (std::size_t a = 0; a < doc.axes.size(); ++a) {
            for (std::size_t k = 0; k < doc.axes[a].keys.size(); ++k) {
                const AxisKey &ak = doc.axes[a].keys[k];
                if (ak.key != "base")
                    continue;
                const std::size_t e = elemIndex(doc.axes[a], k, pos[a]);
                m = presetByName(ak.values[e].text, doc.predictor);
                namedStart = true;
            }
        }
        const MachineConfig start = m;

        std::string labelParts;
        for (std::size_t a = 0; a < doc.axes.size(); ++a) {
            for (std::size_t k = 0; k < doc.axes[a].keys.size(); ++k) {
                const AxisKey &ak = doc.axes[a].keys[k];
                if (ak.key == "base")
                    continue;
                const std::size_t e = elemIndex(doc.axes[a], k, pos[a]);
                const std::string &text = ak.values[e].text;
                if (ak.key == "label") {
                    if (!labelParts.empty())
                        labelParts += ' ';
                    labelParts += text;
                } else if (ak.key == "workload.name") {
                    pt.workload = text;
                } else if (ak.key == "workload.trace") {
                    pt.workload = "trace:" + text;
                } else if (ak.key == "workload.seed") {
                    pt.seed = parseSeed(text, a, e);
                    pt.hasSeed = true;
                } else {
                    try {
                        setParamFromString(m, ak.key, text);
                    } catch (const SpecError &err) {
                        failElem(a, ak.key, e, err.what());
                    }
                }
            }
        }

        if (doc.haveLabelFormat)
            pt.label = formatLabel(doc.labelFormat, m, pt);
        else if (!labelParts.empty())
            pt.label = labelParts;
        else if (namedStart && sameSpec(m, start))
            pt.label = start.name;
        else
            pt.label = describeSpec(m);
        m.name = pt.label;
        pt.machine = std::move(m);
        grid.points.push_back(std::move(pt));
    }
    return grid;
}

} // namespace grid
} // namespace msp
