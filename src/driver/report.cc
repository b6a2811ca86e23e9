#include "driver/report.hh"

#include <cstdio>

#include "common/json.hh"
#include "common/logging.hh"
#include "sim/presets.hh"
#include "sim/spec.hh"

namespace msp {
namespace driver {

namespace {

/**
 * The flat per-job record shared by both serialisers. Fields are
 * emitted in registration order here (and the embedded machine spec in
 * sim/spec.hh registration order), so reports diff stably run-to-run.
 */
struct Field
{
    const char *name;
    enum { Str, U64, F64, Json } kind;   ///< Json: raw, JSON-only
    std::string s;
    std::uint64_t u = 0;
    double f = 0.0;
};

std::vector<Field>
fieldsOf(const JobResult &jr, bool withMachine)
{
    const RunResult &r = jr.result;
    auto str = [](const char *n, std::string v) {
        return Field{n, Field::Str, std::move(v)};
    };
    auto u64 = [](const char *n, std::uint64_t v) {
        Field f{n, Field::U64};
        f.u = v;
        return f;
    };
    auto f64 = [](const char *n, double v) {
        Field f{n, Field::F64};
        f.f = v;
        return f;
    };
    auto raw = [](const char *n, std::string v) {
        return Field{n, Field::Json, std::move(v)};
    };
    std::vector<Field> fields = {
        u64("index", jr.index),
        str("scenario", jr.job.scenario),
        str("workload", r.workload),
        str("config", r.config),
        // The complete machine spec, not just its display name: any
        // job in a JSON report can be rebuilt exactly (feed the object
        // to `msp_sim ... --machine FILE`). JSON-only — rendering it
        // per row would be wasted work on the flat CSV path.
        withMachine ? raw("machine", specToJson(jr.job.config))
                    : Field{"machine", Field::Json, ""},
        str("predictor", predictorName(jr.job.config.predictor)),
        u64("seed", jr.job.seed),
        u64("max_insts",
            jr.job.maxInsts ? jr.job.maxInsts : defaultInstBudget),
    };
    for (const RunCounter &c : runCounters) {
        if (!c.reported)
            continue;
        fields.push_back(u64(c.name, r.*c.member));
        // Each derived ratio follows the counter it divides.
        if (c.member == &RunResult::committed)
            fields.push_back(f64("ipc", r.ipc()));
        else if (c.member == &RunResult::mispredicts)
            fields.push_back(f64("mispredict_rate", r.mispredictRate()));
    }
    return fields;
}

std::string
numStr(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.6g", v);
    return buf;
}

} // namespace

std::string
jsonEscape(const std::string &s)
{
    return json::escape(s);
}

std::string
toJson(const std::vector<JobResult> &results)
{
    std::string out = "{\n  \"jobs\": [";
    std::size_t emitted = 0;
    for (std::size_t i = 0; i < results.size(); ++i) {
        // Jobs an interrupted campaign never ran have no result to
        // report: a partial report carries only completed rows.
        if (!results[i].ran)
            continue;
        out += emitted++ ? ",\n    {" : "\n    {";
        const auto fields = fieldsOf(results[i], true);
        for (std::size_t fi = 0; fi < fields.size(); ++fi) {
            const Field &f = fields[fi];
            out += fi ? ", " : "";
            out += '"';
            out += f.name;
            out += "\": ";
            switch (f.kind) {
              case Field::Str:
                out += '"' + jsonEscape(f.s) + '"';
                break;
              case Field::U64:
                out += std::to_string(f.u);
                break;
              case Field::F64:
                out += numStr(f.f);
                break;
              case Field::Json:
                out += f.s;   // pre-rendered JSON value
                break;
            }
        }
        out += '}';
    }
    out += "\n  ]\n}\n";
    return out;
}

std::string
toCsv(const std::vector<JobResult> &results)
{
    std::string out;
    if (results.empty())
        return out;
    auto csvQuote = [](const std::string &s) {
        // \r counts as a line break to CSV readers just like \n: an
        // unquoted carriage return splits the record.
        if (s.find_first_of(",\"\n\r") == std::string::npos)
            return s;
        std::string q = "\"";
        for (char c : s) {
            if (c == '"')
                q += '"';
            q += c;
        }
        q += '"';
        return q;
    };
    // CSV stays flat: structured (Json) fields are JSON-report-only
    // and not even rendered for this path.
    const auto head = fieldsOf(results.front(), false);
    bool first = true;
    for (const Field &f : head) {
        if (f.kind == Field::Json)
            continue;
        out += first ? "" : ",";
        out += f.name;
        first = false;
    }
    out += '\n';
    for (const auto &jr : results) {
        if (!jr.ran)
            continue;
        const auto fields = fieldsOf(jr, false);
        first = true;
        for (const Field &f : fields) {
            if (f.kind == Field::Json)
                continue;
            out += first ? "" : ",";
            switch (f.kind) {
              case Field::Str: out += csvQuote(f.s); break;
              case Field::U64: out += std::to_string(f.u); break;
              case Field::F64: out += numStr(f.f); break;
              case Field::Json: break;
            }
            first = false;
        }
        out += '\n';
    }
    return out;
}

void
writeFile(const std::string &path, const std::string &content)
{
    // Write-then-rename: the temporary lives in the same directory so
    // the rename is atomic on POSIX filesystems. A crash mid-write
    // leaves only the .tmp file behind; the destination is either the
    // complete old document or the complete new one, never a torn mix.
    const std::string tmp = path + ".tmp";
    std::FILE *f = std::fopen(tmp.c_str(), "w");
    if (!f)
        msp_fatal("cannot open %s for writing", tmp.c_str());
    const std::size_t n =
        std::fwrite(content.data(), 1, content.size(), f);
    if (std::fclose(f) != 0 || n != content.size()) {
        std::remove(tmp.c_str());
        msp_fatal("short write to %s", tmp.c_str());
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        msp_fatal("cannot rename %s into place", tmp.c_str());
    }
}

bool
tryReadFile(const std::string &path, std::string &out)
{
    std::FILE *f = std::fopen(path.c_str(), "r");
    if (!f)
        return false;
    out.clear();
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        out.append(buf, n);
    const bool bad = std::ferror(f);
    std::fclose(f);
    return !bad;
}

std::string
readFile(const std::string &path)
{
    std::string content;
    if (!tryReadFile(path, content))
        msp_fatal("cannot read %s", path.c_str());
    return content;
}

} // namespace driver
} // namespace msp
