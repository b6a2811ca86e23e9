#include "driver/bench.hh"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <thread>

#ifdef __linux__
#include <sys/utsname.h>
#endif

#include "common/json.hh"
#include "common/logging.hh"
#include "common/parse.hh"
#include "sim/presets.hh"
#include "workload/registry.hh"

namespace msp {
namespace driver {

namespace {

/** The Table I ladder with both reference machines — the default and
 *  the set the committed BENCH_throughput.json baseline carries. */
const std::vector<std::string> &
defaultBenchConfigs()
{
    static const std::vector<std::string> v = {
        "baseline", "cpr", "ideal", "4sp", "8sp", "16sp",
    };
    return v;
}

/** Two int + two fp benchmarks: exercises every FU class and both
 *  memory behaviours (strided and pointer-chasing). */
const std::vector<std::string> &
defaultBenchWorkloads()
{
    static const std::vector<std::string> v = {
        "gzip", "gcc", "swim", "mcf",
    };
    return v;
}

/** First "key: value" line of /proc/cpuinfo matching @p key. */
std::string
cpuinfoField(const char *key)
{
    std::FILE *f = std::fopen("/proc/cpuinfo", "r");
    if (!f)
        return "";
    std::string found;
    char line[512];
    while (std::fgets(line, sizeof line, f)) {
        std::string s(line);
        if (s.rfind(key, 0) != 0)
            continue;
        const std::size_t colon = s.find(':');
        if (colon == std::string::npos)
            continue;
        std::size_t b = colon + 1;
        while (b < s.size() && std::isspace(static_cast<unsigned char>(s[b])))
            ++b;
        std::size_t e = s.size();
        while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])))
            --e;
        found = s.substr(b, e - b);
        break;
    }
    std::fclose(f);
    return found;
}

std::string
numToJson(double v)
{
    // Enough digits to round-trip a double's integer and ratio uses
    // here; trailing zeros are harmless in a report.
    return csprintf("%.6f", v);
}

} // namespace

double
BenchConfigResult::bestWallSec() const
{
    double best = 0.0;
    for (double w : wallSec)
        if (best == 0.0 || w < best)
            best = w;
    return best;
}

double
BenchConfigResult::minstrPerSec() const
{
    const double w = bestWallSec();
    return w <= 0.0 ? 0.0 : static_cast<double>(committed) / w / 1e6;
}

double
BenchConfigResult::mcyclesPerSec() const
{
    const double w = bestWallSec();
    return w <= 0.0 ? 0.0 : static_cast<double>(cycles) / w / 1e6;
}

std::string
hostFingerprint()
{
    std::string arch = "unknown";
#ifdef __linux__
    struct utsname un{};
    if (::uname(&un) == 0)
        arch = un.machine;
#endif
    std::string model = cpuinfoField("model name");
    if (model.empty())
        model = "unknown-cpu";
    const unsigned threads = std::thread::hardware_concurrency();
    return csprintf("%s/%s/%ut", arch.c_str(), model.c_str(), threads);
}

bool
sanitizedBuild()
{
    bool s = false;
#if defined(MSP_SANITIZED_BUILD)
    s = true;
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    s = true;
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
    s = true;
#endif
#endif
    return s;
}

BenchReport
runThroughputBench(const BenchOptions &o, const BenchProgressFn &progress)
{
    const std::vector<std::string> &configNames =
        o.configNames.empty() ? defaultBenchConfigs() : o.configNames;
    const std::vector<std::string> &workloads =
        o.workloads.empty() ? defaultBenchWorkloads() : o.workloads;
    msp_assert(o.reps > 0, "bench needs at least one repetition");
    msp_assert(o.instrs > 0, "bench needs a non-zero instruction budget");

    // Resolve presets up front (SpecError before any timing) and
    // synthesise each workload once — program build time is setup, not
    // simulation throughput.
    std::vector<MachineConfig> configs;
    for (const std::string &n : configNames)
        configs.push_back(presetByName(n, o.predictor));
    std::vector<Program> programs;
    for (const std::string &w : workloads)
        programs.push_back(workload::build(w, o.seed));

    BenchReport r;
    r.host = hostFingerprint();
    r.sanitized = sanitizedBuild();
    r.predictor = predictorName(o.predictor);
    r.instrs = o.instrs;
    r.reps = o.reps;
    r.seed = o.seed;
    r.workloads = workloads;
    for (const std::string &n : configNames) {
        BenchConfigResult c;
        c.config = n;
        r.configs.push_back(std::move(c));
    }

    using clock = std::chrono::steady_clock;
    for (unsigned rep = 0; rep < o.reps; ++rep) {
        for (std::size_t ci = 0; ci < configs.size(); ++ci) {
            BenchConfigResult &out = r.configs[ci];
            std::uint64_t committed = 0, cycles = 0;
            const clock::time_point t0 = clock::now();
            for (const Program &prog : programs) {
                Machine m(configs[ci], prog);
                const RunResult res = m.run(o.instrs);
                committed += res.committed;
                cycles += res.cycles;
            }
            const std::chrono::duration<double> wall = clock::now() - t0;

            if (rep == 0) {
                out.committed = committed;
                out.cycles = cycles;
            } else if (out.committed != committed ||
                       out.cycles != cycles) {
                // Timing a non-deterministic simulator measures
                // nothing; this is a broken build, not a slow one.
                msp_fatal("bench: %s repetition %u diverged "
                          "(committed %llu vs %llu, cycles %llu vs "
                          "%llu) — simulator is non-deterministic",
                          out.config.c_str(), rep,
                          static_cast<unsigned long long>(out.committed),
                          static_cast<unsigned long long>(committed),
                          static_cast<unsigned long long>(out.cycles),
                          static_cast<unsigned long long>(cycles));
            }
            out.wallSec.push_back(wall.count());
            if (progress)
                progress(out.config, rep + 1, o.reps, wall.count());
        }
    }
    return r;
}

std::string
benchReportToJson(const BenchReport &r)
{
    std::string s;
    s += "{\n";
    s += csprintf("  \"schema\": \"%s\",\n", benchSchemaId);
    s += csprintf("  \"host\": \"%s\",\n",
                  json::escape(r.host).c_str());
    s += csprintf("  \"sanitized\": %s,\n",
                  r.sanitized ? "true" : "false");
    s += csprintf("  \"predictor\": \"%s\",\n",
                  json::escape(r.predictor).c_str());
    s += csprintf("  \"instrs\": %llu,\n",
                  static_cast<unsigned long long>(r.instrs));
    s += csprintf("  \"reps\": %u,\n", r.reps);
    s += csprintf("  \"seed\": %llu,\n",
                  static_cast<unsigned long long>(r.seed));
    s += "  \"workloads\": [";
    for (std::size_t i = 0; i < r.workloads.size(); ++i) {
        s += csprintf("%s\"%s\"", i ? ", " : "",
                      json::escape(r.workloads[i]).c_str());
    }
    s += "],\n";
    s += "  \"configs\": [\n";
    for (std::size_t i = 0; i < r.configs.size(); ++i) {
        const BenchConfigResult &c = r.configs[i];
        s += "    {\n";
        s += csprintf("      \"config\": \"%s\",\n",
                      json::escape(c.config).c_str());
        s += csprintf("      \"committed\": %llu,\n",
                      static_cast<unsigned long long>(c.committed));
        s += csprintf("      \"cycles\": %llu,\n",
                      static_cast<unsigned long long>(c.cycles));
        s += "      \"wall_sec\": [";
        for (std::size_t j = 0; j < c.wallSec.size(); ++j)
            s += csprintf("%s%s", j ? ", " : "",
                          numToJson(c.wallSec[j]).c_str());
        s += "],\n";
        s += csprintf("      \"best_wall_sec\": %s,\n",
                      numToJson(c.bestWallSec()).c_str());
        s += csprintf("      \"minstr_per_sec\": %s,\n",
                      numToJson(c.minstrPerSec()).c_str());
        s += csprintf("      \"mcycles_per_sec\": %s\n",
                      numToJson(c.mcyclesPerSec()).c_str());
        s += i + 1 < r.configs.size() ? "    },\n" : "    }\n";
    }
    s += "  ]\n";
    s += "}\n";
    return s;
}

BenchReport
benchReportFromJson(const std::string &text)
{
    const json::Value doc = json::parse(text);
    const std::string schema = json::getStr(doc, "schema");
    if (schema != benchSchemaId) {
        throw json::JsonError(csprintf(
            "not a bench report (schema '%s', want '%s')",
            schema.c_str(), benchSchemaId));
    }
    BenchReport r;
    r.host = json::getStr(doc, "host");
    r.sanitized = json::getBool(doc, "sanitized", false);
    r.predictor = json::getStr(doc, "predictor");
    r.instrs = json::getU64(doc, "instrs", 0);
    r.reps = static_cast<unsigned>(json::getU64(doc, "reps", 0));
    r.seed = json::getU64(doc, "seed", 1);

    if (const json::Value *w = json::getArray(doc, "workloads"))
        for (const json::Value &name : w->items)
            r.workloads.push_back(json::asStr(name, "workload name"));

    const json::Value *configs = json::getArray(doc, "configs");
    if (!configs)
        throw json::JsonError("bench report has no \"configs\" array");
    for (const json::Value &obj : configs->items) {
        BenchConfigResult c;
        c.config = json::getStr(obj, "config");
        if (c.config.empty())
            throw json::JsonError("bench config entry without a name");
        c.committed = json::getU64(obj, "committed", 0);
        c.cycles = json::getU64(obj, "cycles", 0);
        if (const json::Value *walls = json::getArray(obj, "wall_sec"))
            for (const json::Value &w : walls->items)
                c.wallSec.push_back(json::asNum(w, "wall_sec entry"));
        r.configs.push_back(std::move(c));
    }
    if (r.configs.empty())
        throw json::JsonError("bench report has no configurations");
    return r;
}

namespace {

/** The configuration named @p name in @p r, or nullptr. */
const BenchConfigResult *
findConfig(const BenchReport &r, const std::string &name)
{
    for (const BenchConfigResult &c : r.configs)
        if (c.config == name)
            return &c;
    return nullptr;
}

} // anonymous namespace

std::vector<std::string>
benchRegressions(const BenchReport &baseline, const BenchReport &current,
                 double pct)
{
    std::vector<std::string> out;
    for (const BenchConfigResult &cur : current.configs) {
        const BenchConfigResult *base = findConfig(baseline, cur.config);
        if (!base)
            continue;
        const double was = base->minstrPerSec();
        const double now = cur.minstrPerSec();
        if (was <= 0.0 || now <= 0.0)
            continue;
        const double floor = was * (1.0 - pct / 100.0);
        if (now < floor) {
            out.push_back(csprintf(
                "%s: %.2f -> %.2f MInstr/s (-%.1f%%, gate %.0f%%)",
                cur.config.c_str(), was, now, (was - now) / was * 100.0,
                pct));
        }
    }
    return out;
}

std::optional<std::vector<std::string>>
benchCountDrift(const BenchReport &baseline, const BenchReport &current)
{
    if (baseline.instrs != current.instrs ||
        baseline.seed != current.seed ||
        baseline.predictor != current.predictor ||
        baseline.workloads != current.workloads)
        return std::nullopt;
    std::vector<std::string> out;
    for (const BenchConfigResult &cur : current.configs) {
        const BenchConfigResult *base = findConfig(baseline, cur.config);
        if (!base)
            continue;
        if (cur.committed != base->committed || cur.cycles != base->cycles) {
            out.push_back(csprintf(
                "%s: committed %llu -> %llu, cycles %llu -> %llu",
                cur.config.c_str(),
                static_cast<unsigned long long>(base->committed),
                static_cast<unsigned long long>(cur.committed),
                static_cast<unsigned long long>(base->cycles),
                static_cast<unsigned long long>(cur.cycles)));
        }
    }
    return out;
}

} // namespace driver
} // namespace msp
