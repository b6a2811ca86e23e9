#include "driver/scenario.hh"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>

#include "common/logging.hh"
#include "common/table.hh"
#include "sim/grid.hh"
#include "sim/presets.hh"
#include "workload/spec.hh"

namespace msp {
namespace driver {

std::vector<MachineConfig>
figureLadder(PredictorKind p)
{
    return {
        baselineConfig(p),  cprConfig(p),
        nspConfig(8, p),    nspConfig(16, p), nspConfig(32, p),
        nspConfig(64, p),   nspConfig(128, p),
        idealMspConfig(p),
    };
}

std::uint64_t
top3BankStalls(const RunResult &r)
{
    std::vector<std::uint64_t> v(r.bankStallCycles.begin(),
                                 r.bankStallCycles.end());
    std::sort(v.begin(), v.end(), std::greater<>());
    return v[0] + v[1] + v[2];
}

double
mean(const std::vector<double> &xs)
{
    if (xs.empty())
        return 0.0;
    double s = 0.0;
    for (double x : xs)
        s += x;
    return s / xs.size();
}

namespace {

/**
 * View of a workload-major result matrix (the addMatrix ordering):
 * row = workload, column = config. Row/column labels come from the
 * job table, so custom-program jobs label by job.workload.
 */
struct Grid
{
    std::vector<std::string> workloads;
    std::vector<std::string> configs;
    const std::vector<JobResult> *results = nullptr;

    const RunResult &
    at(std::size_t wi, std::size_t ci) const
    {
        return (*results)[wi * configs.size() + ci].result;
    }

    /** IPC of column @p ci across all rows. */
    std::vector<double>
    ipcColumn(std::size_t ci) const
    {
        std::vector<double> col;
        for (std::size_t wi = 0; wi < workloads.size(); ++wi)
            col.push_back(at(wi, ci).ipc());
        return col;
    }
};

Grid
makeGrid(const std::vector<JobResult> &results)
{
    Grid g;
    g.results = &results;
    // Column labels: configs of the first row (same list every row).
    std::size_t i = 0;
    while (i < results.size() &&
           results[i].job.workload == results[0].job.workload) {
        g.configs.push_back(results[i].job.config.name);
        ++i;
    }
    for (std::size_t wi = 0; wi < results.size(); wi += g.configs.size())
        g.workloads.push_back(results[wi].job.workload);
    msp_assert(g.workloads.size() * g.configs.size() == results.size(),
               "result list is not a full workload-major matrix");
    return g;
}

// ---- Figs. 6-8: the IPC figure ----------------------------------------

void
reportIpcFigure(const std::string &caption,
                const std::vector<JobResult> &results)
{
    const Grid g = makeGrid(results);

    Table t(caption);
    std::vector<std::string> head = {"benchmark"};
    head.insert(head.end(), g.configs.begin(), g.configs.end());
    t.header(head);

    for (std::size_t wi = 0; wi < g.workloads.size(); ++wi) {
        std::vector<std::string> row = {g.workloads[wi]};
        for (std::size_t ci = 0; ci < g.configs.size(); ++ci)
            row.push_back(Table::num(g.at(wi, ci).ipc(), 3));
        t.row(row);
    }
    std::vector<std::string> avg = {"Average"};
    for (std::size_t ci = 0; ci < g.configs.size(); ++ci)
        avg.push_back(Table::num(mean(g.ipcColumn(ci)), 3));
    t.row(avg);
    std::fputs(t.str().c_str(), stdout);

    // The per-benchmark 16-SP stall series plotted in the figures.
    const auto it16 = std::find_if(
        g.configs.begin(), g.configs.end(), [](const std::string &n) {
            return n.rfind("16-SP", 0) == 0;
        });
    if (it16 != g.configs.end()) {
        const std::size_t ci = it16 - g.configs.begin();
        Table st("16-SP register-stall cycles (top-3 banks summed)");
        st.header({"benchmark", "stall cycles"});
        for (std::size_t wi = 0; wi < g.workloads.size(); ++wi)
            st.row({g.workloads[wi],
                    std::to_string(top3BankStalls(g.at(wi, ci)))});
        std::fputs(st.str().c_str(), stdout);
    }

    // Headline ratios quoted in the paper's text.
    const double cprAvg = mean(g.ipcColumn(1));
    const double sp8 = mean(g.ipcColumn(2));
    const double sp16 = mean(g.ipcColumn(3));
    const double sp128 = mean(g.ipcColumn(6));
    const double ideal = mean(g.ipcColumn(7));
    std::printf("\n8-SP vs CPR:    %+.1f%%\n", 100.0 * (sp8 / cprAvg - 1));
    std::printf("16-SP vs CPR:   %+.1f%%\n", 100.0 * (sp16 / cprAvg - 1));
    std::printf("128-SP / ideal: %.3f\n", sp128 / ideal);
}

/** ["a", "b", ...] for embedding a workload list in a grid doc. */
std::string
quotedList(const std::vector<std::string> &names)
{
    std::string out = "[";
    for (std::size_t i = 0; i < names.size(); ++i)
        out += std::string(i ? ", " : "") + "\"" + names[i] + "\"";
    return out + "]";
}

/** The generic expander: every scenario's build() is its grid doc. */
std::function<std::vector<CampaignJob>(std::uint64_t)>
gridBuild(const std::string &name, const std::string &doc)
{
    return [name, doc](std::uint64_t maxInsts) {
        return gridJobs(name, grid::expand(doc), maxInsts);
    };
}

Scenario
ipcFigureScenario(const std::string &name, const std::string &title,
                  const std::string &caption,
                  std::vector<std::string> (*benchNames)(),
                  const char *predictor)
{
    Scenario s;
    s.name = name;
    s.title = title;
    s.gridJson = csprintf(
        "{\"name\": \"%s\",\n"
        " \"predictor\": \"%s\",\n"
        " \"axes\": [\n"
        "  {\"keys\": {\"workload.name\": %s}},\n"
        "  {\"keys\": {\"base\": [\"baseline\", \"cpr\", \"8sp\", "
        "\"16sp\", \"32sp\", \"64sp\", \"128sp\", \"ideal\"]}}\n"
        " ]}\n",
        name.c_str(), predictor, quotedList(benchNames()).c_str());
    s.build = gridBuild(name, s.gridJson);
    s.report = [caption](const std::vector<JobResult> &results) {
        reportIpcFigure(caption, results);
    };
    return s;
}

std::vector<std::string>
intBenches()
{
    return spec::intBenchmarks();
}

std::vector<std::string>
fpBenches()
{
    return spec::fpBenchmarks();
}

// ---- Fig. 9: executed-instruction breakdown ---------------------------

Scenario
fig9Scenario()
{
    Scenario s;
    s.name = "fig9";
    s.title = "Reproduction of Fig. 9 (executed-instruction breakdown)";
    s.gridJson = csprintf(
        "{\"name\": \"fig9\",\n"
        " \"axes\": [\n"
        "  {\"keys\": {\"workload.name\": %s}},\n"
        "  {\"mode\": \"zip\",\n"
        "   \"keys\": {\"base\": [\"cpr\", \"cpr\", \"16sp\", \"16sp\"],\n"
        "            \"predictor\": [\"gshare\", \"tage\", \"gshare\", "
        "\"tage\"],\n"
        "            \"label\": [\"CPR gshare\", \"CPR TAGE\", "
        "\"16-SP gshare\", \"16-SP TAGE\"]}}\n"
        " ]}\n",
        quotedList(spec::intBenchmarks()).c_str());
    s.build = gridBuild(s.name, s.gridJson);
    s.report = [](const std::vector<JobResult> &results) {
        const Grid g = makeGrid(results);

        Table t("Fig. 9: executed instructions per config "
                "(normalised to committed = 1.0)");
        t.header({"benchmark", "config", "correct", "re-executed",
                  "wrong-path", "total"});

        std::array<double, 4> totals{};
        std::array<double, 4> reexecs{};
        for (std::size_t wi = 0; wi < g.workloads.size(); ++wi) {
            for (std::size_t ci = 0; ci < g.configs.size(); ++ci) {
                const RunResult &r = g.at(wi, ci);
                const double c = static_cast<double>(r.committed);
                t.row({g.workloads[wi], g.configs[ci], "1.000",
                       Table::num(r.reExecuted / c, 3),
                       Table::num(r.wrongPathExec / c, 3),
                       Table::num(r.totalExecuted / c, 3)});
                totals[ci] += r.totalExecuted / c;
                reexecs[ci] += r.reExecuted / c;
            }
        }
        std::fputs(t.str().c_str(), stdout);

        const double n = static_cast<double>(g.workloads.size());
        std::printf("\nAverage executed (x committed):\n");
        for (std::size_t ci = 0; ci < 4; ++ci) {
            std::printf("  %-13s total %.3f  (re-executed %.3f)\n",
                        g.configs[ci].c_str(), totals[ci] / n,
                        reexecs[ci] / n);
        }
        std::printf("\n16-SP vs CPR executed instructions:\n");
        std::printf("  gshare: %+.1f%% (paper: -16.5%%)\n",
                    100.0 * (totals[2] / totals[0] - 1.0));
        std::printf("  TAGE:   %+.1f%% (paper: -12%%)\n",
                    100.0 * (totals[3] / totals[1] - 1.0));
    };
    return s;
}

// ---- Ablation: CPR checkpoint count -----------------------------------

Scenario
ablationCheckpointsScenario()
{
    Scenario s;
    s.name = "ablation-checkpoints";
    s.title = "Ablation: CPR checkpoint-count sweep (gshare)";
    s.gridJson =
        "{\"name\": \"ablation-checkpoints\",\n"
        " \"predictor\": \"gshare\",\n"
        " \"base\": \"cpr\",\n"
        " \"label_format\": \"CPR/{cpr.checkpoints} ckpts\",\n"
        " \"axes\": [\n"
        "  {\"keys\": {\"workload.name\": [\"gzip\", \"gcc\", \"bzip2\", "
        "\"twolf\", \"parser\"]}},\n"
        "  {\"keys\": {\"cpr.checkpoints\": [2, 4, 8, 16, 32]}}\n"
        " ]}\n";
    s.build = gridBuild(s.name, s.gridJson);
    s.report = [](const std::vector<JobResult> &results) {
        const Grid g = makeGrid(results);
        Table t("CPR IPC (and re-executed fraction) vs checkpoints");
        std::vector<std::string> head = {"benchmark"};
        head.insert(head.end(), g.configs.begin(), g.configs.end());
        t.header(head);
        for (std::size_t wi = 0; wi < g.workloads.size(); ++wi) {
            std::vector<std::string> row = {g.workloads[wi]};
            for (std::size_t ci = 0; ci < g.configs.size(); ++ci) {
                const RunResult &r = g.at(wi, ci);
                row.push_back(
                    Table::num(r.ipc(), 3) + " (" +
                    Table::num(double(r.reExecuted) / r.committed, 2) +
                    ")");
            }
            t.row(row);
        }
        std::fputs(t.str().c_str(), stdout);
        std::puts("\nExpected: IPC saturates well before 32 checkpoints; "
                  "the re-executed\nfraction (parenthesised) falls as "
                  "checkpoints densify.");
    };
    return s;
}

// ---- Ablation: CPR register-file size ---------------------------------

Scenario
ablationCprRegsScenario()
{
    Scenario s;
    s.name = "ablation-cpr-regs";
    s.title = "Ablation: CPR physical-register sweep (TAGE)";
    s.gridJson = csprintf(
        "{\"name\": \"ablation-cpr-regs\",\n"
        " \"predictor\": \"tage\",\n"
        " \"base\": \"cpr\",\n"
        " \"axes\": [\n"
        "  {\"keys\": {\"workload.name\": %s}},\n"
        "  {\"mode\": \"zip\",\n"
        "   \"keys\": {\"regs.int\": [192, 256, 512],\n"
        "            \"regs.fp\": [192, 256, 512],\n"
        "            \"label\": [\"CPR-192\", \"CPR-256\", "
        "\"CPR-512\"]}}\n"
        " ]}\n",
        quotedList(spec::intBenchmarks()).c_str());
    s.build = gridBuild(s.name, s.gridJson);
    s.report = [](const std::vector<JobResult> &results) {
        const Grid g = makeGrid(results);
        Table t("SPECint IPC vs CPR register-file size (TAGE)");
        t.header({"benchmark", "CPR-192", "CPR-256", "CPR-512"});
        std::vector<double> avg(3, 0.0);
        for (std::size_t wi = 0; wi < g.workloads.size(); ++wi) {
            std::vector<std::string> row = {g.workloads[wi]};
            for (std::size_t ci = 0; ci < 3; ++ci) {
                avg[ci] += g.at(wi, ci).ipc();
                row.push_back(Table::num(g.at(wi, ci).ipc(), 3));
            }
            t.row(row);
        }
        const double n = static_cast<double>(g.workloads.size());
        t.row({"Average", Table::num(avg[0] / n, 3),
               Table::num(avg[1] / n, 3), Table::num(avg[2] / n, 3)});
        std::fputs(t.str().c_str(), stdout);

        std::printf("\nCPR-256 vs CPR-192: %+.1f%% (paper: ~+1%%)\n",
                    100.0 * (avg[1] / avg[0] - 1.0));
        std::printf("CPR-512 vs CPR-192: %+.1f%% (paper: ~+1.3%%)\n",
                    100.0 * (avg[2] / avg[0] - 1.0));
    };
    return s;
}

// ---- Ablation: LCS propagation delay ----------------------------------

Scenario
ablationLcsScenario()
{
    Scenario s;
    s.name = "ablation-lcs";
    s.title = "Ablation: LCS latency sweep on 16-SP (gshare)";
    s.gridJson =
        "{\"name\": \"ablation-lcs\",\n"
        " \"predictor\": \"gshare\",\n"
        " \"base\": \"16sp\",\n"
        " \"label_format\": \"16-SP/{lcs.latency} cyc\",\n"
        " \"axes\": [\n"
        "  {\"keys\": {\"workload.name\": [\"gzip\", \"gcc\", "
        "\"crafty\", \"bzip2\", \"swim\"]}},\n"
        "  {\"keys\": {\"lcs.latency\": [0, 1, 2, 4, 8]}}\n"
        " ]}\n";
    s.build = gridBuild(s.name, s.gridJson);
    s.report = [](const std::vector<JobResult> &results) {
        const Grid g = makeGrid(results);
        Table t("IPC vs LCS propagation delay (16-SP+Arb)");
        std::vector<std::string> head = {"benchmark"};
        head.insert(head.end(), g.configs.begin(), g.configs.end());
        t.header(head);
        double degr = 0.0;
        for (std::size_t wi = 0; wi < g.workloads.size(); ++wi) {
            std::vector<std::string> row = {g.workloads[wi]};
            for (std::size_t ci = 0; ci < g.configs.size(); ++ci)
                row.push_back(Table::num(g.at(wi, ci).ipc(), 3));
            t.row(row);
            // Columns: lat 0, 1, 2, 4, 8 — degradation is 4 vs 1 cycle.
            degr += 1.0 - g.at(wi, 3).ipc() / g.at(wi, 1).ipc();
        }
        std::fputs(t.str().c_str(), stdout);
        std::printf("\n4-cycle vs 1-cycle LCS: %.2f%% average "
                    "degradation (paper: <1%%)\n",
                    100.0 * degr / g.workloads.size());
    };
    return s;
}

// ---- Ablation: same-register rename throughput ------------------------

Scenario
ablationRenameScenario()
{
    Scenario s;
    s.name = "ablation-rename";
    s.title = "Ablation: same-register renames/cycle on 16-SP (gshare)";
    // 16sp-noarb (full ports) isolates the renaming-logic question of
    // Sec. 3.3 from the banked-RF write port, which otherwise
    // serialises same-register writebacks. "tight-loop" is the
    // back-to-back independent same-register-write microbenchmark
    // (compiler temporaries): the case the dual-rename SCT port
    // exists for.
    s.gridJson =
        "{\"name\": \"ablation-rename\",\n"
        " \"predictor\": \"gshare\",\n"
        " \"base\": \"16sp-noarb\",\n"
        " \"label_format\": \"{rename.same_reg}/cycle\",\n"
        " \"axes\": [\n"
        "  {\"keys\": {\"workload.name\": [\"gzip\", \"bzip2\", "
        "\"twolf\", \"crafty\", \"swim\", \"mgrid\", "
        "\"tight-loop\"]}},\n"
        "  {\"keys\": {\"rename.same_reg\": [1, 2, 3, 4]}}\n"
        " ]}\n";
    s.build = gridBuild(s.name, s.gridJson);
    s.report = [](const std::vector<JobResult> &results) {
        const Grid g = makeGrid(results);
        Table t("IPC vs same-logical-register renames per cycle "
                "(16-SP+Arb)");
        std::vector<std::string> head = {"benchmark"};
        head.insert(head.end(), g.configs.begin(), g.configs.end());
        t.header(head);
        double loss1 = 0.0, gain3 = 0.0;
        for (std::size_t wi = 0; wi < g.workloads.size(); ++wi) {
            std::vector<std::string> row = {g.workloads[wi]};
            for (std::size_t ci = 0; ci < g.configs.size(); ++ci)
                row.push_back(Table::num(g.at(wi, ci).ipc(), 3));
            t.row(row);
            loss1 += 1.0 - g.at(wi, 0).ipc() / g.at(wi, 1).ipc();
            gain3 += g.at(wi, 2).ipc() / g.at(wi, 1).ipc() - 1.0;
        }
        std::fputs(t.str().c_str(), stdout);
        std::printf("\n1/cycle vs 2/cycle: %.1f%% loss (paper: ~5%%)\n",
                    100.0 * loss1 / g.workloads.size());
        std::printf("3/cycle vs 2/cycle: %+.2f%% (paper: ~0%%)\n",
                    100.0 * gain3 / g.workloads.size());
    };
    return s;
}

std::vector<Scenario>
makeScenarios()
{
    return {
        ipcFigureScenario("fig6",
                          "Reproduction of Fig. 6 (SPECint, gshare 64K)",
                          "Fig. 6: SPECint IPC, gshare", intBenches,
                          "gshare"),
        ipcFigureScenario("fig7",
                          "Reproduction of Fig. 7 (SPECint, TAGE)",
                          "Fig. 7: SPECint IPC, TAGE", intBenches,
                          "tage"),
        ipcFigureScenario("fig8",
                          "Reproduction of Fig. 8 (SPECfp, TAGE)",
                          "Fig. 8: SPECfp IPC, TAGE", fpBenches,
                          "tage"),
        fig9Scenario(),
        ablationCheckpointsScenario(),
        ablationCprRegsScenario(),
        ablationLcsScenario(),
        ablationRenameScenario(),
    };
}

} // namespace

const std::vector<Scenario> &
scenarios()
{
    static const std::vector<Scenario> all = makeScenarios();
    return all;
}

const Scenario *
findScenario(const std::string &name)
{
    for (const auto &s : scenarios())
        if (s.name == name)
            return &s;
    return nullptr;
}

std::vector<JobResult>
runScenario(const std::string &name, unsigned threads,
            std::uint64_t maxInsts, bool verbose)
{
    const Scenario *s = findScenario(name);
    if (!s)
        msp_fatal("unknown scenario '%s' (try msp_sim --list)",
                  name.c_str());
    const std::uint64_t budget = maxInsts ? maxInsts : defaultInstBudget;

    SimCampaign campaign(threads);
    for (auto &j : s->build(budget))
        campaign.add(std::move(j));

    if (verbose) {
        std::printf("%s. Budget: %llu insts/run. Jobs: %zu on %u "
                    "thread(s).\n\n",
                    s->title.c_str(),
                    static_cast<unsigned long long>(budget),
                    campaign.size(), campaign.effectiveThreads());
        std::fflush(stdout);
    }
    auto results =
        campaign.run(verbose ? SimCampaign::stderrProgress() : nullptr);
    s->report(results);
    return results;
}

} // namespace driver
} // namespace msp
