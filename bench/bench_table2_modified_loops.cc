/**
 * @file
 * Table II — IPC of the five hand-modified kernels (original vs
 * modified) under the TAGE predictor, for CPR / 8-SP+Arb / 16-SP+Arb /
 * ideal MSP.
 *
 * Paper result being reproduced: the original (tight register reuse)
 * kernels starve small MSP banks; the modified versions (unrolled or
 * register-reallocated) recover most of the loss, closing the n-SP
 * gap to CPR without touching CPR's numbers.
 */

#include <cstdio>

#include "common/table.hh"
#include "driver/campaign.hh"
#include "sim/machine.hh"
#include "sim/presets.hh"
#include "workload/kernels.hh"

int
main()
{
    using namespace msp;
    const std::uint64_t budget = driver::defaultInstBudget;
    std::printf("Reproduction of Table II (modified kernels, TAGE). "
                "Budget: %llu insts/run.\n\n",
                static_cast<unsigned long long>(budget));

    const char *benchKeys[] = {"bzip2", "twolf", "swim", "mgrid",
                               "equake"};
    const MachineConfig cfgs[] = {
        cprConfig(PredictorKind::Tage),
        nspConfig(8, PredictorKind::Tage),
        nspConfig(16, PredictorKind::Tage),
        idealMspConfig(PredictorKind::Tage),
    };

    Table t("Table II: IPC for modified benchmarks (TAGE)");
    t.header({"kernel", "unrolled", "%time", "version", "CPR",
              "8-SP+Arb", "16-SP+Arb", "ideal MSP"});

    const auto &infos = kernels::table2Kernels();
    for (std::size_t k = 0; k < infos.size(); ++k) {
        const auto &info = infos[k];
        for (bool modified : {false, true}) {
            Program prog = kernels::build(benchKeys[k], modified);
            std::vector<std::string> row = {
                info.name + " " + info.function,
                std::to_string(info.loopsUnrolled),
                std::to_string(info.pctExecTime),
                modified ? "modified" : "original",
            };
            for (const auto &cfg : cfgs) {
                Machine m(cfg, prog);
                row.push_back(Table::num(m.run(budget).ipc(), 2));
            }
            t.row(row);
            std::fprintf(stderr, "  [%s %s done]\n", benchKeys[k],
                         modified ? "mod" : "orig");
        }
    }
    std::fputs(t.str().c_str(), stdout);
    std::puts("\nExpected shape: 'modified' raises the n-SP columns "
              "toward CPR/ideal\nwhile leaving CPR essentially "
              "unchanged.");
    return 0;
}
