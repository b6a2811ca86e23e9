/**
 * @file
 * Issue-queue audit: the select state that the issue stage keeps
 * incrementally (the ready and parked bitmaps by age position, their
 * counts, the store-blocked loads parked until a store resolves) is
 * recomputed from scratch by CoreBase::auditIssueQueue() after every
 * cycle of a chopped run (one run() call per cycle, as in
 * test_commit_path.cc) and must never disagree. The cases cover every
 * core family on store-heavy and pointer-chasing workloads, a fuzzed
 * memory mix, and the knobs that change how many loads block and
 * where the select walk stops: a narrow issue width, one memory unit,
 * a small store queue and the largest MSP issue queue.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "sim/machine.hh"
#include "sim/presets.hh"
#include "sim/spec.hh"
#include "verify/fuzzer.hh"
#include "workload/spec.hh"

namespace msp {
namespace {

/** Run @p prog one cycle per call, auditing the issue queue each time.
 *  Returns the loads' blocked store-queue probes. */
std::uint64_t
auditedRun(const std::string &id, const MachineConfig &cfg,
           const Program &prog, std::uint64_t n = 3000)
{
    SCOPED_TRACE(id);
    Machine m(cfg, prog);
    RunResult r;
    do {
        r = m.run(n, m.core().cycle() + 1);
        const std::string bad = m.core().auditIssueQueue();
        if (!bad.empty()) {
            ADD_FAILURE() << "cycle " << m.core().cycle() << ": " << bad;
            break;
        }
    } while (!m.core().halted() && m.core().committed() < n &&
             m.core().cycle() < 5000000);
    EXPECT_GT(r.committed, 0u);
    return m.core().events().sqProbe[static_cast<unsigned>(
        ForwardResult::Kind::Unknown)];
}

std::vector<MachineConfig>
families(PredictorKind p)
{
    return {baselineConfig(p), cprConfig(p), nspConfig(4, p),
            nspConfig(16, p), idealMspConfig(p)};
}

TEST(IssueQueueAudit, EveryCoreFamilyOnSpecWorkloads)
{
    for (const char *w : {"swim", "applu", "mcf"}) {
        const Program prog = spec::build(w, 1);
        for (const MachineConfig &cfg : families(PredictorKind::Tage)) {
            const std::uint64_t blocked =
                auditedRun(std::string(w) + "/" + cfg.name, cfg, prog);
            if (std::string(w) != "mcf") {
                EXPECT_GT(blocked, 0u) << w << "/" << cfg.name
                                       << ": no load was ever parked";
            }
        }
    }
}

TEST(IssueQueueAudit, FuzzedMemoryMix)
{
    const verify::FuzzMix *mix = verify::findMix("memory");
    ASSERT_NE(mix, nullptr);
    for (const std::uint64_t seed : {5u, 9u}) {
        const Program prog = verify::fuzzProgram(seed, *mix);
        for (const MachineConfig &cfg : families(PredictorKind::Gshare))
            auditedRun(prog.name + "/" + cfg.name, cfg, prog,
                       ~std::uint64_t{0});
    }
}

TEST(IssueQueueAudit, SelectWidthAndStoreQueueKnobs)
{
    const std::vector<std::pair<const char *, const char *>> knobs = {
        {"width.issue", "1"}, {"width.issue", "2"}, {"fu.mem", "1"},
        {"sq.l1", "4"},       {"iq.size", "256"},
    };
    const Program prog = spec::build("swim", 1);
    for (const auto &[key, value] : knobs) {
        for (MachineConfig cfg : {baselineConfig(PredictorKind::Tage),
                                  cprConfig(PredictorKind::Tage),
                                  nspConfig(16, PredictorKind::Tage)}) {
            setParamFromString(cfg, key, value);
            const std::uint64_t blocked =
                auditedRun(std::string("swim/") + cfg.name + "/" + key +
                               "=" + value,
                           cfg, prog);
            EXPECT_GT(blocked, 0u) << cfg.name << " " << key;
        }
    }
}

} // anonymous namespace
} // namespace msp
