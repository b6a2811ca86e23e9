/**
 * @file
 * MSP commit-path audit: the incremental state behind the LCS and the
 * commit-time release (each bank's Release Pointer cursor, the core's
 * per-bank LCS copies and their cached minimum, the release gates and
 * their floor) is recomputed from scratch by MspCore::auditCommitPath()
 * after every cycle of a chopped run (one run() call per cycle, as in
 * test_quiet_skip.cc) and must never disagree. The cases cover both
 * bank sizes with and without port arbitration, the ideal rung, LCS
 * delay lines, branch recovery, the exception path and Sb flash-clears.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "core/msp_core.hh"
#include "sim/machine.hh"
#include "sim/presets.hh"
#include "sim/spec.hh"
#include "verify/fuzzer.hh"
#include "workload/micro.hh"
#include "workload/spec.hh"

namespace msp {
namespace {

struct AuditedRun
{
    RunResult result;
    std::uint64_t flashClears = 0;
};

/** Run @p prog one cycle per call, auditing the commit path each time. */
AuditedRun
auditedRun(const std::string &id, const MachineConfig &cfg,
           const Program &prog, std::uint64_t n = 3000)
{
    SCOPED_TRACE(id);
    Machine m(cfg, prog);
    const auto &core = static_cast<const MspCore &>(m.core());
    AuditedRun out;
    do {
        out.result = m.run(n, m.core().cycle() + 1);
        const std::string bad = core.auditCommitPath();
        if (!bad.empty()) {
            ADD_FAILURE() << "cycle " << m.core().cycle() << ": " << bad;
            break;
        }
    } while (!m.core().halted() && m.core().committed() < n &&
             m.core().cycle() < 5000000);
    out.flashClears = core.flashClears();
    EXPECT_GT(out.result.committed, 0u);
    return out;
}

TEST(CommitPathAudit, BankSizesArbitrationAndIdeal)
{
    for (const char *w : {"swim", "mcf"}) {
        const Program prog = spec::build(w, 1);
        for (const MachineConfig &cfg :
             {nspConfig(4, PredictorKind::Tage, true),
              nspConfig(4, PredictorKind::Tage, false),
              nspConfig(16, PredictorKind::Tage, true),
              nspConfig(16, PredictorKind::Tage, false),
              idealMspConfig(PredictorKind::Tage)}) {
            auditedRun(std::string(w) + "/" + cfg.name, cfg, prog);
        }
    }
}

TEST(CommitPathAudit, LcsLatencies)
{
    for (const std::uint64_t lat : {0u, 1u, 4u}) {
        MachineConfig cfg = nspConfig(16, PredictorKind::Tage);
        setParam(cfg, "lcs.latency", ParamValue::ofU64(lat));
        auditedRun("swim/lcs.latency=" + std::to_string(lat), cfg,
                   spec::build("swim", 1));
    }
}

TEST(CommitPathAudit, BranchRecoveries)
{
    for (const MachineConfig &cfg : {nspConfig(4, PredictorKind::Gshare),
                                     nspConfig(16, PredictorKind::Gshare)}) {
        const AuditedRun r =
            auditedRun("gcc/" + cfg.name, cfg, spec::build("gcc", 1));
        EXPECT_GT(r.result.recoveries, 0u) << cfg.name;
    }
}

TEST(CommitPathAudit, ExceptionPath)
{
    // Traps re-anchor the commit point (LcsUnit::clamp, afterSquash),
    // which can lower the release limit below the gate floor.
    verify::FuzzMix mix;
    mix.trapProb = 0.05;
    for (const std::uint64_t seed : {3u, 11u}) {
        const Program prog = verify::fuzzProgram(seed, mix);
        for (const MachineConfig &cfg :
             {nspConfig(4, PredictorKind::Gshare),
              nspConfig(16, PredictorKind::Gshare, false),
              idealMspConfig(PredictorKind::Gshare)}) {
            const AuditedRun r = auditedRun(prog.name + "/" + cfg.name, cfg,
                                            prog, ~std::uint64_t{0});
            EXPECT_GT(r.result.exceptions, 0u) << prog.name << cfg.name;
        }
    }
}

TEST(CommitPathAudit, FlashClears)
{
    // M = 64 * 4 on 4-SP: a few thousand renames wrap the StateId
    // counter several times, republishing every gate and bank copy.
    const AuditedRun r =
        auditedRun("tightRename/4sp", nspConfig(4, PredictorKind::Gshare),
                   micro::tightRename(3000), ~std::uint64_t{0});
    EXPECT_GE(r.flashClears, 3u);
}

} // anonymous namespace
} // namespace msp
