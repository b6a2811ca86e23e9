/**
 * @file
 * Core configuration (Table I) and per-run results.
 */

#ifndef MSPLIB_PIPELINE_PARAMS_HH
#define MSPLIB_PIPELINE_PARAMS_HH

#include <array>
#include <cstdint>
#include <string>

#include "common/types.hh"

namespace msp {

/** Which microarchitecture a Machine instantiates. */
enum class CoreKind {
    Baseline,  ///< ROB-based out-of-order core
    Cpr,       ///< Checkpoint Processing and Recovery
    Msp,       ///< Multi-State Processor (the paper's contribution)
};

/** All knobs of a simulated core; defaults follow Table I. */
struct CoreParams
{
    CoreKind kind = CoreKind::Msp;

    // Pipeline widths (Table I: 3 | 3 | 5 | 3).
    unsigned fetchWidth = 3;
    unsigned renameWidth = 3;
    unsigned issueWidth = 5;
    unsigned retireWidth = 3;      ///< baseline only; CPR/MSP bulk-commit

    /** Fetch-to-rename depth in cycles (mispredict refill penalty). */
    unsigned frontendDepth = 5;

    // Capacities.
    unsigned iqSize = 128;         ///< 48 for the baseline
    unsigned robSize = 128;        ///< baseline only
    unsigned numIntPhys = 192;     ///< baseline: 96; flat-file cores only
    unsigned numFpPhys = 192;
    unsigned ldqSize = 48;
    unsigned sq1Size = 48;         ///< L1 store-queue entries
    unsigned sq2Size = 256;        ///< L2 store-queue entries
    bool infiniteSq = false;       ///< ideal MSP

    // Functional units (Table I: 4 int, 4 fp, 2 ld/st).
    unsigned intUnits = 4;
    unsigned fpUnits = 4;
    unsigned memUnits = 2;

    // ---- MSP-specific ----------------------------------------------------
    unsigned regsPerBank = 16;     ///< n of n-SP
    bool infiniteBanks = false;    ///< ideal MSP
    unsigned lcsLatency = 1;       ///< LCS propagation delay (0 for ideal)
    bool arbitration = true;       ///< banked RF port arbitration stage
    unsigned maxSameRegRenames = 2;///< same-logical-register renames/cycle
    unsigned maxRenameDests = 4;   ///< destination registers renamed/cycle

    // ---- CPR-specific ----------------------------------------------------
    unsigned numCheckpoints = 8;
    unsigned ckptInterval = 256;   ///< force a checkpoint after this many
    unsigned minCkptDist = 8;      ///< min instructions between checkpoints
    double sqScanPenaltyPerEntry = 0.125; ///< L2 SQ rollback scan cycles
    Cycle rollbackRestorePenalty = 6; ///< RAT copy + free-list repair

    // ---- misc -------------------------------------------------------------
    /**
     * Release load-buffer entries at execution rather than commit.
     * With conservative (violation-free) disambiguation a load entry
     * has no post-execution role; both large-window cores (CPR, MSP)
     * recycle it early, the ROB baseline holds it to retire.
     */
    bool ldqReleaseAtExec = true;

    bool oracleCheck = true;       ///< lock-step functional comparison
    Cycle recoveryPenalty = 2;     ///< extra cycles on any recovery

    /**
     * Fast-forward warmup: before the first timing cycle, execute this
     * many instructions architecturally (functional model), training the
     * branch predictor along the way, then hand the warmed architectural
     * state to the core and start timing at the handoff pc. Committed
     * counts, cycles and the commit-observer stream cover only the
     * post-warmup region. 0 disables warmup. Stops early (before the
     * HALT) if the program is shorter than the requested warmup.
     */
    std::uint64_t warmupInstrs = 0;
    std::uint64_t maxIntraStateId = 31; ///< 5-bit same-state ordering ids

    // ---- verification-only fault injection --------------------------------
    /**
     * When nonzero, flip the low bit of the result of the Nth committed
     * register-writing instruction. The corruption is applied *after*
     * the internal lock-step check, so it models a silent commit-path
     * bug that only an external differential oracle (src/verify/) can
     * observe. Test-only; must stay 0 in real runs.
     */
    std::uint64_t commitFaultAt = 0;

    /**
     * When nonzero, silently drop the commit-observer callback of the
     * Nth committed instruction. Models commit-path work that bypasses
     * the observer tap (the failure the differential oracle reports as
     * an "observer-count" divergence). Test-only; must stay 0 in real
     * runs.
     */
    std::uint64_t observerFaultAt = 0;
};

/** Statistics of one simulation run. */
struct RunResult
{
    std::string workload;
    std::string config;

    std::uint64_t cycles = 0;
    std::uint64_t committed = 0;       ///< correct-path committed
    std::uint64_t wrongPathExec = 0;   ///< executed, squashed as wrong-path
    std::uint64_t reExecuted = 0;      ///< correct-path work thrown away
    std::uint64_t totalExecuted = 0;   ///< every execution event
    std::uint64_t branches = 0;
    std::uint64_t mispredicts = 0;
    std::uint64_t recoveries = 0;
    std::uint64_t exceptions = 0;
    std::uint64_t renameStallCycles = 0;   ///< cycles rename fully blocked
    std::uint64_t regStallCycles = 0;      ///< blocked on registers
    std::uint64_t sqStallCycles = 0;       ///< blocked on store queue
    std::uint64_t iqStallCycles = 0;       ///< blocked on IQ
    std::uint64_t checkpointsTaken = 0;    ///< CPR
    std::uint64_t l2Misses = 0;

    /** MSP: rename-blocked cycles attributed to the stalling bank. */
    std::array<std::uint64_t, numLogRegs> bankStallCycles{};

    double
    ipc() const
    {
        return cycles == 0 ? 0.0
                           : static_cast<double>(committed) / cycles;
    }

    double
    mispredictRate() const
    {
        return branches == 0 ? 0.0
                             : static_cast<double>(mispredicts) / branches;
    }

    bool operator==(const RunResult &) const = default;
};

} // namespace msp

#endif // MSPLIB_PIPELINE_PARAMS_HH
