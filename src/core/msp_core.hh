/**
 * @file
 * MspCore — the Multi-State Processor (the paper's contribution).
 *
 * Distributed register and state management: one SctBank per logical
 * register, a global StateId counter with the Sec. 3.6 saturation-bit
 * overflow scheme, the LCS commit mechanism, RelIQ use-bit dependence
 * tracking, banked-register-file port arbitration, and precise
 * misprediction/exception recovery by Recovery-StateId broadcast.
 */

#ifndef MSPLIB_CORE_MSP_CORE_HH
#define MSPLIB_CORE_MSP_CORE_HH

#include <array>
#include <string>
#include <vector>

#include "core/lcs_unit.hh"
#include "core/sct.hh"
#include "pipeline/core_base.hh"

namespace msp {

/** The Multi-State Processor core. */
class MspCore : public CoreBase
{
  public:
    MspCore(const CoreParams &params, const Program &program,
            PredictorKind predictor, StatGroup &stats);

    /** Effective LCS this cycle (for tests). */
    std::uint32_t effectiveLcs() const { return lcs.effective(); }

    /** Current StateId counter (for tests). */
    std::uint32_t stateCounter() const { return sc; }

    /** Bank accessor (for tests). */
    const SctBank &bank(int b) const { return banks[b]; }

    /** Number of Sb flash-clears performed (for tests). */
    std::uint64_t flashClears() const { return numFlashClears; }

    /**
     * Recompute the commit path's incremental state from scratch and
     * describe the first mismatch ("" when consistent): each bank's
     * Release Pointer cursor against a rescan, each clean bank's
     * bankLcs copy, the cached minimum, each bankGate against its
     * bank's successor StateId, and the gate floor against every gate.
     */
    std::string auditCommitPath() const;

  protected:
    void cycleBegin() override;
    void renameCycleBegin() override;
    bool canRename(const DynInst &d) override;
    void renameOne(DynInst &d) override;
    bool operandsReady(const DynInst &d) const override;
    void initWakeup(DynInst &d) override;
    bool issuePortsAvailable(const DynInst &d) override;
    void readOperands(DynInst &d) override;
    void onIssued(DynInst &d) override;
    bool writebackDest(DynInst &d) override;
    void onExecuted(DynInst &d) override;
    void doCommit() override;
    void recoverBranch(DynInst &branch) override;
    void onSquashInst(DynInst &d) override;
    void afterSquash(const DynInst &trigger, bool exception) override;
    void warmArchState(const ArchState &warm) override;

    /**
     * Commit repeats itself once no bank's LCS contribution is stale
     * and the LCS delay line holds only its output: the next raw
     * minimum then equals the effective LCS, so advancing is a no-op.
     */
    bool
    commitSettled() const override
    {
        return bankDirtyWord == 0 && lcs.settled();
    }

  private:
    static constexpr int slotShift = 20;

    static PhysReg
    encode(int bankIdx, int slot)
    {
        return (bankIdx << slotShift) | slot;
    }

    static int bankOf(PhysReg p) { return p >> slotShift; }
    static int slotOf(PhysReg p) { return p & ((1 << slotShift) - 1); }

    /** Advance the StateId counter, flash-clearing on saturation.
     *  @p renaming is the instruction being renamed (already in the
     *  window but without a StateId yet; exempt from the sweep). */
    std::uint32_t bumpState(const DynInst &renaming);

    /** Subtract M from every live StateId (Sec. 3.6). */
    void flashClear(const DynInst &renaming);

    /** Raw LCS minimum over all banks plus the state-0 anchor. */
    std::uint32_t computeRawLcs();

    /** Decrement the pending-operation count of @p d's owning state. */
    void ownerPendingDec(const DynInst &d);

    std::vector<SctBank> banks;
    LcsUnit lcs;

    // Dense commit-path copies of per-bank state (see SctBank::bindHot).
    // bankLcs[b] is bank b's lcsContribution() as of the last
    // computeRawLcs() (noHotState for none); bankDirtyWord has one bit
    // per bank mutated since then, and only those are re-read. lcsMin
    // is min(bankLcs), kept by folding each refreshed value in. bankGate
    // is pushed by the banks; gateFloor is at or below every bankGate,
    // so doCommit skips the release pass while the limit cannot pass it.
    static_assert(numLogRegs <= 64, "bank dirty bits held in one word");
    std::array<std::uint32_t, numLogRegs> bankLcs{};
    std::array<std::uint32_t, numLogRegs> bankGate{};
    std::uint64_t bankDirtyWord = 0;
    std::uint32_t lcsMin = SctBank::noHotState;
    std::uint32_t gateFloor = SctBank::noHotState;

    std::uint32_t sc = 0;          ///< State Counter (SC)
    std::uint32_t stateM;          ///< M: total physical registers
    std::uint32_t intraNext = 1;   ///< next intra-state id in current state
    std::uint32_t anchorPending = 0; ///< unexecuted anchor-state followers
    std::uint32_t anchorState = 0;   ///< state tracked by the anchor

    /** Owner entry of the current state (-1 bank = state-0 anchor). */
    int curOwnerBank = -1;
    int curOwnerSlot = -1;

    // Per-cycle register-file port arbitration state.
    std::array<std::uint8_t, numLogRegs> readPortUsed{};
    std::array<std::uint8_t, numLogRegs> writePortUsed{};

    // Per-cycle rename limits.
    unsigned destsThisCycle = 0;
    std::array<std::uint8_t, numLogRegs> bankRenamesThisCycle{};

    std::uint64_t numFlashClears = 0;
    Stat &intraOverflowStat;
    Stat &portConflictStat;
};

} // namespace msp

#endif // MSPLIB_CORE_MSP_CORE_HH
