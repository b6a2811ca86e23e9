/**
 * @file
 * CprCore — Checkpoint Processing and Recovery (Akkary, Rajwar,
 * Srinivasan, MICRO-36), the paper's main comparison point.
 *
 * No ROB: a small set of checkpoints (8, Table I) taken selectively at
 * low-confidence branches (JRS estimator), at forced intervals, and at
 * likely-excepting instructions. Physical registers are released
 * aggressively through reference counting; commit is bulk, per
 * checkpoint interval. Branch misprediction rolls the machine back to
 * the youngest checkpoint at or before the branch, re-executing any
 * correct-path instructions in between — the imprecision the MSP
 * eliminates.
 */

#ifndef MSPLIB_CPR_CPR_CORE_HH
#define MSPLIB_CPR_CPR_CORE_HH

#include <array>
#include <deque>
#include <vector>

#include "pipeline/core_base.hh"

namespace msp {

/** The CPR core. */
class CprCore : public CoreBase
{
  public:
    CprCore(const CoreParams &params, const Program &program,
            PredictorKind predictor, StatGroup &stats);

    /** Live checkpoints (for tests). */
    std::size_t liveCheckpoints() const { return ckptOrder.size(); }

    /** Reference count of a physical register (for tests). */
    int refCountOf(PhysReg p) const { return refCount[p]; }

    /** Debug invariant: recompute refcounts and compare. */
    bool verifyRefCounts() const;

  protected:
    bool canRename(const DynInst &d) override;
    void renameOne(DynInst &d) override;
    bool operandsReady(const DynInst &d) const override;
    void initWakeup(DynInst &d) override;
    void readOperands(DynInst &d) override;
    void onIssued(DynInst &d) override;
    bool writebackDest(DynInst &d) override;
    void onExecuted(DynInst &d) override;
    void doCommit() override;
    void recoverBranch(DynInst &branch) override;
    void onSquashInst(DynInst &d) override {}
    void afterSquash(const DynInst &trigger, bool exception) override;
    bool fetchOverride(Addr pc, bool &taken, Addr &target) override;
    void dumpDeadlock() const override;
    void warmArchState(const ArchState &warm) override;

  private:
    /** One checkpoint: full RAT copy plus front-end state. */
    struct Ckpt
    {
        bool valid = false;
        SeqNum startSeq = invalidSeqNum;  ///< first instruction covered
        Addr restartPc = 0;
        std::array<PhysReg, numLogRegs> rat{};
        GlobalHistory hist;
        Ras ras;                          ///< full copy: the re-fetched
                                          ///< path must be reproducible
        std::uint32_t pendingExec = 0;    ///< unexecuted interval insts
    };

    bool dstIsFp(const DynInst &d) const;
    void bumpRef(PhysReg p);
    void dropRef(PhysReg p);
    void freeReg(PhysReg p);
    void takeCheckpoint(const DynInst &d);
    void releaseOldestCkpt();
    void rebuildRefCounts();
    int youngestCkptAtOrBefore(SeqNum seq) const;
    std::vector<int> computeRefCounts() const;

    std::vector<std::uint64_t> regVal;
    std::vector<std::uint8_t> regReady;
    std::vector<int> refCount;
    std::array<PhysReg, numLogRegs> rat{};
    std::vector<PhysReg> freeInt;
    std::vector<PhysReg> freeFp;
    RegWaiters waiters;   ///< per-physreg IQ wakeup subscriptions

    std::vector<Ckpt> ckptSlots;
    std::deque<int> ckptOrder;   ///< oldest first
    unsigned sinceCkpt = 0;

    /** Rollback target stashed between recoverBranch and afterSquash. */
    int rollbackCkpt = -1;

    /** Resolved-direction override for the re-fetched branch. */
    struct Override
    {
        bool active = false;
        Addr pc = 0;
        unsigned skip = 0;
        bool taken = false;
        Addr target = 0;
    };
    Override ovr;

    Stat &rollbacksStat;
};

} // namespace msp

#endif // MSPLIB_CPR_CPR_CORE_HH
