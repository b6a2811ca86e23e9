#include "cpr/cpr_core.hh"

#include <algorithm>

#include "common/logging.hh"

namespace msp {

CprCore::CprCore(const CoreParams &p, const Program &program,
                 PredictorKind predictor, StatGroup &statGroup)
    : CoreBase(p, program, predictor, statGroup),
      ckptSlots(p.numCheckpoints),
      rollbacksStat(statGroup.add("cpr.rollbacks", "checkpoint rollbacks"))
{
    // doCommit retires the oldest checkpoint only once a younger one
    // bounds it, so a single checkpoint could never commit.
    msp_assert(p.numCheckpoints >= 2, "CPR needs at least two checkpoints");
    const unsigned total = p.numIntPhys + p.numFpPhys;
    regVal.assign(total, 0);
    regReady.assign(total, 0);
    refCount.assign(total, 0);

    for (int i = 0; i < numIntRegs; ++i) {
        rat[i] = i;
        regReady[i] = 1;
        refCount[i] = 1;
    }
    for (int i = 0; i < numFpRegs; ++i) {
        rat[numIntRegs + i] = p.numIntPhys + i;
        regReady[p.numIntPhys + i] = 1;
        refCount[p.numIntPhys + i] = 1;
    }
    for (unsigned i = numIntRegs; i < p.numIntPhys; ++i)
        freeInt.push_back(i);
    for (unsigned i = p.numIntPhys + numFpRegs; i < total; ++i)
        freeFp.push_back(i);
    waiters.init(total);
}

bool
CprCore::dstIsFp(const DynInst &d) const
{
    return d.info().dst == RegClass::Fp;
}

void
CprCore::bumpRef(PhysReg p)
{
    msp_assert(p != noReg, "bumpRef(noReg)");
    ++refCount[p];
}

void
CprCore::freeReg(PhysReg p)
{
    if (p < static_cast<PhysReg>(params.numIntPhys))
        freeInt.push_back(p);
    else
        freeFp.push_back(p);
}

void
CprCore::dropRef(PhysReg p)
{
    msp_assert(p != noReg && refCount[p] > 0, "refcount underflow");
    if (--refCount[p] == 0)
        freeReg(p);
}

// ---------------------------------------------------------------------------
// Checkpoint allocation (confidence-driven, Sec. 1 of the paper / [19])
// ---------------------------------------------------------------------------

void
CprCore::takeCheckpoint(const DynInst &d)
{
    int slot = -1;
    for (unsigned i = 0; i < ckptSlots.size(); ++i) {
        if (!ckptSlots[i].valid) {
            slot = static_cast<int>(i);
            break;
        }
    }
    msp_assert(slot >= 0, "takeCheckpoint without a free slot");

    Ckpt &c = ckptSlots[slot];
    c.valid = true;
    c.startSeq = d.seq;
    c.restartPc = d.pc;
    c.rat = rat;
    c.hist = d.bpSnap.hist;
    // Checkpoints are taken at rename, but must capture the front-end
    // state as it was when this instruction was *fetched*: restore the
    // current RAS to that point, then copy it wholesale.
    c.ras = branchUnit.ras();
    c.ras.restore(d.bpSnap.ras);
    c.pendingExec = 0;
    for (int u = 0; u < numLogRegs; ++u)
        bumpRef(c.rat[u]);
    ckptOrder.push_back(slot);
    sinceCkpt = 0;
    ++checkpointsTaken;
}

bool
CprCore::canRename(const DynInst &d)
{
    const bool haveFree = ckptOrder.size() < ckptSlots.size();
    // A likely-excepting instruction must get its own checkpoint so the
    // exception can be taken at a precise boundary; stall until one
    // frees up.
    if ((d.isTrap() || ckptOrder.empty()) && !haveFree) {
        stallReason = StallReason::Checkpoint;
        return false;
    }
    // Hardware tracks a bounded number of instructions per checkpoint;
    // when the open interval is full and no checkpoint slot is free,
    // rename stalls. Without this bound a rollback to the interval
    // start can be arbitrarily expensive.
    if (sinceCkpt >= 2 * params.ckptInterval && !haveFree) {
        stallReason = StallReason::Checkpoint;
        return false;
    }
    if (d.si.writesReg()) {
        const auto &pool = dstIsFp(d) ? freeFp : freeInt;
        if (pool.empty()) {
            stallReason = StallReason::Registers;
            return false;
        }
    }
    return true;
}

void
CprCore::renameOne(DynInst &d)
{
    // Checkpoint placement: program start, likely-excepting
    // instructions, low-confidence branches, a forced interval, or
    // resource pressure (a fresh interval lets the previous one commit
    // and recycle buffers).
    const bool haveFree = ckptOrder.size() < ckptSlots.size();
    const bool pressure =
        freeInt.size() < 8 || freeFp.size() < 8 ||
        ldqUsed + 4 >= params.ldqSize || !sq.canAllocate();
    if (ckptOrder.empty() || d.isTrap()) {
        takeCheckpoint(d);
    } else if (haveFree && sinceCkpt >= 1 &&
               ((d.isBranch() && d.lowConfidence) ||
                (d.info().isIndirect && !d.info().isReturn))) {
        // CPR's core policy: a checkpoint at every low-confidence
        // branch (and at indirect jumps, which are inherently
        // low-confidence) whenever a slot is free, so a misprediction
        // rolls back to the offender itself.
        takeCheckpoint(d);
    } else if (haveFree && sinceCkpt >= params.minCkptDist &&
               (sinceCkpt >= params.ckptInterval || pressure)) {
        takeCheckpoint(d);
    }

    d.ckptId = ckptOrder.back();
    if (d.needsExecution())
        ++ckptSlots[d.ckptId].pendingExec;
    ++sinceCkpt;

    auto takeSrc = [&](int unified, SrcInfo &src) {
        if (unified < 0)
            return;
        src.phys = rat[unified];
        bumpRef(src.phys);       // consumer reference
        src.useBitSet = true;
    };
    takeSrc(d.si.src1Unified(), d.src1);
    takeSrc(d.si.src2Unified(), d.src2);

    if (d.si.writesReg()) {
        auto &pool = dstIsFp(d) ? freeFp : freeInt;
        const PhysReg p = pool.back();
        pool.pop_back();
        const int u = d.si.dstUnified();
        d.oldDstPhys = rat[u];
        d.dstPhys = p;
        rat[u] = p;
        regReady[p] = 0;
        msp_assert(refCount[p] == 0, "allocating a referenced register");
        bumpRef(p);              // current-mapping reference
        bumpRef(p);              // producer reference (until written)
        dropRef(d.oldDstPhys);   // superseded mapping
    }
}

// ---------------------------------------------------------------------------
// Issue / execute
// ---------------------------------------------------------------------------

bool
CprCore::operandsReady(const DynInst &d) const
{
    auto rdy = [&](const SrcInfo &s) {
        return s.phys == noReg || regReady[s.phys];
    };
    return rdy(d.src1) && rdy(d.src2);
}

void
CprCore::initWakeup(DynInst &d)
{
    // Same scheme as the baseline: the refcounts guarantee a source
    // register is never recycled while this consumer sits in the IQ
    // (the consumer reference is only dropped at issue), so readiness
    // can't regress and insert-time state plus wakeups is exact.
    const std::uint32_t gen = iq.generation(d.iqSlot);
    unsigned pending = 0;
    if (d.src1.phys != noReg && !regReady[d.src1.phys]) {
        waiters.watch(d.src1.phys, d.iqSlot, gen);
        ++pending;
    }
    if (d.src2.phys != noReg && d.src2.phys != d.src1.phys &&
        !regReady[d.src2.phys]) {
        waiters.watch(d.src2.phys, d.iqSlot, gen);
        ++pending;
    }
    iq.setPending(d.iqSlot, pending);
}

void
CprCore::readOperands(DynInst &d)
{
    d.srcVal1 = d.src1.phys == noReg ? 0 : regVal[d.src1.phys];
    d.srcVal2 = d.src2.phys == noReg ? 0 : regVal[d.src2.phys];
}

void
CprCore::onIssued(DynInst &d)
{
    // Last-use release: the consumer reference dies at the read.
    auto consume = [&](SrcInfo &s) {
        if (s.useBitSet) {
            dropRef(s.phys);
            s.useBitSet = false;
        }
    };
    consume(d.src1);
    consume(d.src2);
}

bool
CprCore::writebackDest(DynInst &d)
{
    regVal[d.dstPhys] = d.result;
    regReady[d.dstPhys] = 1;
    waiters.drain(d.dstPhys, iq);
    dropRef(d.dstPhys);          // producer reference retires
    return true;
}

void
CprCore::onExecuted(DynInst &d)
{
    if (d.needsExecution()) {
        Ckpt &c = ckptSlots[d.ckptId];
        msp_assert(c.valid && c.pendingExec > 0, "pendingExec underflow");
        --c.pendingExec;
    }
}

// ---------------------------------------------------------------------------
// Bulk commit
// ---------------------------------------------------------------------------

void
CprCore::releaseOldestCkpt()
{
    Ckpt &c = ckptSlots[ckptOrder.front()];
    for (int u = 0; u < numLogRegs; ++u)
        dropRef(c.rat[u]);
    c.valid = false;
    ckptOrder.pop_front();
}

void
CprCore::doCommit()
{
    while (!haltCommitted) {
        // The oldest checkpoint commits when every instruction between
        // it and the next checkpoint has executed.
        if (ckptOrder.size() >= 2) {
            Ckpt &c = ckptSlots[ckptOrder.front()];
            if (c.pendingExec > 0)
                return;
            const SeqNum endSeq = ckptSlots[ckptOrder[1]].startSeq;
            while (!window.empty() && window.front()->seq < endSeq) {
                if (window.front()->isTrap()) {
                    takeException();
                    return;
                }
                msp_assert(window.front()->executed,
                           "CPR bulk commit of unexecuted instruction");
                commitOne();
                if (haltCommitted)
                    return;
            }
            releaseOldestCkpt();
            continue;
        }

        // Final drain: one open interval left and fetch has halted.
        if (ckptOrder.size() == 1 && fetchStopped && !fetchQ.empty())
            return;
        if (ckptOrder.size() == 1 && fetchStopped) {
            Ckpt &c = ckptSlots[ckptOrder.front()];
            if (c.pendingExec > 0)
                return;
            while (!window.empty()) {
                if (window.front()->isTrap()) {
                    takeException();
                    return;
                }
                msp_assert(window.front()->executed,
                           "CPR final drain of unexecuted instruction");
                commitOne();
                if (haltCommitted)
                    return;
            }
        }
        return;
    }
}

// ---------------------------------------------------------------------------
// Rollback recovery
// ---------------------------------------------------------------------------

int
CprCore::youngestCkptAtOrBefore(SeqNum seq) const
{
    for (auto it = ckptOrder.rbegin(); it != ckptOrder.rend(); ++it) {
        if (ckptSlots[*it].startSeq <= seq)
            return *it;
    }
    msp_panic("no checkpoint at or before seq %llu",
              static_cast<unsigned long long>(seq));
}

void
CprCore::recoverBranch(DynInst &branch)
{
    ++rollbacksStat;
    rollbackCkpt = youngestCkptAtOrBefore(branch.seq);
    const Ckpt &k = ckptSlots[rollbackCkpt];

    // Occurrence-counted outcome override: when the squashed dynamic
    // instance of this control instruction is fetched again, force the
    // resolved outcome (the rollback already knows it). This covers
    // conditional branches, indirect jumps and returns — a re-fetched
    // return would otherwise re-predict from the same restored RAS and
    // could livelock.
    unsigned occ = 0;
    for (const DynInst *w : window) {
        if (w->seq >= k.startSeq && w->seq <= branch.seq &&
            w->pc == branch.pc && w->isControl) {
            ++occ;
        }
    }
    msp_assert(occ >= 1, "mispredicted branch not in its own interval");
    ovr.active = true;
    ovr.pc = branch.pc;
    ovr.skip = occ - 1;
    ovr.taken = branch.taken;
    ovr.target = branch.actualNextPc;

    const Addr restart = k.restartPc;
    squashAndRedirect(k.startSeq - 1, branch.seq, restart,
                      params.rollbackRestorePenalty, false, branch);

    // The L2 store-queue scan is the expensive part of a CPR rollback.
    fetchStallUntil +=
        static_cast<Cycle>(lastSqScan() * params.sqScanPenaltyPerEntry);
}

bool
CprCore::fetchOverride(Addr pc, bool &taken, Addr &target)
{
    if (!ovr.active || pc != ovr.pc)
        return false;
    if (ovr.skip > 0) {
        --ovr.skip;
        return false;
    }
    taken = ovr.taken;
    target = ovr.target;
    ovr.active = false;
    return true;
}

void
CprCore::afterSquash(const DynInst &trigger, bool exception)
{
    if (exception) {
        // The trap committed; its checkpoint's interval restarts just
        // past it. Everything younger (including younger checkpoints)
        // is gone.
        while (!ckptOrder.empty() &&
               ckptSlots[ckptOrder.back()].startSeq > trigger.seq) {
            ckptSlots[ckptOrder.back()].valid = false;
            ckptOrder.pop_back();
        }
        msp_assert(!ckptOrder.empty(), "exception with no checkpoint");
        Ckpt &c = ckptSlots[ckptOrder.back()];
        c.restartPc = trigger.pc + 1;
        c.pendingExec = 0;
        rat = c.rat;
    } else {
        msp_assert(rollbackCkpt >= 0, "rollback without a target");
        while (!ckptOrder.empty() && ckptOrder.back() != rollbackCkpt) {
            ckptSlots[ckptOrder.back()].valid = false;
            ckptOrder.pop_back();
        }
        msp_assert(!ckptOrder.empty(), "rollback target disappeared");
        Ckpt &k = ckptSlots[rollbackCkpt];
        k.pendingExec = 0;    // its whole interval was squashed
        rat = k.rat;
        branchUnit.setHistory(k.hist);
        branchUnit.ras() = k.ras;
        rollbackCkpt = -1;
    }
    sinceCkpt = 0;
    rebuildRefCounts();
}

// ---------------------------------------------------------------------------
// Reference-count reconstruction (rollback path)
// ---------------------------------------------------------------------------

std::vector<int>
CprCore::computeRefCounts() const
{
    std::vector<int> rc(refCount.size(), 0);
    for (int u = 0; u < numLogRegs; ++u)
        ++rc[rat[u]];
    for (int slot : ckptOrder) {
        const Ckpt &c = ckptSlots[slot];
        for (int u = 0; u < numLogRegs; ++u)
            ++rc[c.rat[u]];
    }
    for (const DynInst *d : window) {
        if (d->squashed)
            continue;
        if (d->src1.useBitSet)
            ++rc[d->src1.phys];
        if (d->src2.useBitSet)
            ++rc[d->src2.phys];
        if (d->dstPhys != noReg && !d->executed)
            ++rc[d->dstPhys];    // producer reference
    }
    return rc;
}

void
CprCore::rebuildRefCounts()
{
    refCount = computeRefCounts();
    freeInt.clear();
    freeFp.clear();
    for (PhysReg p = 0; p < static_cast<PhysReg>(refCount.size()); ++p) {
        if (refCount[p] == 0)
            freeReg(p);
    }
}

bool
CprCore::verifyRefCounts() const
{
    return computeRefCounts() == refCount;
}

void
CprCore::dumpDeadlock() const
{
    CoreBase::dumpDeadlock();
    std::fprintf(stderr, "  cpr: ckpts=%zu freeInt=%zu freeFp=%zu "
                         "sinceCkpt=%u\n",
                 ckptOrder.size(), freeInt.size(), freeFp.size(),
                 sinceCkpt);
    for (int slot : ckptOrder) {
        const Ckpt &c = ckptSlots[slot];
        std::fprintf(stderr,
                     "  ckpt slot=%d startSeq=%llu pendingExec=%u\n",
                     slot, static_cast<unsigned long long>(c.startSeq),
                     c.pendingExec);
    }
}

void
CprCore::warmArchState(const ArchState &warm)
{
    // Reset-state RAT: every logical register maps to a ready physical
    // register; the warmed value lands straight in it.
    for (int r = 0; r < numIntRegs; ++r)
        regVal[rat[r]] = warm.readInt(r);
    for (int r = 0; r < numFpRegs; ++r)
        regVal[rat[numIntRegs + r]] = warm.readFp(r);
}

} // namespace msp
