#include "pipeline/core_base.hh"

#include <cstdlib>

#include <algorithm>

#include "common/logging.hh"
#include "functional/semantics.hh"
#include "functional/warmup.hh"

namespace msp {

namespace {

/** PathEvents::sqProbe index of a probe blocked by an unknown address. */
constexpr unsigned blockedProbe =
    static_cast<unsigned>(ForwardResult::Kind::Unknown);

} // anonymous namespace

CoreBase::CoreBase(const CoreParams &p, const Program &program,
                   PredictorKind predictor, StatGroup &statGroup)
    : params(p), prog(&program), stats(statGroup),
      memSys(MemoryParams{}, statGroup),
      branchUnit(predictor, statGroup),
      iq(p.iqSize),
      fuPool(p.intUnits, p.fpUnits, p.memUnits),
      sq(p.sq1Size, p.sq2Size, p.infiniteSq),
      oracle(program),
      fetchPc(program.entry)
{
    commitTap = p.commitFaultAt != 0 || p.observerFaultAt != 0;
    progSize = program.size();
    progAddrMask = program.addrMask();
    fetchQCap = 8 * p.fetchWidth;
    wbScratch.reserve(64);
    squashScratch.reserve(64);
}

// ---------------------------------------------------------------------------
// Fetch
// ---------------------------------------------------------------------------

bool
CoreBase::doFetch()
{
    if (fetchStopped || now < fetchStallUntil)
        return false;
    const SeqNum firstSeq = nextSeq;

    // Predictor state only changes when a control instruction is
    // predicted, so the straight-line snapshot (global history + RAS
    // top) is computed once per run of non-control slots instead of
    // per slot.
    BpSnapshot lineSnap;
    bool lineSnapValid = false;

    for (unsigned i = 0; i < params.fetchWidth; ++i) {
        if (fetchQ.size() >= fetchQCap)
            break;

        const Addr pc = fetchPc % progSize;
        const Instruction &si = prog->at(pc);

        // I-cache: one access per new line.
        const Addr lineAddr = prog->pcToAddr(pc) / 64;
        if (lineAddr != lastFetchLine) {
            lastFetchLine = lineAddr;
            const Cycle lat = memSys.fetchLatency(prog->pcToAddr(pc));
            if (lat > memSys.params().l1iHit) {
                // Miss: deliver this instruction when the line returns.
                fetchStallUntil = now + lat;
                return true;
            }
        }

        DynInst &d = *instPool.alloc();
        d.seq = nextSeq++;
        d.pc = pc;
        d.si = si;
        d.renameReadyAt = now + params.frontendDepth;

        const OpInfo &oi = si.info();
        d.isControl = oi.isControl();
        if (d.isControl) {
            lineSnapValid = false;   // prediction mutates history/RAS
            bool ovTaken = false;
            Addr ovTarget = 0;
            const bool hasOverride = fetchOverride(pc, ovTaken, ovTarget);
            if (oi.isCondBranch && hasOverride) {
                BpPrediction p2 =
                    branchUnit.forceOutcome(pc, si, ovTaken, ovTarget);
                d.predTaken = p2.taken;
                d.predNextPc = p2.target;
                d.lowConfidence = false;
                d.forcedOutcome = true;
                d.bpSnap = p2.snap;
            } else {
                BpPrediction p2 = branchUnit.predictControl(pc, si);
                d.predTaken = p2.taken;
                d.predNextPc = p2.target;
                d.lowConfidence = p2.lowConfidence;
                d.bpSnap = p2.snap;
                if (hasOverride) {
                    // Indirect jump / return re-fetched after a CPR
                    // rollback: the resolved target is known. RAS/
                    // history side effects above stay as predicted.
                    d.predNextPc = ovTarget;
                    d.forcedOutcome = true;
                }
            }
            fetchPc = d.predNextPc;
        } else {
            if (!lineSnapValid) {
                lineSnap.hist = branchUnit.history();
                lineSnap.ras = branchUnit.ras().snapshot();
                lineSnapValid = true;
            }
            d.bpSnap = lineSnap;
            d.predNextPc = pc + 1;
            fetchPc = pc + 1;
        }

        const bool halt = oi.isHalt;
        const bool takenControl = d.isControl && d.predTaken;
        fetchQ.push_back(&d);

        if (halt) {
            fetchStopped = true;
            break;
        }
        // A predicted-taken control transfer ends the fetch group.
        if (takenControl)
            break;
    }
    return nextSeq != firstSeq;
}

// ---------------------------------------------------------------------------
// Rename
// ---------------------------------------------------------------------------

bool
CoreBase::doRename()
{
    if (hookFlags & kHookRenameCycleBegin)
        renameCycleBegin();

    renameStalled = false;
    unsigned renamed = 0;
    bool stalled = false;
    while (renamed < params.renameWidth && !fetchQ.empty()) {
        DynInst &f = *fetchQ.front();
        if (f.renameReadyAt > now)
            return renamed > 0;   // head not yet through the front end:
                                  // not a stall

        stallReason = StallReason::None;
        stallBank = -1;
        if (!windowHasRoom()) {
            stallReason = StallReason::Window;
            stalled = true;
            break;
        }
        if (f.needsExecution() && iq.full()) {
            stallReason = StallReason::Iq;
            stalled = true;
            break;
        }
        if (f.isLoad() && ldqUsed >= params.ldqSize) {
            stallReason = StallReason::LoadQueue;
            stalled = true;
            break;
        }
        if (f.isStore() && !sq.canAllocate()) {
            stallReason = StallReason::StoreQueue;
            stalled = true;
            break;
        }
        if (!canRename(f)) {
            stalled = true;   // core set stallReason/stallBank
            break;
        }

        // Rename moves the pointer, not the record: the DynInst stays
        // put in the pool, so IQ/inExec references stay valid for free.
        window.push_back(&f);
        fetchQ.pop_front();
        DynInst &d = f;

        // IQ slot first: MSP rename indexes RelIQ use bits by it.
        if (d.needsExecution()) {
            iq.insert(&d);
        } else {
            // NOP / HALT complete at rename.
            d.executed = true;
            d.execDoneAt = now;
        }

        renameOne(d);

        if (d.inIq) {
            iq.fillTags(d.iqSlot, d.src1.phys, d.src2.phys,
                        static_cast<unsigned char>(d.info().fu));
            initWakeup(d);
        }

        if (d.isLoad())
            ++ldqUsed;
        if (d.isStore())
            sq.allocate(d.seq);
        ++renamed;
    }

    if (renamed > 0)
        prevStall = StallReason::None;
    if (stalled && renamed == 0) {
        renameStalled = true;
        countRenameStall(1);
    }
    return renamed > 0;
}

void
CoreBase::countRenameStall(std::uint64_t cycles)
{
    renameStallCycles += cycles;
    pathEvents.stallEdge[static_cast<unsigned>(prevStall) *
                             PathEvents::stallKinds +
                         static_cast<unsigned>(stallReason)] += cycles;
    prevStall = stallReason;
    switch (stallReason) {
      case StallReason::Registers:
        regStallCycles += cycles;
        if (stallBank >= 0 && stallBank < numLogRegs)
            bankStallCycles[stallBank] += cycles;
        break;
      case StallReason::Iq:
        iqStallCycles += cycles;
        break;
      case StallReason::StoreQueue:
        sqStallCycles += cycles;
        break;
      default:
        break;
    }
}

// ---------------------------------------------------------------------------
// Issue / execute
// ---------------------------------------------------------------------------

void
CoreBase::executeInst(DynInst &d)
{
    const OpInfo &oi = d.info();
    if (d.isControl) {
        d.taken = oi.isCondBranch
                      ? semantics::branchTaken(d.si, d.srcVal1, d.srcVal2)
                      : true;
        d.actualNextPc = semantics::controlTarget(d.si, d.srcVal1, d.taken,
                                                  d.pc) % progSize;
        if (d.si.writesReg())
            d.result = semantics::aluResult(d.si, d.srcVal1, d.srcVal2, d.pc);
        d.mispredicted = d.actualNextPc != d.predNextPc % progSize;
    } else if (oi.isLoad) {
        d.effAddr = semantics::effectiveAddr(d.si, d.srcVal1,
                                             progAddrMask);
        d.actualNextPc = d.pc + 1;
    } else if (oi.isStore) {
        d.effAddr = semantics::effectiveAddr(d.si, d.srcVal1,
                                             progAddrMask);
        d.storeData = d.srcVal2;
        d.actualNextPc = d.pc + 1;
    } else if (oi.isTrap || oi.isHalt || d.si.op == Opcode::NOP) {
        d.actualNextPc = d.pc + 1;
    } else {
        d.result = semantics::aluResult(d.si, d.srcVal1, d.srcVal2, d.pc);
        d.actualNextPc = d.pc + 1;
    }
}

bool
CoreBase::doIssueStage()
{
    // Select walks the IQ's ready bitmap, which is indexed by age-list
    // position, so it visits only ready entries, oldest first. The bits
    // are maintained event-driven (initWakeup at rename, wakeSrc at
    // writeback); most stalled cycles exit on the anyReady() test
    // without touching the bitmap at all. A ready entry makes the
    // cycle active even if it fails to issue: its attempt is counted.
    //
    // A load whose store-queue probe finds an older store with an
    // unknown address is parked instead of retried: only that store
    // resolving can change the answer (allocate adds stores younger
    // than every IQ load, squashAfter removes only stores younger than
    // every surviving load, drainOldest only resolved ones). Select
    // would have re-probed each parked load it walked past and found it
    // blocked again, so those probes are counted after the walk: the
    // parked loads below the entry that filled the issue width (or all
    // of them when width is left over), less the ones this walk parked,
    // which probed for real. A load parked here stays parked: only a
    // store older than it could unpark it, and that store came first.
    if (!iq.anyReady()) {
        if (iq.parked() != 0)
            pathEvents.sqProbe[blockedProbe] += iq.parked();
        return false;
    }
    // Nothing inserts, wakes or compacts during issue (rename runs
    // after it, writeback before): the walk only removes or parks the
    // entry it just yielded and unparks younger ones, which is what
    // keeps the iterator valid.
    const std::uint64_t admitted = iq.admissions();
    unsigned issuedThisCycle = 0;
    unsigned parkedHere = 0;
    std::size_t walkEnd = iq.ageOrder().size();   // age positions passed
    for (const int slot : iq.readyOldestFirst()) {
        if (issuedThisCycle >= params.issueWidth)
            break;
        DynInst &d = *iq.at(slot);
        msp_assert(!d.squashed && !d.issued, "stale IQ entry");
        msp_assert(operandsReady(d),
                   "IQ slot %d ready bit set with operands not ready",
                   slot);

        // Each instruction is evaluated once. Structural checks come
        // first; a load's address is computed on its first attempt and
        // kept while it waits, since a source value cannot change while
        // its consumer sits in the IQ (window_lanes.hh). A load address
        // is 8-byte aligned, so invalidAddr means "not computed yet".
        const OpInfo &oi = d.info();
        Cycle latency = oi.latency;
        if (oi.isLoad) {
            if (d.effAddr == invalidAddr) {
                readOperands(d);
                executeInst(d);
            }
            ForwardResult fw = sq.probe(d.seq, d.effAddr);
            ++pathEvents.sqProbe[static_cast<unsigned>(fw.kind)];
            if (fw.kind == ForwardResult::Kind::Unknown) {
                iq.park(slot);   // until an older store resolves
                ++parkedHere;
                continue;
            }
            if (fw.kind == ForwardResult::Kind::Stall)
                continue;   // retry next cycle (see ForwardResult)
            if (!issuePortsAvailable(d) || !fuPool.tryAcquire(FuClass::Mem))
                continue;
            if (fw.kind == ForwardResult::Kind::Forward) {
                if (fw.extraLatency > 0)
                    ++pathEvents.sqL2Forward;
                d.result = fw.data;
                latency = 2 + fw.extraLatency;
            } else {
                d.result = oracle.state().load(d.effAddr);
                latency = memSys.loadLatency(d.effAddr);
            }
        } else {
            if (!issuePortsAvailable(d) ||
                !fuPool.tryAcquire(oi.fu)) {
                continue;
            }
            readOperands(d);
            executeInst(d);
            if (oi.isStore) {
                sq.resolve(d.seq, d.effAddr, d.storeData);
                iq.unparkYoungerThan(slot);
                latency = 1;
            }
        }

        d.issued = true;
        d.execDoneAt = now + latency;
        onIssued(d);
        if (++issuedThisCycle == params.issueWidth)
            walkEnd = d.iqOrderIdx + 1;
        iq.remove(&d);
        inExec.push_back(&d);
    }
    if (iq.parked() != parkedHere) {
        pathEvents.sqProbe[blockedProbe] +=
            iq.parkedBetween(0, walkEnd) - parkedHere;
    }
    msp_assert(iq.admissions() == admitted,
               "IQ insert or wakeup during select");
    return true;
}

// ---------------------------------------------------------------------------
// Writeback / branch resolution
// ---------------------------------------------------------------------------

bool
CoreBase::doWritebackStage()
{
    // Gather completions for this cycle, oldest first. Sequence numbers
    // are copied out: a recovery triggered mid-loop pops squashed
    // instructions from the window, so younger pointers in this list
    // become invalid and must be filtered by seq *before* dereference.
    std::vector<std::pair<SeqNum, DynInst *>> &done = wbScratch;
    done.clear();
    for (DynInst *d : inExec) {
        if (!d->squashed && !d->executed && d->execDoneAt <= now)
            done.emplace_back(d->seq, d);
    }
    if (done.empty())
        return false;
    std::sort(done.begin(), done.end());

    SeqNum liveBound = invalidSeqNum;
    for (auto &[seq, dp] : done) {
        if (seq > liveBound)
            continue;   // squashed (and freed) by an older recovery
        DynInst &d = *dp;
        if (d.squashed)
            continue;

        if (d.si.writesReg() && !writebackDest(d)) {
            d.execDoneAt = now + 1;   // register-file write-port conflict
            continue;
        }
        d.executed = true;
        if (params.ldqReleaseAtExec && d.isLoad() && !d.ldqReleased) {
            d.ldqReleased = true;
            msp_assert(ldqUsed > 0, "ldq underflow");
            --ldqUsed;
        }
        onExecuted(d);

        if (d.isControl) {
            branchUnit.resolveControl(d.pc, d.si, d.taken,
                                      d.actualNextPc, d.bpSnap);
            if (d.mispredicted) {
                recoverBranch(d);
                if (lastSquashBoundary < liveBound)
                    liveBound = lastSquashBoundary;
            }
        }
    }

    // Purge finished or squashed entries.
    std::erase_if(inExec, [](const DynInst *d) {
        return d->executed || d->squashed;
    });
    return true;
}

// ---------------------------------------------------------------------------
// Squash / recovery plumbing
// ---------------------------------------------------------------------------

void
CoreBase::squashAndRedirect(SeqNum boundary, SeqNum classifySeq, Addr newPc,
                            Cycle extraPenalty, bool exception,
                            const DynInst &triggerRef)
{
    // The trigger may itself be squashed (a CPR rollback restarts at a
    // checkpoint *older* than the mispredicted branch), and callers
    // pass a reference into the window this function pops — so copy it
    // before any entry is freed.
    const DynInst trigger = triggerRef;

    // Collect the doomed instructions youngest-first.
    std::vector<DynInst *> &dead = squashScratch;
    dead.clear();
    for (auto it = window.rbegin();
         it != window.rend() && (*it)->seq > boundary; ++it) {
        dead.push_back(*it);
    }

    for (DynInst *d : dead) {
        d->squashed = true;
        // Per-core release first: MSP clears RelIQ bits via the IQ slot.
        onSquashInst(*d);
        if (d->inIq)
            iq.remove(d);
        if (d->isLoad() && !d->ldqReleased)
            --ldqUsed;
        if (d->issued || d->executed) {
            if (d->seq > classifySeq)
                ++wrongPathExec;
            else
                ++reExecuted;
        }
    }

    // inExec holds raw pointers into the window: purge before popping.
    std::erase_if(inExec, [](const DynInst *d) { return d->squashed; });

    lastSqScanned = sq.squashAfter(boundary);

    while (!window.empty() && window.back()->seq > boundary) {
        instPool.free(window.back());
        window.pop_back();
    }
    for (DynInst *f : fetchQ)
        instPool.free(f);
    fetchQ.clear();

    // Branch-history repair.
    if (exception) {
        branchUnit.setHistory(trigger.bpSnap.hist);
        branchUnit.ras().restore(trigger.bpSnap.ras);
    } else if (trigger.isControl) {
        branchUnit.squashRepair(trigger.bpSnap, trigger.si, trigger.pc,
                                trigger.taken);
    }

    fetchPc = newPc % prog->size();
    fetchStopped = false;
    fetchStallUntil = now + 1 + extraPenalty + params.recoveryPenalty;
    lastFetchLine = invalidAddr;
    lastSquashBoundary = boundary;
    ++recoveries;
    {
        // log2 depth bucket: 0 -> [0], 1 -> [1], 2..3 -> [2], ... 64+ -> [7].
        const std::size_t depth = dead.size();
        unsigned b = 0;
        for (std::size_t v = depth; v != 0 && b < 7; v >>= 1)
            ++b;
        ++pathEvents.squashDepth[b];
    }

    afterSquash(trigger, exception);
}

// ---------------------------------------------------------------------------
// Commit helpers
// ---------------------------------------------------------------------------

void
CoreBase::commitOne()
{
    msp_assert(!window.empty(), "commit on empty window");
    DynInst &d = *window.front();
    msp_assert(!d.squashed, "committing a squashed instruction");
    msp_assert(d.executed, "committing an unexecuted instruction");

    // The oracle steps with every commit: loads read committed memory
    // through it. A core bug can commit *past* the architectural HALT;
    // stepping the halted oracle would abort, so freeze it instead —
    // with the lock-step check on that bug is fatal here, with it off
    // (differential verification) the run continues and the external
    // oracle reports the commit-count/stream divergence.
    StepResult sr{};
    if (!oracle.halted()) {
        sr = oracle.step();
    } else if (params.oracleCheck) {
        msp_panic("commit past the oracle's HALT (pc %llu, seq %llu)",
                  static_cast<unsigned long long>(d.pc),
                  static_cast<unsigned long long>(d.seq));
    }
    if (params.oracleCheck) {
        msp_assert(sr.pc == d.pc,
                   "commit pc mismatch: core @%llu oracle @%llu (seq %llu)",
                   static_cast<unsigned long long>(d.pc),
                   static_cast<unsigned long long>(sr.pc),
                   static_cast<unsigned long long>(d.seq));
        if (d.si.writesReg()) {
            msp_assert(d.result == sr.value,
                       "result mismatch at pc %llu (%s): core %llx "
                       "oracle %llx",
                       static_cast<unsigned long long>(d.pc),
                       opName(d.si.op),
                       static_cast<unsigned long long>(d.result),
                       static_cast<unsigned long long>(sr.value));
        }
        if (d.isStore()) {
            msp_assert(d.effAddr == sr.memAddr &&
                           d.storeData == sr.storeValue,
                       "store mismatch at pc %llu",
                       static_cast<unsigned long long>(d.pc));
        }
        if (d.isControl) {
            msp_assert(d.actualNextPc == sr.nextPc % prog->size(),
                       "control-flow mismatch at pc %llu",
                       static_cast<unsigned long long>(d.pc));
        }
    }

    // The observer / fault-injection tap is off in plain simulation
    // runs; one cached flag keeps its three tests out of the per-commit
    // fast path (commitTap is recomputed whenever the observer or the
    // fault knobs change).
    if (commitTap) {
        if (params.commitFaultAt != 0 && d.si.writesReg() &&
            ++commitFaultSeen == params.commitFaultAt) {
            d.result ^= 1;
        }
        const bool dropObserved =
            params.observerFaultAt != 0 &&
            ++observerFaultSeen == params.observerFaultAt;
        if (commitObserver && !dropObserved)
            commitObserver(d);
    }

    if (d.isStore()) {
        sq.drainOldest(d.seq);
        memSys.storeCommit(d.effAddr);
    }
    if (d.isLoad() && !d.ldqReleased)
        --ldqUsed;
    if (d.isControl) {
        ++pathEvents.predEdge[(d.predTaken ? 8u : 0u) |
                              (d.taken ? 4u : 0u) |
                              (d.mispredicted ? 2u : 0u) |
                              (d.lowConfidence ? 1u : 0u)];
        // A branch committed through a CPR rollback override was
        // mispredicted by the real predictor: count and train it so.
        const bool predicted = !d.mispredicted && !d.forcedOutcome;
        branchUnit.commitControl(d.pc, d.si, d.taken, d.actualNextPc,
                                 d.bpSnap, predicted);
        if (d.isBranch())
            ++branchesCommitted;
    }
    onCommitted(d);
    ++committedCount;
    lastCommitCycle = now;
    if (d.isHalt())
        haltCommitted = true;

    window.pop_front();
    // Retired and popped: nothing references the record any more (it
    // left the IQ at issue and inExec when it executed).
    instPool.free(&d);
}

void
CoreBase::takeException()
{
    msp_assert(!window.empty() && window.front()->isTrap(),
               "takeException without a trap at head");
    DynInst trap = *window.front();   // copy: commitOne pops and frees it
    commitOne();
    ++exceptionsTaken;
    ++pathEvents.exceptionSquash;
    squashAndRedirect(trap.seq, trap.seq, trap.pc + 1, 0, true, trap);
}

// ---------------------------------------------------------------------------
// Top level
// ---------------------------------------------------------------------------

void
CoreBase::dumpDeadlock() const
{
    std::fprintf(stderr,
                 "deadlock dump: cycle=%llu committed=%llu window=%zu "
                 "fetchQ=%zu iqFree=%u sq=%zu ldq=%u stall=%d "
                 "fetchStopped=%d fetchStallUntil=%llu fetchPc=%llu\n",
                 static_cast<unsigned long long>(now),
                 static_cast<unsigned long long>(committedCount),
                 window.size(), fetchQ.size(), iq.freeCount(), sq.size(),
                 ldqUsed, static_cast<int>(stallReason), fetchStopped,
                 static_cast<unsigned long long>(fetchStallUntil),
                 static_cast<unsigned long long>(fetchPc));
    int shown = 0;
    for (const DynInst *d : window) {
        if (d->executed)
            continue;
        std::fprintf(stderr,
                     "  unexec seq=%llu pc=%llu op=%s issued=%d inIq=%d "
                     "execDoneAt=%llu\n",
                     static_cast<unsigned long long>(d->seq),
                     static_cast<unsigned long long>(d->pc),
                     opName(d->si.op), d->issued, d->inIq,
                     static_cast<unsigned long long>(d->execDoneAt));
        if (++shown >= 5)
            break;
    }
    if (!window.empty()) {
        const DynInst &h = *window.front();
        std::fprintf(stderr,
                     "  head seq=%llu pc=%llu op=%s executed=%d\n",
                     static_cast<unsigned long long>(h.seq),
                     static_cast<unsigned long long>(h.pc),
                     opName(h.si.op), h.executed);
    }
}

std::string
CoreBase::auditIssueQueue() const
{
    std::string bad = iq.auditBitmaps();
    if (!bad.empty())
        return bad;
    for (const std::int32_t slot : iq.ageOrder()) {
        if (slot < 0)
            continue;
        const DynInst &d = *iq.at(slot);
        const bool ready = iq.ready(slot);
        const bool parked = iq.isParked(slot);
        const bool operands = operandsReady(d);
        const char *what = nullptr;
        if (ready && !operands) {
            what = "ready with operands not ready";
        } else if (parked && (!d.isLoad() || d.issued || !operands)) {
            what = "parked but not an unissued load with ready operands";
        } else if (parked && (d.effAddr == invalidAddr ||
                              sq.probe(d.seq, d.effAddr).kind !=
                                  ForwardResult::Kind::Unknown)) {
            what = "parked but its store-queue probe is not blocked";
        } else if (!d.issued && operands && !ready && !parked) {
            what = "operands ready but neither ready nor parked";
        }
        if (what) {
            return csprintf("IQ slot %d (seq %llu, pc %llu, %s): %s", slot,
                            static_cast<unsigned long long>(d.seq),
                            static_cast<unsigned long long>(d.pc),
                            opName(d.si.op), what);
        }
    }
    return {};
}

bool
CoreBase::stepCycle()
{
    // A trap's exception squash commits the trap, so the commit count
    // also covers recovery at commit; branch recovery is writeback.
    const std::uint64_t committedBefore = committedCount;
    fuPool.reset();
    if (hookFlags & kHookCycleBegin)
        cycleBegin();
    doCommit();
    bool active = committedCount != committedBefore;
    active |= doWritebackStage();
    active |= doIssueStage();
    active |= doRename();
    active |= doFetch();
    ++now;
    return !active && commitSettled();
}

void
CoreBase::skipQuietCycles(Cycle maxCycles)
{
    // Every stage stood still last cycle, so each waits either on
    // another stage (which stands still too) or on `now` reaching a
    // threshold. Each such threshold is past the cycle just run, so it
    // is >= now; one equal to `now` leaves nothing to skip.
    Cycle wake = std::min(maxCycles, lastCommitCycle + deadlockCycles + 1);
    for (const DynInst *d : inExec)
        wake = std::min(wake, d->execDoneAt);
    // Fetch waits on time only if it is neither stopped nor full.
    if (!fetchStopped && fetchQ.size() < fetchQCap)
        wake = std::min(wake, fetchStallUntil);
    // Rename waits on time only while the head is in the front end; a
    // head already past it is blocked on a resource.
    if (!fetchQ.empty() && fetchQ.front()->renameReadyAt >= now)
        wake = std::min(wake, fetchQ.front()->renameReadyAt);
    if (wake <= now)
        return;
    const Cycle k = wake - now;
    if (renameStalled)
        countRenameStall(k);   // same reason each cycle: the diagonal
    // Issue found nothing ready, so each skipped cycle would re-probe
    // every parked load once (doIssueStage's early exit).
    if (iq.parked() != 0)
        pathEvents.sqProbe[blockedProbe] += k * iq.parked();
    skipped += k;
    now = wake;
}

void
CoreBase::applyWarmup()
{
    warmupApplied = true;
    std::uint64_t stepped = 0;
    while (stepped < params.warmupInstrs && warmupCanStep(oracle, *prog)) {
        const Addr pc = oracle.pc() % progSize;
        const Instruction &in = prog->at(pc);
        if (in.info().isControl()) {
            // Train exactly like the pipeline would on this path:
            // predict (pushes speculative history/RAS), resolve-time
            // direction/confidence update against the actual outcome,
            // and the mispredict repair that rewinds speculative state
            // and pushes the truth. Commit-order counters stay
            // untouched — warmup is not part of the measured run.
            const BpPrediction p = branchUnit.predictControl(pc, in);
            const StepResult sr = oracle.step();
            const Addr actualNext = sr.nextPc % progSize;
            branchUnit.resolveControl(pc, in, sr.taken, actualNext,
                                      p.snap);
            if (actualNext != p.target % progSize)
                branchUnit.squashRepair(p.snap, in, pc, sr.taken);
        } else {
            oracle.step();
        }
        ++stepped;
    }
    // Handoff: architectural values into the reset-state rename
    // structures, fetch restarted at the first unexecuted instruction.
    // The oracle itself already sits at the handoff point, so the
    // commit-time lock-step check continues seamlessly.
    warmArchState(oracle.state());
    fetchPc = oracle.pc() % progSize;
}

RunResult
CoreBase::run(std::uint64_t maxCommits, std::uint64_t maxCycles)
{
    if (params.warmupInstrs != 0 && !warmupApplied)
        applyWarmup();
    // Progress is measured from this call's start: a resumed run may
    // begin more than deadlockCycles past the last commit.
    lastCommitCycle = now;
    while (!haltCommitted && committedCount < maxCommits &&
           now < maxCycles) {
        if (stepCycle())
            skipQuietCycles(maxCycles);
        if (now - lastCommitCycle > deadlockCycles) {
            dumpDeadlock();
            msp_panic("no commit progress for 1M cycles (cycle %llu, "
                      "committed %llu, window %zu, fetchQ %zu)",
                      static_cast<unsigned long long>(now),
                      static_cast<unsigned long long>(committedCount),
                      window.size(), fetchQ.size());
        }
    }

    RunResult r;
    r.workload = prog->name;
    r.cycles = now;
    r.committed = committedCount;
    r.wrongPathExec = wrongPathExec;
    r.reExecuted = reExecuted;
    r.totalExecuted = committedCount + wrongPathExec + reExecuted;
    r.branches = branchesCommitted;
    r.mispredicts = stats.get("condMispredicted");
    r.recoveries = recoveries;
    r.exceptions = exceptionsTaken;
    r.renameStallCycles = renameStallCycles;
    r.regStallCycles = regStallCycles;
    r.iqStallCycles = iqStallCycles;
    r.sqStallCycles = sqStallCycles;
    r.checkpointsTaken = checkpointsTaken;
    r.l2Misses = stats.get("l2.misses");
    r.bankStallCycles = bankStallCycles;
    return r;
}

} // namespace msp
