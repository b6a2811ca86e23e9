/**
 * @file
 * CoreBase — the out-of-order pipeline skeleton shared by the baseline,
 * CPR and MSP cores.
 *
 * The base class owns everything the paper holds constant across the
 * compared architectures (Table I): the front end and branch predictor,
 * the instruction queue and functional units, the load/store machinery
 * and the memory hierarchy, plus the commit-time functional oracle.
 * Subclasses implement exactly what the paper varies: register
 * allocation/renaming, release/commit, and recovery.
 *
 * Cycle model: each cycle runs commit -> writeback -> issue -> rename ->
 * fetch, so values complete before dependents try to issue (modelling
 * the bypass network) and commit uses state as of the end of the
 * previous cycle.
 */

#ifndef MSPLIB_PIPELINE_CORE_BASE_HH
#define MSPLIB_PIPELINE_CORE_BASE_HH

#include <deque>
#include <functional>
#include <vector>

#include "bpred/branch_unit.hh"
#include "common/stats.hh"
#include "functional/executor.hh"
#include "isa/program.hh"
#include "lsq/store_queue.hh"
#include "memory/memory_system.hh"
#include "pipeline/dyninst.hh"
#include "pipeline/dyninst_pool.hh"
#include "pipeline/fu_pool.hh"
#include "pipeline/inst_queue.hh"
#include "pipeline/params.hh"

namespace msp {

/** Reason the rename stage could not accept an instruction. */
enum class StallReason {
    None,
    Registers,    ///< out of physical registers (bank or free list)
    Iq,
    StoreQueue,
    LoadQueue,
    Window,       ///< ROB (baseline) full
    Checkpoint,   ///< CPR: no checkpoint for a must-checkpoint inst
};

/**
 * Raw microarchitectural path-event counters, harvested once per run by
 * the coverage-guided fuzzer (verify/coverage.{hh,cc}) and folded into
 * its (feature, bucket) bitmap. Pure observation: every increment sits
 * on an already-branchy path and never feeds back into timing, so
 * cycle-for-cycle behaviour is identical with or without a harvester.
 */
struct PathEvents
{
    /** StallReason cardinality (None..Checkpoint). */
    static constexpr unsigned stallKinds = 7;

    /**
     * Rename-stall transition matrix [prev * stallKinds + cur], one
     * count per fully stalled rename cycle. prev is the reason of the
     * previous stalled cycle, reset to None whenever rename makes
     * progress — so the matrix distinguishes "stuck on the IQ after the
     * store queue" from "stuck on the IQ out of nowhere".
     */
    std::array<std::uint64_t, stallKinds * stallKinds> stallEdge{};

    /**
     * Predictor outcome edges at control commit:
     * [predTaken*8 + taken*4 + mispredicted*2 + lowConfidence].
     */
    std::array<std::uint64_t, 16> predEdge{};

    /**
     * Squash depth (instructions killed per recovery), log2 buckets:
     * [0]=0, [1]=1, [2]=2..3, [3]=4..7, ... [7]=64+.
     */
    std::array<std::uint64_t, 8> squashDepth{};

    /** Exception-path squashes (takeException). */
    std::uint64_t exceptionSquash = 0;

    /**
     * Store-queue probe outcomes at load issue, indexed by
     * ForwardResult::Kind (None / Forward / Stall / Unknown).
     */
    std::array<std::uint64_t, 4> sqProbe{};

    /** Store-to-load forwards served from the L2 region of the SQ. */
    std::uint64_t sqL2Forward = 0;

    /** MSP: SCT bank release gates opened at commit. */
    std::uint64_t sctGateRelease = 0;

    /** MSP: dirty banks drained by LCS recomputation. */
    std::uint64_t lcsDirtyBank = 0;

    /** MSP: LCS recomputations that found at least one dirty bank. */
    std::uint64_t lcsRecompute = 0;

    bool operator==(const PathEvents &) const = default;
};

/** Shared out-of-order core skeleton. */
class CoreBase
{
  public:
    CoreBase(const CoreParams &params, const Program &program,
             PredictorKind predictor, StatGroup &statGroup);
    virtual ~CoreBase() = default;

    /**
     * Simulate until @p maxCommits instructions commit, HALT commits,
     * or @p maxCycles elapse.
     */
    RunResult run(std::uint64_t maxCommits, std::uint64_t maxCycles);

    /** Current cycle (for tests). */
    Cycle cycle() const { return now; }

    /** Committed instruction count so far. */
    std::uint64_t committed() const { return committedCount; }

    /** True once a HALT instruction has committed. */
    bool halted() const { return haltCommitted; }

    /** The lock-step functional oracle (for final-state checks). */
    const FunctionalExecutor &oracleRef() const { return oracle; }

    /**
     * Observer invoked for every committed instruction, in commit
     * order, with the retiring DynInst (pc, result, effAddr, storeData,
     * actualNextPc all final). The differential-verification subsystem
     * uses this to reconstruct the core's committed architectural state
     * without trusting the internal oracle.
     */
    using CommitObserver = std::function<void(const DynInst &)>;

    /** Install @p obs (replacing any previous observer). */
    void setCommitObserver(CommitObserver obs)
    {
        commitObserver = std::move(obs);
        commitTap = static_cast<bool>(commitObserver) ||
                    params.commitFaultAt != 0 || params.observerFaultAt != 0;
    }

    /** Path-event counters accumulated so far (coverage harvesting). */
    const PathEvents &events() const { return pathEvents; }

    /**
     * Cycles run() jumped over instead of stepping (see stepCycle()).
     * Observation only: no report, PathEvents field or coverage bitmap
     * reads it.
     */
    std::uint64_t skippedCycles() const { return skipped; }

  protected:
    // ---- per-core policy hooks ------------------------------------------

    /**
     * Per-cycle hook opt-in bits. The cycle loop is hot enough that
     * even an empty virtual call per cycle shows up, so cores that
     * implement cycleBegin()/renameCycleBegin() must also set the
     * matching flag in their constructor; unset hooks are skipped
     * without the indirect call.
     */
    enum HookFlag : unsigned char {
        kHookCycleBegin = 1u << 0,
        kHookRenameCycleBegin = 1u << 1,
    };

    /** Start-of-cycle reset (MSP register-file port masks). */
    virtual void cycleBegin() {}

    /** Reset per-cycle rename bookkeeping (MSP dual-rename counters). */
    virtual void renameCycleBegin() {}

    /**
     * Can @p d rename this cycle? Must not mutate state. On failure the
     * implementation reports the reason via stallReason (and stallBank
     * for MSP register-bank stalls).
     */
    virtual bool canRename(const DynInst &d) = 0;

    /** Allocate rename resources for @p d; must succeed after canRename. */
    virtual void renameOne(DynInst &d) = 0;

    /** Are @p d's source operands ready (register state only)?
     *  Readiness is tracked event-driven in the IQ lanes; this
     *  predicate remains as the oracle the issue stage cross-checks
     *  ready bits against (and as the naive reference for tests). */
    virtual bool operandsReady(const DynInst &d) const = 0;

    /**
     * Initialise @p d's wakeup state right after rename: count the
     * distinct source tags that are not yet ready, subscribe to their
     * producers, and hand the count to the IQ via iq.setPending().
     * Called only for instructions inserted into the IQ.
     */
    virtual void initWakeup(DynInst &d) = 0;

    /**
     * Issue-time structural check (MSP register-file read-port
     * arbitration). Runs before readOperands: right after select for a
     * non-load, after a clean store-queue probe for a load. Called once
     * per attempt, so a refused entry is counted again on each retry;
     * claiming happens in onIssued.
     */
    virtual bool issuePortsAvailable(const DynInst &d) { return true; }

    /** Copy source values into @p d (register read / bypass). */
    virtual void readOperands(DynInst &d) = 0;

    /** Per-core issue bookkeeping (use-bit clear, refcount release). */
    virtual void onIssued(DynInst &d) {}

    /**
     * Write @p d's result to its destination register. Returns false if
     * the write must retry next cycle (MSP write-port conflict).
     */
    virtual bool writebackDest(DynInst &d) = 0;

    /** Completion bookkeeping (SCT ready bit, checkpoint counters). */
    virtual void onExecuted(DynInst &d) {}

    /** Commit stage. Implementations call commitOne()/takeException(). */
    virtual void doCommit() = 0;

    /** Branch-misprediction recovery policy. */
    virtual void recoverBranch(DynInst &branch) = 0;

    /** Per-instruction resource release during a squash
     *  (called youngest-to-oldest, before the window pops). */
    virtual void onSquashInst(DynInst &d) = 0;

    /** Global repair after a squash (RAT restore, SC reset, ...). */
    virtual void afterSquash(const DynInst &trigger, bool exception) {}

    /** Extra per-instruction commit work (free superseded register). */
    virtual void onCommitted(DynInst &d) {}

    /** Baseline ROB-style window limit. */
    virtual bool windowHasRoom() const { return true; }

    /**
     * Pour the post-warmup architectural register values into the
     * core's renamed storage. Called exactly once, before any timing
     * cycle, with every rename structure still at reset: each logical
     * register's current mapping simply takes its architectural value.
     */
    virtual void warmArchState(const ArchState &warm) = 0;

    /** CPR resolved-branch fetch override (see cpr_core.cc). */
    virtual bool
    fetchOverride(Addr pc, bool &taken, Addr &target)
    {
        return false;
    }

    /** Diagnostic dump printed before a no-progress panic. */
    virtual void dumpDeadlock() const;

    /**
     * Would the commit stage repeat itself exactly if nothing else
     * moved? Part of the quiet-cycle test (see stepCycle()); a core
     * whose commit logic evolves on its own over time (the MSP LCS
     * delay line) answers false until it has settled.
     */
    virtual bool commitSettled() const { return true; }

    // ---- shared machinery (used by subclasses) ---------------------------

    /**
     * Commit the window head: oracle check, predictor training, store
     * drain, stat accounting. Pops the window.
     */
    void commitOne();

    /**
     * Take a precise exception at the window-head TRAP: commits the
     * trap (handler semantics: skip), squashes everything younger and
     * redirects to pc + 1.
     */
    void takeException();

    /**
     * Squash all instructions with seq > @p boundary and redirect fetch.
     *
     * @param boundary    Youngest surviving sequence number.
     * @param classifySeq Squashed-and-executed instructions with
     *                    seq <= classifySeq count as re-executed work;
     *                    younger ones as wrong-path work.
     * @param newPc       Fetch restart pc.
     * @param extraPenalty Added to the fetch restart delay.
     * @param exception   Squash caused by an exception.
     * @param trigger     The instruction causing the recovery.
     */
    void squashAndRedirect(SeqNum boundary, SeqNum classifySeq, Addr newPc,
                           Cycle extraPenalty, bool exception,
                           const DynInst &trigger);

    /** L2-region entries scanned by the most recent SQ squash. */
    std::size_t lastSqScan() const { return lastSqScanned; }

    // ---- pipeline stages --------------------------------------------------

    /**
     * Run one cycle. Returns true when the cycle was quiet: nothing
     * committed, completed, issued, renamed, fetched or recovered, no
     * ready instruction waited in the IQ, and commitSettled() holds.
     * A quiet cycle leaves the machine at a fixed point: every later
     * cycle repeats it exactly until `now` reaches a timed threshold.
     * run() therefore jumps straight to the next one
     * (skipQuietCycles()); the skip is exact, not an approximation.
     *
     * Quiet-cycle contract for anything added to the pipeline:
     *  - New timed state, a threshold a stage waits on until `now`
     *    reaches it (like execDoneAt, fetchStallUntil, renameReadyAt),
     *    must join the wake set in skipQuietCycles(); otherwise a skip
     *    runs past it.
     *  - A new side effect of a blocked stage that recurs every cycle
     *    (a counter bump, a probe) must either be replicated for the
     *    skipped cycles in skipQuietCycles(), as the rename-stall
     *    counters are, or make the cycle active, as a ready IQ entry
     *    that fails to issue does.
     */
    bool stepCycle();

    // Each stage returns true when it acted this cycle.
    bool doFetch();
    bool doRename();
    bool doIssueStage();
    bool doWritebackStage();

    /** Execute @p d's semantics using its captured source values. */
    void executeInst(DynInst &d);

    // ---- shared state -------------------------------------------------------

    CoreParams params;
    const Program *prog;
    StatGroup &stats;
    MemorySystem memSys;
    BranchUnit branchUnit;
    InstQueue iq;
    FuPool fuPool;
    HierStoreQueue sq;
    FunctionalExecutor oracle;

    /** Arena owning every in-flight DynInst (stable pointers). */
    DynInstPool instPool;

    /** All renamed, in-flight instructions in fetch order. */
    std::deque<DynInst *> window;

    /** Fetched but not yet renamed. */
    std::deque<DynInst *> fetchQ;

    /** Issued instructions awaiting completion. */
    std::vector<DynInst *> inExec;

    /** Per-cycle hook opt-ins (HookFlag bits, set by subclass ctors). */
    unsigned char hookFlags = 0;

    Cycle now = 0;
    SeqNum nextSeq = 1;
    Addr fetchPc = 0;
    bool fetchStopped = false;
    Cycle fetchStallUntil = 0;
    Addr lastFetchLine = invalidAddr;
    unsigned ldqUsed = 0;

    std::uint64_t committedCount = 0;
    bool haltCommitted = false;

    /** Set by canRename() on failure. */
    StallReason stallReason = StallReason::None;
    int stallBank = -1;

    /** Path-event counters (see PathEvents); subclasses bump the
     *  MSP-specific fields directly. */
    PathEvents pathEvents;

    /** Reason of the previous fully stalled rename cycle (None after
     *  any rename progress) — the row index of the stallEdge matrix. */
    StallReason prevStall = StallReason::None;

    // Run counters surfaced into RunResult.
    std::uint64_t wrongPathExec = 0;
    std::uint64_t reExecuted = 0;
    std::uint64_t branchesCommitted = 0;
    std::uint64_t mispredictsResolved = 0;
    std::uint64_t recoveries = 0;
    std::uint64_t exceptionsTaken = 0;
    std::uint64_t renameStallCycles = 0;
    std::uint64_t regStallCycles = 0;
    std::uint64_t iqStallCycles = 0;
    std::uint64_t sqStallCycles = 0;
    std::uint64_t checkpointsTaken = 0;
    std::array<std::uint64_t, numLogRegs> bankStallCycles{};

  private:
    /**
     * Fast-forward warmup (CoreParams::warmupInstrs): run the prefix on
     * the internal oracle, training the branch predictor at every
     * control instruction, then hand over the architectural state and
     * the restart pc. Timing caches stay cold by design — warmup is an
     * architectural contract, not a microarchitectural one.
     */
    void applyWarmup();
    bool warmupApplied = false;

    /** run() panics after this many cycles without a commit. */
    static constexpr Cycle deadlockCycles = 1000000;

    /**
     * After a quiet cycle: set `now` to the next timed event (capped by
     * @p maxCycles and the deadlock panic's cycle) and account the
     * skipped cycles' rename stalls as stepping would have.
     */
    void skipQuietCycles(Cycle maxCycles);

    /** Count @p cycles fully stalled rename cycles for stallReason. */
    void countRenameStall(std::uint64_t cycles);

    /** The last doRename() stalled without renaming anything. */
    bool renameStalled = false;

    std::uint64_t skipped = 0;

    std::size_t lastSqScanned = 0;
    SeqNum lastSquashBoundary = invalidSeqNum;
    Cycle lastCommitCycle = 0;
    CommitObserver commitObserver;
    std::uint64_t commitFaultSeen = 0;  ///< commitFaultAt progress counter
    std::uint64_t observerFaultSeen = 0;///< observerFaultAt progress counter

    /** True when commitOne must run the observer/fault-injection tap. */
    bool commitTap = false;

    // Loop-invariant values hoisted out of the fetch/execute paths.
    Addr progSize = 0;
    Addr progAddrMask = 0;
    std::size_t fetchQCap = 0;

    // Reused per-cycle scratch (doWritebackStage / squashAndRedirect).
    std::vector<std::pair<SeqNum, DynInst *>> wbScratch;
    std::vector<DynInst *> squashScratch;
};

} // namespace msp

#endif // MSPLIB_PIPELINE_CORE_BASE_HH
