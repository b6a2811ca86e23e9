#include "verify/oracle.hh"

#include "common/logging.hh"
#include "functional/executor.hh"
#include "functional/warmup.hh"
#include "pipeline/core_base.hh"

namespace msp {
namespace verify {

namespace {

void
addDivergence(DiffOutcome &out, const char *kind, std::string detail)
{
    if (out.divergences.size() < maxDivergencesPerJob)
        out.divergences.push_back(Divergence{kind, std::move(detail)});
}

/** Detail text for memory word @p w, where @p a and @p b differ. */
std::string
wordDiff(const ArchState &a, const ArchState &b, std::size_t w)
{
    const Addr addr = static_cast<Addr>(w) * wordBytes;
    return csprintf("word %zu: core %016llx functional %016llx", w,
                    static_cast<unsigned long long>(a.load(addr)),
                    static_cast<unsigned long long>(b.load(addr)));
}

} // anonymous namespace

std::string
firstStateDiff(const ArchState &a, const ArchState &b)
{
    for (int reg = 0; reg < numIntRegs; ++reg) {
        if (a.readInt(reg) != b.readInt(reg)) {
            return csprintf("r%d: core %016llx functional %016llx", reg,
                            static_cast<unsigned long long>(a.readInt(reg)),
                            static_cast<unsigned long long>(
                                b.readInt(reg)));
        }
    }
    for (int reg = 0; reg < numFpRegs; ++reg) {
        if (a.readFp(reg) != b.readFp(reg)) {
            return csprintf("f%d: core %016llx functional %016llx", reg,
                            static_cast<unsigned long long>(a.readFp(reg)),
                            static_cast<unsigned long long>(
                                b.readFp(reg)));
        }
    }
    const std::size_t w = a.firstMemDiff(b);
    return w < a.memWords() ? wordDiff(a, b, w) : "";
}

std::string
sharedDivergenceKind(const DiffOutcome &orig, const DiffOutcome &cand)
{
    for (const Divergence &c : cand.divergences)
        for (const Divergence &o : orig.divergences)
            if (c.kind == o.kind)
                return c.kind;
    return "";
}

DiffOutcome
diffRun(const Program &prog, const MachineConfig &config,
        std::uint64_t maxInsts, std::uint64_t maxCycles)
{
    DiffOptions opt;
    opt.maxInsts = maxInsts;
    opt.maxCycles = maxCycles;
    return diffRun(prog, config, opt);
}

DiffOutcome
diffRun(const Program &prog, const MachineConfig &config,
        const DiffOptions &opt)
{
    DiffOutcome out;
    out.config = config.name;
    out.workload = prog.name;
    out.snapshotEvery = opt.snapshotEvery;

    // ---- golden pass: from-scratch functional execution ------------------
    // With warmup configured, the timing core only commits (and the
    // observer only sees) the post-warmup suffix, so the reference
    // fast-forwards the identical prefix unhashed — fastForward() is
    // the single definition of where the handoff lands on both sides.
    FunctionalExecutor ref(prog);
    const std::uint64_t warmSteps =
        fastForward(ref, prog, config.core.warmupInstrs);
    const ArchState warmState = ref.state();   // handoff snapshot
    StreamHasher refHash;
    while (!ref.halted() && ref.instCount() < warmSteps + opt.maxInsts) {
        const StepResult sr = ref.step();
        refHash.commit(sr.pc, sr.wroteReg, sr.value, sr.isLoad,
                       sr.isStore, sr.memAddr, sr.storeValue);
    }
    out.committedRef = ref.instCount() - warmSteps;
    if (!ref.halted() && !opt.boundedOk) {
        addDivergence(out, "ref-no-halt",
                      csprintf("functional model did not HALT within "
                               "%llu instructions",
                               static_cast<unsigned long long>(
                                   opt.maxInsts)));
        return out;
    }

    // ---- timing pass: commit stream replayed into its own state ----------
    MachineConfig cfg = config;
    // A divergence must surface as a report, not an internal assertion
    // abort, so the lock-step check is off for differential runs.
    cfg.core.oracleCheck = false;
    Machine m(cfg, prog);

    ArchState replay = warmState;   // commits replay on top of warmup
    StreamHasher coreHash;
    std::uint64_t replayed = 0;

    // Snapshot reference, advanced lazily to each compare point while
    // folding its own commit-stream hash. It re-executes the functional
    // program a second time, but only up to the committed length —
    // noise next to the timing simulation. Comparing the running hash
    // as well as the state catches *transient* corruption (a wrong
    // value overwritten again before the boundary) that a pure state
    // snapshot would miss.
    FunctionalExecutor snapRef(prog);
    fastForward(snapRef, prog, warmSteps);
    StreamHasher snapRefHash;
    std::uint64_t lastGoodSnap = 0;

    m.core().setCommitObserver([&](const DynInst &d) {
        if (d.si.writesReg())
            replay.write(d.si.info().dst, d.si.rd, d.result);
        if (d.isStore())
            replay.store(d.effAddr, d.storeData);
        coreHash.commit(d.pc, d.si.writesReg(), d.result, d.isLoad(),
                        d.isStore(), d.effAddr, d.storeData);
        ++replayed;

        const bool cadenceHit =
            opt.snapshotEvery != 0 && replayed % opt.snapshotEvery == 0;
        const bool probeHit =
            opt.probeCommit != 0 && replayed == opt.probeCommit;
        if (out.localized || (!cadenceHit && !probeHit))
            return;
        while (!snapRef.halted() &&
               snapRef.instCount() < warmSteps + replayed) {
            const StepResult sr = snapRef.step();
            snapRefHash.commit(sr.pc, sr.wroteReg, sr.value, sr.isLoad,
                               sr.isStore, sr.memAddr, sr.storeValue);
        }
        // A commit count past the reference HALT point can never match.
        std::string diff;
        if (snapRef.instCount() - warmSteps != replayed) {
            diff = csprintf("functional model halted after %llu "
                            "instructions",
                            static_cast<unsigned long long>(
                                snapRef.instCount() - warmSteps));
        } else {
            diff = firstStateDiff(replay, snapRef.state());
            if (diff.empty() && coreHash.h != snapRefHash.h) {
                diff = csprintf("commit streams diverge (hash %016llx "
                                "!= functional %016llx) but the window's "
                                "final states match (transient "
                                "corruption)",
                                static_cast<unsigned long long>(
                                    coreHash.h),
                                static_cast<unsigned long long>(
                                    snapRefHash.h));
            }
        }
        if (diff.empty()) {
            lastGoodSnap = replayed;
            return;
        }
        out.localized = true;
        out.badWindowLo = lastGoodSnap;
        out.badWindowHi = replayed;
        addDivergence(out, "snapshot",
                      csprintf("first state mismatch inside commits "
                               "[%llu, %llu): %s",
                               static_cast<unsigned long long>(
                                   out.badWindowLo),
                               static_cast<unsigned long long>(
                                   out.badWindowHi),
                               diff.c_str()));
    });

    const RunResult r = m.run(opt.maxInsts, opt.maxCycles);
    out.committedCore = r.committed;
    out.cycles = r.cycles;

    // The core's cycle loop retires whole groups, so a budget-bounded
    // run can overshoot maxInsts by up to one retire width. Under
    // boundedOk, walk the reference forward over the same extra
    // commits so both sides cover the identical prefix.
    if (opt.boundedOk) {
        while (!ref.halted() &&
               ref.instCount() < warmSteps + r.committed) {
            const StepResult sr = ref.step();
            refHash.commit(sr.pc, sr.wroteReg, sr.value, sr.isLoad,
                           sr.isStore, sr.memAddr, sr.storeValue);
        }
        out.committedRef = ref.instCount() - warmSteps;
    }
    out.streamHash = coreHash.h;
    if (opt.collectCoverage) {
        out.hasCoverage = true;
        out.coverage = harvestCoverage(m.core().events());
    }

    // ---- cross-checks ----------------------------------------------------
    if (replayed != r.committed) {
        // Every commit is contracted to pass through the observer; a
        // miss means commit-path work the replayed state never saw.
        // Reported, not asserted: the whole point of this module is
        // that divergences surface as reports (campaigns must outlive
        // them), and the stated contract above promises exactly that.
        addDivergence(out, "observer-count",
                      csprintf("commit observer saw %llu of %llu commits",
                               static_cast<unsigned long long>(replayed),
                               static_cast<unsigned long long>(
                                   r.committed)));
    }
    // Under boundedOk, stopping at the commit budget is the expected
    // end; falling short of it (a stall/deadlock) is still a failure.
    if (!m.core().halted() &&
        !(opt.boundedOk && r.committed >= opt.maxInsts)) {
        addDivergence(out, "no-halt",
                      csprintf("core committed %llu instructions in %llu "
                               "cycles without reaching HALT",
                               static_cast<unsigned long long>(r.committed),
                               static_cast<unsigned long long>(r.cycles)));
    }
    if (out.committedCore != out.committedRef) {
        addDivergence(out, "commit-count",
                      csprintf("core committed %llu, functional %llu",
                               static_cast<unsigned long long>(
                                   out.committedCore),
                               static_cast<unsigned long long>(
                                   out.committedRef)));
    }
    if (coreHash.h != refHash.h) {
        addDivergence(out, "stream",
                      csprintf("commit-stream hash %016llx != functional "
                               "%016llx",
                               static_cast<unsigned long long>(coreHash.h),
                               static_cast<unsigned long long>(refHash.h)));
    }

    const ArchState &gold = ref.state();
    for (int reg = 0; reg < numIntRegs; ++reg) {
        if (replay.readInt(reg) != gold.readInt(reg)) {
            addDivergence(out, "int-reg",
                          csprintf("r%d: core %016llx functional %016llx",
                                   reg,
                                   static_cast<unsigned long long>(
                                       replay.readInt(reg)),
                                   static_cast<unsigned long long>(
                                       gold.readInt(reg))));
        }
    }
    for (int reg = 0; reg < numFpRegs; ++reg) {
        if (replay.readFp(reg) != gold.readFp(reg)) {
            addDivergence(out, "fp-reg",
                          csprintf("f%d: core %016llx functional %016llx",
                                   reg,
                                   static_cast<unsigned long long>(
                                       replay.readFp(reg)),
                                   static_cast<unsigned long long>(
                                       gold.readFp(reg))));
        }
    }
    // Only words that differ are visited; pages both sides still share
    // are skipped unread.
    for (std::size_t w = replay.firstMemDiff(gold); w < prog.memWords;
         w = replay.firstMemDiff(gold, w + 1))
        addDivergence(out, "mem", wordDiff(replay, gold, w));
    return out;
}

} // namespace verify
} // namespace msp
