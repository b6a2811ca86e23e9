/**
 * @file
 * Commit-stream oracle: differential verification of one timing core
 * against the functional executor.
 *
 * The timing cores carry an *internal* lock-step oracle
 * (CoreBase::oracle) whose ArchState doubles as the committed data
 * memory — so that state is correct by construction and useless as an
 * external check. This module instead taps the commit stream through
 * CoreBase::setCommitObserver, replays it into an independent
 * ArchState, and cross-checks the result against a from-scratch
 * functional execution of the same program: final architectural
 * register state, final memory image, committed-instruction count, and
 * an order-sensitive hash of the full commit stream (pc, value, store
 * address/data per commit). Any silent commit-path corruption — wrong
 * result, wrong store, wrong pc sequence, extra or missing commits —
 * surfaces as a structured Divergence instead of an assertion abort.
 *
 * With DiffOptions::snapshotEvery set, the replayed state is also
 * compared against a functional reference advanced to the same commit
 * index every N commits, so a divergence is localised to a
 * [badWindowLo, badWindowHi) commit range instead of a whole run.
 */

#ifndef MSPLIB_VERIFY_ORACLE_HH
#define MSPLIB_VERIFY_ORACLE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "functional/arch_state.hh"
#include "isa/program.hh"
#include "sim/machine.hh"
#include "verify/coverage.hh"

namespace msp {
namespace verify {

/**
 * FNV-1a over 64-bit words of the commit stream.
 *
 * Field masking happens *inside* commit(), from the isLoad/isStore
 * flags, so both models can pass their raw per-commit records —
 * including fields that are stale or meaningless for the opcode — and
 * still hash identically. Masking at the call sites (the historical
 * layout) made the hash depend on each side's incidental zeroing.
 */
struct StreamHasher
{
    std::uint64_t h = 1469598103934665603ull;

    void
    word(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 1099511628211ull;
        }
    }

    /** One commit record; identical layout for both models. */
    void
    commit(Addr pc, bool wroteReg, std::uint64_t value, bool isLoad,
           bool isStore, Addr memAddr, std::uint64_t storeValue)
    {
        word(pc);
        word(wroteReg ? value : 0);
        word(isLoad || isStore ? memAddr : 0);
        word(isStore ? storeValue : 0);
    }
};

/** One observed disagreement between a core and the functional model. */
struct Divergence
{
    std::string kind;    ///< "commit-count" | "stream" | "int-reg" |
                         ///< "fp-reg" | "mem" | "no-halt" | "ref-no-halt" |
                         ///< "snapshot" | "observer-count" | "timing"
                         ///< (the last from applyTimingInvariant, not
                         ///< diffRun: ideal-MSP IPC fell below 16-SP)
    std::string detail;  ///< human-readable specifics
};

/** Knobs of one differential run. */
struct DiffOptions
{
    /** Instruction bound for both executions ("no-halt" past it). */
    std::uint64_t maxInsts = 1u << 20;

    /** Hard cycle cap on the timing run. */
    std::uint64_t maxCycles = ~std::uint64_t{0};

    /**
     * When nonzero, compare the replayed architectural state against a
     * functional reference at every N commits and record the first bad
     * [lo, hi) commit window as a "snapshot" divergence. 0 disables
     * mid-run compares (final-state checks always run).
     */
    std::uint64_t snapshotEvery = 0;

    /**
     * When nonzero, run one extra snapshot compare at exactly this
     * commit index (in addition to any snapshotEvery cadence). This is
     * the probe primitive of exact-commit bisection (verify/bisect.hh):
     * a probe run answers "is the replayed state/stream still clean
     * after exactly N commits?" for an arbitrary N inside a bad window.
     */
    std::uint64_t probeCommit = 0;

    /**
     * Harvest the core's PathEvents counters into
     * DiffOutcome::coverage after the timing run. Pure observation —
     * the run itself is bit-identical either way.
     */
    bool collectCoverage = false;

    /**
     * Treat running into the maxInsts bound as a clean end of program
     * instead of a "no-halt"/"ref-no-halt" divergence: both executions
     * cover exactly the first maxInsts commits of the same
     * deterministic program, so the stream/state cross-checks still
     * hold over that prefix. Named-workload verification sets this so
     * the unbounded IPC workloads (the synthetic SPEC loops,
     * tight-loop) can be verified; fuzzed sweeps keep it off — a
     * fuzzed program that fails to HALT is itself the bug.
     */
    bool boundedOk = false;
};

/** Outcome of one differential run (one program on one machine). */
struct DiffOutcome
{
    /**
     * Global submission index in the campaign that produced this
     * outcome (the parent campaign's index when sharded); emitted on
     * every report row so driver::mergeReports can reassemble shard
     * reports in the unsharded order.
     */
    std::uint64_t index = 0;

    std::string mix;         ///< fuzz mix name ("" for external programs)
    std::uint64_t seed = 0;  ///< program-generation seed
    std::string config;      ///< machine-configuration name
    std::string workload;    ///< program name

    std::uint64_t committedCore = 0;  ///< core committed-instruction count
    std::uint64_t committedRef = 0;   ///< functional instruction count
    std::uint64_t cycles = 0;         ///< core cycles
    std::uint64_t streamHash = 0;     ///< FNV-1a over the commit stream

    /** Job skipped before running (campaign fail-fast / budget). */
    bool skipped = false;

    // ---- mid-run snapshot localisation (snapshotEvery only) --------------
    std::uint64_t snapshotEvery = 0;  ///< cadence this run used (0 = off)
    bool localized = false;           ///< a first bad window was found
    std::uint64_t badWindowLo = 0;    ///< last commit index seen good
    std::uint64_t badWindowHi = 0;    ///< first commit index seen bad

    // ---- exact-commit localisation (verify/bisect.hh) --------------------
    bool exactLocalized = false;      ///< bisection converged to one commit
    std::uint64_t firstBadCommit = 0; ///< 1-based index of the first
                                      ///< divergent commit (exact only)

    // ---- path coverage (DiffOptions::collectCoverage only) ---------------
    bool hasCoverage = false;         ///< coverage was harvested
    CoverageMap coverage;             ///< (feature, bucket) bits this run hit
    bool covNovel = false;            ///< run was admitted to the corpus
    std::uint64_t covNewBits = 0;     ///< bits new vs the corpus at admission

    std::vector<Divergence> divergences;

    bool ok() const { return divergences.empty(); }
};

/** Divergences recorded per job before truncation (bounded reports). */
constexpr unsigned maxDivergencesPerJob = 8;

/**
 * Run @p prog on the functional executor (golden) and on a machine
 * built from @p config with the internal oracle check disabled, then
 * cross-check the two (see DiffOptions for the knobs).
 */
DiffOutcome diffRun(const Program &prog, const MachineConfig &config,
                    const DiffOptions &opt);

/** Convenience overload with the historical (maxInsts, maxCycles) form. */
DiffOutcome diffRun(const Program &prog, const MachineConfig &config,
                    std::uint64_t maxInsts = 1u << 20,
                    std::uint64_t maxCycles = ~std::uint64_t{0});

/**
 * First divergence kind of @p cand that @p orig also reported ("" when
 * they share none). The triage stages (shrink, bisect, reduce) all use
 * this as their "still the same bug?" predicate.
 */
std::string sharedDivergenceKind(const DiffOutcome &orig,
                                 const DiffOutcome &cand);

/**
 * First architectural difference between the core's replayed state
 * @p a and the functional state @p b ("" when equal): registers first,
 * then the lowest differing memory word. This is the detail text of a
 * "snapshot" divergence.
 */
std::string firstStateDiff(const ArchState &a, const ArchState &b);

} // namespace verify
} // namespace msp

#endif // MSPLIB_VERIFY_ORACLE_HH
