#include "verify/reduce.hh"

#include <algorithm>
#include <set>
#include <vector>

#include "driver/campaign.hh"
#include "functional/executor.hh"
#include "verify/budget.hh"

namespace msp {
namespace verify {

namespace {

using Clock = TriageClock;

/** A half-open candidate deletion range of instruction indices. */
struct Range
{
    std::size_t lo = 0;
    std::size_t hi = 0;
    std::size_t size() const { return hi - lo; }
};

/**
 * Registers ever read by an indirect control transfer (JR rs1, RET
 * rs1). An LI of a code address into one of these is an indirect
 * branch target / link value and must be relinked across a deletion;
 * an LI of the same numeric value into any other register is plain
 * data (loop trip counts collide with low pcs all the time) and must
 * be left alone.
 */
std::set<int>
indirectSourceRegs(const Program &p)
{
    std::set<int> regs;
    for (const Instruction &in : p.code)
        if (in.info().isIndirect && in.rs1 >= 0)
            regs.insert(in.rs1);
    return regs;
}

/**
 * Candidate deletion ranges of @p p, largest first: basic blocks
 * (leaders = entry, branch targets, fallthroughs after control,
 * indirect-target LI immediates), runs of consecutive blocks, and
 * whole loop bodies including their backward branch. The whole-program
 * range is excluded; everything else is allowed — validation, not
 * construction, decides what survives. @p ind is
 * indirectSourceRegs(p) — shared with dropRange so leader detection
 * and relinking classify target immediates identically.
 */
std::vector<Range>
candidateRanges(const Program &p, const std::set<int> &ind)
{
    const std::size_t n = p.code.size();
    if (n < 2)
        return {};

    std::set<std::size_t> leaders;
    leaders.insert(0);
    leaders.insert(static_cast<std::size_t>(p.entry) % n);
    for (std::size_t pc = 0; pc < n; ++pc) {
        const Instruction &in = p.code[pc];
        const OpInfo &oi = in.info();
        if ((oi.isControl() || oi.isHalt) && pc + 1 < n)
            leaders.insert(pc + 1);
        const bool targetImm = oi.isCondBranch || oi.isUncondDirect ||
                               (in.op == Opcode::LI &&
                                ind.count(in.rd) != 0);
        if (targetImm && in.imm >= 0 &&
            static_cast<std::uint64_t>(in.imm) < n) {
            leaders.insert(static_cast<std::size_t>(in.imm));
        }
    }

    std::vector<Range> blocks;
    for (auto it = leaders.begin(); it != leaders.end(); ++it) {
        auto next = std::next(it);
        const std::size_t hi = next == leaders.end() ? n : *next;
        if (hi > *it)
            blocks.push_back({*it, hi});
    }

    std::vector<Range> ranges = blocks;
    for (std::size_t k : {std::size_t{16}, std::size_t{8},
                          std::size_t{4}, std::size_t{2}}) {
        if (blocks.size() <= k)
            continue;
        const std::size_t step = std::max<std::size_t>(1, k / 2);
        for (std::size_t i = 0; i + k <= blocks.size(); i += step)
            ranges.push_back({blocks[i].lo, blocks[i + k - 1].hi});
    }
    for (std::size_t pc = 0; pc < n; ++pc) {
        const Instruction &in = p.code[pc];
        if (in.info().isCondBranch && in.imm >= 0 &&
            static_cast<std::uint64_t>(in.imm) <= pc) {
            ranges.push_back({static_cast<std::size_t>(in.imm), pc + 1});
        }
    }

    std::sort(ranges.begin(), ranges.end(),
              [](const Range &a, const Range &b) {
                  return a.lo != b.lo ? a.lo < b.lo : a.hi < b.hi;
              });
    ranges.erase(std::unique(ranges.begin(), ranges.end(),
                             [](const Range &a, const Range &b) {
                                 return a.lo == b.lo && a.hi == b.hi;
                             }),
                 ranges.end());
    ranges.erase(std::remove_if(ranges.begin(), ranges.end(),
                                [&](const Range &r) {
                                    return r.size() == 0 ||
                                           (r.lo == 0 && r.hi == n);
                                }),
                 ranges.end());
    std::stable_sort(ranges.begin(), ranges.end(),
                     [](const Range &a, const Range &b) {
                         return a.size() != b.size()
                                    ? a.size() > b.size()
                                    : a.lo < b.lo;
                     });
    return ranges;
}

/**
 * @p p with code [lo, hi) removed and every surviving pc-valued
 * immediate relinked across the gap: branch / direct-jump targets
 * always, LI immediates only when they feed an indirect transfer.
 * Targets inside the gap land on the first surviving instruction.
 */
Program
dropRange(const Program &p, const Range &r,
          const std::set<int> &indirectRegs)
{
    const std::size_t n = p.code.size();
    const std::size_t cut = r.size();
    const auto remap = [&](std::uint64_t pc) -> std::uint64_t {
        if (pc < r.lo)
            return pc;
        if (pc >= r.hi)
            return pc - cut;
        return r.lo;
    };

    Program out = p;
    out.code.clear();
    out.code.reserve(n - cut);
    for (std::size_t pc = 0; pc < n; ++pc) {
        if (pc >= r.lo && pc < r.hi)
            continue;
        Instruction in = p.code[pc];
        const OpInfo &oi = in.info();
        const bool isTargetImm =
            oi.isCondBranch || oi.isUncondDirect ||
            (in.op == Opcode::LI && indirectRegs.count(in.rd) != 0);
        if (isTargetImm && in.imm >= 0 &&
            static_cast<std::uint64_t>(in.imm) <= n) {
            in.imm = static_cast<std::int64_t>(
                remap(static_cast<std::uint64_t>(in.imm)));
        }
        out.code.push_back(in);
    }
    out.entry = remap(p.entry);
    return out;
}

/** One evaluated candidate of a scan batch. */
struct Candidate
{
    bool evaluated = false;   ///< false when the deadline skipped it
    bool ok = false;          ///< halts and reproduces a shared kind
    std::string kind;
    Program prog;
    DiffOutcome out;
    std::uint64_t dyn = 0;    ///< functional dynamic length
};

/**
 * Validate one deletion candidate: must terminate functionally within
 * @p dynCap instructions and reproduce one of @p orig's divergence
 * kinds under diffRun.
 */
void
evaluate(Candidate &c, const Program &base, const Range &r,
         const std::set<int> &indirectRegs, const MachineConfig &config,
         const DiffOutcome &orig, const DiffOptions &dopt,
         std::uint64_t dynCap)
{
    c.evaluated = true;
    c.prog = dropRange(base, r, indirectRegs);
    if (c.prog.code.empty())
        return;
    {
        FunctionalExecutor ref(c.prog);
        ref.run(dynCap);
        if (!ref.halted())
            return;   // lost the termination guarantee: reject
        c.dyn = ref.instCount();
    }
    c.out = diffRun(c.prog, config, dopt);
    c.kind = sharedDivergenceKind(orig, c.out);
    c.ok = !c.kind.empty();
}

} // anonymous namespace

ReduceResult
reduceDivergence(const Program &prog, const MachineConfig &config,
                 const DiffOutcome &orig, const DiffOptions &dopt,
                 const ReduceOptions &opt, const DiffOutcome *baseline)
{
    const Clock::time_point deadline = triageDeadline(opt.budgetSec);

    ReduceResult res;
    res.program = prog;
    res.origStatic = prog.code.size();
    res.reducedStatic = prog.code.size();

    // Baseline: the input must halt and reproduce before a search is
    // worth anything (and its dynamic length anchors the growth cap).
    {
        FunctionalExecutor ref(prog);
        ref.run(dopt.maxInsts);
        if (!ref.halted())
            return res;
        res.origDynamic = ref.instCount();
        res.reducedDynamic = res.origDynamic;
    }
    if (baseline) {
        // The caller already diffRan this exact program (the shrinker
        // hands over its last successful attempt): no need to re-run a
        // full timing simulation just to re-derive its outcome.
        res.outcome = *baseline;
    } else {
        ++res.attempts;
        res.outcome = diffRun(prog, config, dopt);
    }
    res.kind = sharedDivergenceKind(orig, res.outcome);
    if (res.kind.empty())
        return res;
    res.reproduced = true;

    const std::uint64_t dynCap = std::min(
        dopt.maxInsts,
        res.origDynamic * std::max<std::uint64_t>(1, opt.maxGrowFactor));

    Program cur = prog;
    bool improvedAny = true;
    while (improvedAny && res.attempts < opt.maxAttempts &&
           Clock::now() < deadline) {
        improvedAny = false;
        ++res.rounds;
        const std::set<int> indirectRegs = indirectSourceRegs(cur);
        const std::vector<Range> ranges =
            candidateRanges(cur, indirectRegs);

        std::size_t cursor = 0;
        while (cursor < ranges.size() &&
               res.attempts < opt.maxAttempts &&
               Clock::now() < deadline) {
            const std::size_t room = opt.maxAttempts - res.attempts;
            const std::size_t left = ranges.size() - cursor;
            const std::size_t batch = std::min(
                {left, room,
                 static_cast<std::size_t>(driver::effectivePoolThreads(
                     opt.threads, left))});

            std::vector<Candidate> cands(batch);
            driver::parallelFor(opt.threads, batch, [&](std::size_t i) {
                if (Clock::now() >= deadline)
                    return;
                evaluate(cands[i], cur, ranges[cursor + i], indirectRegs,
                         config, orig, dopt, dynCap);
            });

            std::size_t winner = batch;
            for (std::size_t i = 0; i < batch; ++i) {
                if (cands[i].evaluated && cands[i].ok) {
                    winner = i;
                    break;
                }
            }
            // Attempts are counted as if the scan were sequential
            // (candidates past the winner are free), so the
            // maxAttempts cutoff does not depend on the thread count.
            if (winner < batch) {
                res.attempts +=
                    static_cast<unsigned>(std::min<std::size_t>(
                        winner + 1, room));
                cur = std::move(cands[winner].prog);
                res.outcome = std::move(cands[winner].out);
                res.kind = std::move(cands[winner].kind);
                res.reducedDynamic = cands[winner].dyn;
                improvedAny = true;
                break;   // block structure changed: rescan from scratch
            }
            res.attempts += static_cast<unsigned>(
                std::min<std::size_t>(batch, room));
            cursor += batch;
        }
    }

    // ---- data tier: memory geometry, then unread init words --------------
    // Block deletion shrinks code; the embedded repro also carries a
    // data footprint (memWords geometry + init_data image). Both are
    // validated the same way as deletions — a smaller address mask
    // changes where every access lands, and even an architecturally
    // inert zeroing can perturb wrong-path load values and thus timing.
    const auto validateImage = [&](Candidate &c, Program cand) {
        c.evaluated = true;
        c.prog = std::move(cand);
        FunctionalExecutor ref(c.prog);
        ref.run(dynCap);
        if (!ref.halted())
            return;
        c.dyn = ref.instCount();
        c.out = diffRun(c.prog, config, dopt);
        c.kind = sharedDivergenceKind(orig, c.out);
        c.ok = !c.kind.empty();
    };
    const auto accept = [&](Candidate &c) {
        cur = std::move(c.prog);
        res.outcome = std::move(c.out);
        res.kind = std::move(c.kind);
        res.reducedDynamic = c.dyn;
    };

    res.memWordsBefore = cur.memWords;
    while (cur.memWords >= 2 && res.attempts < opt.maxAttempts &&
           Clock::now() < deadline) {
        Program cand = cur;
        cand.memWords /= 2;   // stays a power of two
        if (cand.initData.size() > cand.memWords)
            cand.initData.edit().resize(cand.memWords);
        ++res.attempts;
        Candidate c;
        validateImage(c, std::move(cand));
        if (!c.ok)
            break;
        accept(c);
    }
    res.memWordsAfter = cur.memWords;

    bool initShrank = false;
    if (!cur.initData.empty() && res.attempts < opt.maxAttempts &&
        Clock::now() < deadline) {
        // Words the functional run never loads cannot reach the
        // committed stream: zero them and drop the zero tail.
        std::vector<bool> read(cur.memWords, false);
        FunctionalExecutor ref(cur);
        while (!ref.halted() && ref.instCount() < dynCap) {
            const StepResult sr = ref.step();
            if (sr.isLoad) {
                read[static_cast<std::size_t>(
                    (sr.memAddr & cur.addrMask()) / wordBytes)] = true;
            }
        }
        Program cand = cur;
        std::vector<std::uint64_t> &init = cand.initData.edit();
        std::size_t zeroed = 0;
        for (std::size_t w = 0; w < init.size(); ++w) {
            if (!read[w] && init[w] != 0) {
                init[w] = 0;
                ++zeroed;
            }
        }
        while (!init.empty() && init.back() == 0)
            init.pop_back();
        if (zeroed != 0 || cand.initData.size() != cur.initData.size()) {
            ++res.attempts;
            Candidate c;
            validateImage(c, std::move(cand));
            if (c.ok) {
                accept(c);
                res.zeroedWords = zeroed;
                initShrank = true;
            }
        }
    }
    res.dataReduced =
        res.memWordsAfter < res.memWordsBefore || initShrank;

    res.program = std::move(cur);
    res.reducedStatic = res.program.code.size();
    // The embedded image is the replay authority whenever it differs
    // from the mix-shrunk program — structurally or in its data tier.
    res.reduced = res.reducedStatic < res.origStatic || res.dataReduced;
    return res;
}

} // namespace verify
} // namespace msp
