#include "workload/spec.hh"

#include <map>

#include "common/logging.hh"
#include "common/random.hh"
#include "isa/builder.hh"

namespace msp {
namespace spec {

namespace {

// Register conventions used by every synthetic benchmark:
//   r1  outer counter        r2  outer limit
//   r3  array base (bytes)   r4  array mask (bytes, word-aligned)
//   r5  chase pointer        r6  pattern counter
//   r7  address scratch      r8..r23  cycled temporaries (regSpread)
//   r24 pattern period       r25 inner trip count
//   r26 inner counter        r27 phase accumulator
//   r28 call argument        r29 call result
//   r30 indirect target      r31 link register
constexpr int rOuter = 1, rLimit = 2, rBase = 3, rMask = 4, rChase = 5;
constexpr int rPat = 6, rAddr = 7, rTmp0 = 8;
constexpr int rPeriod = 24, rTrip = 25, rInner = 26, rPhase = 27;
constexpr int rArg = 28, rRet = 29, rJump = 30, rLink = 31;

constexpr std::uint64_t hugeIters = 1000000000ull;

/** Emits one synthetic benchmark from a SynthSpec. */
class SynthBuilder
{
  public:
    explicit SynthBuilder(const SynthSpec &s)
        : s(s), b(s.name), rng(s.seed * 0x9e3779b97f4a7c15ull + 1)
    {
        msp_assert(s.fpRegSpread >= 2 && s.fpRegSpread <= 28,
                   "%s: fpRegSpread out of range", s.name.c_str());
        // Temp pool: r7 and r8..r23 always; registers reserved for
        // unused features are recycled as extra temporaries, the way a
        // register allocator would use every free architectural
        // register.
        pool.push_back(rAddr);
        for (int r = rTmp0; r <= 23; ++r)
            pool.push_back(r);
        if (!s.pointerChase) {
            pool.push_back(rChase);
            if (s.patternPeriod == 0)
                pool.push_back(rPat);
        }
        if (s.patternPeriod == 0)
            pool.push_back(rPeriod);
        if (!s.calls) {
            pool.push_back(rArg);
            pool.push_back(rRet);
        }
        if (!s.indirect)
            pool.push_back(rJump);
        msp_assert(s.regSpread >= 2 &&
                       s.regSpread <= pool.size(),
                   "%s: regSpread out of range", s.name.c_str());
        pool.resize(s.regSpread);
    }

    Program build();

  private:
    int
    nextTmp()
    {
        const int r = pool[tmpIdx % pool.size()];
        ++tmpIdx;
        return r;
    }

    int
    prevTmp() const
    {
        const std::uint64_t i = tmpIdx == 0 ? 0 : tmpIdx - 1;
        return pool[i % pool.size()];
    }

    int
    nextFpTmp()
    {
        const int r = 1 + static_cast<int>(fpIdx % s.fpRegSpread);
        ++fpIdx;
        return r;
    }

    int
    prevFpTmp() const
    {
        const std::uint64_t i = fpIdx == 0 ? 0 : fpIdx - 1;
        return 1 + static_cast<int>(i % s.fpRegSpread);
    }

    void layoutData();
    void emitFunctions();
    void emitInit();
    void emitBlock(unsigned blockIdx);
    void emitItem(unsigned blockIdx, unsigned itemIdx);
    void emitLoadAndBranch();
    void emitPatternBranch();
    void emitArithChain();
    void emitFpChain();
    void emitStore();
    void emitChaseStep();
    void emitCall();
    void emitIndirect();

    const SynthSpec &s;
    ProgramBuilder b;
    Rng rng;
    std::vector<int> pool;   ///< integer temporary registers
    std::uint64_t tmpIdx = 0;
    std::uint64_t fpIdx = 0;

    /** Register holding the current item's array address. */
    int lastAddrReg = rTmp0;

    /** Pointer-chase chain registers (parallel chains expose MLP). */
    std::vector<int> chaseRegs;
    unsigned chaseIdx = 0;

    // Data layout (word indices).
    std::size_t arrayBase = 64;
    std::size_t chaseBase = 0;
    std::size_t tableBase = 0;
    std::size_t storeBase = 0;
    unsigned numHandlers = 8;

    std::vector<Label> funcs;
    std::vector<Label> handlerLabels;
};

void
SynthBuilder::layoutData()
{
    std::size_t next = arrayBase + s.wsWords;
    if (s.pointerChase) {
        chaseBase = next;
        next += s.chaseNodes;
    }
    if (s.indirect) {
        tableBase = next;
        next += numHandlers;
    }
    // Integer stores land in their own small region so they cannot
    // disturb the branch-bias bits planted in the load array.
    storeBase = next;
    next += 4096;
    b.memSize(next + 64);

    // Array data: controlled taken-bias in bit 0, random elsewhere.
    for (std::size_t i = 0; i < s.wsWords; ++i) {
        std::uint64_t v = rng.next() & ~std::uint64_t{1};
        if (rng.chance(s.randomBias))
            v |= 1;
        b.data(arrayBase + i, v);
    }

    if (s.pointerChase) {
        // Several independent rings: a large window can overlap one
        // miss per chain (memory-level parallelism, as in real mcf
        // where multiple arcs are chased per iteration).
        chaseRegs = {rChase, rPat};
        if (!s.calls) {
            chaseRegs.push_back(rArg);
            chaseRegs.push_back(rRet);
        }
        const std::size_t chains = chaseRegs.size();
        const std::size_t per = s.chaseNodes / chains;
        for (std::size_t c = 0; c < chains; ++c) {
            const std::size_t lo = c * per;
            std::vector<std::uint32_t> perm(per);
            for (std::size_t i = 0; i < per; ++i)
                perm[i] = static_cast<std::uint32_t>(lo + i);
            for (std::size_t i = per - 1; i > 0; --i)
                std::swap(perm[i], perm[rng.below(i + 1)]);
            for (std::size_t i = 0; i < per; ++i) {
                const std::size_t cur = perm[i];
                const std::size_t nxt = perm[(i + 1) % per];
                b.data(chaseBase + cur, (chaseBase + nxt) * wordBytes);
            }
        }
    }
}

void
SynthBuilder::emitFunctions()
{
    // Small leaf functions: r29 = f(r28).
    const unsigned nFuncs = s.calls ? 3 : 0;
    Label skip = b.newLabel();
    if (nFuncs > 0)
        b.j(skip);
    for (unsigned f = 0; f < nFuncs; ++f) {
        Label l = b.newLabel();
        b.bind(l);
        switch (f % 3) {
          case 0:
            b.addi(rRet, rArg, 13);
            b.xori(rRet, rRet, 0x55);
            break;
          case 1:
            b.slli(rRet, rArg, 2);
            b.add(rRet, rRet, rArg);
            b.srli(rRet, rRet, 1);
            break;
          default:
            b.mul(rRet, rArg, rArg);
            b.addi(rRet, rRet, 7);
            break;
        }
        b.ret(rLink);
        funcs.push_back(l);
    }
    if (nFuncs > 0)
        b.bind(skip);
}

void
SynthBuilder::emitInit()
{
    b.li(rOuter, 0);
    b.li(rLimit, static_cast<std::int64_t>(hugeIters));
    b.li(rBase, static_cast<std::int64_t>(arrayBase * wordBytes));
    b.li(rMask, static_cast<std::int64_t>(s.wsWords * wordBytes - 8));
    b.li(rPhase, 0);
    if (s.patternPeriod > 0) {
        b.li(rPat, 0);
        b.li(rPeriod, s.patternPeriod);
    }
    if (s.pointerChase) {
        const std::size_t per = s.chaseNodes / chaseRegs.size();
        for (std::size_t c = 0; c < chaseRegs.size(); ++c) {
            b.li(chaseRegs[c],
                 static_cast<std::int64_t>((chaseBase + c * per) *
                                           wordBytes));
        }
    }
    for (unsigned i = 0; i < pool.size(); ++i)
        b.li(pool[i], 3 * i + 1);
    if (s.fp || s.fpMix > 0.0) {
        for (unsigned i = 0; i < s.fpRegSpread; ++i) {
            b.li(rTrip, static_cast<std::int64_t>(i + 1));
            b.fitof(1 + i, rTrip);
        }
    }
}

void
SynthBuilder::emitLoadAndBranch()
{
    // t = A[(phase + inner*stride) & mask]; if (t & 1) work.
    // Address temporaries rotate through the same pool as data
    // temporaries: compiled code spreads address arithmetic across the
    // architectural registers, and that spread is exactly the knob that
    // controls MSP bank pressure (Sec. 4.3).
    const int t1 = nextTmp();
    b.slli(t1, rInner, 3 + (s.stride > 2 ? 2 : s.stride - 1));
    const int t2 = nextTmp();
    b.add(t2, t1, rPhase);
    const int t3 = nextTmp();
    if (rng.chance(s.hotFrac)) {
        // Hot load site: confined to the L1-resident core region.
        b.andi(t3, t2,
               static_cast<std::int64_t>(s.hotWords * wordBytes - 8));
    } else {
        b.and_(t3, t2, rMask);
    }
    lastAddrReg = t3;
    const int t = nextTmp();
    b.ld(t, t3, static_cast<std::int64_t>(arrayBase * wordBytes));
    if (rng.chance(s.randomBranchDensity)) {
        Label skip = b.newLabel();
        const int t4 = nextTmp();
        b.andi(t4, t, 1);
        // Taken with probability randomBias (data bit0 bias): skewed,
        // data-dependent, unlearnable by any history-based predictor.
        b.beq(t4, 0, skip);
        const int t5 = nextTmp();
        b.add(t5, prevTmp(), t);
        b.bind(skip);
    }
}

void
SynthBuilder::emitPatternBranch()
{
    // Periodic direction with period rPeriod: first half taken. A long
    // period is learnable with TAGE's geometric histories but aliases
    // in gshare's 16-bit folded history.
    Label noReset = b.newLabel();
    Label skip = b.newLabel();
    const int t = nextTmp();
    b.addi(rPat, rPat, 1);
    b.blt(rPat, rPeriod, noReset);
    b.li(rPat, 0);
    b.bind(noReset);
    b.slti(t, rPat, s.patternPeriod / 2);
    b.beq(t, 0, skip);
    const int t2 = nextTmp();
    b.addi(t2, prevTmp(), 5);
    b.bind(skip);
}

void
SynthBuilder::emitArithChain()
{
    for (unsigned k = 0; k < s.chainLen; ++k) {
        const int src = prevTmp();
        const int dst = nextTmp();
        switch (rng.below(5)) {
          case 0: b.add(dst, src, rInner); break;
          case 1: b.xor_(dst, src, rPhase); break;
          case 2: b.slli(dst, src, 1); break;
          case 3: b.mul(dst, src, rOuter); break;
          default: b.addi(dst, src, 11); break;
        }
    }
}

void
SynthBuilder::emitFpChain()
{
    // fld + dependent fp chain, cycling over fpRegSpread registers.
    const std::int64_t off = static_cast<std::int64_t>(arrayBase *
                                                       wordBytes);
    const int f0 = nextFpTmp();
    b.fld(f0, lastAddrReg, off);
    for (unsigned k = 0; k < s.chainLen; ++k) {
        const int src = prevFpTmp();
        const int dst = nextFpTmp();
        switch (rng.below(3)) {
          case 0: b.fadd(dst, src, f0); break;
          case 1: b.fmul(dst, src, f0); break;
          default: b.fsub(dst, src, f0); break;
        }
    }
    if (rng.chance(s.storeDensity))
        b.fst(prevFpTmp(), lastAddrReg, off);
}

void
SynthBuilder::emitStore()
{
    const int t = nextTmp();
    b.andi(t, lastAddrReg, 4096 * wordBytes - 8);
    b.st(prevTmp(), t, static_cast<std::int64_t>(storeBase * wordBytes));
}

void
SynthBuilder::emitChaseStep()
{
    // Round-robin over the independent chains: each chain is a serial
    // dependence, but chains overlap each other's misses.
    const int creg = chaseRegs[chaseIdx++ % chaseRegs.size()];
    b.ld(creg, creg, 0);        // p = *p
    const int t = nextTmp();
    b.add(t, prevTmp(), creg);
}

void
SynthBuilder::emitCall()
{
    b.mov(rArg, prevTmp());
    b.jal(rLink, funcs[rng.below(funcs.size())]);
    const int t = nextTmp();
    b.add(t, rRet, 0);
}

void
SynthBuilder::emitIndirect()
{
    // Interpreter-style dispatch: jump through a table indexed by data.
    Label cont = b.newLabel();
    b.andi(rJump, prevTmp(), numHandlers - 1);
    b.slli(rJump, rJump, 3);
    b.addi(rJump, rJump,
           static_cast<std::int64_t>(tableBase * wordBytes));
    b.ld(rJump, rJump, 0);
    b.jr(rJump);
    for (unsigned h = 0; h < numHandlers; ++h) {
        Label l = b.newLabel();
        b.bind(l);
        const int t = nextTmp();
        b.addi(t, prevTmp(), static_cast<std::int64_t>(h * 3 + 1));
        b.j(cont);
        handlerLabels.push_back(l);
    }
    b.bind(cont);
}

void
SynthBuilder::emitItem(unsigned blockIdx, unsigned itemIdx)
{
    emitLoadAndBranch();
    if (s.pointerChase)
        emitChaseStep();
    if (s.patternPeriod > 0 && rng.chance(s.patternDensity * 3.0))
        emitPatternBranch();
    if (s.fp || rng.chance(s.fpMix))
        emitFpChain();
    if (!s.fp)
        emitArithChain();
    if (s.fp ? rng.chance(s.storeDensity) : true)
        emitStore();
    if (s.calls && rng.chance(0.15))
        emitCall();
    if (s.indirect && itemIdx == 0 && blockIdx % 4 == 0)
        emitIndirect();
}

void
SynthBuilder::emitBlock(unsigned blockIdx)
{
    Label inner = b.newLabel();
    b.li(rTrip, s.innerTrip);
    b.li(rInner, 0);
    // Advance the phase so successive blocks/iterations sweep the array.
    b.addi(rPhase, rPhase, 8 * 97);
    b.bind(inner);
    for (unsigned j = 0; j < s.itemsPerBlock; ++j)
        emitItem(blockIdx, j);
    b.addi(rInner, rInner, 1);
    b.blt(rInner, rTrip, inner);
}

Program
SynthBuilder::build()
{
    layoutData();
    emitFunctions();
    emitInit();

    Label outer = b.newLabel();
    b.bind(outer);
    for (unsigned k = 0; k < s.blocks; ++k)
        emitBlock(k);
    b.addi(rOuter, rOuter, 1);
    b.blt(rOuter, rLimit, outer);
    b.halt();

    // Late fix-up: the indirect-dispatch table holds handler pcs.
    Program p = b.finish();
    if (s.indirect) {
        msp_assert(!handlerLabels.empty(), "indirect without handlers");
        std::vector<std::uint64_t> &init = p.initData.edit();
        for (unsigned i = 0; i < numHandlers; ++i) {
            const Label l = handlerLabels[i % handlerLabels.size()];
            const std::size_t w = tableBase + i;
            if (init.size() <= w)
                init.resize(w + 1, 0);
            init[w] = b.labelAddr(l);
        }
    }
    return p;
}

// ---------------------------------------------------------------------------
// Benchmark parameterisation
// ---------------------------------------------------------------------------

std::map<std::string, SynthSpec>
makeSpecs()
{
    std::map<std::string, SynthSpec> m;
    auto add = [&m](SynthSpec s) { m[s.name] = s; };

    // ---- SPECint -----------------------------------------------------------
    SynthSpec gzip;
    gzip.chainLen = 2;
    gzip.name = "gzip";
    gzip.wsWords = 1 << 15;
    gzip.hotFrac = 0.92;
    gzip.randomBranchDensity = 0.50;
    gzip.randomBias = 0.16;
    gzip.blocks = 10;
    gzip.innerTrip = 12;
    gzip.regSpread = 22;
    add(gzip);

    SynthSpec vpr;
    vpr.name = "vpr";
    vpr.wsWords = 1 << 14;
    vpr.hotFrac = 0.90;
    vpr.randomBranchDensity = 0.45;
    vpr.randomBias = 0.13;
    vpr.patternPeriod = 40;
    vpr.patternDensity = 0.30;
    vpr.blocks = 14;
    vpr.regSpread = 19;
    vpr.chainLen = 2;
    vpr.calls = true;
    add(vpr);

    SynthSpec gcc;
    gcc.name = "gcc";
    gcc.wsWords = 3 << 14;
    gcc.randomBranchDensity = 0.35;
    gcc.randomBias = 0.08;
    gcc.patternPeriod = 56;
    gcc.patternDensity = 0.35;
    gcc.blocks = 40;
    gcc.itemsPerBlock = 5;
    gcc.regSpread = 18;
    gcc.calls = true;
    gcc.indirect = true;
    gcc.hotFrac = 0.80;
    gcc.chainLen = 2;
    add(gcc);

    SynthSpec mcf;
    mcf.name = "mcf";
    mcf.wsWords = 1 << 19;
    mcf.pointerChase = true;
    mcf.chaseNodes = 1 << 18;
    mcf.randomBranchDensity = 0.35;
    mcf.randomBias = 0.20;
    mcf.blocks = 8;
    mcf.regSpread = 18;
    mcf.hotFrac = 0.45;
    add(mcf);

    SynthSpec crafty;
    crafty.name = "crafty";
    crafty.wsWords = 1 << 13;
    crafty.hotFrac = 0.95;
    crafty.randomBranchDensity = 0.25;
    crafty.randomBias = 0.06;
    crafty.patternPeriod = 64;
    crafty.patternDensity = 0.45;
    crafty.blocks = 24;
    crafty.innerTrip = 8;
    crafty.regSpread = 19;
    crafty.chainLen = 2;
    crafty.calls = true;
    add(crafty);

    SynthSpec parser;
    parser.name = "parser";
    parser.wsWords = 3 << 13;
    parser.hotFrac = 0.90;
    parser.randomBranchDensity = 0.50;
    parser.randomBias = 0.15;
    parser.patternPeriod = 36;
    parser.patternDensity = 0.30;
    parser.blocks = 20;
    parser.regSpread = 19;
    parser.chainLen = 2;
    parser.calls = true;
    add(parser);

    SynthSpec eon;
    eon.name = "eon";
    eon.wsWords = 1 << 13;
    eon.hotFrac = 0.95;
    eon.randomBranchDensity = 0.15;
    eon.randomBias = 0.05;
    eon.patternPeriod = 44;
    eon.patternDensity = 0.30;
    eon.blocks = 16;
    eon.regSpread = 19;
    eon.fpMix = 0.30;
    eon.chainLen = 2;
    eon.calls = true;
    add(eon);

    SynthSpec perlbmk;
    perlbmk.name = "perlbmk";
    perlbmk.wsWords = 3 << 13;
    perlbmk.hotFrac = 0.90;
    perlbmk.randomBranchDensity = 0.35;
    perlbmk.randomBias = 0.13;
    perlbmk.blocks = 28;
    perlbmk.regSpread = 17;
    perlbmk.calls = true;
    perlbmk.indirect = true;
    perlbmk.chainLen = 2;
    add(perlbmk);

    SynthSpec gap;
    gap.name = "gap";
    gap.wsWords = 1 << 15;
    gap.hotFrac = 0.90;
    gap.randomBranchDensity = 0.30;
    gap.randomBias = 0.07;
    gap.patternPeriod = 48;
    gap.patternDensity = 0.30;
    gap.blocks = 16;
    gap.regSpread = 19;
    gap.chainLen = 2;
    gap.calls = true;
    add(gap);

    SynthSpec vortex;
    vortex.name = "vortex";
    vortex.wsWords = 1 << 16;
    vortex.randomBranchDensity = 0.20;
    vortex.randomBias = 0.05;
    vortex.patternPeriod = 52;
    vortex.patternDensity = 0.35;
    vortex.blocks = 32;
    vortex.regSpread = 19;
    vortex.storeDensity = 0.30;
    vortex.calls = true;
    vortex.hotFrac = 0.78;
    vortex.chainLen = 2;
    add(vortex);

    SynthSpec bzip2;
    bzip2.name = "bzip2";
    bzip2.wsWords = 3 << 14;
    bzip2.hotFrac = 0.85;
    bzip2.randomBranchDensity = 0.70;
    bzip2.randomBias = 0.20;
    bzip2.blocks = 8;
    bzip2.innerTrip = 16;
    bzip2.regSpread = 6;
    bzip2.chainLen = 4;
    add(bzip2);

    SynthSpec twolf;
    twolf.name = "twolf";
    twolf.wsWords = 3 << 12;
    twolf.hotFrac = 0.92;
    twolf.randomBranchDensity = 0.60;
    twolf.randomBias = 0.17;
    twolf.patternPeriod = 36;
    twolf.patternDensity = 0.25;
    twolf.blocks = 12;
    twolf.regSpread = 6;
    twolf.chainLen = 3;
    add(twolf);

    // ---- SPECfp -----------------------------------------------------------
    auto fpBase = []() {
        SynthSpec f;
        f.fp = true;
        f.randomBranchDensity = 0.03;
        f.randomBias = 0.20;
        f.patternPeriod = 0;
        f.innerTrip = 32;
        f.chainLen = 4;
        f.itemsPerBlock = 6;
        f.storeDensity = 0.35;
        f.hotFrac = 0.55;
        f.hotWords = 1 << 13;
        return f;
    };

    SynthSpec wupwise = fpBase();
    wupwise.name = "wupwise";
    wupwise.wsWords = 1 << 18;
    wupwise.stride = 2;
    wupwise.blocks = 8;
    wupwise.fpRegSpread = 6;
    add(wupwise);

    SynthSpec swim = fpBase();
    swim.name = "swim";
    swim.wsWords = 1 << 20;
    swim.randomBranchDensity = 0.01;
    swim.blocks = 6;
    swim.fpRegSpread = 3;
    add(swim);

    SynthSpec mgrid = fpBase();
    mgrid.name = "mgrid";
    mgrid.wsWords = 1 << 19;
    mgrid.randomBranchDensity = 0.01;
    mgrid.stride = 4;
    mgrid.blocks = 6;
    mgrid.fpRegSpread = 3;
    add(mgrid);

    SynthSpec applu = fpBase();
    applu.name = "applu";
    applu.wsWords = 1 << 18;
    applu.blocks = 10;
    applu.fpRegSpread = 5;
    add(applu);

    SynthSpec mesa = fpBase();
    mesa.name = "mesa";
    mesa.wsWords = 1 << 15;
    mesa.randomBranchDensity = 0.10;
    mesa.randomBias = 0.30;
    mesa.blocks = 16;
    mesa.fpRegSpread = 8;
    mesa.calls = true;
    mesa.hotFrac = 0.85;
    add(mesa);

    SynthSpec art = fpBase();
    art.name = "art";
    art.wsWords = 1 << 19;
    art.pointerChase = true;
    art.chaseNodes = 1 << 17;
    art.randomBranchDensity = 0.06;
    art.fpRegSpread = 6;
    art.hotFrac = 0.50;
    add(art);

    SynthSpec equake = fpBase();
    equake.name = "equake";
    equake.wsWords = 1 << 19;
    equake.pointerChase = true;
    equake.chaseNodes = 1 << 16;
    equake.randomBranchDensity = 0.04;
    equake.blocks = 8;
    equake.fpRegSpread = 3;
    add(equake);

    SynthSpec ammp = fpBase();
    ammp.name = "ammp";
    ammp.wsWords = 1 << 18;
    ammp.pointerChase = true;
    ammp.chaseNodes = 1 << 15;
    ammp.randomBranchDensity = 0.05;
    ammp.fpRegSpread = 6;
    ammp.hotFrac = 0.60;
    add(ammp);

    SynthSpec lucas = fpBase();
    lucas.name = "lucas";
    lucas.wsWords = 1 << 18;
    lucas.stride = 8;
    lucas.fpRegSpread = 6;
    add(lucas);

    SynthSpec fma3d = fpBase();
    fma3d.name = "fma3d";
    fma3d.wsWords = 1 << 16;
    fma3d.randomBranchDensity = 0.03;
    fma3d.blocks = 12;
    fma3d.fpRegSpread = 12;
    fma3d.hotFrac = 0.80;
    add(fma3d);

    return m;
}

const std::map<std::string, SynthSpec> &
specs()
{
    static const std::map<std::string, SynthSpec> s = makeSpecs();
    return s;
}

} // anonymous namespace

const std::vector<std::string> &
intBenchmarks()
{
    static const std::vector<std::string> v = {
        "gzip", "vpr", "gcc", "mcf", "crafty", "parser",
        "eon", "perlbmk", "gap", "vortex", "bzip2", "twolf",
    };
    return v;
}

const std::vector<std::string> &
fpBenchmarks()
{
    static const std::vector<std::string> v = {
        "wupwise", "swim", "mgrid", "applu", "mesa",
        "art", "equake", "ammp", "lucas", "fma3d",
    };
    return v;
}

SynthSpec
specFor(const std::string &name)
{
    auto it = specs().find(name);
    if (it == specs().end())
        msp_fatal("unknown benchmark '%s'", name.c_str());
    return it->second;
}

bool
isFp(const std::string &name)
{
    return specFor(name).fp;
}

Program
buildSynthetic(const SynthSpec &spec)
{
    return SynthBuilder(spec).build();
}

Program
build(const std::string &name, std::uint64_t seed)
{
    SynthSpec s = specFor(name);
    s.seed = seed;
    return buildSynthetic(s);
}

} // namespace spec
} // namespace msp
