#include "workload/registry.hh"

#include <algorithm>

#include "common/logging.hh"
#include "isa/builder.hh"
#include "workload/micro.hh"
#include "workload/spec.hh"
#include "workload/trace.hh"

namespace msp {
namespace workload {

namespace {

/** splitmix64 — the repo's standard deterministic stream. */
struct Rng
{
    std::uint64_t state;

    explicit Rng(std::uint64_t seed) : state(seed ? seed : 1) {}

    std::uint64_t
    next()
    {
        std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }
};

// ---- ptrchase: parallel pointer-chasing rings --------------------------

/**
 * Four independent random-cycle rings walked in lockstep: each load
 * depends on the previous load of its own chain, so single-chain ILP
 * is nil, but the four chains expose memory-level parallelism — the
 * large-window question the paper's SPEC proxies touch only obliquely.
 */
Program
buildPtrChase(std::uint64_t seed)
{
    constexpr unsigned chains = 4;
    constexpr std::size_t nodes = 2048;   // words per ring
    constexpr std::uint64_t steps = 20000;

    ProgramBuilder b("ptrchase");
    Rng rng(seed);

    // Each ring is one random cycle: node i points at the byte address
    // of its successor in a seeded permutation.
    for (unsigned c = 0; c < chains; ++c) {
        const std::size_t base = c * nodes;
        std::vector<std::size_t> perm(nodes);
        for (std::size_t i = 0; i < nodes; ++i)
            perm[i] = i;
        for (std::size_t i = nodes - 1; i > 0; --i)
            std::swap(perm[i], perm[rng.next() % (i + 1)]);
        for (std::size_t i = 0; i < nodes; ++i) {
            const std::size_t from = perm[i];
            const std::size_t to = perm[(i + 1) % nodes];
            b.data(base + from,
                   static_cast<std::uint64_t>((base + to) * wordBytes));
        }
    }
    const std::size_t resultWord = chains * nodes;
    b.memSize(resultWord + 64);

    // r1..r4: chain cursors. r8: limit, r9: counter, r10: checksum.
    for (unsigned c = 0; c < chains; ++c)
        b.li(1 + c, static_cast<std::int64_t>(c * nodes * wordBytes));
    b.li(8, static_cast<std::int64_t>(steps));
    b.li(9, 0);
    b.li(10, 0);

    Label loop = b.newLabel();
    b.bind(loop);
    for (unsigned c = 0; c < chains; ++c)
        b.ld(1 + c, 1 + c, 0);
    b.xor_(10, 10, 1);
    b.add(10, 10, 3);
    b.addi(9, 9, 1);
    b.blt(9, 8, loop);

    b.li(11, static_cast<std::int64_t>(resultWord * wordBytes));
    b.st(10, 11, 0);
    b.halt();
    return b.finish();
}

// ---- prodcons: bounded producer-consumer ring buffer -------------------

/**
 * A producer fills a 256-entry ring in bursts, a consumer drains the
 * same burst immediately after: every consumed value forwards from a
 * recent store (SQ forwarding stress), burst lengths are data-
 * dependent (an LCG in registers), and the head/tail wrap branches
 * follow a long-period pattern.
 */
Program
buildProdCons(std::uint64_t seed)
{
    constexpr std::size_t ringWords = 256;
    constexpr std::uint64_t rounds = 4000;

    ProgramBuilder b("prodcons");
    Rng rng(seed);

    const std::size_t ringBase = 0;
    const std::size_t resultWord = ringWords;
    b.memSize(ringWords + 64);

    // r5: head index, r6: tail index, r7: LCG state, r11: accumulator,
    // r8: round counter, r9: round limit, r20: constant 0.
    b.li(5, 0);
    b.li(6, 0);
    b.li(7, static_cast<std::int64_t>(rng.next() >> 1));
    b.li(11, 0);
    b.li(8, 0);
    b.li(9, static_cast<std::int64_t>(rounds));
    b.li(20, 0);
    b.li(21, 1103515245);          // LCG multiplier
    b.li(22, static_cast<std::int64_t>(ringWords - 1));

    Label round = b.newLabel();
    b.bind(round);

    // Burst length k = (state >> 5) & 7, plus one: 1..8 items.
    b.srli(12, 7, 5);
    b.andi(12, 12, 7);
    b.addi(12, 12, 1);

    // Producer: k stores through the head cursor.
    Label produce = b.newLabel();
    Label produceDone = b.newLabel();
    b.li(13, 0);                   // burst counter
    b.bind(produce);
    b.bge(13, 12, produceDone);
    b.mul(7, 7, 21);               // LCG step
    b.addi(7, 7, 12345);
    b.xor_(14, 7, 5);              // item value
    b.and_(15, 5, 22);             // head & (ring-1)
    b.slli(15, 15, 3);
    b.st(14, 15, static_cast<std::int64_t>(ringBase * wordBytes));
    b.addi(5, 5, 1);
    b.addi(13, 13, 1);
    b.j(produce);
    b.bind(produceDone);

    // Consumer: drain the same burst through the tail cursor; the
    // value's low bit steers a data-dependent branch.
    Label consume = b.newLabel();
    Label consumeDone = b.newLabel();
    Label even = b.newLabel();
    b.li(13, 0);
    b.bind(consume);
    b.bge(13, 12, consumeDone);
    b.and_(15, 6, 22);             // tail & (ring-1)
    b.slli(15, 15, 3);
    b.ld(14, 15, static_cast<std::int64_t>(ringBase * wordBytes));
    b.addi(6, 6, 1);
    b.andi(16, 14, 1);
    b.beq(16, 20, even);
    b.add(11, 11, 14);
    Label next = b.newLabel();
    b.j(next);
    b.bind(even);
    b.xor_(11, 11, 14);
    b.bind(next);
    b.addi(13, 13, 1);
    b.j(consume);
    b.bind(consumeDone);

    b.addi(8, 8, 1);
    b.blt(8, 9, round);

    b.li(17, static_cast<std::int64_t>(resultWord * wordBytes));
    b.st(11, 17, 0);
    b.halt();
    return b.finish();
}

// ---- interp: interpreter-style bytecode dispatch -----------------------

/**
 * A software interpreter: fetch a bytecode word, jump indirectly
 * through a handler table, execute a short handler, return to the
 * dispatch head. Indirect-branch misprediction dominates — the
 * dispatch-loop pathology gcc/perlbmk only approximate.
 */
Program
buildInterp(std::uint64_t seed)
{
    constexpr std::size_t bytecodeWords = 2048;
    constexpr unsigned numHandlers = 8;
    constexpr std::uint64_t passes = 12;

    ProgramBuilder b("interp");
    Rng rng(seed);

    const std::size_t bcBase = 0;
    const std::size_t tableBase = bcBase + bytecodeWords;
    const std::size_t dataBase = tableBase + numHandlers;
    constexpr std::size_t dataWords = 1024;
    const std::size_t resultWord = dataBase + dataWords;
    b.memSize(resultWord + 64);

    for (std::size_t i = 0; i < bytecodeWords; ++i)
        b.data(bcBase + i, rng.next() % numHandlers);
    for (std::size_t i = 0; i < dataWords; ++i)
        b.data(dataBase + i, rng.next());

    // r5: vpc, r6: bytecode length, r7: pass counter, r8: pass limit,
    // r10: accumulator, r11: operand, r22: data-index mask.
    b.li(5, 0);
    b.li(6, static_cast<std::int64_t>(bytecodeWords));
    b.li(7, 0);
    b.li(8, static_cast<std::int64_t>(passes));
    b.li(10, static_cast<std::int64_t>(rng.next() >> 1));
    b.li(11, 1);
    b.li(22, static_cast<std::int64_t>(dataWords - 1));

    Label dispatch = b.newLabel();
    Label endPass = b.newLabel();
    b.bind(dispatch);
    b.bge(5, 6, endPass);
    b.slli(12, 5, 3);              // vpc -> byte offset
    b.ld(13, 12, static_cast<std::int64_t>(bcBase * wordBytes));
    b.slli(13, 13, 3);
    b.ld(14, 13, static_cast<std::int64_t>(tableBase * wordBytes));
    b.addi(5, 5, 1);
    b.jr(14);

    std::vector<Label> handlers;
    for (unsigned h = 0; h < numHandlers; ++h) {
        Label l = b.newLabel();
        b.bind(l);
        switch (h) {
          case 0:
            b.add(10, 10, 11);
            break;
          case 1:
            b.xor_(10, 10, 11);
            break;
          case 2:
            b.mul(11, 11, 10);
            b.ori(11, 11, 1);
            break;
          case 3:
            b.srli(10, 10, 1);
            break;
          case 4:                  // load data[acc & mask]
            b.and_(15, 10, 22);
            b.slli(15, 15, 3);
            b.ld(11, 15, static_cast<std::int64_t>(dataBase * wordBytes));
            break;
          case 5:                  // store acc to data[vpc & mask]
            b.and_(15, 5, 22);
            b.slli(15, 15, 3);
            b.st(10, 15, static_cast<std::int64_t>(dataBase * wordBytes));
            break;
          case 6:
            b.sub(10, 10, 11);
            break;
          default:
            b.slli(11, 11, 1);
            b.ori(11, 11, 1);
            break;
        }
        b.j(dispatch);
        handlers.push_back(l);
    }

    b.bind(endPass);
    b.li(5, 0);
    b.addi(7, 7, 1);
    b.blt(7, 8, dispatch);

    b.li(16, static_cast<std::int64_t>(resultWord * wordBytes));
    b.st(10, 16, 0);
    b.halt();

    // Late fix-up: the dispatch table holds handler pcs, known only
    // after emission (the same idiom the synthetic SPEC builder uses).
    Program p = b.finish();
    std::vector<std::uint64_t> &init = p.initData.edit();
    for (unsigned h = 0; h < numHandlers; ++h) {
        const std::size_t w = tableBase + h;
        if (init.size() <= w)
            init.resize(w + 1, 0);
        init[w] = b.labelAddr(handlers[h]);
    }
    return p;
}

bool
isSpecBenchmark(const std::string &name)
{
    const auto &iv = spec::intBenchmarks();
    const auto &fv = spec::fpBenchmarks();
    return std::find(iv.begin(), iv.end(), name) != iv.end() ||
           std::find(fv.begin(), fv.end(), name) != fv.end();
}

} // anonymous namespace

std::vector<std::string>
registeredNames()
{
    std::vector<std::string> names = spec::intBenchmarks();
    const auto &fp = spec::fpBenchmarks();
    names.insert(names.end(), fp.begin(), fp.end());
    names.push_back("tight-loop");
    names.push_back("ptrchase");
    names.push_back("prodcons");
    names.push_back("interp");
    return names;
}

bool
known(const std::string &name)
{
    if (name.rfind(tracePrefix, 0) == 0)
        return name.size() > std::string(tracePrefix).size();
    const std::vector<std::string> names = registeredNames();
    return std::find(names.begin(), names.end(), name) != names.end();
}

Program
build(const std::string &name, std::uint64_t seed)
{
    if (name.rfind(tracePrefix, 0) == 0) {
        const std::string path =
            name.substr(std::string(tracePrefix).size());
        if (path.empty())
            throw WorkloadError("trace workload needs a file: trace:FILE");
        return trace::load(path);
    }
    if (isSpecBenchmark(name))
        return spec::build(name, seed);
    if (name == "tight-loop")
        return micro::tightRenameIndependent(1u << 30);
    if (name == "ptrchase")
        return buildPtrChase(seed);
    if (name == "prodcons")
        return buildProdCons(seed);
    if (name == "interp")
        return buildInterp(seed);
    throw WorkloadError(csprintf(
        "unknown workload '%s' (want a SPEC benchmark, tight-loop, "
        "ptrchase, prodcons, interp or trace:FILE)", name.c_str()));
}

} // namespace workload
} // namespace msp
