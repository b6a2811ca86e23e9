#include "yardstick.hh"

#include <bit>

namespace perfbench {

namespace {

enum Code : std::uint8_t
{
    Add,
    Sub,
    Xor,
    Mul,
    Shr,
    RotXor,
    AddI,
    Load,
    Store,
    Branch,   ///< skip rs2 ops when two bits of r[rs1] are zero
    Jump,     ///< back to the first op
};

constexpr unsigned numRegs = 32;
constexpr std::size_t memWords = std::size_t{1} << 19;   // 4 MiB
constexpr std::size_t memMask = memWords - 1;
constexpr std::size_t bodyOps = 512;

/** splitmix64: the fixed generator the program and memory come from. */
struct Gen
{
    std::uint64_t s = 0x9e3779b97f4a7c15ull;

    std::uint64_t
    next()
    {
        std::uint64_t z = (s += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }

    unsigned below(unsigned n) { return static_cast<unsigned>(next() % n); }
};

} // anonymous namespace

Yardstick::Yardstick() : mem(memWords)
{
    Gen g;
    for (std::uint64_t &w : mem)
        w = g.next();

    // Mix per 100 ops: 55 ALU, 20 loads, 12 stores, 13 branches.
    prog.reserve(bodyOps + 1);
    for (std::size_t i = 0; i < bodyOps; ++i) {
        Op op{};
        op.rd = static_cast<std::uint8_t>(g.below(numRegs));
        op.rs1 = static_cast<std::uint8_t>(g.below(numRegs));
        op.rs2 = static_cast<std::uint8_t>(g.below(numRegs));
        op.imm = static_cast<std::int32_t>(g.below(1u << 20));
        const unsigned pick = g.below(100);
        if (pick < 55) {
            op.code = static_cast<std::uint8_t>(g.below(AddI + 1));
        } else if (pick < 75) {
            op.code = Load;
        } else if (pick < 87) {
            op.code = Store;
        } else {
            op.code = Branch;
            const std::size_t room = bodyOps - i - 1;
            op.rs2 = static_cast<std::uint8_t>(
                room == 0 ? 0 : 1 + g.below(room < 6 ? room : 6));
        }
        prog.push_back(op);
    }
    prog.push_back(Op{Jump, 0, 0, 0, 0});
}

std::uint64_t
Yardstick::run(std::uint64_t n)
{
    std::uint64_t r[numRegs];
    for (unsigned i = 0; i < numRegs; ++i)
        r[i] = 0x0123456789abcdefull * (i + 1);

    const Op *const code = prog.data();
    std::uint64_t *const m = mem.data();
    std::size_t pc = 0;
    for (std::uint64_t k = 0; k < n; ++k) {
        const Op &op = code[pc++];
        const std::uint64_t a = r[op.rs1];
        switch (op.code) {
          case Add: r[op.rd] = a + r[op.rs2]; break;
          case Sub: r[op.rd] = a - r[op.rs2]; break;
          case Xor: r[op.rd] = a ^ r[op.rs2]; break;
          case Mul: r[op.rd] = a * (r[op.rs2] | 1); break;
          case Shr: r[op.rd] = a >> (op.imm & 63); break;
          case RotXor:
            r[op.rd] = std::rotl(a, op.imm & 63) ^ r[op.rs2];
            break;
          case AddI: r[op.rd] = a + static_cast<std::uint64_t>(op.imm); break;
          case Load: r[op.rd] = m[(a + op.imm) & memMask]; break;
          case Store: m[(a + op.imm) & memMask] = r[op.rs2]; break;
          case Branch:
            if (((a >> (op.imm & 31)) & 3) == 0)
                pc += op.rs2;
            break;
          case Jump: pc = 0; break;
        }
    }

    std::uint64_t sum = 0;
    for (unsigned i = 0; i < numRegs; ++i)
        sum = std::rotl(sum, 7) ^ r[i];
    return sum;
}

} // namespace perfbench
