/**
 * @file
 * ArchState's copy-on-write memory against its from-scratch
 * definition: a seeded random walk drives the paged state and a flat
 * std::vector model through the same loads, stores, copies,
 * assignments and compares, over every page geometry. Then the
 * sharing properties the page table exists for: construction owns at
 * most the tail page, a run owns only the pages it stored to, Program
 * copies share one image, and no mutation of a Program reaches a state
 * already built from it.
 */

#include <gtest/gtest.h>

#include <array>
#include <optional>
#include <vector>

#include "common/logging.hh"
#include "common/random.hh"
#include "functional/arch_state.hh"
#include "sim/machine.hh"
#include "sim/presets.hh"
#include "verify/oracle.hh"
#include "workload/registry.hh"

namespace msp {
namespace {

constexpr std::size_t pageWords = ArchState::pageWords;

/** A data-only program: @p initWords random words over @p memWords. */
Program
imageProgram(std::size_t memWords, std::size_t initWords, Rng &rng)
{
    Program p;
    p.name = "image";
    p.memWords = memWords;
    std::vector<std::uint64_t> init(initWords);
    for (std::uint64_t &w : init)
        w = rng.below(4) == 0 ? 0 : rng.next();
    p.initData = std::move(init);
    return p;
}

/** The from-scratch definition: flat registers and memory. */
struct FlatState
{
    std::array<std::uint64_t, numIntRegs> ints{};
    std::array<std::uint64_t, numFpRegs> fps{};
    std::vector<std::uint64_t> mem;

    explicit FlatState(const Program &p) : mem(p.memWords, 0)
    {
        std::copy(p.initData.begin(), p.initData.end(), mem.begin());
    }

    bool
    operator==(const FlatState &o) const
    {
        return ints == o.ints && fps == o.fps && mem == o.mem;
    }

    std::size_t
    firstMemDiff(const FlatState &o, std::size_t from) const
    {
        for (std::size_t w = from; w < mem.size(); ++w)
            if (mem[w] != o.mem[w])
                return w;
        return mem.size();
    }
};

struct Slot
{
    ArchState st;
    FlatState model;
};

/** Every word and register of @p s agrees with its model. */
void
expectMatchesModel(const Slot &s, const char *what)
{
    for (int r = 0; r < numIntRegs; ++r)
        ASSERT_EQ(s.st.readInt(r), s.model.ints[r]) << what << " r" << r;
    for (int r = 0; r < numFpRegs; ++r)
        ASSERT_EQ(s.st.readFp(r), s.model.fps[r]) << what << " f" << r;
    for (std::size_t w = 0; w < s.model.mem.size(); ++w) {
        ASSERT_EQ(s.st.load(static_cast<Addr>(w) * wordBytes),
                  s.model.mem[w])
            << what << " word " << w;
    }
}

/**
 * Random walk over three states of one program. Addresses cluster on
 * a few hot pages (so copies and compares meet shared, owned and
 * identical pages) and carry junk above the mask and in the low three
 * bits, which both sides must ignore alike.
 */
void
walk(std::size_t memWords, std::size_t initWords, std::uint64_t seed,
     unsigned steps)
{
    SCOPED_TRACE(csprintf("memWords %zu, initWords %zu, seed %llu",
                          memWords, initWords,
                          static_cast<unsigned long long>(seed)));
    Rng rng(seed);
    const Program prog = imageProgram(memWords, initWords, rng);
    std::vector<Slot> pool;
    for (int i = 0; i < 3; ++i)
        pool.push_back(Slot{ArchState(prog), FlatState(prog)});

    const std::size_t pages = std::max<std::size_t>(1,
                                                    memWords / pageWords);
    const std::size_t hot[] = {0, pages - 1, initWords / pageWords % pages,
                               rng.below(pages)};
    const auto word = [&]() -> std::size_t {
        if (rng.below(2) == 0)
            return rng.below(memWords);
        const std::size_t page = hot[rng.below(4)];
        return (page * pageWords + rng.below(pageWords)) % memWords;
    };
    const auto addr = [&](std::size_t w) -> Addr {
        return static_cast<Addr>(w) * wordBytes +
               (rng.next() & ~prog.addrMask()) + rng.below(wordBytes);
    };
    const auto slot = [&]() -> Slot & { return pool[rng.below(3)]; };

    for (unsigned step = 0; step < steps; ++step) {
        const std::uint64_t op = rng.below(100);
        Slot &s = slot();
        if (op < 40) {
            const std::size_t w = word();
            const std::uint64_t v = rng.next();
            s.st.store(addr(w), v);
            s.model.mem[w] = v;
        } else if (op < 65) {
            const std::size_t w = word();
            ASSERT_EQ(s.st.load(addr(w)), s.model.mem[w])
                << "step " << step << " word " << w;
        } else if (op < 70) {
            const int r = static_cast<int>(rng.below(numIntRegs));
            const std::uint64_t v = rng.next();
            if (rng.below(2) == 0) {
                s.st.writeInt(r, v);
                if (r != 0)
                    s.model.ints[r] = v;
            } else {
                s.st.writeFp(r, v);
                s.model.fps[r] = v;
            }
        } else if (op < 75) {
            // Copy construction, then a move into the pool.
            Slot &d = slot();
            ArchState copy(s.st);
            d.model = s.model;
            d.st = std::move(copy);
        } else if (op < 80) {
            // Copy assignment (self-assignment included).
            Slot &d = slot();
            d.st = s.st;
            d.model = s.model;
        } else {
            const Slot &o = slot();
            ASSERT_EQ(s.st == o.st, s.model == o.model) << "step " << step;
            const std::size_t from =
                rng.below(2) == 0 ? 0 : rng.below(memWords + 1);
            ASSERT_EQ(s.st.firstMemDiff(o.st, from),
                      s.model.firstMemDiff(o.model, from))
                << "step " << step << " from " << from;
        }
    }
    for (const Slot &s : pool)
        expectMatchesModel(s, "final");
}

TEST(ArchStateModel, BelowOnePage)
{
    for (std::size_t init : {std::size_t{0}, std::size_t{37},
                             std::size_t{64}})
        walk(64, init, 11 + init, 4000);
}

TEST(ArchStateModel, ExactlyOnePage)
{
    for (std::size_t init : {std::size_t{0}, std::size_t{300}, pageWords})
        walk(pageWords, init, 23 + init, 4000);
}

TEST(ArchStateModel, SeveralPages)
{
    // An exact page multiple short of full, and a partial tail page.
    for (std::size_t init : {pageWords, pageWords + 188})
        walk(4 * pageWords, init, 37 + init, 4000);
}

TEST(ArchStateModel, TwoToTheTwentyOneWords)
{
    const std::size_t words = std::size_t{1} << 21;
    for (std::size_t init : {std::size_t{0}, 3 * pageWords + 100,
                             4 * pageWords, words})
        walk(words, init, 41 + init, 600);
}

TEST(ArchStateSharing, SwimMachineOwnsOnlyThePagesItStoredTo)
{
    const Program swim = workload::build("swim", 1);
    const std::size_t pages = swim.memWords / pageWords;
    ASSERT_GE(pages, 1024u);
    Machine m(presetByName("16sp", PredictorKind::Tage), swim);
    const ArchState &st = m.core().oracleRef().state();
    // At most the partial tail page of initData is copied up front.
    EXPECT_LE(st.ownedPages(), 1u);
    const RunResult r = m.run(10000);
    EXPECT_GE(r.committed, 10000u);
    EXPECT_LT(st.ownedPages(), pages / 64)
        << st.ownedPages() << " of " << pages << " pages owned";
}

TEST(ArchStateSharing, ProgramCopiesShareOneImage)
{
    const Program a = workload::build("mcf", 1);
    ASSERT_FALSE(a.initData.empty());
    const Program b = a;
    EXPECT_EQ(a.initData.shared(), b.initData.shared());
    EXPECT_EQ(a.initData.view().data(), b.initData.view().data());
    EXPECT_EQ(a.initData, b.initData);
}

TEST(ArchStateSharing, MutatingAProgramLeavesBuiltStatesUnchanged)
{
    Rng rng(5);
    Program orig = imageProgram(4 * pageWords, 3 * pageWords, rng);
    const std::vector<std::uint64_t> before = orig.initData.view();
    const ArchState st(orig);

    // A copy mutated in place (as reduce does) gets its own words.
    Program copy = orig;
    copy.initData.edit()[5] = ~before[5];
    copy.initData.edit().resize(pageWords);
    EXPECT_EQ(orig.initData.view(), before);
    EXPECT_EQ(copy.initData[5], ~before[5]);
    EXPECT_EQ(ArchState(copy).load(5 * wordBytes), ~before[5]);

    // Editing the original itself still leaves the built state alone.
    orig.initData.edit()[7] = ~before[7];
    EXPECT_EQ(orig.initData[7], ~before[7]);
    for (std::size_t w = 0; w < before.size(); ++w)
        ASSERT_EQ(st.load(static_cast<Addr>(w) * wordBytes), before[w]);
}

TEST(ArchStateSharing, StateOutlivesItsProgram)
{
    Rng rng(9);
    std::vector<std::uint64_t> words;
    std::optional<ArchState> st;
    {
        const Program p = imageProgram(8 * pageWords, 5 * pageWords, rng);
        words = p.initData.view();
        st.emplace(p);
    }
    const ArchState copy = *st;
    for (std::size_t w = 0; w < words.size(); ++w) {
        ASSERT_EQ(st->load(static_cast<Addr>(w) * wordBytes), words[w]);
        ASSERT_EQ(copy.load(static_cast<Addr>(w) * wordBytes), words[w]);
    }
    EXPECT_EQ(*st, copy);
}

TEST(ArchStateSharing, OneStoreOnACleanPageIsTheFirstStateDiff)
{
    Rng rng(13);
    const Program p = imageProgram(8 * pageWords, 8 * pageWords, rng);
    const ArchState ref(p);
    ArchState core = ref;
    EXPECT_EQ(ref.ownedPages(), 0u);
    EXPECT_EQ(verify::firstStateDiff(core, ref), "");

    const std::size_t w = 5 * pageWords + 77;
    const std::uint64_t old = p.initData[w];
    core.store(static_cast<Addr>(w) * wordBytes, old ^ 0xff);
    EXPECT_EQ(core.ownedPages(), 1u);
    EXPECT_EQ(core.firstMemDiff(ref), w);
    EXPECT_EQ(verify::firstStateDiff(core, ref),
              csprintf("word %zu: core %016llx functional %016llx", w,
                       static_cast<unsigned long long>(old ^ 0xff),
                       static_cast<unsigned long long>(old)));
    EXPECT_FALSE(core == ref);

    // Storing the old value back makes the owned page equal again.
    core.store(static_cast<Addr>(w) * wordBytes, old);
    EXPECT_EQ(verify::firstStateDiff(core, ref), "");
    EXPECT_TRUE(core == ref);
}

} // namespace
} // namespace msp
