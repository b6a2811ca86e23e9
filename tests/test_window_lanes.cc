/**
 * @file
 * SoA window (WindowLanes) tests: lane/age-list/ready-bit equivalence
 * against a naive DynInst-vector model under randomized insert, wakeup,
 * issue (oldest-ready removal) and squash (youngest-first removal),
 * including the select iterator's ready-slots-oldest-first order across
 * lazy compaction; the insert age-order check; generation-guarded
 * wakeups across slot reuse; RegWaiters semantics; the ladder-wide
 * timing pin that anchors the refactor to the pre-SoA cycle counts; and
 * the pinned per-attempt issue counters.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <deque>
#include <random>
#include <vector>

#include "pipeline/dyninst.hh"
#include "pipeline/window_lanes.hh"
#include "sim/presets.hh"
#include "verify/fuzzer.hh"
#include "verify/oracle.hh"
#include "workload/spec.hh"

namespace msp {
namespace {

/** The naive mirror: what a DynInst-pointer scan would see, in age
 *  order. Every field the lanes duplicate lives here too. */
struct NaiveEntry
{
    DynInst *d;
    SeqNum seq;
    PhysReg src1;
    PhysReg src2;
    unsigned char fu;
    unsigned pending;
    bool ready;
};

/** Assert the SoA lanes agree with the naive model, field by field. */
void
expectEquiv(const WindowLanes &iq, const std::vector<NaiveEntry> &model)
{
    ASSERT_EQ(iq.capacity() - iq.freeCount(), model.size());
    std::vector<int> live;
    for (const std::int32_t s : iq.ageOrder())
        if (s >= 0)
            live.push_back(s);
    ASSERT_EQ(live.size(), model.size());

    bool anyReady = false;
    for (std::size_t i = 0; i < model.size(); ++i) {
        const int s = live[i];
        const NaiveEntry &e = model[i];
        ASSERT_EQ(iq.at(s), e.d) << "slot " << s;
        EXPECT_EQ(iq.seqOf(s), e.seq);
        EXPECT_EQ(iq.src1Of(s), e.src1);
        EXPECT_EQ(iq.src2Of(s), e.src2);
        EXPECT_EQ(iq.fuOf(s), e.fu);
        EXPECT_EQ(iq.pendingOf(s), e.pending);
        EXPECT_EQ(iq.ready(s), e.ready);
        EXPECT_EQ(e.d->iqSlot, s);
        anyReady |= e.ready;
    }
    EXPECT_EQ(iq.anyReady(), anyReady);

    // The select iterator yields exactly the ready entries, oldest
    // first.
    std::vector<int> want, got;
    for (std::size_t i = 0; i < model.size(); ++i)
        if (model[i].ready)
            want.push_back(live[i]);
    for (const int s : iq.readyOldestFirst())
        got.push_back(s);
    EXPECT_EQ(got, want);
}

TEST(WindowLanes, RandomOpsMatchTheNaiveModel)
{
    constexpr unsigned capacity = 24;
    std::mt19937 rng(12345);
    WindowLanes iq(capacity);
    std::deque<DynInst> storage;   // stable addresses
    std::vector<NaiveEntry> model; // age order, oldest first
    SeqNum nextSeq = 1;
    unsigned compactions = 0;

    auto insertOne = [&] {
        storage.emplace_back();
        DynInst &d = storage.back();
        d.seq = nextSeq++;
        const std::size_t listLen = iq.ageOrder().size();
        const int slot = iq.insert(&d);
        // An insert grows the list by one unless it compacted first.
        if (iq.ageOrder().size() <= listLen)
            ++compactions;
        const PhysReg s1 = static_cast<PhysReg>(rng() % 64);
        const PhysReg s2 = static_cast<PhysReg>(rng() % 64);
        const unsigned char fu = static_cast<unsigned char>(rng() % 3);
        iq.fillTags(slot, s1, s2, fu);
        const unsigned pending = rng() % 3;
        iq.setPending(slot, pending);
        model.push_back(
            NaiveEntry{&d, d.seq, s1, s2, fu, pending, pending == 0});
    };

    for (int op = 0; op < 20000; ++op) {
        const unsigned pick = rng() % 100;
        if (pick < 40) {
            if (!iq.full())
                insertOne();
        } else if (pick < 65) {
            // Producer writeback: wake one pending entry.
            std::vector<std::size_t> waiting;
            for (std::size_t i = 0; i < model.size(); ++i)
                if (model[i].pending > 0)
                    waiting.push_back(i);
            if (!waiting.empty()) {
                NaiveEntry &e = model[waiting[rng() % waiting.size()]];
                iq.wakeSrc(e.d->iqSlot);
                if (--e.pending == 0)
                    e.ready = true;
            }
        } else if (pick < 90) {
            // Issue: the oldest ready entry leaves the queue.
            for (std::size_t i = 0; i < model.size(); ++i) {
                if (!model[i].ready)
                    continue;
                iq.remove(model[i].d);
                model.erase(model.begin() +
                            static_cast<std::ptrdiff_t>(i));
                break;
            }
        } else {
            // Squash: youngest k entries leave, youngest first.
            std::size_t k = model.empty() ? 0 : rng() % model.size();
            while (k-- > 0 && !model.empty()) {
                iq.remove(model.back().d);
                model.pop_back();
            }
        }
        expectEquiv(iq, model);
    }
    EXPECT_GT(compactions, 0u);
}

TEST(WindowLanes, InsertOutOfAgeOrderDiesEvenAfterTheYoungestLeft)
{
    // Select priority relies on the age list being sorted by
    // construction. An insert older than the last one is a rename-order
    // bug even when that youngest entry has already left the queue.
    WindowLanes iq(4);
    DynInst a, b, c;
    a.seq = 10;
    b.seq = 11;
    c.seq = 5;
    iq.insert(&a);
    iq.insert(&b);
    iq.remove(&b);
    EXPECT_DEATH(iq.insert(&c), "age order");
}

TEST(WindowLanes, StaleGenerationWakeupsAreIgnoredAcrossSlotReuse)
{
    WindowLanes iq(4);
    DynInst a, b;
    a.seq = 1;
    b.seq = 2;

    const int slot = iq.insert(&a);
    iq.setPending(slot, 1);
    const std::uint32_t genA = iq.generation(slot);
    iq.remove(&a);   // a squashes; its subscription is now stale

    // The slot is reused by a younger instruction.
    ASSERT_EQ(iq.insert(&b), slot);
    iq.setPending(slot, 1);

    // a's producer finally writes back: must NOT wake b.
    iq.wakeSrcIfCurrent(slot, genA);
    EXPECT_FALSE(iq.ready(slot));
    EXPECT_EQ(iq.pendingOf(slot), 1u);

    // b's own producer does wake it.
    iq.wakeSrcIfCurrent(slot, iq.generation(slot));
    EXPECT_TRUE(iq.ready(slot));
    EXPECT_TRUE(iq.anyReady());
}

TEST(WindowLanes, RegWaitersDrainWakesOnlyCurrentSubscribers)
{
    WindowLanes iq(4);
    RegWaiters waiters;
    waiters.init(8);

    DynInst a, b;
    a.seq = 1;
    b.seq = 2;
    const int slotA = iq.insert(&a);
    iq.setPending(slotA, 1);
    waiters.watch(3, slotA, iq.generation(slotA));

    const int slotB = iq.insert(&b);
    iq.setPending(slotB, 1);
    waiters.watch(3, slotB, iq.generation(slotB));

    iq.remove(&a);   // a leaves before the producer completes

    waiters.drain(3, iq);
    EXPECT_TRUE(iq.ready(slotB));
    EXPECT_EQ(iq.capacity() - iq.freeCount(), 1u);

    // A drained list is empty: a second drain wakes nobody (wakeSrc on
    // a ready slot would assert).
    waiters.drain(3, iq);
    EXPECT_TRUE(iq.ready(slotB));
}

TEST(WindowLanes, AgeListCompactionPreservesOrderUnderChurn)
{
    // Hammer insert/remove so the order list overflows its 2x bound
    // many times; the fuzz above rarely fills the queue, this always
    // alternates to force compaction.
    constexpr unsigned capacity = 8;
    WindowLanes iq(capacity);
    std::deque<DynInst> storage;
    std::vector<NaiveEntry> model;
    SeqNum nextSeq = 1;

    for (int round = 0; round < 1000; ++round) {
        while (!iq.full()) {
            storage.emplace_back();
            DynInst &d = storage.back();
            d.seq = nextSeq++;
            const int slot = iq.insert(&d);
            iq.fillTags(slot, 1, 2, 0);
            iq.setPending(slot, 0);
            model.push_back(NaiveEntry{&d, d.seq, 1, 2, 0, 0, true});
        }
        // Drain half from the front (issue), half from the back
        // (squash).
        for (int i = 0; i < 2; ++i) {
            iq.remove(model.front().d);
            model.erase(model.begin());
            iq.remove(model.back().d);
            model.pop_back();
        }
        expectEquiv(iq, model);
    }
}

// ---------------------------------------------------------------------------
// Ladder anchor: the SoA window and event-driven wakeup must be
// cycle-exact with the pre-refactor polling core. The differential runs
// prove stream correctness; the pinned cycle counts prove the *timing*
// didn't move (these values were recorded from the polling
// implementation and must never drift).
// ---------------------------------------------------------------------------

TEST(WindowLanes, FullLadderIsCleanAndCycleExact)
{
    struct Pin
    {
        const char *name;
        MachineConfig cfg;
        std::uint64_t cycles;   // recorded pre-SoA; must not drift
    };
    std::vector<Pin> pins;
    pins.push_back({"baseline", baselineConfig(PredictorKind::Gshare), 4211});
    pins.push_back({"cpr", cprConfig(PredictorKind::Gshare), 4913});
    pins.push_back({"8sp", nspConfig(8, PredictorKind::Gshare), 4294});
    pins.push_back({"16sp", nspConfig(16, PredictorKind::Gshare), 4221});
    pins.push_back({"ideal", idealMspConfig(PredictorKind::Gshare), 4138});

    const Program p = verify::fuzzProgram(42);
    for (Pin &pin : pins) {
        const verify::DiffOutcome out = verify::diffRun(p, pin.cfg);
        EXPECT_TRUE(out.ok()) << pin.name;
        if (pin.cycles != 0) {
            EXPECT_EQ(out.cycles, pin.cycles)
                << pin.name << ": timing drifted from the recorded "
                << "pre-refactor cycle count";
        } else {
            ADD_FAILURE() << pin.name << " pin not recorded; cycles="
                          << out.cycles;
        }
    }
}

// ---------------------------------------------------------------------------
// Issue-attempt anchor: the select loop retries a blocked entry every
// cycle; each load attempt probes the store queue once
// (PathEvents::sqProbe) and each register-read-port refusal counts once
// (msp.portConflicts). Coverage and the lsq.* report rows read those
// per-attempt counters, so how the loop orders its checks or caches
// per-instruction work must never move them. swim and applu keep
// sqProbe[Unknown] and the port conflicts non-zero.
// ---------------------------------------------------------------------------

TEST(WindowLanes, IssueAttemptCountersArePinned)
{
    struct Pin
    {
        const char *workload;
        MachineConfig cfg;
        std::uint64_t committed;
        std::uint64_t cycles;
        std::array<std::uint64_t, 4> sqProbe;   // None/Fwd/Stall/Unknown
        std::uint64_t portConflicts;
    };
    const PredictorKind p = PredictorKind::Tage;
    const std::vector<Pin> pins = {
        {"swim", baselineConfig(p), 3002, 7213, {869, 700, 0, 22074}, 0},
        {"swim", cprConfig(p), 3309, 5823, {883, 873, 0, 76970}, 0},
        {"swim", nspConfig(16, p), 3008, 7337, {838, 706, 0, 22353}, 661},
        {"applu", baselineConfig(p), 3002, 6491, {788, 740, 0, 2086}, 0},
        {"applu", cprConfig(p), 3258, 5093, {1009, 740, 0, 2338}, 0},
        {"applu", nspConfig(16, p), 3000, 6739, {1521, 603, 0, 19130},
         2241},
    };

    std::uint64_t unknownProbes = 0, conflicts = 0;
    for (const Pin &pin : pins) {
        Machine m(pin.cfg, spec::build(pin.workload, 1));
        const RunResult r = m.run(3000);
        const PathEvents &ev = m.core().events();
        const std::uint64_t pc = m.stats().get("msp.portConflicts");
        const std::string id =
            std::string(pin.workload) + "/" + pin.cfg.name;
        EXPECT_EQ(r.committed, pin.committed) << id;
        EXPECT_EQ(r.cycles, pin.cycles) << id;
        EXPECT_EQ(ev.sqProbe, pin.sqProbe) << id;
        EXPECT_EQ(pc, pin.portConflicts) << id;
        unknownProbes += ev.sqProbe[3];
        conflicts += pc;
    }
    EXPECT_GT(unknownProbes, 0u);
    EXPECT_GT(conflicts, 0u);
}

// ---------------------------------------------------------------------------
// LCS path anchor: how often the MSP commit stage refreshes bank LCS
// copies (PathEvents::lcsRecompute, lcsDirtyBank) and enters a bank's
// commit-time release (sctGateRelease). Coverage features 79-81 and the
// core.lcs_* benchmark rows read them, so caching inside the commit
// path must never move them. Same six runs as above; the baseline and
// CPR cores have no LCS and must stay at zero.
// ---------------------------------------------------------------------------

TEST(WindowLanes, LcsPathCountersArePinned)
{
    struct Pin
    {
        const char *workload;
        MachineConfig cfg;
        std::uint64_t lcsRecompute, lcsDirtyBank, sctGateRelease;
    };
    const PredictorKind p = PredictorKind::Tage;
    const std::vector<Pin> pins = {
        {"swim", baselineConfig(p), 0, 0, 0},
        {"swim", cprConfig(p), 0, 0, 0},
        {"swim", nspConfig(16, p), 2016, 9976, 2019},
        {"applu", baselineConfig(p), 0, 0, 0},
        {"applu", cprConfig(p), 0, 0, 0},
        {"applu", nspConfig(16, p), 1714, 10791, 2123},
    };

    for (const Pin &pin : pins) {
        Machine m(pin.cfg, spec::build(pin.workload, 1));
        m.run(3000);
        const PathEvents &ev = m.core().events();
        const std::string id =
            std::string(pin.workload) + "/" + pin.cfg.name;
        EXPECT_EQ(ev.lcsRecompute, pin.lcsRecompute) << id;
        EXPECT_EQ(ev.lcsDirtyBank, pin.lcsDirtyBank) << id;
        EXPECT_EQ(ev.sctGateRelease, pin.sctGateRelease) << id;
    }
}

} // anonymous namespace
} // namespace msp
