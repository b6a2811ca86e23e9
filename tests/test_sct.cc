/**
 * @file
 * Unit tests for SctBank — allocation order, RelIQ use bits, the RelP
 * "done" predicate, LCS contribution, commit release (keep the newest
 * committed mapping), recovery release, and Sb flash-clear; plus a
 * seeded random walk that checks the Release Pointer cursor and the
 * published release gate against their from-scratch definitions after
 * every mutation.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/random.hh"
#include "core/sct.hh"

namespace msp {
namespace {

SctBank
freshBank(unsigned cap = 4)
{
    SctBank b(2, cap);
    b.produce(b.allocate(0), 0);   // architectural reset entry
    return b;
}

TEST(SctBank, AllocatesInOrderUntilFull)
{
    SctBank b = freshBank(3);
    b.allocate(1);
    b.allocate(2);
    EXPECT_TRUE(b.full());
    EXPECT_EQ(b.occupancy(), 3u);
    // Oldest-to-newest order by StateId.
    std::uint32_t prev = 0;
    bool first = true;
    for (int slot : b.liveOrder()) {
        if (!first)
            EXPECT_GT(b.entry(slot).stateId, prev);
        prev = b.entry(slot).stateId;
        first = false;
    }
}

TEST(SctBank, RenameSlotIsNewest)
{
    SctBank b = freshBank();
    int s1 = b.allocate(1);
    EXPECT_EQ(b.renameSlot(), s1);
    int s2 = b.allocate(2);
    EXPECT_EQ(b.renameSlot(), s2);
    EXPECT_NE(s1, s2);
}

TEST(SctBank, UseBitsGateDone)
{
    SctBank b = freshBank();
    int s = b.allocate(1);
    const SctEntry &e = b.entry(s);
    EXPECT_FALSE(e.done());        // not ready
    b.produce(s, 11);
    EXPECT_TRUE(e.done());
    EXPECT_TRUE(b.setUse(s, 7));   // consumer in IQ slot 7
    EXPECT_FALSE(e.done());
    EXPECT_FALSE(b.setUse(s, 7));  // duplicate: not newly set
    b.clearUse(s, 7);
    EXPECT_TRUE(e.done());
}

TEST(SctBank, PendingOpsGateDone)
{
    SctBank b = freshBank();
    int s = b.allocate(1);
    const SctEntry &e = b.entry(s);
    b.produce(s, 11);
    b.addPendingOp(s);             // two same-state stores/branches
    b.addPendingOp(s);
    EXPECT_FALSE(e.done());
    b.retirePendingOp(s);
    EXPECT_FALSE(e.done());
    b.retirePendingOp(s);
    EXPECT_TRUE(e.done());
}

TEST(SctBank, LcsContributionIsFirstNotDone)
{
    SctBank b = freshBank();
    int s1 = b.allocate(1);
    int s2 = b.allocate(2);
    b.produce(s2, 22);
    // Entry 1 not ready: it is the oldest not-done.
    ASSERT_TRUE(b.lcsContribution().has_value());
    EXPECT_EQ(*b.lcsContribution(), 1u);
    b.produce(s1, 11);
    // Everything done: the bank is excluded (RenP==RelP condition).
    EXPECT_FALSE(b.lcsContribution().has_value());
}

TEST(SctBank, ReleaseKeepsNewestCommittedMapping)
{
    SctBank b = freshBank(4);
    int s1 = b.allocate(1);
    int s2 = b.allocate(2);
    b.produce(s1, 11);
    b.produce(s2, 22);
    // LCS passed state 2: version 1's successor committed, so the
    // reset entry and version 1 release; version 2 is the
    // architectural mapping and must survive.
    EXPECT_EQ(b.releaseCommitted(3), 2);
    EXPECT_EQ(b.occupancy(), 1u);
    EXPECT_EQ(b.renameSlot(), s2);
    // Nothing further releases: the last mapping always stays.
    EXPECT_EQ(b.releaseCommitted(100), 0);
}

TEST(SctBank, ReleaseStopsAtUncommittedSuccessor)
{
    SctBank b = freshBank(4);
    int s1 = b.allocate(5);
    b.produce(s1, 55);
    // LCS = 5: version at state 5 is *committable* but its own
    // successor hasn't committed; the reset entry must stay (it is
    // still the newest entry with a committed state).
    EXPECT_EQ(b.releaseCommitted(5), 0);
    EXPECT_EQ(b.releaseCommitted(6), 1);   // now state 5 committed
}

TEST(SctBank, RecoveryReleasesFromTail)
{
    SctBank b = freshBank(4);
    b.allocate(3);
    int s2 = b.allocate(7);
    // Recovery StateId 4: state 7 squashes.
    b.releaseTail(s2);
    EXPECT_EQ(b.occupancy(), 2u);
    EXPECT_EQ(b.entry(b.renameSlot()).stateId, 3u);
}

TEST(SctBank, SlotsAreReusedAfterRelease)
{
    SctBank b = freshBank(2);
    int s1 = b.allocate(1);
    b.produce(s1, 11);
    EXPECT_TRUE(b.full());
    b.releaseCommitted(2);         // reset entry leaves
    EXPECT_FALSE(b.full());
    int s2 = b.allocate(2);
    EXPECT_GE(s2, 0);
    EXPECT_TRUE(b.full());
}

TEST(SctBank, FlashClearSaturatesAtZero)
{
    SctBank b = freshBank(4);
    int s1 = b.allocate(100);
    int s2 = b.allocate(600);
    b.flashClearStateIds(512);
    EXPECT_EQ(b.entry(s1).stateId, 0u);     // clamped (committed-old)
    EXPECT_EQ(b.entry(s2).stateId, 88u);    // shifted
}

// ---- exhaustion paths ------------------------------------------------------

TEST(SctBank, ExhaustionIsVisibleBeforeAllocation)
{
    // The rename stage must gate on full() — a bank never reports
    // full() while a slot is free, and always does once the last
    // physical register is handed out.
    SctBank b = freshBank(3);
    EXPECT_FALSE(b.full());
    b.allocate(1);
    EXPECT_FALSE(b.full());
    b.allocate(2);
    EXPECT_TRUE(b.full());
}

TEST(SctBank, ExhaustedBankDrainsThroughCommitRelease)
{
    // Full bank, every entry locally complete: commit release (LCS
    // passing the successors) must free all but the newest mapping,
    // ending the stall without recovery.
    SctBank b = freshBank(3);
    int s1 = b.allocate(1);
    int s2 = b.allocate(2);
    b.produce(s1, 11);
    b.produce(s2, 22);
    ASSERT_TRUE(b.full());
    EXPECT_EQ(b.releaseCommitted(3), 2);
    EXPECT_FALSE(b.full());
    EXPECT_EQ(b.renameSlot(), s2);
}

TEST(SctBank, ExhaustedBankDrainsThroughRecoveryRelease)
{
    // Full bank whose youngest allocator squashes: tail release frees
    // the slot even while older entries are still in flight.
    SctBank b = freshBank(3);
    b.allocate(1);
    int s2 = b.allocate(2);
    ASSERT_TRUE(b.full());
    b.releaseTail(s2);
    EXPECT_FALSE(b.full());
    EXPECT_EQ(b.entry(b.renameSlot()).stateId, 1u);
}

TEST(SctBankDeath, AllocateOnFullBankPanics)
{
    SctBank b = freshBank(2);
    b.allocate(1);
    ASSERT_TRUE(b.full());
    EXPECT_DEATH(b.allocate(2), "full bank");
}

TEST(SctBankDeath, ReleaseTailWithPendingConsumersPanics)
{
    SctBank b = freshBank();
    int s = b.allocate(1);
    b.setUse(s, 3);
    EXPECT_DEATH(b.releaseTail(s), "pending consumers");
}

TEST(SctBankDeath, CommitReleaseOfNotDoneEntryPanics)
{
    SctBank b = freshBank(4);
    int s0 = b.allocate(1);
    int s1 = b.allocate(2);
    b.produce(s1, 22);
    // Drop the architectural reset entry legally first.
    b.produce(s0, 11);
    b.releaseCommitted(2);
    b.addPendingOp(s0);            // oldest live entry not done again
    EXPECT_DEATH(b.releaseCommitted(4), "not-done");
}

TEST(SctBankDeath, ClearUseOutOfRangeIqSlotPanics)
{
    SctBank b = freshBank();
    int s = b.allocate(1);
    EXPECT_DEATH(b.clearUse(s, static_cast<int>(maxIqSlots)), "bad IQ slot");
    EXPECT_DEATH(b.clearUse(s, -1), "bad IQ slot");
}

TEST(SctBankDeath, RetirePendingOpUnderflowPanics)
{
    SctBank b = freshBank();
    int s = b.allocate(1);
    EXPECT_DEATH(b.retirePendingOp(s), "underflow");
}

TEST(SctBankDeath, CapacityBelowTwoPanics)
{
    EXPECT_DEATH(SctBank(0, 1), "too small");
}

TEST(SctBankDeath, InvalidSlotAccessPanics)
{
    SctBank b = freshBank();
    EXPECT_DEATH(b.entry(99), "invalid slot");
}

TEST(SctBankDeath, NonMonotonicAllocationPanics)
{
    SctBank b = freshBank();
    b.allocate(5);
    EXPECT_DEATH(b.allocate(4), "non-monotonic");
}

TEST(SctBankDeath, TailMismatchPanics)
{
    SctBank b = freshBank();
    int s1 = b.allocate(1);
    b.allocate(2);
    EXPECT_DEATH(b.releaseTail(s1), "mismatch");
}

// ---- the Release Pointer cursor against its definition --------------------

/**
 * Seeded random walk over every SctBank mutator. After each step the
 * cursor-backed lcsContribution() must equal scanLcsContribution(), the
 * published gate must be the successor StateId, the gate floor must be
 * at or below it, and a changed contribution must have set the dirty
 * bit. Steps that the bank would refuse are redrawn.
 */
class BankWalk
{
  public:
    BankWalk(unsigned cap, std::uint64_t seed) : bank(5, cap), rng(seed)
    {
        bank.produce(bank.allocate(0), 0);
        bank.bindHot(&gate, &floor, &dirty, 5);
    }

    void
    run(unsigned steps)
    {
        for (unsigned i = 0; i < steps; ++i) {
            const auto before = bank.lcsContribution();
            dirty = 0;
            const std::string op = step();
            SCOPED_TRACE("step " + std::to_string(i) + ": " + op);
            check(before);
            if (::testing::Test::HasFailure())
                return;
        }
    }

    std::uint64_t flashClears = 0;
    std::size_t peakOccupancy = 0;

  private:
    const SctEntry &at(std::size_t i) const
    {
        return bank.entry(bank.liveOrder()[i]);
    }

    /** A random live slot satisfying @p pred; -1 if none. */
    template <typename Pred>
    int
    pick(Pred pred)
    {
        std::vector<int> ok;
        for (int s : bank.liveOrder())
            if (pred(bank.entry(s)))
                ok.push_back(s);
        if (ok.empty())
            return -1;
        // Favour the two newest entries, like the core does.
        if (ok.size() > 2 && rng.chance(0.5))
            return ok[ok.size() - 1 - rng.below(2)];
        return ok[rng.below(ok.size())];
    }

    std::string
    step()
    {
        const auto &order = bank.liveOrder();
        for (;;) {
            switch (rng.below(10)) {
            case 0:
            case 1:
                if (bank.full())
                    break;
                bank.allocate(nextState);
                nextState += 1 + static_cast<std::uint32_t>(rng.below(3));
                return "allocate";
            case 2: {
                const int s = pick([](const SctEntry &) { return true; });
                if (s < 0)
                    break;
                bank.setUse(s, static_cast<int>(rng.below(maxIqSlots)));
                return "setUse";
            }
            case 3: {
                const int s = pick(
                    [](const SctEntry &e) { return e.useCount > 0; });
                if (s < 0)
                    break;
                const auto &bits = bank.entry(s).useBits;
                unsigned w = 0;
                while (bits[w] == 0)
                    ++w;
                bank.clearUse(s, static_cast<int>(
                                     w * 64 + std::countr_zero(bits[w])));
                return "clearUse";
            }
            case 4: {
                const int s =
                    pick([](const SctEntry &e) { return !e.ready; });
                if (s < 0)
                    break;
                bank.produce(s, rng.next());
                return "produce";
            }
            case 5: {
                const int s = pick([](const SctEntry &) { return true; });
                if (s < 0)
                    break;
                bank.addPendingOp(s);
                return "addPendingOp";
            }
            case 6: {
                const int s = pick(
                    [](const SctEntry &e) { return e.pendingOps > 0; });
                if (s < 0)
                    break;
                bank.retirePendingOp(s);
                return "retirePendingOp";
            }
            case 7: {
                if (order.size() < 2)
                    break;
                // Largest legal limit: release stops before the first
                // not-done head (its successor's StateId is the cap).
                std::size_t k = 0;
                while (k + 1 < order.size() && at(k).done())
                    ++k;
                const std::uint32_t hi = k + 1 < order.size()
                                             ? at(k + 1).stateId
                                             : nextState + 2;
                const std::uint32_t lo = at(0).stateId;
                const std::uint32_t lcs = static_cast<std::uint32_t>(
                    rng.range(lo, hi));
                bank.releaseCommitted(lcs);
                // The core's rule: a pass leaves every gate >= limit.
                EXPECT_GE(gate, lcs);
                floor = std::max(floor, lcs);
                return "releaseCommitted(" + std::to_string(lcs) + ")";
            }
            case 8: {
                if (order.empty())
                    break;
                const SctEntry &t = at(order.size() - 1);
                if (t.useCount > 0 || t.pendingOps > 0)
                    break;
                bank.releaseTail(order.back());
                nextState = order.empty() ? nextState
                                          : at(order.size() - 1).stateId + 1;
                return "releaseTail";
            }
            case 9: {
                if (!rng.chance(0.05))
                    break;
                const std::uint32_t sub = static_cast<std::uint32_t>(
                    rng.range(1, nextState));
                bank.flashClearStateIds(sub);
                dirty = ~std::uint64_t{0};   // the core marks every bank
                nextState = nextState > sub ? nextState - sub : 1;
                if (!order.empty())
                    nextState =
                        std::max(nextState, at(order.size() - 1).stateId + 1);
                ++flashClears;
                return "flashClear(" + std::to_string(sub) + ")";
            }
            }
        }
    }

    void
    check(const std::optional<std::uint32_t> &before)
    {
        const auto &order = bank.liveOrder();
        peakOccupancy = std::max(peakOccupancy, order.size());
        const auto cursor = bank.lcsContribution();
        ASSERT_EQ(cursor, bank.scanLcsContribution());
        const std::uint32_t succ =
            order.size() >= 2 ? at(1).stateId : SctBank::noHotState;
        ASSERT_EQ(gate, succ);
        ASSERT_LE(floor, gate);
        if (cursor != before)
            ASSERT_NE(dirty, 0u) << "contribution moved, no dirty bit";
    }

    SctBank bank;
    Rng rng;
    std::uint32_t nextState = 1;
    std::uint32_t gate = SctBank::noHotState;
    std::uint32_t floor = SctBank::noHotState;
    std::uint64_t dirty = 0;
};

TEST(SctBankWalk, CursorMatchesRescanAtEveryStep)
{
    for (const unsigned cap : {3u, 16u, 1u << 18}) {
        for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
            SCOPED_TRACE("capacity " + std::to_string(cap) + " seed " +
                         std::to_string(seed));
            BankWalk w(cap, seed);
            w.run(20000);
            if (HasFailure())
                return;
            EXPECT_GT(w.flashClears, 0u);
            EXPECT_GE(w.peakOccupancy, std::min<std::size_t>(cap, 8));
        }
    }
}

} // namespace
} // namespace msp
