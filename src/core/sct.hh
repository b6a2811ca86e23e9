/**
 * @file
 * SctBank — the State Control Table for one logical register (Sec. 3.2.1).
 *
 * Each logical register owns a fixed bank of physical registers. An SCT
 * entry is the descriptor of one physical register: its Lower StateId
 * (the Upper StateId is implicit — the next entry's StateId minus one),
 * a valid bit, the Ready bit (value produced), the RelIQ use-bit row
 * (one bit per instruction-queue slot) and the count of non-assigning
 * instructions belonging to the entry's state.
 *
 * Physical registers are allocated and released in order within the
 * bank (constraint (b) of Sec. 3.1): allocation pushes at the tail
 * (RenP), commit-release pops at the head, recovery-release pops at the
 * tail. Entry *slots* are stable indices so in-flight instructions can
 * name their operands as (bank, slot) pairs.
 */

#ifndef MSPLIB_CORE_SCT_HH
#define MSPLIB_CORE_SCT_HH

#include <array>
#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"

namespace msp {

/** Maximum instruction-queue size supported by the RelIQ rows. */
constexpr unsigned maxIqSlots = 256;

/** Descriptor of one physical register in a bank. */
struct SctEntry
{
    std::uint32_t stateId = 0;   ///< Lower StateId
    bool valid = false;
    bool ready = false;          ///< Rb: value produced
    std::uint64_t value = 0;
    std::uint32_t useCount = 0;  ///< set bits in the RelIQ row
    std::uint32_t pendingOps = 0;///< unexecuted same-state non-assigners
    std::uint64_t pos = 0;       ///< allocation position in the bank
    std::array<std::uint64_t, maxIqSlots / 64> useBits{};

    /**
     * Local completion: value produced, consumed by every dependent in
     * the IQ, and every same-state instruction executed. This is the
     * predicate the Release Pointer (RelP) stops at.
     */
    bool
    done() const
    {
        return ready && useCount == 0 && pendingOps == 0;
    }
};

/**
 * One logical register's bank of physical registers.
 *
 * Every write that can move the Release Pointer goes through a method
 * (allocate, produce, setUse/clearUse, addPendingOp/retirePendingOp,
 * the releases), so the bank keeps RelP as a cursor instead of
 * rescanning: entry() is read-only.
 */
class SctBank
{
  public:
    /**
     * @param bankId   Unified logical register index (for diagnostics).
     * @param capacity Physical registers in the bank (n of n-SP).
     */
    SctBank(int bankId, unsigned capacity);

    /** True when no more physical registers can be allocated. */
    bool full() const { return order.size() >= cap; }

    /** Live (valid) entries. */
    std::size_t occupancy() const { return order.size(); }

    /**
     * Allocate the next physical register (advance RenP).
     * @return Stable slot index of the new entry.
     */
    int allocate(std::uint32_t stateId);

    /** Slot of the current mapping (RenP target); -1 if bank empty. */
    int
    renameSlot() const
    {
        return order.empty() ? -1 : order.back();
    }

    /** Slot of the oldest live entry (RelP scan base); -1 if empty. */
    int
    oldestSlot() const
    {
        return order.empty() ? -1 : order.front();
    }

    const SctEntry &
    entry(int slot) const
    {
        msp_assert(slot >= 0 && slot < static_cast<int>(slots.size()) &&
                       slots[slot].valid,
                   "bank %d: access to invalid slot %d", id, slot);
        return slots[slot];
    }

    /**
     * Set the RelIQ use bit (consumer @p iqSlot depends on @p slot).
     * @return true if the bit was newly set (caller must clear it).
     */
    bool setUse(int slot, int iqSlot);

    /** Clear a use bit (consumer issued, or squashed). */
    void clearUse(int slot, int iqSlot);

    /** Writeback: the entry's value arrives and its Ready bit sets. */
    const SctEntry &produce(int slot, std::uint64_t value);

    /** A same-state non-assigning instruction joined @p slot's state. */
    void addPendingOp(int slot);

    /** One of @p slot's pending same-state instructions executed. */
    void retirePendingOp(int slot);

    /**
     * Overwrite a ready entry's value without touching any flag (warm
     * architectural state); the Release Pointer cannot move.
     */
    void
    setValue(int slot, std::uint64_t value)
    {
        entryRef(slot).value = value;
    }

    /**
     * StateId this bank contributes to the LCS minimum: the StateId of
     * the first (oldest) entry that still holds its state back — the
     * entry at the Release Pointer. A bank whose entries are all clear
     * is excluded (the RenP==RelP special condition of Sec. 3.2.2 and
     * its multi-entry generalisation).
     *
     * The *tail* entry (current mapping, RenP target) only holds the
     * LCS until its value is produced — not until consumed: a live
     * architectural value (e.g. a loop-invariant constant) gains new
     * consumers forever, and each consumer already gates the LCS
     * through its own instruction's state. Without this exclusion a
     * single loop-invariant register deadlocks commit.
     *
     * One lookup: holdPos is kept at the first holding entry by every
     * mutator (see holdPos).
     */
    std::optional<std::uint32_t>
    lcsContribution() const
    {
        if (holdPos == endPos)
            return std::nullopt;
        return slots[slotAt(holdPos)].stateId;
    }

    /**
     * The from-scratch definition of lcsContribution(): walk the live
     * entries oldest first. Kept for tests and the core's commit-path
     * audit, which compare the cursor against it.
     */
    std::optional<std::uint32_t> scanLcsContribution() const;

    /** Sentinel for "no release gate / no contribution" in hot lanes. */
    static constexpr std::uint32_t noHotState = ~std::uint32_t{0};

    /**
     * Bind this bank's hot commit-path state into core-owned dense
     * arrays, so the commit stage reads flat arrays instead of 64
     * scattered bank objects:
     *
     *  - @p gateSlot receives the successor StateId that gates
     *    releaseCommitted() (noHotState when fewer than two entries),
     *    updated whenever the live order or the StateIds change;
     *  - @p gateFloor is lowered to every gate published below it, so
     *    it stays a lower bound on all banks' gates;
     *  - @p dirtyWord gets bit @p bitIndex set whenever a mutation may
     *    have changed lcsContribution(), so the core refreshes its
     *    copy of only those banks (and clears the bits itself).
     */
    void
    bindHot(std::uint32_t *gateSlot, std::uint32_t *gateFloor,
            std::uint64_t *dirtyWord, unsigned bitIndex)
    {
        hotGate = gateSlot;
        hotFloor = gateFloor;
        hotDirtyWord = dirtyWord;
        hotDirtyMask = std::uint64_t{1} << bitIndex;
        publishHotGate();
        *hotDirtyWord |= hotDirtyMask;
    }

    /**
     * Commit-time release: release head entries that have a *committed
     * successor* (successor StateId < @p lcs). The newest entry with
     * StateId < lcs is kept — it holds the architectural value.
     * @return Number of entries released.
     *
     * The no-op case (nothing committed in this bank since the last
     * broadcast) is decided inline.
     */
    int
    releaseCommitted(std::uint32_t lcs)
    {
        if (order.size() < 2 || slots[order[1]].stateId >= lcs)
            return 0;
        return releaseCommittedSlow(lcs);
    }

    /** Recovery-time release of the tail entry (squashed allocator). */
    void releaseTail(int expectedSlot);

    /** Subtract @p sub from every stored StateId (Sb flash-clear). */
    void flashClearStateIds(std::uint32_t sub);

    /** Oldest-to-newest slot order (for tests/diagnostics). */
    const std::deque<int> &liveOrder() const { return order; }

    int bankId() const { return id; }

  private:
    int freeSlot();
    int releaseCommittedSlow(std::uint32_t lcs);

    SctEntry &
    entryRef(int slot)
    {
        entry(slot);   // validity check
        return slots[slot];
    }

    /** Slot of the live entry at allocation position @p p. */
    int
    slotAt(std::uint64_t p) const
    {
        return order[static_cast<std::size_t>(p - headPos)];
    }

    /** The RelP stop predicate for the live entry at position @p p. */
    bool
    holding(std::uint64_t p) const
    {
        const SctEntry &e = slots[slotAt(p)];
        return !e.ready || e.pendingOps > 0 ||
               (e.useCount > 0 && p + 1 != endPos);
    }

    /** @p p may have started holding: pull the cursor back to it. */
    void
    noteMaybeHolding(std::uint64_t p)
    {
        if (p < holdPos && holding(p))
            holdPos = p;
    }

    /** @p p may have stopped holding: move the cursor past clear entries. */
    void
    noteMaybeClear(std::uint64_t p)
    {
        if (p != holdPos)
            return;
        while (holdPos != endPos && !holding(holdPos))
            ++holdPos;
    }

    void
    markDirty()
    {
        if (hotDirtyWord)
            *hotDirtyWord |= hotDirtyMask;
    }

    void
    publishHotGate()
    {
        if (hotGate) {
            const std::uint32_t g =
                order.size() >= 2 ? slots[order[1]].stateId : noHotState;
            *hotGate = g;
            if (g < *hotFloor)
                *hotFloor = g;
        }
    }

    int id;
    std::size_t cap;
    std::vector<SctEntry> slots;
    std::vector<int> freeSlots;
    std::deque<int> order;   ///< live slots, oldest first

    // Allocation positions: order[i] is at position headPos + i, and
    // endPos is one past the tail. holdPos is the Release Pointer: the
    // position of the first holding entry, or endPos when none holds.
    // In the core only the two newest entries can start holding: a new
    // tail is not ready, the previous tail loses its use-bit exclusion,
    // and use bits and pending ops land on a bank's tail. The cursor
    // therefore moves back only near the tail, and its forward walks
    // are amortised O(1) per mutation.
    std::uint64_t headPos = 0;
    std::uint64_t endPos = 0;
    std::uint64_t holdPos = 0;

    // Core-owned hot commit-path slots (see bindHot).
    std::uint32_t *hotGate = nullptr;
    std::uint32_t *hotFloor = nullptr;
    std::uint64_t *hotDirtyWord = nullptr;
    std::uint64_t hotDirtyMask = 0;
};

} // namespace msp

#endif // MSPLIB_CORE_SCT_HH
