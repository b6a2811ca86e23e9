#include "core/sct.hh"

namespace msp {

SctBank::SctBank(int bankId, unsigned capacity) : id(bankId), cap(capacity)
{
    msp_assert(capacity >= 2, "bank %d: capacity %u too small", bankId,
               capacity);
}

int
SctBank::freeSlot()
{
    if (!freeSlots.empty()) {
        int s = freeSlots.back();
        freeSlots.pop_back();
        return s;
    }
    slots.emplace_back();
    return static_cast<int>(slots.size()) - 1;
}

int
SctBank::allocate(std::uint32_t stateId)
{
    msp_assert(!full(), "bank %d: allocate on full bank", id);
    msp_assert(order.empty() || slots[order.back()].stateId < stateId,
               "bank %d: non-monotonic StateId allocation", id);
    int s = freeSlot();
    SctEntry &e = slots[s];
    e = SctEntry{};
    e.stateId = stateId;
    e.valid = true;
    e.pos = endPos;
    order.push_back(s);
    // The new tail is not ready: if nothing held, the cursor (at the
    // old end) now names it. The previous tail loses its use-bit
    // exclusion and may start holding.
    ++endPos;
    if (e.pos > headPos)
        noteMaybeHolding(e.pos - 1);
    markDirty();
    publishHotGate();
    return s;
}

bool
SctBank::setUse(int slot, int iqSlot)
{
    msp_assert(iqSlot >= 0 && iqSlot < static_cast<int>(maxIqSlots),
               "bad IQ slot %d", iqSlot);
    SctEntry &e = entryRef(slot);
    std::uint64_t &w = e.useBits[iqSlot >> 6];
    const std::uint64_t bit = std::uint64_t{1} << (iqSlot & 63);
    if (w & bit)
        return false;
    w |= bit;
    ++e.useCount;
    noteMaybeHolding(e.pos);
    markDirty();
    return true;
}

void
SctBank::clearUse(int slot, int iqSlot)
{
    msp_assert(iqSlot >= 0 && iqSlot < static_cast<int>(maxIqSlots),
               "bad IQ slot %d", iqSlot);
    SctEntry &e = entryRef(slot);
    std::uint64_t &w = e.useBits[iqSlot >> 6];
    const std::uint64_t bit = std::uint64_t{1} << (iqSlot & 63);
    msp_assert(w & bit, "bank %d: clearing unset use bit", id);
    w &= ~bit;
    msp_assert(e.useCount > 0, "bank %d: useCount underflow", id);
    --e.useCount;
    noteMaybeClear(e.pos);
    markDirty();
}

const SctEntry &
SctBank::produce(int slot, std::uint64_t value)
{
    SctEntry &e = entryRef(slot);
    e.value = value;
    e.ready = true;
    noteMaybeClear(e.pos);
    markDirty();
    return e;
}

void
SctBank::addPendingOp(int slot)
{
    SctEntry &e = entryRef(slot);
    ++e.pendingOps;
    noteMaybeHolding(e.pos);
    markDirty();
}

void
SctBank::retirePendingOp(int slot)
{
    SctEntry &e = entryRef(slot);
    msp_assert(e.pendingOps > 0, "pendingOps underflow (bank %d)", id);
    --e.pendingOps;
    noteMaybeClear(e.pos);
    markDirty();
}

std::optional<std::uint32_t>
SctBank::scanLcsContribution() const
{
    const int tail = order.empty() ? -1 : order.back();
    for (int s : order) {
        const SctEntry &e = slots[s];
        const bool holding = !e.ready || e.pendingOps > 0 ||
                             (e.useCount > 0 && s != tail);
        if (holding)
            return e.stateId;
    }
    return std::nullopt;
}

int
SctBank::releaseCommittedSlow(std::uint32_t lcs)
{
    // Only done() entries leave, so the cursor (the first holding
    // entry) is never passed.
    int released = 0;
    markDirty();
    while (order.size() >= 2) {
        const SctEntry &succ = slots[order[1]];
        if (succ.stateId >= lcs)
            break;
        SctEntry &head = slots[order.front()];
        msp_assert(head.done(),
                   "bank %d: releasing a not-done entry (state %u, "
                   "lcs %u)", id, head.stateId, lcs);
        head.valid = false;
        freeSlots.push_back(order.front());
        order.pop_front();
        ++headPos;
        ++released;
    }
    publishHotGate();
    return released;
}

void
SctBank::releaseTail(int expectedSlot)
{
    msp_assert(!order.empty(), "bank %d: releaseTail on empty bank", id);
    msp_assert(order.back() == expectedSlot,
               "bank %d: releaseTail slot mismatch (%d vs %d)", id,
               order.back(), expectedSlot);
    SctEntry &e = slots[order.back()];
    msp_assert(e.useCount == 0 && e.pendingOps == 0,
               "bank %d: releasing tail with pending consumers", id);
    e.valid = false;
    freeSlots.push_back(order.back());
    order.pop_back();
    --endPos;
    if (holdPos > endPos)
        holdPos = endPos;
    // The new tail regains its use-bit exclusion and may stop holding.
    if (endPos > headPos)
        noteMaybeClear(endPos - 1);
    markDirty();
    publishHotGate();
}

void
SctBank::flashClearStateIds(std::uint32_t sub)
{
    // Saturating subtract: entries whose state committed long ago (the
    // architectural mapping of a rarely-written register) may still
    // carry a pre-saturation StateId. They are older than everything in
    // flight, so clamping to zero preserves every ordering the id is
    // used for. Uncommitted states are guaranteed >= sub (asserted by
    // the caller on the instruction window). No flag moves, so neither
    // does the cursor.
    for (int s : order) {
        SctEntry &e = slots[s];
        e.stateId = e.stateId >= sub ? e.stateId - sub : 0;
    }
    // The release gate shifted with every StateId; the core's copies of
    // lcsContribution() are refreshed by the core, which marks every
    // bank dirty after a flash clear.
    publishHotGate();
}

} // namespace msp
