/**
 * @file
 * WindowLanes — structure-of-arrays hot state of the instruction queue.
 *
 * The issue stage used to re-poll every IQ occupant's operand readiness
 * through a virtual call and two pointer-chased register-file lookups,
 * every cycle; the profile showed that polling loop (doIssueStage +
 * operandsReady) costing about half of the whole simulation. This class
 * splits the scheduler-scanned fields out of DynInst (the cold record,
 * which stays in the DynInstPool arena) into dense parallel lanes
 * indexed by IQ slot id:
 *
 *   - a pending-source counter driving event-driven wakeup,
 *   - a generation counter guarding against stale wakeups on slot reuse,
 *   - seq / source-tag / FU-class lanes for asserts and diagnostics,
 *
 * plus the age-ordered slot list (sorted by construction, holes
 * compacted lazily) that fixes select priority, and two bitmaps
 * indexed by *position in that list* rather than by slot. Bit i of the
 * ready bitmap set means the entry at age position i is ready, so
 * select walks the set bits with countr_zero and visits ready entries
 * oldest first without touching waiting entries or holes. The parked
 * bitmap holds loads whose operands are ready but whose store-queue
 * probe found an older store with an unknown address: select skips
 * them until a store resolves (unparkYoungerThan()), since nothing
 * else can change such a probe's answer. The two bitmaps are disjoint,
 * and compaction moves each bit with its entry.
 *
 * Readiness becomes *event-driven*: a slot's pending count is set once
 * at insert (counting distinct not-yet-ready source tags) and
 * decremented by wakeSrc() when a producer writes back. This is
 * cycle-exact with the old polling because of two structural facts:
 * (1) the cycle order is commit -> writeback -> issue -> rename, so a
 * value written in cycle T is visible to the poll in cycle T exactly
 * when the wakeup also lands in T; and (2) no core ever un-readies a
 * physical register while a consumer is live in the IQ (registers are
 * only reallocated after their last IQ consumer issued or squashed), so
 * ready can never regress between insert and issue.
 *
 * Slot ids are stable while an instruction waits, which is what lets
 * the MSP RelIQ use-bit rows double as the wakeup CAM: the bits the
 * paper already stores per (physical register, IQ slot) are exactly
 * the consumers to wake when the entry's value arrives.
 */

#ifndef MSPLIB_PIPELINE_WINDOW_LANES_HH
#define MSPLIB_PIPELINE_WINDOW_LANES_HH

#include <bit>
#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "pipeline/dyninst.hh"

namespace msp {

/** SoA instruction-queue window: hot lanes + age-ordered ready select. */
class WindowLanes
{
  public:
    explicit WindowLanes(unsigned capacity)
        : cap(capacity), orderLimit(2 * capacity)
    {
        inst.assign(capacity, nullptr);
        seqLane.assign(capacity, invalidSeqNum);
        src1Lane.assign(capacity, noReg);
        src2Lane.assign(capacity, noReg);
        fuLane.assign(capacity, 0);
        pendingLane.assign(capacity, 0);
        genLane.assign(capacity, 0);
        readyPos.assign((orderLimit + 63) / 64, 0);
        parkedPos.assign(readyPos.size(), 0);
        freeSlots.reserve(capacity);
        for (unsigned i = 0; i < capacity; ++i)
            freeSlots.push_back(capacity - 1 - i);
        order.reserve(orderLimit + 1);
    }

    /** Remaining capacity. */
    unsigned freeCount() const { return freeSlots.size(); }

    bool full() const { return freeSlots.empty(); }

    /** Total slots. */
    unsigned capacity() const { return cap; }

    /** Any slot ready? (cheap per-cycle early-out for the select loop) */
    bool anyReady() const { return readyCount != 0; }

    /** Parked loads (see park()). */
    unsigned parked() const { return parkedCount; }

    /** Insert @p d; assigns and returns its slot id. Pending sources
     *  are not known yet — the core calls setPending() after rename. */
    int
    insert(DynInst *d)
    {
        msp_assert(!freeSlots.empty(), "IQ overflow");
        const int slot = static_cast<int>(freeSlots.back());
        freeSlots.pop_back();
        inst[slot] = d;
        seqLane[slot] = d->seq;
        d->iqSlot = slot;
        d->inIq = true;
        // Rename inserts in seq order (seq is assigned at fetch, the
        // fetchQ is a FIFO, and a squash never hands a seq out again),
        // so the age list stays sorted by construction. Select priority
        // depends on it. Checked against the last insert rather than
        // the youngest live entry, which may already have left.
        msp_assert(lastInsertSeq == invalidSeqNum ||
                       lastInsertSeq < d->seq,
                   "IQ insert out of age order");
        lastInsertSeq = d->seq;
        ++admitCount;
        if (order.size() >= orderLimit)
            compact();
        d->iqOrderIdx = static_cast<int>(order.size());
        order.push_back(slot);
        ++liveCount;
        return slot;
    }

    /** Record the hot source/FU lanes once rename assigned the tags. */
    void
    fillTags(int slot, PhysReg src1, PhysReg src2, unsigned char fu)
    {
        src1Lane[slot] = src1;
        src2Lane[slot] = src2;
        fuLane[slot] = fu;
    }

    /**
     * Set the wakeup counter: @p n distinct source tags not yet ready.
     * Zero marks the slot ready for select immediately.
     */
    void
    setPending(int slot, unsigned n)
    {
        pendingLane[slot] = static_cast<std::uint8_t>(n);
        if (n == 0)
            markReady(slot);
    }

    /** A producer of one of @p slot's pending sources wrote back. */
    void
    wakeSrc(int slot)
    {
        msp_assert(inst[slot] != nullptr, "wake of empty IQ slot %d", slot);
        msp_assert(pendingLane[slot] > 0,
                   "wake underflow on IQ slot %d", slot);
        if (--pendingLane[slot] == 0)
            markReady(slot);
    }

    /**
     * Generation-checked wakeup for subscription-based wakers
     * (baseline/CPR register waiter lists): ignores the wake when the
     * slot was reused since the subscription was taken.
     */
    void
    wakeSrcIfCurrent(int slot, std::uint32_t gen)
    {
        if (inst[slot] != nullptr && genLane[slot] == gen)
            wakeSrc(slot);
    }

    /** Generation of the current occupancy (captured by subscribers). */
    std::uint32_t generation(int slot) const { return genLane[slot]; }

    bool
    ready(int slot) const
    {
        const DynInst *d = inst[slot];
        return d != nullptr && readyAt(d->iqOrderIdx);
    }

    bool
    isParked(int slot) const
    {
        const DynInst *d = inst[slot];
        return d != nullptr && parkedAt(d->iqOrderIdx);
    }

    /**
     * Take ready @p slot out of select: a load whose store-queue probe
     * is blocked by an older store with an unknown address. It keeps
     * its age position and returns to the ready bitmap when a store
     * older than it resolves (unparkYoungerThan()).
     */
    void
    park(int slot)
    {
        const std::size_t pos = inst[slot]->iqOrderIdx;
        msp_assert(readyAt(pos), "park of unready IQ slot %d", slot);
        clearBit(readyPos, pos);
        setBit(parkedPos, pos);
        --readyCount;
        ++parkedCount;
    }

    /**
     * Store @p slot resolved: every parked load younger than it goes
     * back to the ready bitmap, where a select walk now at @p slot
     * still reaches it (see ReadyIter). Costs nothing with no load
     * parked, else one pass over the words from the store's position
     * to the end of the age list.
     */
    void
    unparkYoungerThan(int slot)
    {
        if (parkedCount == 0)
            return;
        const std::size_t from = inst[slot]->iqOrderIdx + 1;
        const std::size_t end = (order.size() + 63) / 64;
        std::uint64_t mask = ~std::uint64_t{0} << (from & 63);
        for (std::size_t w = from >> 6; w < end && parkedCount != 0; ++w) {
            const std::uint64_t moved = parkedPos[w] & mask;
            mask = ~std::uint64_t{0};
            if (moved == 0)
                continue;
            parkedPos[w] &= ~moved;
            readyPos[w] |= moved;
            const unsigned n = std::popcount(moved);
            parkedCount -= n;
            readyCount += n;
        }
    }

    /** Parked loads at age positions [@p from, @p to). */
    unsigned
    parkedBetween(std::size_t from, std::size_t to) const
    {
        if (parkedCount == 0 || from >= to)
            return 0;
        const std::size_t first = from >> 6, last = (to - 1) >> 6;
        const std::uint64_t lo = ~std::uint64_t{0} << (from & 63);
        const std::uint64_t hi = ~std::uint64_t{0} >> (63 - ((to - 1) & 63));
        if (first == last)
            return std::popcount(parkedPos[first] & lo & hi);
        unsigned n = std::popcount(parkedPos[first] & lo);
        for (std::size_t w = first + 1; w < last; ++w)
            n += std::popcount(parkedPos[w]);
        return n + std::popcount(parkedPos[last] & hi);
    }

    /**
     * Check the bitmaps against each other and the age list: disjoint,
     * set only at live positions, counts equal to their popcounts.
     * Returns an empty string when consistent, else what is wrong.
     */
    std::string
    auditBitmaps() const
    {
        unsigned readyBits = 0, parkedBits = 0;
        for (std::size_t w = 0; w < readyPos.size(); ++w) {
            if (readyPos[w] & parkedPos[w])
                return csprintf("age word %zu: ready and parked overlap",
                                w);
            for (std::uint64_t bits = readyPos[w] | parkedPos[w];
                 bits != 0; bits &= bits - 1) {
                const std::size_t pos = w * 64 + std::countr_zero(bits);
                if (pos >= order.size() || order[pos] < 0)
                    return csprintf("age position %zu: bit set without a "
                                    "live entry", pos);
            }
            readyBits += std::popcount(readyPos[w]);
            parkedBits += std::popcount(parkedPos[w]);
        }
        if (readyBits != readyCount)
            return csprintf("readyCount %u, ready bitmap holds %u",
                            readyCount, readyBits);
        if (parkedBits != parkedCount)
            return csprintf("parkedCount %u, parked bitmap holds %u",
                            parkedCount, parkedBits);
        return {};
    }

    /** Pending distinct unready sources (tests/diagnostics). */
    unsigned pendingOf(int slot) const { return pendingLane[slot]; }

    DynInst *at(int slot) const { return inst[slot]; }

    SeqNum seqOf(int slot) const { return seqLane[slot]; }
    PhysReg src1Of(int slot) const { return src1Lane[slot]; }
    PhysReg src2Of(int slot) const { return src2Lane[slot]; }
    unsigned char fuOf(int slot) const { return fuLane[slot]; }

    /** Remove @p d (at issue or squash). */
    void
    remove(DynInst *d)
    {
        msp_assert(d->inIq && d->iqSlot >= 0, "IQ remove of absent inst");
        const int slot = d->iqSlot;
        msp_assert(inst[slot] == d, "IQ slot mismatch");
        msp_assert(d->iqOrderIdx >= 0 && order[d->iqOrderIdx] == slot,
                   "IQ age-list mismatch");
        const std::size_t pos = d->iqOrderIdx;
        readyCount -= readyAt(pos);
        parkedCount -= parkedAt(pos);
        clearBit(readyPos, pos);
        clearBit(parkedPos, pos);
        inst[slot] = nullptr;
        seqLane[slot] = invalidSeqNum;
        src1Lane[slot] = noReg;
        src2Lane[slot] = noReg;
        pendingLane[slot] = 0;
        ++genLane[slot];   // invalidate outstanding subscriptions
        freeSlots.push_back(slot);
        order[d->iqOrderIdx] = -1;   // hole; compacted lazily
        --liveCount;
        d->inIq = false;
        d->iqSlot = -1;
        d->iqOrderIdx = -1;
    }

    /**
     * Age-ordered slot list: oldest first, holes are -1. Bounded at
     * twice the capacity by lazy compaction. Select walks it through
     * readyOldestFirst(); the whole list is for tests and diagnostics.
     */
    const std::vector<std::int32_t> &ageOrder() const { return order; }

    /**
     * Select iterator: yields the ready slots oldest first, walking the
     * set bits of the position bitmap with countr_zero. Each step reads
     * the live bitmap for the first ready position past the one just
     * yielded, so the walk may remove or park the entry it yielded and
     * may unpark younger entries (a store resolving at issue); those
     * are still reached, even in the word being walked. Inserting,
     * waking or compacting while it is live is not allowed (see
     * admissions()).
     */
    class ReadyIter
    {
      public:
        explicit ReadyIter(const WindowLanes &q)
            : order(q.order.data()), ready(q.readyPos.data()),
              endWord((q.order.size() + 63) / 64)
        {
            seek(0);
        }

        int operator*() const { return order[pos]; }

        ReadyIter &
        operator++()
        {
            seek(pos + 1);
            return *this;
        }

        bool
        operator==(std::default_sentinel_t) const
        {
            return pos == done;
        }

      private:
        static constexpr std::size_t done = ~std::size_t{0};

        /** Move to the first ready position >= @p from. */
        void
        seek(std::size_t from)
        {
            std::size_t w = from >> 6;
            if (w < endWord) {
                std::uint64_t bits =
                    ready[w] & (~std::uint64_t{0} << (from & 63));
                for (;;) {
                    if (bits != 0) {
                        pos = w * 64 + std::countr_zero(bits);
                        return;
                    }
                    if (++w == endWord)
                        break;
                    bits = ready[w];
                }
            }
            pos = done;
        }

        // Neither vector reallocates during a walk (no insert).
        const std::int32_t *order;
        const std::uint64_t *ready;
        std::size_t endWord;
        std::size_t pos = done;
    };

    /** Range over the ready slots, oldest first (see ReadyIter). */
    struct ReadySlots
    {
        const WindowLanes &lanes;
        ReadyIter begin() const { return ReadyIter(lanes); }
        std::default_sentinel_t end() const { return {}; }
    };

    ReadySlots readyOldestFirst() const { return ReadySlots{*this}; }

    /**
     * Inserts plus wakeups so far. A select walk that sees it move
     * walked a bitmap that changed under it.
     */
    std::uint64_t admissions() const { return admitCount; }

  private:
    using Bitmap = std::vector<std::uint64_t>;

    static bool
    testBit(const Bitmap &b, std::size_t pos)
    {
        return b[pos >> 6] >> (pos & 63) & 1;
    }

    static void
    setBit(Bitmap &b, std::size_t pos)
    {
        b[pos >> 6] |= std::uint64_t{1} << (pos & 63);
    }

    static void
    clearBit(Bitmap &b, std::size_t pos)
    {
        b[pos >> 6] &= ~(std::uint64_t{1} << (pos & 63));
    }

    bool readyAt(std::size_t pos) const { return testBit(readyPos, pos); }
    bool parkedAt(std::size_t pos) const { return testBit(parkedPos, pos); }

    void
    markReady(int slot)
    {
        const int pos = inst[slot]->iqOrderIdx;
        msp_assert(!readyAt(pos) && !parkedAt(pos),
                   "slot %d marked ready while ready or parked", slot);
        setBit(readyPos, pos);
        ++readyCount;
        ++admitCount;
    }

    /** Squeeze the holes out of the age list; ready and parked bits
     *  move with their entries. Each entry only moves down, so an
     *  output bitmap word is complete, and written back, before the
     *  walk reads past it. */
    void
    compact()
    {
        const std::size_t words = (order.size() + 63) / 64;
        std::size_t out = 0;
        std::uint64_t readyWord = 0, parkedWord = 0;   // output word
        for (std::size_t i = 0; i < order.size(); ++i) {
            if (order[i] < 0)
                continue;
            readyWord |= std::uint64_t{readyAt(i)} << (out & 63);
            parkedWord |= std::uint64_t{parkedAt(i)} << (out & 63);
            order[out] = order[i];
            inst[order[out]]->iqOrderIdx = static_cast<int>(out);
            if ((++out & 63) == 0) {
                readyPos[(out >> 6) - 1] = readyWord;
                parkedPos[(out >> 6) - 1] = parkedWord;
                readyWord = parkedWord = 0;
            }
        }
        for (std::size_t w = out >> 6; w < words; ++w) {
            readyPos[w] = w == out >> 6 ? readyWord : 0;
            parkedPos[w] = w == out >> 6 ? parkedWord : 0;
        }
        order.resize(out);
    }

    unsigned cap;
    std::size_t orderLimit;

    // Hot lanes, indexed by slot id.
    std::vector<DynInst *> inst;
    std::vector<SeqNum> seqLane;
    std::vector<PhysReg> src1Lane;
    std::vector<PhysReg> src2Lane;
    std::vector<std::uint8_t> fuLane;
    std::vector<std::uint8_t> pendingLane;
    std::vector<std::uint32_t> genLane;
    unsigned readyCount = 0;
    unsigned parkedCount = 0;
    unsigned liveCount = 0;
    std::uint64_t admitCount = 0;
    SeqNum lastInsertSeq = invalidSeqNum;

    std::vector<unsigned> freeSlots;

    /** Live slots oldest-first, with -1 holes where entries left. */
    std::vector<std::int32_t> order;

    /** Ready bits by position in order (bit i <-> order[i]). */
    Bitmap readyPos;

    /** Parked-load bits, same indexing; disjoint from readyPos. */
    Bitmap parkedPos;
};

/**
 * Per-physical-register wakeup subscription lists for the flat-file
 * cores (baseline/CPR). MSP needs none of this: its RelIQ use-bit rows
 * already record exactly the consumers to wake.
 *
 * Subscriptions are only ever *appended* (at rename, for each source
 * tag not yet ready) and *drained* (when the producer writes back);
 * consumers that left the IQ in between are skipped by the generation
 * check. Lists of squashed producers persist until the register is
 * reallocated and written again, where the drain discards them — so
 * memory stays bounded without any removal path.
 */
class RegWaiters
{
  public:
    void init(std::size_t numPhys) { lists.assign(numPhys, {}); }

    void
    watch(PhysReg p, int slot, std::uint32_t gen)
    {
        lists[p].push_back(Sub{slot, gen});
    }

    void
    drain(PhysReg p, WindowLanes &iq)
    {
        auto &l = lists[p];
        for (const Sub &s : l)
            iq.wakeSrcIfCurrent(s.slot, s.gen);
        l.clear();
    }

  private:
    struct Sub
    {
        std::int32_t slot;
        std::uint32_t gen;
    };
    std::vector<std::vector<Sub>> lists;
};

} // namespace msp

#endif // MSPLIB_PIPELINE_WINDOW_LANES_HH
