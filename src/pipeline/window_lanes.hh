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
 * compacted lazily) that fixes select priority, and the one ready
 * bitmap, indexed by *position in that list* rather than by slot. Bit
 * i set means the entry at age position i is ready, so select walks
 * the set bits with countr_zero and visits ready entries oldest first
 * without touching waiting entries or holes. Compaction moves each bit
 * with its entry.
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
        if (readyAt(d->iqOrderIdx)) {
            clearReadyAt(d->iqOrderIdx);
            --readyCount;
        }
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
     * set bits of the position bitmap with countr_zero. It holds a copy
     * of the current word and reads later words when it reaches them,
     * so removing the entry just yielded is safe; inserting, waking or
     * compacting while it is live is not (see admissions()).
     */
    class ReadyIter
    {
      public:
        explicit ReadyIter(const WindowLanes &q)
            : lanes(&q), endWord((q.order.size() + 63) / 64)
        {
            load();
        }

        int
        operator*() const
        {
            return lanes->order[word * 64 + std::countr_zero(bits)];
        }

        ReadyIter &
        operator++()
        {
            bits &= bits - 1;
            if (bits == 0) {
                ++word;
                load();
            }
            return *this;
        }

        bool
        operator==(std::default_sentinel_t) const
        {
            return word >= endWord;
        }

      private:
        void
        load()
        {
            for (; word < endWord; ++word) {
                bits = lanes->readyPos[word];
                if (bits != 0)
                    return;
            }
        }

        const WindowLanes *lanes;
        std::size_t word = 0;
        std::size_t endWord;
        std::uint64_t bits = 0;
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
    bool
    readyAt(std::size_t pos) const
    {
        return readyPos[pos >> 6] >> (pos & 63) & 1;
    }

    void
    setReadyAt(std::size_t pos)
    {
        readyPos[pos >> 6] |= std::uint64_t{1} << (pos & 63);
    }

    void
    clearReadyAt(std::size_t pos)
    {
        readyPos[pos >> 6] &= ~(std::uint64_t{1} << (pos & 63));
    }

    void
    markReady(int slot)
    {
        const int pos = inst[slot]->iqOrderIdx;
        msp_assert(!readyAt(pos), "slot %d marked ready twice", slot);
        setReadyAt(pos);
        ++readyCount;
        ++admitCount;
    }

    /** Squeeze the holes out of the age list; ready bits move with
     *  their entries. Each entry only moves down, to a position
     *  already vacated, so the bits can move in place. */
    void
    compact()
    {
        std::size_t out = 0;
        for (std::size_t i = 0; i < order.size(); ++i) {
            if (order[i] < 0)
                continue;
            if (out != i && readyAt(i)) {
                clearReadyAt(i);
                setReadyAt(out);
            }
            order[out] = order[i];
            inst[order[out]]->iqOrderIdx = static_cast<int>(out);
            ++out;
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
    unsigned liveCount = 0;
    std::uint64_t admitCount = 0;
    SeqNum lastInsertSeq = invalidSeqNum;

    std::vector<unsigned> freeSlots;

    /** Live slots oldest-first, with -1 holes where entries left. */
    std::vector<std::int32_t> order;

    /** Ready bits by position in order (bit i <-> order[i]). */
    std::vector<std::uint64_t> readyPos;
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
