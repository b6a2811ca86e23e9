/**
 * @file
 * Hierarchical (two-level) store queue, after CPR (Akkary et al.).
 *
 * Young stores live in the fast L1 SQ; overflow spills (logically) into
 * the large L2 SQ. Forwarding from the L2 region costs extra search
 * latency; a CPR rollback must scan the L2 region, which costs cycles
 * proportional to the number of entries scanned (Sec. 1 of the paper).
 * MSP releases entries by StateId broadcast instead — no scan.
 *
 * Layout: structure-of-arrays. Every associative operation touches the
 * seq lane first (and stores allocate in program order, so the lane is
 * sorted): the age boundary of a load probe and the target of a resolve
 * are found by binary search on the dense seq lane, and the youngest-
 * first forwarding walk then streams the flag/addr lanes without pulling
 * whole entries through the cache. Entries drain from the front by
 * advancing a head offset; the lanes are compacted wholesale once the
 * dead prefix outgrows the live region.
 */

#ifndef MSPLIB_LSQ_STORE_QUEUE_HH
#define MSPLIB_LSQ_STORE_QUEUE_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"

namespace msp {

/** One pending (uncommitted) store (materialised view of the lanes). */
struct SqEntry
{
    SeqNum seq = invalidSeqNum;
    Addr addr = invalidAddr;
    bool addrKnown = false;
    std::uint64_t data = 0;
    bool dataKnown = false;
};

/** Outcome of a forwarding probe. */
struct ForwardResult
{
    enum class Kind {
        None,      ///< no older matching store: go to the cache
        Forward,   ///< value available from the queue
        /// Older matching store's data not yet known. resolve() sets
        /// address and data together, so no probe returns this today;
        /// the issue stage keeps such a load on its per-cycle retry
        /// path rather than parking it (only Unknown parks).
        Stall,
        Unknown,   ///< an older store's address is unresolved: the
                   ///< load parks until a store resolves
    };
    Kind kind = Kind::None;
    std::uint64_t data = 0;
    Cycle extraLatency = 0;   ///< L2-region search penalty
};

/** The two-level store queue. */
class HierStoreQueue
{
  public:
    /**
     * @param l1Entries Fast-level capacity.
     * @param l2Entries Second-level capacity (0 = no second level).
     * @param infinite  Ignore capacity limits (ideal MSP).
     * @param l2SearchLatency Extra cycles to forward from the L2 region.
     */
    HierStoreQueue(unsigned l1Entries, unsigned l2Entries, bool infinite,
                   Cycle l2SearchLatency = 4)
        : l1Cap(l1Entries), l2Cap(l2Entries), unbounded(infinite),
          l2Lat(l2SearchLatency)
    {}

    /** True when another store can be accepted. */
    bool
    canAllocate() const
    {
        return unbounded || size() < l1Cap + l2Cap;
    }

    /** Append a store in program order; address/data arrive later. */
    void
    allocate(SeqNum seq)
    {
        msp_assert(canAllocate(), "SQ overflow");
        msp_assert(empty() || seqLane.back() < seq,
                   "SQ allocation out of program order");
        seqLane.push_back(seq);
        addrLane.push_back(invalidAddr);
        dataLane.push_back(0);
        flagLane.push_back(0);
    }

    /** Fill in the resolved address and data of store @p seq. */
    void
    resolve(SeqNum seq, Addr addr, std::uint64_t data)
    {
        const std::size_t i = indexOf(seq);
        msp_assert(i != npos, "resolve of absent store %llu",
                   static_cast<unsigned long long>(seq));
        addrLane[i] = addr;
        dataLane[i] = data;
        flagLane[i] = kAddrKnown | kDataKnown;
    }

    /**
     * Probe for a load at @p addr with sequence number @p loadSeq.
     *
     * Scans older stores youngest-first. An older store with an unknown
     * address forces the load to wait (conservative, violation-free
     * disambiguation — identical policy for every core). The age
     * boundary comes from one binary search on the sorted seq lane;
     * everything below it is older, so the walk itself compares no
     * sequence numbers.
     */
    ForwardResult
    probe(SeqNum loadSeq, Addr addr) const
    {
        ForwardResult r;
        const std::size_t bound = lowerBound(loadSeq);
        for (std::size_t i = bound; i-- > head;) {
            if (!(flagLane[i] & kAddrKnown)) {
                r.kind = ForwardResult::Kind::Unknown;
                return r;
            }
            if (addrLane[i] == addr) {
                if (!(flagLane[i] & kDataKnown)) {
                    r.kind = ForwardResult::Kind::Stall;
                    return r;
                }
                r.kind = ForwardResult::Kind::Forward;
                r.data = dataLane[i];
                // Entries beyond the youngest l1Cap are in the L2 region.
                if (size() > l1Cap && i - head < size() - l1Cap)
                    r.extraLatency = l2Lat;
                return r;
            }
        }
        return r;
    }

    /** Oldest entry (the next to drain); nullptr when empty. */
    const SqEntry *
    oldest() const
    {
        if (empty())
            return nullptr;
        oldestView.seq = seqLane[head];
        oldestView.addr = addrLane[head];
        oldestView.addrKnown = (flagLane[head] & kAddrKnown) != 0;
        oldestView.data = dataLane[head];
        oldestView.dataKnown = (flagLane[head] & kDataKnown) != 0;
        return &oldestView;
    }

    /** Drain the oldest entry (must match @p seq). */
    void
    drainOldest(SeqNum seq)
    {
        msp_assert(!empty() && seqLane[head] == seq,
                   "drain order violation");
        msp_assert(flagLane[head] == (kAddrKnown | kDataKnown),
                   "draining unresolved store");
        ++head;
        compactIfStale();
    }

    /**
     * Remove stores younger than @p boundary (squash).
     * @return Number of L2-region entries scanned (for the CPR rollback
     *         penalty model).
     */
    std::size_t
    squashAfter(SeqNum boundary)
    {
        std::size_t l2Scanned = 0;
        while (!empty() && seqLane.back() > boundary) {
            if (size() > l1Cap)
                ++l2Scanned;
            seqLane.pop_back();
            addrLane.pop_back();
            dataLane.pop_back();
            flagLane.pop_back();
        }
        compactIfStale();
        return l2Scanned;
    }

    std::size_t size() const { return seqLane.size() - head; }
    bool empty() const { return head == seqLane.size(); }

  private:
    static constexpr std::uint8_t kAddrKnown = 1;
    static constexpr std::uint8_t kDataKnown = 2;
    static constexpr std::size_t npos = static_cast<std::size_t>(-1);

    /** Index of the first live entry with seq >= @p seq. */
    std::size_t
    lowerBound(SeqNum seq) const
    {
        return static_cast<std::size_t>(
            std::lower_bound(seqLane.begin() + head, seqLane.end(), seq) -
            seqLane.begin());
    }

    /** Index of the live entry with exactly @p seq, or npos. */
    std::size_t
    indexOf(SeqNum seq) const
    {
        const std::size_t i = lowerBound(seq);
        return (i < seqLane.size() && seqLane[i] == seq) ? i : npos;
    }

    /** Reclaim the drained prefix once it dominates the lanes. */
    void
    compactIfStale()
    {
        if (head < 64 || head < size())
            return;
        seqLane.erase(seqLane.begin(), seqLane.begin() + head);
        addrLane.erase(addrLane.begin(), addrLane.begin() + head);
        dataLane.erase(dataLane.begin(), dataLane.begin() + head);
        flagLane.erase(flagLane.begin(), flagLane.begin() + head);
        head = 0;
    }

    // Hot lanes, indexed [head, seqLane.size()), oldest first. The seq
    // lane is strictly increasing (program-order allocation).
    std::vector<SeqNum> seqLane;
    std::vector<Addr> addrLane;
    std::vector<std::uint64_t> dataLane;
    std::vector<std::uint8_t> flagLane;
    std::size_t head = 0;

    mutable SqEntry oldestView;   ///< storage behind oldest()

    std::size_t l1Cap;
    std::size_t l2Cap;
    bool unbounded;
    Cycle l2Lat;
};

} // namespace msp

#endif // MSPLIB_LSQ_STORE_QUEUE_HH
