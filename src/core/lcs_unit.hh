/**
 * @file
 * LcsUnit — the Last Committed StateId computation (Sec. 3.2.2).
 *
 * Hardware computes LCS = min over banks of SCT[RelP].StateId with a
 * pipelined comparator tree; the paper notes that even a 4-cycle
 * pipelined computation costs under 1% IPC. This model exposes that
 * latency as a configurable delay line: the LCS *used* in cycle t is
 * the minimum *computed* in cycle t - latency.
 */

#ifndef MSPLIB_CORE_LCS_UNIT_HH
#define MSPLIB_CORE_LCS_UNIT_HH

#include <algorithm>
#include <cstdint>
#include <deque>

#include "common/types.hh"

namespace msp {

/** Pipelined minimum-of-StateIds unit. */
class LcsUnit
{
  public:
    /** @param latency Propagation delay in cycles (0 = combinational). */
    explicit LcsUnit(unsigned latency) : lat(latency) {}

    /**
     * Feed the freshly computed minimum and return the effective LCS
     * (the value that emerged from the comparator pipeline this cycle).
     */
    std::uint32_t
    advance(std::uint32_t rawMin)
    {
        if (lat == 0) {
            eff = rawMin;
            return eff;
        }
        pipe.push_back(rawMin);
        if (pipe.size() > lat) {
            eff = pipe.front();
            pipe.pop_front();
        }
        return eff;
    }

    /** Effective (pipeline-output) LCS. */
    std::uint32_t effective() const { return eff; }

    /**
     * Would advance() with the effective value change nothing? True
     * once the delay line is full and every latched minimum equals the
     * output.
     */
    bool
    settled() const
    {
        return pipe.size() == lat &&
               std::all_of(pipe.begin(), pipe.end(),
                           [this](std::uint32_t v) { return v == eff; });
    }

    /**
     * Flush the pipeline on a recovery; stale in-flight minima may
     * exceed the recovery StateId. The effective value is kept — it is
     * monotonically safe (it only ever names already-committed states).
     */
    void flush() { pipe.clear(); }

    /**
     * Lower the effective value (exception recovery resumes inside an
     * already-committed state; the stale effective LCS must not commit
     * the re-fetched instructions before they execute).
     */
    void
    clamp(std::uint32_t v)
    {
        if (eff > v)
            eff = v;
    }

    /** Flash-clear support: shift every latched value down by @p sub. */
    void
    flashClear(std::uint32_t sub)
    {
        eff = eff >= sub ? eff - sub : 0;
        for (auto &v : pipe)
            v = v >= sub ? v - sub : 0;
    }

  private:
    unsigned lat;
    std::uint32_t eff = 0;
    std::deque<std::uint32_t> pipe;
};

} // namespace msp

#endif // MSPLIB_CORE_LCS_UNIT_HH
