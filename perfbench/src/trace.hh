/**
 * @file
 * In-memory span recorder for the benchmark's traced pass.
 *
 * A span brackets one call into a simulator layer: its name is the
 * layer metric it feeds ("sim.machine_ctor", "core.run", ...), it
 * records the span that was open when it began (its cause) and the
 * campaign job it belongs to, so every span of one job shares an
 * identifier. Spans stay in memory until writeChromeTrace() at the end
 * of the run, so recording costs two clock reads and one vector push.
 * Single-threaded by design: the benchmark drives one worker.
 */

#ifndef PERFBENCH_TRACE_HH
#define PERFBENCH_TRACE_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since @p t0. */
inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Sentinel job id for spans that belong to no single job. */
constexpr std::uint64_t noJob = ~std::uint64_t{0};

class Tracer
{
  public:
    struct Span
    {
        std::string name;
        std::size_t parent;     ///< index of the causing span, or npos
        std::uint64_t job;      ///< shared by every span of one job
        double start;           ///< seconds since the tracer was made
        double end;
    };

    static constexpr std::size_t npos = ~std::size_t{0};

    /** Opens a span on construction and closes it on destruction. */
    class Scope
    {
      public:
        Scope(Tracer &t, std::string name, std::uint64_t job = noJob)
            : tracer(t), index(t.begin(std::move(name), job))
        {}
        ~Scope() { tracer.end(index); }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

        /** Duration so far (the final one once the scope closed). */
        double seconds() const { return tracer.elapsed(index); }

      private:
        Tracer &tracer;
        std::size_t index;
    };

    std::size_t begin(std::string name, std::uint64_t job);
    void end(std::size_t index);

    /** Duration of span @p index (up to now while it is open). */
    double elapsed(std::size_t index) const;

    /**
     * Self time of every span: its duration minus the time its child
     * spans cover (children never overlap — one thread).
     */
    std::vector<double> selfTimes() const;

    /** Sum of self time over every span named @p name. */
    double selfTotal(const std::string &name) const;

    /** Durations of every span named @p name, in recording order. */
    std::vector<double> durations(const std::string &name) const;

    /** Write all spans as a Chrome trace-event JSON document. */
    void writeChromeTrace(const std::string &path) const;

  private:
    Clock::time_point epoch = Clock::now();
    std::vector<Span> all;
    std::vector<std::size_t> open;   ///< stack of unfinished spans
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_HH
