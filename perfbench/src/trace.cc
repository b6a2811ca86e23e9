#include "trace.hh"

#include <cstdio>

#include "common/json.hh"
#include "driver/report.hh"

namespace perfbench {

std::size_t
Tracer::begin(std::string name, std::uint64_t job)
{
    const std::size_t parent = open.empty() ? npos : open.back();
    const double t = std::chrono::duration<double>(Clock::now() - epoch)
                         .count();
    all.push_back(Span{std::move(name), parent, job, t, -1.0});
    open.push_back(all.size() - 1);
    return all.size() - 1;
}

void
Tracer::end(std::size_t index)
{
    all[index].end =
        std::chrono::duration<double>(Clock::now() - epoch).count();
    // Scopes close in reverse order of opening, so this is the top.
    open.pop_back();
}

double
Tracer::elapsed(std::size_t index) const
{
    const Span &s = all[index];
    const double end =
        s.end >= 0 ? s.end
                   : std::chrono::duration<double>(Clock::now() - epoch)
                         .count();
    return end - s.start;
}

std::vector<double>
Tracer::selfTimes() const
{
    std::vector<double> self(all.size());
    for (std::size_t i = 0; i < all.size(); ++i)
        self[i] = all[i].end - all[i].start;
    for (const Span &s : all)
        if (s.parent != npos)
            self[s.parent] -= s.end - s.start;
    return self;
}

double
Tracer::selfTotal(const std::string &name) const
{
    const std::vector<double> self = selfTimes();
    double total = 0;
    for (std::size_t i = 0; i < all.size(); ++i)
        if (all[i].name == name)
            total += self[i];
    return total;
}

std::vector<double>
Tracer::durations(const std::string &name) const
{
    std::vector<double> out;
    for (const Span &s : all)
        if (s.name == name)
            out.push_back(s.end - s.start);
    return out;
}

void
Tracer::writeChromeTrace(const std::string &path) const
{
    // Complete ("X") events in microseconds; the job id and the causing
    // span travel in "args" so a viewer can group one job's spans.
    std::string doc = "{\"traceEvents\": [\n";
    char buf[160];
    for (std::size_t i = 0; i < all.size(); ++i) {
        const Span &s = all[i];
        std::snprintf(buf, sizeof buf,
                      "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                      "\"ts\": %.3f, \"dur\": %.3f, \"args\": {",
                      s.start * 1e6, (s.end - s.start) * 1e6);
        doc += "{\"name\": \"" + msp::json::escape(s.name) + buf;
        doc += "\"id\": " + std::to_string(i);
        if (s.parent != npos)
            doc += ", \"parent\": " + std::to_string(s.parent);
        if (s.job != noJob)
            doc += ", \"job\": " + std::to_string(s.job);
        doc += i + 1 < all.size() ? "}},\n" : "}}\n";
    }
    doc += "]}\n";
    msp::driver::writeFile(path, doc);
}

} // namespace perfbench
