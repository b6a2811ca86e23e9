#include "driver/campaign.hh"

#include <atomic>
#include <cstdio>
#include <exception>
#include <map>
#include <mutex>
#include <thread>
#include <utility>

#include "common/json.hh"
#include "common/logging.hh"
#include "driver/state.hh"
#include "sim/spec.hh"
#include "workload/registry.hh"

namespace msp {
namespace driver {

std::uint64_t
jobSeed(std::uint64_t base, std::uint64_t index)
{
    std::uint64_t z = base + (index + 1) * 0x9e3779b97f4a7c15ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    z ^= z >> 31;
    return z ? z : 1;
}

SimCampaign::SimCampaign(unsigned threads) : requestedThreads(threads)
{
}

std::size_t
SimCampaign::add(CampaignJob job)
{
    jobs.push_back(std::move(job));
    return jobs.size() - 1;
}

std::vector<CampaignJob>
matrixJobs(const std::string &scenario,
           const std::vector<std::string> &workloads,
           const std::vector<MachineConfig> &configs,
           std::uint64_t maxInsts, std::uint64_t seed)
{
    std::vector<CampaignJob> out;
    out.reserve(workloads.size() * configs.size());
    for (const auto &w : workloads) {
        for (const auto &c : configs) {
            CampaignJob j;
            j.scenario = scenario;
            j.workload = w;
            j.config = c;
            j.maxInsts = maxInsts;
            j.seed = seed;
            out.push_back(std::move(j));
        }
    }
    return out;
}

std::vector<CampaignJob>
gridJobs(const std::string &scenario, const grid::Grid &grid,
         std::uint64_t maxInsts, std::uint64_t seed)
{
    std::vector<CampaignJob> out;
    out.reserve(grid.points.size());
    for (const grid::GridPoint &pt : grid.points) {
        if (pt.workload.empty()) {
            throw SpecError(csprintf(
                "grid point '%s' binds no workload (add a "
                "workload.name or workload.trace axis)",
                pt.label.c_str()));
        }
        CampaignJob j;
        j.scenario = scenario;
        j.workload = pt.workload;
        j.config = pt.machine;
        j.maxInsts = maxInsts;
        j.seed = pt.hasSeed ? pt.seed : seed;
        out.push_back(std::move(j));
    }
    return out;
}

void
SimCampaign::addMatrix(const std::vector<std::string> &workloads,
                       const std::vector<MachineConfig> &configs,
                       std::uint64_t maxInsts, std::uint64_t seed,
                       const std::string &scenario)
{
    for (auto &j : matrixJobs(scenario, workloads, configs, maxInsts, seed))
        add(std::move(j));
}

unsigned
effectivePoolThreads(unsigned threads, std::size_t n)
{
    unsigned t = threads;
    if (t == 0) {
        t = std::thread::hardware_concurrency();
        if (t == 0)
            t = 1;
    }
    if (t > n)
        t = static_cast<unsigned>(n);
    return t ? t : 1;
}

void
parallelFor(unsigned threads, std::size_t n,
            const std::function<void(std::size_t)> &fn)
{
    std::atomic<std::size_t> next{0};
    std::mutex mu;              // guards firstError
    std::exception_ptr firstError;

    auto worker = [&]() {
        for (;;) {
            const std::size_t i = next.fetch_add(1);
            if (i >= n)
                return;
            try {
                fn(i);
            } catch (...) {
                std::lock_guard<std::mutex> lock(mu);
                if (!firstError)
                    firstError = std::current_exception();
                return;
            }
        }
    };

    const unsigned t = effectivePoolThreads(threads, n);
    if (t <= 1) {
        worker();
    } else {
        std::vector<std::thread> pool;
        pool.reserve(t - 1);
        for (unsigned k = 0; k + 1 < t; ++k)
            pool.emplace_back(worker);
        worker();
        for (auto &th : pool)
            th.join();
    }
    if (firstError)
        std::rethrow_exception(firstError);
}

unsigned
SimCampaign::effectiveThreads() const
{
    return effectivePoolThreads(requestedThreads, jobs.size());
}

void
SimCampaign::restrictToShard(unsigned shard, unsigned shards)
{
    const std::vector<std::size_t> keep =
        shardSelect(jobs.size(), shard, shards);
    std::vector<CampaignJob> kept;
    std::vector<std::uint64_t> indices;
    kept.reserve(keep.size());
    indices.reserve(keep.size());
    for (std::size_t i : keep) {
        indices.push_back(globalIndex.empty() ? i : globalIndex[i]);
        kept.push_back(std::move(jobs[i]));
    }
    jobs = std::move(kept);
    globalIndex = std::move(indices);
}

std::string
simJobKey(const CampaignJob &job)
{
    std::string identity = job.scenario + "|" + job.workload + "|";
    identity += csprintf("%llu|%llu|%llu|",
                         static_cast<unsigned long long>(job.seed),
                         static_cast<unsigned long long>(job.maxInsts),
                         static_cast<unsigned long long>(job.maxCycles));
    // Pre-built programs can't be hashed from the job alone; their
    // name is the best stable identity available (campaign CLI paths
    // never set one — workload::build regenerates from workload + seed).
    if (job.program)
        identity += job.program->name + "|";
    identity += specToJson(job.config);
    return stateHash(identity);
}

std::string
simResultToJson(const RunResult &r)
{
    std::string out = "{";
    out += csprintf("\"workload\": \"%s\", ",
                    json::escape(r.workload).c_str());
    out += csprintf("\"config\": \"%s\", ",
                    json::escape(r.config).c_str());
    for (const RunCounter &c : runCounters) {
        out += csprintf("\"%s\": %llu, ", c.name,
                        static_cast<unsigned long long>(r.*c.member));
    }
    out += "\"bank_stall_cycles\": [";
    for (std::size_t i = 0; i < r.bankStallCycles.size(); ++i) {
        out += csprintf("%s%llu", i ? ", " : "",
                        static_cast<unsigned long long>(
                            r.bankStallCycles[i]));
    }
    out += "]}";
    return out;
}

RunResult
simResultFromJson(const std::string &text)
{
    const json::Value doc = json::parse(text);
    RunResult r;
    r.workload = json::getStr(doc, "workload");
    r.config = json::getStr(doc, "config");
    for (const RunCounter &c : runCounters)
        r.*c.member = json::getU64(doc, c.name, 0);
    if (const json::Value *banks = json::getArray(doc, "bank_stall_cycles")) {
        if (banks->items.size() > r.bankStallCycles.size()) {
            throw json::JsonError(csprintf(
                "bank_stall_cycles has %zu entries, want at most %zu",
                banks->items.size(), r.bankStallCycles.size()));
        }
        for (std::size_t i = 0; i < banks->items.size(); ++i)
            r.bankStallCycles[i] =
                json::asU64(banks->items[i], "bank_stall_cycles entry");
    }
    return r;
}

std::vector<JobResult>
SimCampaign::run(const ProgressFn &progress)
{
    const auto gidx = [&](std::size_t i) {
        return globalIndex.empty() ? i : globalIndex[i];
    };

    // Bind the state backend: compute every job's identity key, load
    // any resumed records (validated against those keys), and learn
    // which jobs are already done.
    std::vector<std::string> keys;
    const bool durable = state && state->enabled();
    if (durable) {
        std::vector<std::uint64_t> indices;
        indices.reserve(jobs.size());
        keys.reserve(jobs.size());
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            indices.push_back(gidx(i));
            keys.push_back(simJobKey(jobs[i]));
        }
        state->begin("sim", indices, keys);
    }
    const auto restored = [&](std::size_t i) -> const std::string * {
        return durable ? state->completedPayload(gidx(i)) : nullptr;
    };

    // Synthesise each distinct workload once, sequentially, so the
    // generation order (and thus every program image) never depends on
    // worker scheduling. Jobs whose results the checkpoint restored
    // never run, so their programs aren't needed (or built) at all.
    std::map<std::pair<std::string, std::uint64_t>,
             std::shared_ptr<const Program>> programs;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        CampaignJob &j = jobs[i];
        if (j.program || restored(i))
            continue;
        const auto key = std::make_pair(j.workload, j.seed);
        auto it = programs.find(key);
        if (it == programs.end()) {
            it = programs.emplace(key, std::make_shared<Program>(
                                      workload::build(j.workload, j.seed)))
                     .first;
        }
        j.program = it->second;
    }

    std::vector<JobResult> out(jobs.size());
    std::size_t done = 0;
    std::mutex mu;              // guards done + progress + state

    parallelFor(requestedThreads, jobs.size(), [&](std::size_t i) {
        const CampaignJob &j = jobs[i];
        bool fresh = false;
        if (const std::string *payload = restored(i)) {
            out[i] = JobResult{gidx(i), j, simResultFromJson(*payload)};
        } else if (campaignStopRequested()) {
            // Interrupted: report the slot as never-run; the next
            // --resume picks it up.
            out[i] = JobResult{gidx(i), j, RunResult{}, false};
            return;
        } else {
            Machine m(j.config, *j.program);
            RunResult r =
                m.run(j.maxInsts ? j.maxInsts : defaultInstBudget,
                      j.maxCycles);
            out[i] = JobResult{gidx(i), j, std::move(r)};
            fresh = true;
        }

        std::lock_guard<std::mutex> lock(mu);
        if (fresh && durable)
            state->recordDone(gidx(i), keys[i],
                              simResultToJson(out[i].result));
        ++done;
        if (progress)
            progress(out[i], done, jobs.size());
    });
    if (durable)
        state->finalFlush();
    return out;
}

ProgressFn
SimCampaign::stderrProgress()
{
    return [](const JobResult &jr, std::size_t done, std::size_t total) {
        std::fprintf(stderr, "  [%zu/%zu %s/%s done]\n", done, total,
                     jr.job.config.name.c_str(),
                     jr.result.workload.c_str());
    };
}

} // namespace driver
} // namespace msp
