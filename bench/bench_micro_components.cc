/**
 * @file
 * Google-benchmark microbenchmarks of the simulator's hot components:
 * TAGE/gshare lookup+update, SCT allocate/release cycling, LCS
 * computation, cache access, and full-core simulation throughput.
 * Useful for keeping the simulator itself fast.
 */

#include <benchmark/benchmark.h>

#include "bpred/gshare.hh"
#include "bpred/tage.hh"
#include "common/random.hh"
#include "core/sct.hh"
#include "memory/cache.hh"
#include "sim/machine.hh"
#include "sim/presets.hh"
#include "workload/micro.hh"

namespace {

using namespace msp;

void
BM_GsharePredictUpdate(benchmark::State &state)
{
    Gshare g;
    GlobalHistory h;
    Rng rng(7);
    std::uint64_t pc = 0;
    for (auto _ : state) {
        bool taken = rng.chance(0.6);
        benchmark::DoNotOptimize(g.predict(pc, h));
        g.update(pc, h, taken);
        h.push(taken, pc);
        pc = (pc + 13) & 0xFFFF;
    }
}
BENCHMARK(BM_GsharePredictUpdate);

void
BM_TagePredictUpdate(benchmark::State &state)
{
    Tage t;
    GlobalHistory h;
    Rng rng(7);
    std::uint64_t pc = 0;
    for (auto _ : state) {
        bool taken = rng.chance(0.6);
        benchmark::DoNotOptimize(t.predict(pc, h));
        t.update(pc, h, taken);
        h.push(taken, pc);
        pc = (pc + 13) & 0xFFFF;
    }
}
BENCHMARK(BM_TagePredictUpdate);

void
BM_SctAllocateRelease(benchmark::State &state)
{
    SctBank bank(0, 16);
    bank.produce(bank.allocate(0), 0);
    std::uint32_t sid = 0;
    for (auto _ : state) {
        bank.produce(bank.allocate(++sid), sid);
        benchmark::DoNotOptimize(bank.lcsContribution());
        // Release everything superseded (keeps the current mapping).
        bank.releaseCommitted(sid + 1);
    }
}
BENCHMARK(BM_SctAllocateRelease);

void
BM_CacheAccess(benchmark::State &state)
{
    StatGroup sg("bm");
    Cache c({"l1", 64 * 1024, 4, 64, 1}, sg);
    Rng rng(3);
    for (auto _ : state)
        benchmark::DoNotOptimize(c.access(rng.below(1 << 20) * 8, false));
}
BENCHMARK(BM_CacheAccess);

void
BM_MspCoreSimulation(benchmark::State &state)
{
    Program prog = micro::branchy(4096, 11);
    for (auto _ : state) {
        Machine m(nspConfig(16, PredictorKind::Gshare), prog);
        RunResult r = m.run(20000);
        benchmark::DoNotOptimize(r.cycles);
    }
    state.SetItemsProcessed(state.iterations() * 20000);
}
BENCHMARK(BM_MspCoreSimulation)->Unit(benchmark::kMillisecond);

void
BM_CprCoreSimulation(benchmark::State &state)
{
    Program prog = micro::branchy(4096, 11);
    for (auto _ : state) {
        Machine m(cprConfig(PredictorKind::Gshare), prog);
        RunResult r = m.run(20000);
        benchmark::DoNotOptimize(r.cycles);
    }
    state.SetItemsProcessed(state.iterations() * 20000);
}
BENCHMARK(BM_CprCoreSimulation)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
