// Ablation: one-level vs two-level query distribution (DESIGN.md
// decision 2). §2.6 motivates the Controller → Distributor → Querier tree
// by per-node connection limits. Here a distributor is a thread-less group
// of queriers: the controller pushes every record straight onto its
// querier's queue, so a second level adds a sticky-map lookup per query,
// not a queue hop. This ablation replays the same trace in fast mode
// through 1-level (1 distributor) and 2-level (several distributors)
// configurations and reports achieved dispatch throughput.
#include <benchmark/benchmark.h>

#include "bench/bench_util.hpp"
#include "replay/engine.hpp"
#include "server/background.hpp"

using namespace ldp;

namespace {

const std::vector<trace::TraceRecord>& cached_trace() {
  static const auto trace = [] {
    synth::FixedTraceSpec spec;
    spec.interarrival_ns = 100 * kMicro;
    spec.duration_ns = 2 * kSecond;  // 20k queries
    spec.client_count = 64;
    spec.seed = 3;
    return synth::make_fixed_trace(spec);
  }();
  return trace;
}

server::BackgroundServer& shared_server() {
  static auto bg = [] {
    auto s = server::BackgroundServer::start(bench::root_wildcard_server());
    if (!s.ok()) std::abort();
    return std::move(*s);
  }();
  return *bg;
}

void run_config(benchmark::State& state, size_t distributors, size_t queriers) {
  for (auto _ : state) {
    replay::EngineConfig cfg;
    cfg.server = shared_server().endpoint();
    cfg.timed = false;
    cfg.distributors = distributors;
    cfg.queriers_per_distributor = queriers;
    cfg.drain_grace = 100 * kMilli;
    replay::QueryEngine engine(cfg);
    auto report = engine.replay(cached_trace());
    if (!report.ok()) state.SkipWithError(report.error().message.c_str());
    benchmark::DoNotOptimize(report);
    state.SetItemsProcessed(state.items_processed() +
                            static_cast<int64_t>(cached_trace().size()));
  }
}

void BM_OneLevelDistribution(benchmark::State& state) {
  run_config(state, 1, static_cast<size_t>(state.range(0)));
}
BENCHMARK(BM_OneLevelDistribution)->Arg(1)->Arg(2)->Arg(4)->Unit(benchmark::kMillisecond);

void BM_TwoLevelDistribution(benchmark::State& state) {
  run_config(state, 2, static_cast<size_t>(state.range(0)));
}
BENCHMARK(BM_TwoLevelDistribution)->Arg(1)->Arg(2)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
