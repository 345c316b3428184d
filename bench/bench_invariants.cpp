// The per-reduction analysis cost the paper calls polynomial: Farkas
// T-invariant enumeration and cycle simulation on conflict-free nets of
// growing size.
#include "bench_util.hpp"

#include "pn/builder.hpp"
#include "pn/invariants.hpp"
#include "qss/scheduler.hpp"

namespace {

using namespace fcqss;

// A conflict-free net shaped like a T-reduction: `width` parallel
// source->chain->sink paths of `depth` stages each.
pn::petri_net cf_net(int width, int depth)
{
    pn::net_builder b("cf_" + std::to_string(width) + "x" + std::to_string(depth));
    for (int w = 0; w < width; ++w) {
        auto prev = b.add_transition("src" + std::to_string(w));
        for (int d = 0; d < depth; ++d) {
            const auto p = b.add_place(
                benchutil::numbered(benchutil::numbered("p", w) + "_", d));
            b.add_arc(prev, p, 1 + (d % 2));
            prev = b.add_transition(
                benchutil::numbered(benchutil::numbered("t", w) + "_", d));
            b.add_arc(p, prev, 1 + (d % 2));
        }
    }
    return std::move(b).build();
}

void report()
{
    benchutil::heading("Farkas T-invariant enumeration on conflict-free nets");
    std::printf("  %8s %8s %12s %12s\n", "width", "depth", "transitions", "invariants");
    for (int width : {2, 4, 8}) {
        for (int depth : {4, 8, 16}) {
            const auto net = cf_net(width, depth);
            const auto invariants = pn::t_invariants(net);
            std::printf("  %8d %8d %12zu %12zu\n", width, depth, net.transition_count(),
                        invariants.size());
        }
    }
}

void bm_t_invariants(benchmark::State& state)
{
    const auto net = cf_net(static_cast<int>(state.range(0)),
                            static_cast<int>(state.range(1)));
    for (auto _ : state) {
        benchmark::DoNotOptimize(pn::t_invariants(net));
    }
    state.SetComplexityN(state.range(0) * state.range(1));
}
BENCHMARK(bm_t_invariants)
    ->Args({2, 4})
    ->Args({4, 8})
    ->Args({8, 16})
    ->Args({8, 32})
    ->Complexity();

void bm_schedule_cf_net(benchmark::State& state)
{
    const auto net = cf_net(4, static_cast<int>(state.range(0)));
    for (auto _ : state) {
        benchmark::DoNotOptimize(qss::quasi_static_schedule(net));
    }
    state.SetComplexityN(state.range(0));
}
BENCHMARK(bm_schedule_cf_net)->RangeMultiplier(2)->Range(4, 32)->Complexity();

} // namespace

FCQSS_BENCH_MAIN(report)
