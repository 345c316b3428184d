// Figure 2 reproduction: the cyclic schedule of the multirate marked graph
// t1 ->(1,2) t2 ->(1,2) t3.  The paper prints the minimal T-invariant
// f(sigma) = (4,2,1)^T and the periodic schedule sigma = t1 t1 t1 t1 t2 t2 t3.
#include "bench_util.hpp"

#include "nets/paper_nets.hpp"
#include "sdf/buffer_bounds.hpp"
#include "sdf/sdf_graph.hpp"
#include "sdf/static_schedule.hpp"

namespace {

using namespace fcqss;

void report()
{
    benchutil::heading("Figure 2: cyclic schedule of a multirate marked graph");
    const auto net = nets::figure_2();
    const auto graph = sdf::from_marked_graph(net);
    const auto schedule = sdf::compute_static_schedule(graph);

    std::string vector_text = "(";
    for (std::size_t i = 0; i < schedule.repetitions.counts.size(); ++i) {
        vector_text += (i ? ", " : "") + std::to_string(schedule.repetitions.counts[i]);
    }
    vector_text += ")";
    benchutil::row("T-invariant f(sigma)  (paper: (4, 2, 1))", vector_text);
    benchutil::row("schedule sigma  (paper: t1 t1 t1 t1 t2 t2 t3)",
                   to_string(graph, schedule));

    const auto bounds = sdf::buffer_bounds(graph, schedule);
    std::string bounds_text;
    for (std::size_t c = 0; c < bounds.size(); ++c) {
        bounds_text += (c ? ", " : "") + std::to_string(bounds[c]);
    }
    benchutil::row("channel buffer bounds (tokens)", bounds_text);
}

void bm_repetition_vector(benchmark::State& state)
{
    const auto graph = sdf::from_marked_graph(nets::figure_2());
    for (auto _ : state) {
        benchmark::DoNotOptimize(sdf::repetition_vector(graph));
    }
}
BENCHMARK(bm_repetition_vector);

void bm_static_schedule(benchmark::State& state)
{
    const auto graph = sdf::from_marked_graph(nets::figure_2());
    for (auto _ : state) {
        benchmark::DoNotOptimize(sdf::compute_static_schedule(graph));
    }
}
BENCHMARK(bm_static_schedule);

// Scaling series: chains of n multirate actors (the per-reduction cost the
// paper calls polynomial).
void bm_static_schedule_chain(benchmark::State& state)
{
    sdf::sdf_graph graph("chain");
    const int actors = static_cast<int>(state.range(0));
    for (int i = 0; i < actors; ++i) {
        (void)graph.add_actor(benchutil::numbered("a", i));
    }
    for (int i = 0; i + 1 < actors; ++i) {
        graph.add_channel(static_cast<sdf::actor_id>(i),
                          static_cast<sdf::actor_id>(i + 1), 1 + i % 2, 1 + (i + 1) % 2);
    }
    for (auto _ : state) {
        benchmark::DoNotOptimize(sdf::compute_static_schedule(graph));
    }
    state.SetComplexityN(actors);
}
BENCHMARK(bm_static_schedule_chain)->RangeMultiplier(2)->Range(4, 64)->Complexity();

} // namespace

FCQSS_BENCH_MAIN(report)
