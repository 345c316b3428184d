// Figure 5 reproduction: T-allocations A1/A2 and their T-reductions R1/R2,
// the published T-invariants of R1 — (1,1,0,2,0,4,0,0,0) and
// (0,0,0,0,0,1,0,1,1) — and the published valid schedule.
#include "bench_util.hpp"

#include "nets/paper_nets.hpp"
#include "pn/firing.hpp"
#include "qss/reduction.hpp"
#include "qss/scheduler.hpp"

namespace {

using namespace fcqss;

std::string vector_text(const linalg::int_vector& v)
{
    std::string text = "(";
    for (std::size_t i = 0; i < v.size(); ++i) {
        if (i != 0) {
            text += ',';
        }
        text += std::to_string(v[i]);
    }
    return text + ")";
}

std::string kept_names(const pn::petri_net& net, const qss::t_reduction& r)
{
    std::string text = "{";
    bool first = true;
    for (pn::transition_id t : net.transitions()) {
        if (r.keep_transition[t.index()]) {
            text += (first ? "" : ",") + net.transition_name(t);
            first = false;
        }
    }
    return text + "}";
}

void report()
{
    benchutil::heading("Figure 5: T-allocations and T-reductions");
    const auto net = nets::figure_5();
    const auto clusters = qss::choice_clusters(net);

    const qss::t_allocation a1{{net.find_transition("t2")}};
    const qss::t_allocation a2{{net.find_transition("t3")}};
    const auto r1 = qss::reduce(net, clusters, a1);
    const auto r2 = qss::reduce(net, clusters, a2);
    benchutil::row("R1 transitions (paper: t1 t2 t4 t6 + t8 t9)", kept_names(net, r1));
    benchutil::row("R2 transitions (paper: t1 t3 t5 t7 + t8 t9 t6)", kept_names(net, r2));

    const auto result = qss::quasi_static_schedule(net);
    for (const qss::schedule_entry& entry : result.entries) {
        const bool is_r1 = entry.reduction.same_subnet(r1);
        std::string invariants;
        for (const auto& x : entry.analysis.invariants) {
            invariants += vector_text(x) + " ";
        }
        benchutil::row(std::string(is_r1 ? "R1" : "R2") + " minimal T-invariants" +
                           (is_r1 ? "  (paper: (1,1,0,2,0,4,0,0,0) (0,0,0,0,0,1,0,1,1))"
                                  : ""),
                       invariants);
        benchutil::row(std::string(is_r1 ? "R1" : "R2") + " finite complete cycle" +
                           (is_r1 ? "  (paper: t1 t2 t4 t4 t6 t6 t6 t6 t8 t9 t6)"
                                  : "  (paper: t1 t3 t5 t7 t7 t8 t9 t6)"),
                       to_string(net, entry.analysis.cycle));
    }
}

void bm_reduce_r1(benchmark::State& state)
{
    const auto net = nets::figure_5();
    const auto clusters = qss::choice_clusters(net);
    const qss::t_allocation a1{{net.find_transition("t2")}};
    for (auto _ : state) {
        benchmark::DoNotOptimize(qss::reduce(net, clusters, a1));
    }
}
BENCHMARK(bm_reduce_r1);

void bm_full_qss_fig5(benchmark::State& state)
{
    const auto net = nets::figure_5();
    for (auto _ : state) {
        benchmark::DoNotOptimize(qss::quasi_static_schedule(net));
    }
}
BENCHMARK(bm_full_qss_fig5);

} // namespace

FCQSS_BENCH_MAIN(report)
