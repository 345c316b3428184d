// Figure 3 reproduction: the schedulable net (a) with valid schedule
// {(t1 t2 t4), (t1 t3 t5)} and T-invariant space a(1,1,0,1,0) + b(1,0,1,0,1),
// and the non-schedulable net (b) whose only balanced vector is (2,1,1,1) —
// a one-sided adversary accumulates tokens without bound.
#include "bench_util.hpp"

#include "nets/paper_nets.hpp"
#include "pn/firing.hpp"
#include "pn/invariants.hpp"
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

void report()
{
    benchutil::heading("Figure 3a: schedulable FCPN");
    {
        const auto net = nets::figure_3a();
        const auto invariants = pn::t_invariants(net);
        std::string inv_text;
        for (const auto& x : invariants) {
            inv_text += vector_text(x) + " ";
        }
        benchutil::row("minimal T-invariants (paper: (1,1,0,1,0),(1,0,1,0,1))", inv_text);
        const auto result = qss::quasi_static_schedule(net);
        benchutil::row("schedulable (paper: yes)", result.schedulable ? "yes" : "no");
        for (std::size_t i = 0; i < result.entries.size(); ++i) {
            benchutil::row("cycle " + std::to_string(i),
                           to_string(net, result.entries[i].analysis.cycle));
        }
    }

    benchutil::heading("Figure 3b: NOT schedulable (join after choice)");
    {
        const auto net = nets::figure_3b();
        const auto invariants = pn::t_invariants(net);
        std::string inv_text;
        for (const auto& x : invariants) {
            inv_text += vector_text(x) + " ";
        }
        benchutil::row("minimal T-invariants (paper: only (2,1,1,1))", inv_text);
        const auto result = qss::quasi_static_schedule(net);
        benchutil::row("schedulable (paper: no)", result.schedulable ? "yes" : "no");
        benchutil::row("diagnosis", result.diagnosis);
    }
}

void bm_schedule_fig3a(benchmark::State& state)
{
    const auto net = nets::figure_3a();
    for (auto _ : state) {
        benchmark::DoNotOptimize(qss::quasi_static_schedule(net));
    }
}
BENCHMARK(bm_schedule_fig3a);

void bm_diagnose_fig3b(benchmark::State& state)
{
    const auto net = nets::figure_3b();
    for (auto _ : state) {
        benchmark::DoNotOptimize(qss::quasi_static_schedule(net));
    }
}
BENCHMARK(bm_diagnose_fig3b);

void bm_t_invariants_fig3a(benchmark::State& state)
{
    const auto net = nets::figure_3a();
    for (auto _ : state) {
        benchmark::DoNotOptimize(pn::t_invariants(net));
    }
}
BENCHMARK(bm_t_invariants_fig3a);

} // namespace

FCQSS_BENCH_MAIN(report)
