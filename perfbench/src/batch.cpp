// perfbench — batch.cpp
// batch_fc: generated free-choice nets with defects, run as `.pn` text
// through synthesis_pipeline::run at a fixed job count.  The batch is
// stratified by allocation count (the product of choice fan-outs), a fixed
// number of nets per power-of-two stratum, so every seed gives the same mix
// of cheap and enumeration-heavy nets.
#include <algorithm>
#include <atomic>
#include <bit>
#include <thread>

#include "oracle.hpp"
#include "pipeline/net_generator.hpp"
#include "pipeline/synthesis_pipeline.hpp"
#include "pnio/parser.hpp"
#include "pnio/writer.hpp"
#include "stages.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace fcqss;
using pipeline::pipeline_status;

namespace {

// The ROADMAP's `generate --family fc --defects 10` shape: two sources and
// depth 4 give choice fan-out products from 1 to well past 2^14, so every
// allocation-count stratum fills from one seeded stream.
constexpr int generator_sources = 2;
constexpr int generator_depth = 4;
constexpr int defect_percent = 10;
/// One worker per vCPU of the 4-vCPU reference machine.
constexpr std::size_t jobs = 4;

struct batch_net {
    std::string text;
    bool free_choice = true;
    int stratum = 0;
};

std::vector<batch_net> make_batch(const run_config& config)
{
    pipeline::generator_options options;
    options.family = pipeline::net_family::free_choice;
    options.sources = generator_sources;
    options.depth = generator_depth;
    options.defect_percent = defect_percent;
    const auto strata = static_cast<std::size_t>(config.integer("strata"));
    const auto per_stratum = static_cast<std::size_t>(config.integer("fc_per_stratum"));
    const std::size_t defect_count =
        strata * static_cast<std::size_t>(config.integer("defects_per_stratum"));
    const auto window = config.integer("stream_window");
    const auto max_stream = config.integer("max_stream");

    pipeline::net_generator generator(config.seed, options);
    std::vector<std::vector<batch_net>> by_stratum(strata);
    std::vector<batch_net> defective;
    std::size_t filled = 0;
    // The batch is a stratified sample of the first `window` nets of the
    // stream, read further only while a stratum is still short, so set-up
    // does about the same work for every seed.
    for (long long n = 0; n < max_stream && (n < window || filled < strata * per_stratum ||
                                             defective.size() < defect_count);
         ++n) {
        const pn::petri_net net = generator.next();
        const auto stratum =
            static_cast<std::size_t>(std::bit_width(allocation_product(net)) - 1);
        if (!hand_free_choice(net)) {
            if (defective.size() < defect_count) {
                defective.push_back({pnio::write_net(net), false, static_cast<int>(stratum)});
            }
        } else if (stratum < strata && by_stratum[stratum].size() < per_stratum) {
            by_stratum[stratum].push_back({pnio::write_net(net), true, static_cast<int>(stratum)});
            ++filled;
        }
    }
    if (filled < strata * per_stratum || defective.size() < defect_count) {
        throw std::runtime_error("batch_fc: generator stream too short to fill the strata");
    }
    std::vector<batch_net> batch = std::move(defective);
    for (auto& stratum : by_stratum) {
        std::move(stratum.begin(), stratum.end(), std::back_inserter(batch));
    }
    rng shuffle(config.seed ^ 0x5eed5eedULL);
    for (std::size_t i = batch.size(); i > 1; --i) {
        std::swap(batch[i - 1], batch[shuffle.below(i)]);
    }
    return batch;
}

bool definite(pipeline_status status)
{
    return status == pipeline_status::ok || status == pipeline_status::not_free_choice ||
           status == pipeline_status::not_schedulable;
}

struct pass_stats {
    double wall_s = 0;
    double p50_ms = 0;
    double p90_ms = 0;
    double busy_frac = 0;
    double straggler_ms = 0;
};

pass_stats summarize(const pipeline::batch_report& report)
{
    std::vector<double> per_net;
    double busy_us = 0;
    for (const pipeline::pipeline_result& r : report.results) {
        per_net.push_back(r.timings.total() / 1000.0);
        busy_us += r.timings.total();
    }
    pass_stats stats;
    stats.wall_s = report.wall_micros / 1e6;
    stats.p50_ms = quantile(per_net, 0.5);
    stats.p90_ms = quantile(per_net, 0.9);
    stats.busy_frac = busy_us / (report.wall_micros * static_cast<double>(jobs));
    stats.straggler_ms =
        (report.wall_micros - busy_us / static_cast<double>(jobs)) / 1000.0;
    return stats;
}

} // namespace

run_result run_batch_fc(const run_config& config)
{
    run_result result;

    // -- set-up: generate, serialize and parse the batch ----------------------
    // `setup_reps` set-ups run before the measurement and again after every
    // pass, so setup_s, the median of all of them, spans the whole run
    // rather than one moment of the host.  Later set-ups are only timed.
    const auto set_up = [&] {
        std::vector<batch_net> built;
        for (long long rep = 0; rep < config.integer("setup_reps"); ++rep) {
            const auto start = clock_type::now();
            built = make_batch(config);
            for (const batch_net& net : built) {
                (void)pnio::parse_net(net.text);
            }
            result.setup_samples_s.push_back(seconds_since(start));
        }
        return built;
    };
    const std::vector<batch_net> batch = set_up();
    std::vector<pipeline::net_source> sources;
    for (std::size_t i = 0; i < batch.size(); ++i) {
        sources.push_back(pipeline::net_source::from_text("net" + std::to_string(i), batch[i].text));
    }

    pipeline::pipeline_options options;
    options.jobs = jobs;
    const pipeline::synthesis_pipeline pipe(options);

    // -- measurement -----------------------------------------------------------
    std::vector<pass_stats> passes;
    std::vector<double> traced_walls, untraced_walls;
    std::vector<pipeline::pipeline_result> first;
    staged_totals staged;
    // One pass of the staged runner over the batch at `jobs` threads; only
    // a traced pass feeds the layer table and the staged totals.  Returns
    // its wall time in seconds.
    const auto staged_pass = [&](bool traced) {
        layer_table::global().set_enabled(traced);
        obs::set_tracing_enabled(traced);
        std::vector<staged_outcome> outcomes(batch.size());
        std::atomic<std::size_t> next{0};
        const auto start = clock_type::now();
        std::vector<std::thread> workers;
        for (std::size_t w = 0; w < jobs; ++w) {
            workers.emplace_back([&] {
                for (std::size_t i = next++; i < batch.size(); i = next++) {
                    const layer_span span("synth.net");
                    outcomes[i] = synthesize_staged(batch[i].text, false, options);
                }
            });
        }
        for (std::thread& worker : workers) {
            worker.join();
        }
        const double wall = seconds_since(start);
        obs::set_tracing_enabled(false);
        layer_table::global().set_enabled(false);
        for (std::size_t i = 0; i < outcomes.size(); ++i) {
            if (outcomes[i].status != first[i].status) {
                result.mismatch("batch net " + std::to_string(i) +
                                ": staged verdict differs from the pipeline's");
            }
        }
        if (traced) {
            ++staged.passes;
            for (const staged_outcome& outcome : outcomes) {
                staged.add(outcome);
            }
        }
        return wall;
    };
    const auto deadline = clock_type::now() + std::chrono::duration<double>(config.seconds);
    do {
        pipeline::batch_report report = pipe.run(sources);
        passes.push_back(summarize(report));
        (void)set_up();
        for (const pipeline::pipeline_result& r : report.results) {
            ++result.attempted;
            result.failed += definite(r.status) ? 0 : 1;
        }
        if (first.empty()) {
            first = std::move(report.results);
        } else {
            for (std::size_t i = 0; i < first.size(); ++i) {
                const auto& a = first[i];
                const auto& b = report.results[i];
                if (a.status != b.status || a.cycles != b.cycles || a.code_bytes != b.code_bytes) {
                    result.mismatch("batch net " + std::to_string(i) +
                                    ": result differs between passes");
                }
            }
        }
        if (!config.trace) {
            continue;
        }
        // The layer split runs the same nets through the layers one call at
        // a time.  That runner is timed with tracing off and on, in
        // alternating order, so trace.overhead_frac compares like with like.
        const bool traced_first = staged.passes % 2 == 1;
        if (traced_first) {
            traced_walls.push_back(staged_pass(true));
        }
        untraced_walls.push_back(staged_pass(false));
        if (!traced_first) {
            traced_walls.push_back(staged_pass(true));
        }
    } while (clock_type::now() < deadline);

    // -- oracles ---------------------------------------------------------------
    check_paper_nets(result, config.corrupt);
    result.check("batch_verdicts");
    if (config.corrupt == "verdict") {
        first[0].status = first[0].ok() ? pipeline_status::not_schedulable : pipeline_status::ok;
    }
    for (std::size_t i = 0; i < batch.size(); ++i) {
        const pipeline_status expected =
            batch[i].free_choice ? pipeline_status::ok : pipeline_status::not_free_choice;
        if (first[i].status != expected) {
            result.mismatch("batch net " + std::to_string(i) + ": status " +
                            pipeline::to_string(first[i].status) + ", expected " +
                            pipeline::to_string(expected));
        }
    }
    // Cycles and generated programs of the first ok net of each cheap stratum.
    result.check("batch_cycles_and_programs");
    const auto checked_strata = config.integer("cycle_check_strata");
    const auto activations = static_cast<int>(config.integer("program_activations"));
    std::vector<bool> seen(static_cast<std::size_t>(checked_strata), false);
    std::uint64_t instructions = 0, actions = 0, checked_c_bytes = 0;
    for (std::size_t i = 0; i < batch.size(); ++i) {
        const int k = batch[i].stratum;
        if (!batch[i].free_choice || k >= checked_strata || seen[k] || !first[i].ok()) {
            continue;
        }
        seen[k] = true;
        staged_outcome kept = synthesize_staged(batch[i].text, true, options);
        const std::string label = "batch net " + std::to_string(i);
        if (kept.status != pipeline_status::ok || kept.reductions != first[i].cycles ||
            kept.code_bytes != first[i].code_bytes) {
            result.mismatch(label + ": staged synthesis disagrees with the pipeline");
            continue;
        }
        if (config.corrupt == "cycle" && checked_c_bytes == 0) {
            kept.cycles.front().pop_back();
        }
        check_cycles(*kept.net, kept.cycles, result, label);
        try {
            check_program(*kept.net, *kept.program, config.seed + i, activations, result, label,
                          instructions, actions);
        } catch (const std::exception& e) {
            result.mismatch(label + ": program run threw: " + e.what());
        }
        checked_c_bytes += kept.code_bytes;
    }

    // -- metrics ---------------------------------------------------------------
    const double nets = static_cast<double>(batch.size());
    std::vector<double> rate, p50, p90, busy, straggler, walls;
    for (const pass_stats& p : passes) {
        rate.push_back(nets / p.wall_s);
        p50.push_back(p.p50_ms);
        p90.push_back(p.p90_ms);
        busy.push_back(p.busy_frac);
        straggler.push_back(p.straggler_ms);
        walls.push_back(p.wall_s);
    }
    auto& m = result.metrics;
    result.samples["nets_per_s"] = rate;
    result.samples["net_p50_ms"] = p50;
    result.samples["net_p90_ms"] = p90;
    if (!config.trace) {
        m["ops_per_s"] = median(rate);
        m["op_p50_ms"] = median(p50);
        m["op_tail_ms"] = median(p90);
        return result;
    }
    add_stage_metrics(staged, m);
    m["gen.code_bytes"] = static_cast<double>(checked_c_bytes);
    m["gen.instr_per_firing"] =
        actions > 0 ? static_cast<double>(instructions) / static_cast<double>(actions) : 0;
    m["pipeline.worker_busy_frac"] = median(busy);
    m["pipeline.straggler_ms"] = median(straggler);
    m["trace.overhead_frac"] = median(traced_walls) / median(untraced_walls) - 1.0;
    return result;
}

} // namespace perfbench
