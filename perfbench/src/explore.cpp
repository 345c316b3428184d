// perfbench — explore.cpp
// explore_wide and explore_par_spill: explicit-state exploration of one
// generated net to a state cap, then the deadlock and place-bound verdict.
// The two workloads differ only in their parameters: the wide free-choice
// net runs on the sequential engine without a memory budget; the marked
// graph runs on the parallel engine under a resident-byte budget, so the
// chunk pager spills.
#include <sys/resource.h>

#include <optional>

#include "oracle.hpp"
#include "pipeline/net_generator.hpp"
#include "pn/reachability.hpp"
#include "pnio/parser.hpp"
#include "pnio/writer.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace fcqss;

namespace {

/// Both nets are the first of `generate --seed 99 ... --tokens 2`: fixed
/// nets, so every seed explores the same graph.
constexpr std::uint64_t generator_seed = 99;
constexpr int token_load = 2;

pipeline::net_family family_of(const std::string& name)
{
    if (name == "fc") {
        return pipeline::net_family::free_choice;
    }
    if (name == "mg") {
        return pipeline::net_family::marked_graph;
    }
    throw std::runtime_error("unknown generator family " + name);
}

/// Peak resident set of this process so far, in bytes.
double peak_rss_bytes()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) * 1024.0;
}

/// Value of one obs::snapshot() row, 0 when the metric was never registered.
double obs_value(const std::vector<obs::metric>& rows, const std::string& name)
{
    for (const obs::metric& row : rows) {
        if (row.name == name) {
            return row.value;
        }
    }
    return 0;
}

/// The resident budget: `budget_frac` of the unbudgeted arena, which holds
/// one int64 row per state (0 when budget_frac is 0).
std::size_t arena_budget(const run_config& config, const pn::petri_net& net,
                         std::size_t states)
{
    return static_cast<std::size_t>(config.real("budget_frac") * static_cast<double>(states) *
                                    static_cast<double>(net.place_count()) * 8.0);
}

/// Everything one exploration must reproduce on every repetition.
struct verdict {
    std::size_t states = 0;
    std::size_t edges = 0;
    bool truncated = false;
    std::optional<pn::state_id> deadlock;
    std::vector<std::int64_t> bounds;

    friend bool operator==(const verdict&, const verdict&) = default;
};

/// Exact comparison of two explored graphs: states in id order, their
/// tokens, and every edge.
bool same_graph(const pn::state_space& a, const pn::state_space& b)
{
    if (a.state_count() != b.state_count() || a.edge_count() != b.edge_count() ||
        a.truncated() != b.truncated()) {
        return false;
    }
    for (pn::state_id s = 0; s < a.state_count(); ++s) {
        const auto ta = a.tokens(s);
        const auto tb = b.tokens(s);
        if (!std::equal(ta.begin(), ta.end(), tb.begin(), tb.end())) {
            return false;
        }
        const auto ea = a.successors(s);
        const auto eb = b.successors(s);
        if (!std::equal(ea.begin(), ea.end(), eb.begin(), eb.end())) {
            return false;
        }
    }
    return true;
}

void check_space(const pn::petri_net& net, const pn::state_space& space, const verdict& v,
                 const run_config& config, run_result& result)
{
    // Deadlock and bounds recomputed by hand over every explored state.
    result.check("explore_verdict_by_hand");
    std::optional<pn::state_id> first_dead;
    std::vector<std::int64_t> bounds(net.place_count(), 0);
    std::size_t edges = 0;
    for (pn::state_id s = 0; s < space.state_count(); ++s) {
        const auto tokens = space.tokens(s);
        const hand_game game(net, std::vector<std::int64_t>(tokens.begin(), tokens.end()));
        bool dead = true;
        for (const pn::transition_id t : net.transitions()) {
            if (game.enabled(t)) {
                dead = false;
                break;
            }
        }
        if (dead && !first_dead) {
            first_dead = s;
        }
        for (std::size_t p = 0; p < tokens.size(); ++p) {
            bounds[p] = std::max(bounds[p], tokens[p]);
        }
        edges += space.successors(s).size();
    }
    if (first_dead != v.deadlock) {
        result.mismatch("explore: find_deadlock disagrees with the hand check");
    }
    if (bounds != v.bounds) {
        result.mismatch("explore: place_bounds disagrees with the hand check");
    }
    if (edges != space.edge_count()) {
        result.mismatch("explore: edge lists do not add up to edge_count");
    }

    // A seeded sample of edges, re-fired by hand, must land on the recorded
    // successor.
    result.check("explore_edge_sample");
    rng random(config.seed);
    const auto samples = config.integer("edge_samples");
    bool corrupted = config.corrupt != "edge";
    for (long long i = 0; i < samples && space.edge_count() > 0; ++i) {
        const auto s = static_cast<pn::state_id>(random.below(space.state_count()));
        const auto out = space.successors(s);
        if (out.empty()) {
            continue;
        }
        pn::state_space_edge edge = out[random.below(out.size())];
        if (!corrupted) {
            corrupted = true;
            edge.to = static_cast<pn::state_id>((edge.to + 1) % space.state_count());
        }
        const auto tokens = space.tokens(s);
        hand_game game(net, std::vector<std::int64_t>(tokens.begin(), tokens.end()));
        const auto target = space.tokens(edge.to);
        if (!game.fire(edge.via) ||
            !std::equal(game.tokens().begin(), game.tokens().end(), target.begin(),
                        target.end())) {
            result.mismatch("explore: edge from state " + std::to_string(s) +
                            " does not re-fire onto its recorded successor");
        }
    }
}

void check_small_runs(const pn::petri_net& net, const pn::reachability_options& options,
                      const run_config& config, run_result& result)
{
    // A small-cap run must match the naive reference exploration.
    result.check("explore_matches_reference");
    pn::reachability_options small = options;
    small.max_markings = static_cast<std::size_t>(config.integer("reference_states"));
    small.max_bytes = 0;
    const pn::state_space space = pn::explore_space(net, small);
    small.threads = 1;
    const pn::reachability_graph reference = pn::explore_reference(net, small);
    bool same = reference.size() == space.state_count() &&
                reference.truncated == space.truncated();
    for (std::size_t i = 0; same && i < reference.size(); ++i) {
        const auto s = static_cast<pn::state_id>(i);
        const auto tokens = space.tokens(s);
        const auto& expected = reference.nodes[i].state.vector();
        const auto edges = space.successors(s);
        same = std::equal(tokens.begin(), tokens.end(), expected.begin(), expected.end()) &&
               edges.size() == reference.nodes[i].successors.size();
        for (std::size_t e = 0; same && e < edges.size(); ++e) {
            same = edges[e].via == reference.nodes[i].successors[e].first &&
                   edges[e].to == reference.nodes[i].successors[e].second;
        }
    }
    if (!same) {
        result.mismatch("explore: small-cap graph differs from explore_reference");
    }

    // Under a budget the graph must equal the unbudgeted one.
    if (options.max_bytes > 0) {
        result.check("explore_budget_equals_unbudgeted");
        pn::reachability_options unbudgeted = options;
        unbudgeted.max_markings = static_cast<std::size_t>(config.integer("budget_check_states"));
        unbudgeted.max_bytes = 0;
        pn::reachability_options budgeted = unbudgeted;
        budgeted.max_bytes = arena_budget(config, net, unbudgeted.max_markings);
        if (!same_graph(pn::explore_space(net, budgeted), pn::explore_space(net, unbudgeted))) {
            result.mismatch("explore: budgeted graph differs from the unbudgeted one");
        }
    }
}

} // namespace

run_result run_explore(const run_config& config)
{
    run_result result;

    // -- set-up: generate the net, write it out and parse it back ---------------
    // A set-up takes milliseconds and a slow spell of the host can last a
    // second or more, so `setup_reps` set-ups run before the measurement and
    // again after every untraced repetition; setup_s is the median of all
    // of them.  Later set-ups are only timed.
    const auto set_up = [&] {
        std::optional<pn::petri_net> built;
        for (long long rep = 0; rep < config.integer("setup_reps"); ++rep) {
            const auto start = clock_type::now();
            pipeline::generator_options gen;
            gen.family = family_of(config.text("family"));
            gen.sources = static_cast<int>(config.integer("sources"));
            gen.depth = static_cast<int>(config.integer("depth"));
            gen.token_load = token_load;
            pipeline::net_generator generator(generator_seed, gen);
            built = pnio::parse_net(pnio::write_net(generator.next()));
            result.setup_samples_s.push_back(seconds_since(start));
        }
        return built;
    };
    const std::optional<pn::petri_net> net = set_up();

    pn::reachability_options options;
    options.max_markings = static_cast<std::size_t>(config.integer("max_states"));
    options.threads = static_cast<std::size_t>(config.integer("threads"));
    options.max_bytes = arena_budget(config, *net, options.max_markings);

    // -- measurement -------------------------------------------------------------
    std::optional<pn::state_space> space;
    std::optional<verdict> first;
    std::vector<double> walls, rates, traced_walls;
    std::size_t traced_runs = 0;
    std::size_t published_bytes = 0, published_states = 0;
    const auto explore_once = [&](bool traced) {
        space.reset();
        const auto start = clock_type::now();
        verdict v;
        {
            const layer_span span("explore.engine");
            space = pn::explore_space(*net, options);
        }
        {
            const layer_span span("explore.verdict");
            v.deadlock = pn::find_deadlock(*net, *space);
            v.bounds = pn::place_bounds(*space);
        }
        const double wall = seconds_since(start);
        v.states = space->state_count();
        v.edges = space->edge_count();
        v.truncated = space->truncated();
        ++result.attempted;
        if (!first) {
            first = v;
        } else if (!(v == *first)) {
            result.mismatch("explore: verdict differs between repetitions");
        }
        (traced ? traced_walls : walls).push_back(wall);
        if (!traced) {
            rates.push_back(static_cast<double>(v.states) / wall);
        }
        published_bytes = space->store().memory_bytes();
        published_states = v.states;
    };
    const auto deadline = clock_type::now() + std::chrono::duration<double>(config.seconds);
    do {
        explore_once(false);
        (void)set_up();
        if (config.trace) {
            layer_table::global().set_enabled(true);
            obs::set_stats_enabled(true);
            obs::set_tracing_enabled(true);
            explore_once(true);
            obs::set_tracing_enabled(false);
            obs::set_stats_enabled(false);
            layer_table::global().set_enabled(false);
            ++traced_runs;
        }
    } while (clock_type::now() < deadline);
    const double rss = peak_rss_bytes();

    // -- oracles -----------------------------------------------------------------
    check_paper_nets(result, config.corrupt);
    check_space(*net, *space, *first, config, result);
    space.reset();
    check_small_runs(*net, options, config, result);

    // -- metrics -----------------------------------------------------------------
    auto& m = result.metrics;
    result.samples["states_per_s"] = rates;
    result.samples["wall_s"] = walls;
    if (!config.trace) {
        m["ops_per_s"] = median(rates);
        m["op_p50_ms"] = median(walls) * 1000.0;
        m["op_tail_ms"] = quantile(walls, 0.9) * 1000.0;
        return result;
    }
    const auto rows = obs::snapshot();
    const double runs = traced_runs > 0 ? static_cast<double>(traced_runs) : 1;
    const layer_table& table = layer_table::global();
    const double probes = obs_value(rows, "pn.store.hash_probes");
    const double hits = obs_value(rows, "pn.store.dedup_hits");
    const double inserts = obs_value(rows, "pn.store.inserts");
    const double decode_hits = obs_value(rows, "pn.mem.decode_hits");
    const double decode_misses = obs_value(rows, "pn.mem.decode_misses");
    const double states = static_cast<double>(published_states);
    m["explore.engine_ms"] = table.self_ms("explore.engine") / runs;
    m["explore.post_ms"] = table.self_ms("explore.verdict") / runs;
    m["store.bytes_per_state"] = states > 0 ? static_cast<double>(published_bytes) / states : 0;
    m["store.probes_per_state"] = states > 0 ? probes / runs / states : 0;
    m["store.dedup_hit_frac"] = hits + inserts > 0 ? hits / (hits + inserts) : 0;
    m["store.budget_rejects"] = obs_value(rows, "pn.store.budget_rejects") / runs;
    m["par.shard_imbalance"] = obs_value(rows, "pn.par.shard_imbalance");
    // pn.store.arena_bytes adds up memory_bytes() of every store an
    // exploration flushes: the parallel engine's shard stores and the
    // published store.  Leaving the published store out gives the engine's
    // own store memory over the published store's, one unit on both sides
    // (0 on the sequential engine).
    m["par.arena_over_store"] =
        published_bytes > 0
            ? (obs_value(rows, "pn.store.arena_bytes") / runs -
               static_cast<double>(published_bytes)) /
                  static_cast<double>(published_bytes)
            : 0;
    m["mem.evictions"] = obs_value(rows, "pn.mem.evictions") / runs;
    m["mem.spill_bytes"] = obs_value(rows, "pn.mem.spill_bytes") / runs;
    m["mem.decode_hit_frac"] =
        decode_hits + decode_misses > 0 ? decode_hits / (decode_hits + decode_misses) : 0;
    m["mem.rss_over_budget"] =
        options.max_bytes > 0 ? rss / static_cast<double>(options.max_bytes) : 0;
    m["trace.overhead_frac"] = median(traced_walls) / median(walls) - 1.0;
    return result;
}

} // namespace perfbench
