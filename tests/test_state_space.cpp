// Tests for the arena-interned state-space engine: marking_store interning,
// the token_game replay helper, the fire_unchecked fast path, the id-range
// views, and — the load-bearing one — a differential sweep asserting that
// explore_space() visits the identical marking set and edge list as
// explore_reference() (the naive map-based BFS) on seeded generator nets
// of all three families, with defects and token load, under every budget —
// plus equivalence tests pinning the span-served find_deadlock /
// shortest_path_to / is_reachable / place_bounds over explore_space()
// against the linear-scan queries over explore_reference().
#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "nets/paper_nets.hpp"
#include "pipeline/net_generator.hpp"
#include "pn/builder.hpp"
#include "pn/firing.hpp"
#include "pn/marking_store.hpp"
#include "pn/reachability.hpp"
#include "pn/state_space.hpp"

namespace fcqss::pn {
namespace {

TEST(marking_store, interns_and_deduplicates)
{
    marking_store store(3);
    EXPECT_EQ(store.width(), 3u);
    EXPECT_EQ(store.size(), 0u);

    const std::vector<std::int64_t> a{1, 0, 2};
    const std::vector<std::int64_t> b{0, 5, 0};
    const std::uint64_t hash_a = marking_store::hash_tokens(a.data(), a.size());
    const std::uint64_t hash_b = marking_store::hash_tokens(b.data(), b.size());

    const auto [id_a, fresh_a] = store.intern(a.data(), hash_a);
    EXPECT_TRUE(fresh_a);
    EXPECT_EQ(id_a, 0u);
    const auto [id_b, fresh_b] = store.intern(b.data(), hash_b);
    EXPECT_TRUE(fresh_b);
    EXPECT_EQ(id_b, 1u);

    const auto [again, fresh_again] = store.intern(a.data(), hash_a);
    EXPECT_FALSE(fresh_again);
    EXPECT_EQ(again, id_a);
    EXPECT_EQ(store.size(), 2u);

    EXPECT_EQ(store.find(a.data(), hash_a), id_a);
    EXPECT_EQ(store.find(b.data(), hash_b), id_b);
    const std::vector<std::int64_t> absent{9, 9, 9};
    EXPECT_EQ(store.find(absent.data(),
                         marking_store::hash_tokens(absent.data(), absent.size())),
              invalid_state);

    const auto span_a = store.tokens(id_a);
    EXPECT_TRUE(std::equal(span_a.begin(), span_a.end(), a.begin()));
    EXPECT_EQ(store.stored_hash(id_b), hash_b);
}

TEST(marking_store, spans_stay_valid_across_growth)
{
    marking_store store(4);
    std::vector<std::int64_t> tokens(4, 0);
    const auto first = store.intern(
        tokens.data(), marking_store::hash_tokens(tokens.data(), tokens.size()));
    const auto* first_data = store.tokens(first.first).data();
    // Intern enough distinct markings to force table growth and new chunks.
    for (std::int64_t i = 1; i <= 50000; ++i) {
        tokens[0] = i;
        tokens[3] = i % 7;
        const auto [id, fresh] = store.intern(
            tokens.data(), marking_store::hash_tokens(tokens.data(), tokens.size()));
        ASSERT_TRUE(fresh);
        ASSERT_EQ(id, static_cast<state_id>(i));
    }
    EXPECT_EQ(store.size(), 50001u);
    // The span handed out before all the growth still points at state 0.
    EXPECT_EQ(store.tokens(0).data(), first_data);
    EXPECT_EQ(store.tokens(0)[0], 0);
    EXPECT_EQ(store.tokens(50000)[0], 50000);
    EXPECT_GT(store.memory_bytes(), 50000u * 4 * sizeof(std::int64_t));
}

TEST(marking_store, respects_max_states)
{
    marking_store store(1);
    std::int64_t v = 0;
    EXPECT_TRUE(store.intern(&v, marking_store::hash_tokens(&v, 1), 1).second);
    v = 1;
    const auto [id, fresh] = store.intern(&v, marking_store::hash_tokens(&v, 1), 1);
    EXPECT_EQ(id, invalid_state);
    EXPECT_FALSE(fresh);
    EXPECT_EQ(store.size(), 1u);
    // An already-interned marking is still found at the cap.
    v = 0;
    EXPECT_EQ(store.intern(&v, marking_store::hash_tokens(&v, 1), 1).first, 0u);
}

TEST(marking_store, component_mix_updates_hash_incrementally)
{
    std::vector<std::int64_t> tokens{3, 1, 4, 1, 5};
    std::uint64_t hash = marking_store::hash_tokens(tokens.data(), tokens.size());
    // Change two components the way a firing would and patch the hash.
    hash ^= marking_store::component_mix(1, tokens[1]);
    tokens[1] -= 1;
    hash ^= marking_store::component_mix(1, tokens[1]);
    hash ^= marking_store::component_mix(4, tokens[4]);
    tokens[4] += 2;
    hash ^= marking_store::component_mix(4, tokens[4]);
    EXPECT_EQ(hash, marking_store::hash_tokens(tokens.data(), tokens.size()));
}

/// Engine result vs the naive reference BFS: same markings in id order,
/// same edges, same truncation verdict.
void expect_matches_reference(const state_space& space,
                              const reachability_graph& reference)
{
    ASSERT_EQ(space.state_count(), reference.size());
    EXPECT_EQ(space.truncated(), reference.truncated);
    std::size_t edges = 0;
    for (std::size_t i = 0; i < reference.size(); ++i) {
        const auto s = static_cast<state_id>(i);
        ASSERT_EQ(space.marking_of(s), reference.nodes[i].state) << "state " << i;
        const auto out = space.successors(s);
        ASSERT_EQ(out.size(), reference.nodes[i].successors.size()) << "state " << i;
        for (std::size_t e = 0; e < out.size(); ++e) {
            EXPECT_EQ(out[e].via, reference.nodes[i].successors[e].first);
            EXPECT_EQ(std::size_t{out[e].to}, reference.nodes[i].successors[e].second);
        }
        edges += out.size();
    }
    EXPECT_EQ(space.edge_count(), edges);
}

TEST(state_space, differential_against_reference_on_generated_nets)
{
    for (const pipeline::net_family family :
         {pipeline::net_family::marked_graph, pipeline::net_family::free_choice,
          pipeline::net_family::choice_heavy}) {
        pipeline::generator_options options;
        options.family = family;
        options.sources = 3;
        options.depth = 5;
        options.token_load = 2;
        options.defect_percent = 50;
        pipeline::net_generator generator(7, options);
        for (int i = 0; i < 6; ++i) {
            const petri_net net = generator.next();
            const reachability_options budget{.max_markings = 1500,
                                              .max_tokens_per_place = 64};
            SCOPED_TRACE(std::string("family ") + pipeline::to_string(family) +
                         " net " + std::to_string(i));
            const reachability_graph reference = explore_reference(net, budget);
            expect_matches_reference(explore_space(net, budget), reference);
            // `threads` is accepted and ignored: the same graph at 3.
            reachability_options threaded = budget;
            threaded.threads = 3;
            expect_matches_reference(explore_space(net, threaded), reference);
        }
    }
}

TEST(state_space, differential_under_tight_budgets)
{
    pipeline::generator_options options;
    options.family = pipeline::net_family::free_choice;
    options.sources = 2;
    options.depth = 4;
    options.token_load = 1;
    pipeline::net_generator generator(13, options);
    const petri_net net = generator.next();

    // Tight state caps, down to the root alone: both must truncate at the
    // same point.
    for (const std::size_t max_states : {std::size_t{1}, std::size_t{7},
                                         std::size_t{25}, std::size_t{200}}) {
        SCOPED_TRACE("max_states " + std::to_string(max_states));
        const reachability_options budget{.max_markings = max_states,
                                          .max_tokens_per_place = 64};
        const state_space engine = explore_space(net, budget);
        EXPECT_TRUE(engine.truncated());
        expect_matches_reference(engine, explore_reference(net, budget));
    }
    // Tight token cap: the over-cap edge-skipping must agree too.
    {
        const reachability_options budget{.max_markings = 5000,
                                          .max_tokens_per_place = 2};
        expect_matches_reference(explore_space(net, budget),
                                 explore_reference(net, budget));
    }
}

TEST(state_space, differential_on_paper_nets)
{
    for (const auto& build : {nets::figure_1a, nets::figure_2, nets::figure_4}) {
        const petri_net net = build();
        const reachability_options budget{.max_markings = 5000,
                                          .max_tokens_per_place = 1 << 10};
        expect_matches_reference(explore_space(net, budget),
                                 explore_reference(net, budget));
    }
}

// -- Span-served queries vs the linear scans over the reference graph --------

/// A linear chain that genuinely deadlocks: p0 -> t0 -> p1 -> t1 -> p2 with
/// no consumer of p2 (and no source transitions).
petri_net dead_end_chain()
{
    net_builder b("dead_end");
    const auto p0 = b.add_place("p0", 1);
    const auto p1 = b.add_place("p1");
    const auto p2 = b.add_place("p2");
    const auto t0 = b.add_transition("t0");
    const auto t1 = b.add_transition("t1");
    b.add_arc(p0, t0);
    b.add_arc(t0, p1);
    b.add_arc(p1, t1);
    b.add_arc(t1, p2);
    return std::move(b).build();
}

TEST(span_queries, find_deadlock_matches_reference)
{
    // One deadlocking net, one live net, and generated nets with sources
    // (never dead) — verdicts must match the reference scan on all of them.
    std::vector<petri_net> nets;
    nets.push_back(dead_end_chain());
    nets.push_back(nets::figure_2());
    pipeline::net_generator generator(41);
    nets.push_back(generator.next());

    for (const petri_net& net : nets) {
        SCOPED_TRACE(net.name());
        const reachability_options budget{.max_markings = 2000,
                                          .max_tokens_per_place = 64};
        const reachability_graph graph = explore_reference(net, budget);
        const state_space space = explore_space(net, budget);

        const std::optional<marking> old_verdict = find_deadlock(net, graph);
        const std::optional<state_id> span_verdict = find_deadlock(net, space);
        ASSERT_EQ(old_verdict.has_value(), span_verdict.has_value());
        if (old_verdict) {
            EXPECT_EQ(*old_verdict, space.marking_of(*span_verdict));
        }
    }
}

TEST(span_queries, truncation_does_not_fake_deadlocks)
{
    // Under a tiny state budget the frontier states have zero recorded
    // edges; the span-served check must still see their enabled transitions
    // and not report them dead.
    pipeline::net_generator generator(43);
    const petri_net net = generator.next(); // has source transitions: live
    const reachability_options budget{.max_markings = 3, .max_tokens_per_place = 64};
    const state_space space = explore_space(net, budget);
    EXPECT_TRUE(space.truncated());
    EXPECT_EQ(find_deadlock(net, space), std::nullopt);
    EXPECT_EQ(find_deadlock(net, explore_reference(net, budget)), std::nullopt);
}

TEST(span_queries, shortest_path_and_reachability_match)
{
    const petri_net net = dead_end_chain();
    const reachability_options budget{.max_markings = 100};
    const reachability_graph graph = explore_reference(net, budget);
    const state_space space = explore_space(net, budget);
    ASSERT_EQ(graph.size(), space.state_count());

    for (std::size_t s = 0; s < graph.size(); ++s) {
        const marking& target = graph.nodes[s].state;
        EXPECT_TRUE(is_reachable(space, target));
        EXPECT_EQ(shortest_path_to(net, space, target),
                  shortest_path_to(net, graph, target));
    }

    // Absent targets: right width but unreachable, and wrong width.
    marking absent(std::vector<std::int64_t>{9, 9, 9});
    EXPECT_FALSE(is_reachable(space, absent));
    EXPECT_EQ(shortest_path_to(net, space, absent), std::nullopt);
    EXPECT_EQ(shortest_path_to(net, graph, absent), std::nullopt);
    marking wrong_width(std::vector<std::int64_t>{1});
    EXPECT_FALSE(is_reachable(space, wrong_width));
    EXPECT_EQ(shortest_path_to(net, space, wrong_width), std::nullopt);
}

TEST(span_queries, shortest_path_matches_on_generated_nets)
{
    pipeline::generator_options options;
    options.family = pipeline::net_family::free_choice;
    options.token_load = 2;
    pipeline::net_generator generator(47, options);
    const petri_net net = generator.next();
    const reachability_options budget{.max_markings = 800,
                                      .max_tokens_per_place = 64};
    const reachability_graph graph = explore_reference(net, budget);
    const state_space space = explore_space(net, budget);
    ASSERT_EQ(graph.size(), space.state_count());

    // Every 37th explored marking, plus the deepest one.
    for (std::size_t s = 0; s < graph.size(); s += 37) {
        const marking& target = graph.nodes[s].state;
        EXPECT_EQ(shortest_path_to(net, space, target),
                  shortest_path_to(net, graph, target))
            << "state " << s;
    }
    const marking& deepest = graph.nodes.back().state;
    EXPECT_EQ(shortest_path_to(net, space, deepest),
              shortest_path_to(net, graph, deepest));
}

TEST(span_queries, place_bounds_match)
{
    pipeline::net_generator generator(53);
    for (int i = 0; i < 3; ++i) {
        const petri_net net = generator.next();
        const reachability_options budget{.max_markings = 500,
                                          .max_tokens_per_place = 32};
        EXPECT_EQ(place_bounds(explore_space(net, budget)),
                  place_bounds(explore_reference(net, budget)));
    }
}

TEST(token_game, matches_marking_semantics)
{
    const petri_net net = nets::figure_2();
    token_game game(net);
    marking m = initial_marking(net);
    EXPECT_EQ(game.tokens(), m.vector());

    // Walk a few eager steps, comparing against the marking-based firing.
    for (int step = 0; step < 20; ++step) {
        const auto enabled = enabled_transitions(net, m);
        if (enabled.empty()) {
            break;
        }
        const transition_id t = enabled[static_cast<std::size_t>(step) % enabled.size()];
        EXPECT_TRUE(game.enabled(t));
        EXPECT_TRUE(game.try_fire(t));
        fire(net, m, t);
        ASSERT_EQ(game.tokens(), m.vector());
    }

    game.reset();
    EXPECT_TRUE(game.at_initial());
    EXPECT_EQ(game.tokens(), net.initial_marking_vector());
}

TEST(token_game, run_reports_first_failing_position)
{
    net_builder b("chain");
    const auto t1 = b.add_transition("t1");
    const auto t2 = b.add_transition("t2");
    const auto p = b.add_place("p");
    b.add_arc(t1, p);
    b.add_arc(p, t2, 2);
    const petri_net net = std::move(b).build();

    token_game game(net);
    // t2 needs two tokens: fails at position 1, then succeeds after another t1.
    const auto failed = game.run({t1, t2});
    ASSERT_TRUE(failed.has_value());
    EXPECT_EQ(*failed, 1u);
    EXPECT_FALSE(game.run({t1, t2}).has_value());
}

TEST(firing, fire_unchecked_matches_fire)
{
    const petri_net net = nets::figure_1a();
    marking checked = initial_marking(net);
    marking unchecked = initial_marking(net);
    for (int step = 0; step < 10; ++step) {
        const auto enabled = enabled_transitions(net, checked);
        if (enabled.empty()) {
            break;
        }
        fire(net, checked, enabled.front());
        fire_unchecked(net, unchecked, enabled.front());
        ASSERT_EQ(checked, unchecked);
    }
}

TEST(petri_net, id_range_views)
{
    const petri_net net = nets::figure_1a();
    const auto places = net.places();
    const auto transitions = net.transitions();
    EXPECT_EQ(places.size(), net.place_count());
    EXPECT_EQ(transitions.size(), net.transition_count());
    EXPECT_FALSE(places.empty());
    std::int32_t expected = 0;
    for (const place_id p : places) {
        EXPECT_EQ(p.value(), expected++);
    }
    expected = 0;
    for (const transition_id t : transitions) {
        EXPECT_EQ(t.value(), expected++);
    }
}

} // namespace
} // namespace fcqss::pn
