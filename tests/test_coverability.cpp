// Regression tests for Karp–Miller coverability on unbounded nets — until
// now the tree was only exercised indirectly through construction.  Pinned
// here: omega introduction through ancestor acceleration (including
// non-parent ancestors), global dedup through the marking_store (the
// coverability *graph* collapse that keeps symmetric nets polynomial),
// agreement with explicit exploration on bounded nets, coverability and
// k-boundedness queries, and budget truncation.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "base/error.hpp"
#include "nets/paper_nets.hpp"
#include "pipeline/net_generator.hpp"
#include "pn/builder.hpp"
#include "pn/coverability.hpp"
#include "pn/marking.hpp"
#include "pn/reachability.hpp"
#include "test_util.hpp"

namespace fcqss::pn {
namespace {

std::vector<std::int64_t> flat(const omega_marking& m)
{
    std::vector<std::int64_t> out(m.size());
    for (std::size_t i = 0; i < m.size(); ++i) {
        out[i] = m[i].value;
    }
    return out;
}

TEST(coverability, source_transition_pumps_omega)
{
    net_builder b("pump");
    const auto p = b.add_place("p");
    const auto src = b.add_transition("src");
    b.add_arc(src, p);
    const petri_net net = std::move(b).build();

    const coverability_tree tree = build_coverability_tree(net);
    ASSERT_FALSE(tree.truncated);
    EXPECT_FALSE(is_bounded(tree));
    EXPECT_FALSE(is_k_bounded(tree, 1 << 20));
    const std::vector<place_id> unbounded = unbounded_places(tree);
    ASSERT_EQ(unbounded.size(), 1u);
    EXPECT_EQ(unbounded.front(), p);
    // Omega covers any demand on p.
    EXPECT_TRUE(is_coverable(tree, marking(std::vector<std::int64_t>{1000000})));
}

TEST(coverability, acceleration_walks_past_the_parent)
{
    // p0 -> t1 -> p1, t2: p1 -> p0 + p2.  The marking after t1,t2 strictly
    // dominates the *grand*parent (the root), not its parent, so the
    // acceleration must walk the whole ancestor chain to pump p2 to omega.
    net_builder b("grandparent_pump");
    const auto p0 = b.add_place("p0", 1);
    const auto p1 = b.add_place("p1");
    const auto p2 = b.add_place("p2");
    const auto t1 = b.add_transition("t1");
    const auto t2 = b.add_transition("t2");
    b.add_arc(p0, t1);
    b.add_arc(t1, p1);
    b.add_arc(p1, t2);
    b.add_arc(t2, p0);
    b.add_arc(t2, p2);
    const petri_net net = std::move(b).build();

    const coverability_tree tree = build_coverability_tree(net);
    ASSERT_FALSE(tree.truncated);
    EXPECT_FALSE(is_bounded(tree));
    const std::vector<place_id> unbounded = unbounded_places(tree);
    ASSERT_EQ(unbounded.size(), 1u);
    EXPECT_EQ(unbounded.front(), p2);
    // p2 accumulates without bound; p0/p1 stay 1-bounded.
    EXPECT_TRUE(is_coverable(tree, marking(std::vector<std::int64_t>{0, 0, 500})));
    EXPECT_FALSE(is_coverable(tree, marking(std::vector<std::int64_t>{2, 0, 0})));
    EXPECT_FALSE(is_coverable(tree, marking(std::vector<std::int64_t>{0, 2, 0})));
}

TEST(coverability, dedup_collapses_symmetric_interleavings)
{
    // k independent toggles: 2^k distinct markings, but k! fully-expanded
    // interleaving paths.  The marking_store dedup expands each distinct
    // marking once, so the node count stays near (distinct x out-degree),
    // nowhere near the path blowup.
    constexpr int k = 6;
    net_builder b("toggles");
    for (int i = 0; i < k; ++i) {
        const auto p = b.add_place(testutil::numbered("p", i), 1);
        const auto q = b.add_place(testutil::numbered("q", i));
        const auto t = b.add_transition(testutil::numbered("t", i));
        b.add_arc(p, t);
        b.add_arc(t, q);
    }
    const petri_net net = std::move(b).build();

    const coverability_tree tree = build_coverability_tree(net);
    ASSERT_FALSE(tree.truncated);
    EXPECT_TRUE(is_bounded(tree));
    EXPECT_TRUE(is_k_bounded(tree, 1));

    std::set<std::vector<std::int64_t>> distinct;
    for (const coverability_node& node : tree.nodes) {
        distinct.insert(flat(node.state));
    }
    EXPECT_EQ(distinct.size(), std::size_t{1} << k);
    // 1 root + one child node per (expanded distinct marking, enabled
    // toggle) = 1 + sum_j C(k,j) * j = 1 + k * 2^(k-1); anything near the
    // path count (> 1900 for k = 6) means dedup regressed.
    EXPECT_EQ(tree.size(), 1u + k * (std::size_t{1} << (k - 1)));
}

petri_net bounded_cycle()
{
    // 3 tokens circulating a two-place cycle: bounded and live.
    net_builder b("cycle");
    const auto p0 = b.add_place("p0", 3);
    const auto p1 = b.add_place("p1");
    const auto t0 = b.add_transition("t0");
    const auto t1 = b.add_transition("t1");
    b.add_arc(p0, t0);
    b.add_arc(t0, p1);
    b.add_arc(p1, t1);
    b.add_arc(t1, p0);
    return std::move(b).build();
}

petri_net bounded_multirate()
{
    // Weighted producer/consumer loop (Fig. 4 shape, but closed so arbitrary
    // firing stays bounded): t0 turns two p0 tokens into one p1 token, t1
    // turns one p1 token back into two p0 tokens.
    net_builder b("multirate");
    const auto p0 = b.add_place("p0", 4);
    const auto p1 = b.add_place("p1");
    const auto t0 = b.add_transition("t0");
    const auto t1 = b.add_transition("t1");
    b.add_arc(p0, t0, 2);
    b.add_arc(t0, p1);
    b.add_arc(p1, t1);
    b.add_arc(t1, p0, 2);
    return std::move(b).build();
}

petri_net dead_end_chain()
{
    // p0 -> t0 -> p1 -> t1 -> p2 with no consumer of p2: bounded, deadlocks.
    net_builder b("dead_end");
    const auto p0 = b.add_place("p0", 2);
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

TEST(coverability, matches_exploration_on_bounded_nets)
{
    // On a bounded net acceleration never fires, so the distinct markings
    // of the tree are exactly the reachable set.  (The paper figure nets do
    // not qualify: they model environment inputs as source transitions and
    // are all unbounded under arbitrary firing — see the generated-nets
    // test below.)
    for (const auto& build : {bounded_cycle, bounded_multirate, dead_end_chain}) {
        const petri_net net = build();
        const coverability_tree tree = build_coverability_tree(net);
        ASSERT_FALSE(tree.truncated);
        ASSERT_TRUE(is_bounded(tree));

        const state_space space = explore_space(net, {.max_markings = 100000});
        ASSERT_FALSE(space.truncated());

        std::set<std::vector<std::int64_t>> tree_markings;
        for (const coverability_node& node : tree.nodes) {
            tree_markings.insert(flat(node.state));
        }
        std::set<std::vector<std::int64_t>> reachable;
        for (state_id s = 0; s < static_cast<state_id>(space.state_count()); ++s) {
            const auto span = space.tokens(s);
            reachable.insert(std::vector<std::int64_t>(span.begin(), span.end()));
        }
        EXPECT_EQ(tree_markings, reachable) << net.name();

        // k-boundedness agrees with the exact bounds witness.
        const std::vector<std::int64_t> bounds = place_bounds(space);
        const std::int64_t max_bound =
            *std::max_element(bounds.begin(), bounds.end());
        EXPECT_TRUE(is_k_bounded(tree, max_bound));
        if (max_bound > 0) {
            EXPECT_FALSE(is_k_bounded(tree, max_bound - 1));
        }
        // Every reachable marking is coverable; nothing above the bounds is
        // coverable in a bounded net.
        EXPECT_TRUE(is_coverable(tree, space.marking_of(0)));
        std::vector<std::int64_t> above = bounds;
        above.front() += 1;
        EXPECT_FALSE(is_coverable(tree, marking(above)));
    }
}

TEST(coverability, generated_nets_with_sources_are_unbounded)
{
    // Every generator family grows its nets below source transitions, so
    // arbitrary firing always pumps some place: Karp–Miller must say
    // unbounded on all of them (the QSS schedulability contrast the paper
    // draws in Sec. 2).
    for (const pipeline::net_family family :
         {pipeline::net_family::marked_graph, pipeline::net_family::free_choice,
          pipeline::net_family::choice_heavy}) {
        pipeline::generator_options options;
        options.family = family;
        options.sources = 2;
        options.depth = 3;
        pipeline::net_generator generator(61, options);
        for (int i = 0; i < 3; ++i) {
            const petri_net net = generator.next();
            const coverability_tree tree =
                build_coverability_tree(net, {.max_nodes = 20000});
            if (tree.truncated) {
                continue; // budget hit before omega: no verdict to check
            }
            EXPECT_FALSE(is_bounded(tree))
                << pipeline::to_string(family) << " net " << i;
            EXPECT_FALSE(unbounded_places(tree).empty());
        }
    }
}

TEST(coverability, truncation_flag_on_tiny_budget)
{
    pipeline::net_generator generator(67);
    const petri_net net = generator.next();
    const coverability_tree tree = build_coverability_tree(net, {.max_nodes = 3});
    EXPECT_TRUE(tree.truncated);
    EXPECT_LE(tree.size(), 4u);
}

TEST(coverability, is_coverable_rejects_mismatched_width)
{
    const petri_net net = nets::figure_2();
    const coverability_tree tree = build_coverability_tree(net);
    EXPECT_THROW(
        static_cast<void>(is_coverable(tree, marking(std::vector<std::int64_t>{1}))),
        model_error);
}

} // namespace
} // namespace fcqss::pn
