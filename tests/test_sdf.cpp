// Unit tests for the SDF substrate: graph model, marked-graph conversion,
// repetition vectors, static schedules and buffer bounds.
#include <gtest/gtest.h>

#include "base/error.hpp"
#include "linalg/checked.hpp"
#include "nets/paper_nets.hpp"
#include "pn/firing.hpp"
#include "sdf/buffer_bounds.hpp"
#include "sdf/repetition.hpp"
#include "sdf/sdf_graph.hpp"
#include "sdf/static_schedule.hpp"
#include "test_util.hpp"

namespace fcqss::sdf {
namespace {

// Lee/Messerschmitt's classic 3-actor example shape: a ->(2,1) b ->(1,2) c.
sdf_graph downsampler()
{
    sdf_graph g("downsampler");
    const actor_id a = g.add_actor("a");
    const actor_id b = g.add_actor("b");
    const actor_id c = g.add_actor("c");
    g.add_channel(a, b, 2, 1);
    g.add_channel(b, c, 1, 2);
    return g;
}

TEST(sdf_graph, validation)
{
    sdf_graph g("g");
    const actor_id a = g.add_actor("a");
    EXPECT_THROW((void)g.add_actor("a"), model_error);
    EXPECT_THROW((void)g.add_actor(""), model_error);
    EXPECT_THROW((void)g.add_channel(a, 9, 1, 1), model_error);
    EXPECT_THROW((void)g.add_channel(a, a, 0, 1), model_error);
    EXPECT_THROW((void)g.add_channel(a, a, 1, 1, -1), model_error);
    EXPECT_THROW((void)g.actor_name(5), model_error);
    EXPECT_THROW((void)g.channel_at(0), model_error);
}

TEST(repetition, downsampler_vector)
{
    const repetition_result r = repetition_vector(downsampler());
    ASSERT_TRUE(r.consistent());
    EXPECT_EQ(r.counts, (std::vector<std::int64_t>{1, 2, 1}));
}

TEST(repetition, inconsistent_rates_detected)
{
    // a ->(1,1) b plus a ->(2,1) b: the two channels demand q_b = q_a and
    // q_b = 2 q_a simultaneously.
    sdf_graph g("bad");
    const actor_id a = g.add_actor("a");
    const actor_id b = g.add_actor("b");
    g.add_channel(a, b, 1, 1);
    g.add_channel(a, b, 2, 1);
    const repetition_result r = repetition_vector(g);
    EXPECT_FALSE(r.consistent());
    ASSERT_TRUE(r.inconsistent_channel.has_value());
    EXPECT_EQ(*r.inconsistent_channel, 1u);
}

TEST(repetition, self_loop_rules)
{
    sdf_graph ok("ok");
    const actor_id a = ok.add_actor("a");
    ok.add_channel(a, a, 3, 3, 3);
    EXPECT_TRUE(repetition_vector(ok).consistent());

    sdf_graph bad("bad");
    const actor_id b = bad.add_actor("b");
    bad.add_channel(b, b, 2, 3);
    EXPECT_FALSE(repetition_vector(bad).consistent());
}

TEST(repetition, disconnected_components_independent)
{
    sdf_graph g("two");
    const actor_id a = g.add_actor("a");
    const actor_id b = g.add_actor("b");
    const actor_id c = g.add_actor("c");
    const actor_id d = g.add_actor("d");
    g.add_channel(a, b, 3, 1);
    g.add_channel(c, d, 1, 5);
    const repetition_result r = repetition_vector(g);
    ASSERT_TRUE(r.consistent());
    // Each component minimal on its own.
    EXPECT_EQ(r.counts, (std::vector<std::int64_t>{1, 3, 5, 1}));
}

TEST(static_schedule, downsampler_schedule)
{
    const sdf_graph g = downsampler();
    const static_schedule s = compute_static_schedule(g);
    ASSERT_TRUE(s.ok());
    EXPECT_EQ(to_string(g, s), "a b b c");
}

TEST(static_schedule, delays_break_deadlock)
{
    // a cycle a -> b -> a with no delay deadlocks; one initial token frees it.
    sdf_graph stuck("stuck");
    const actor_id a = stuck.add_actor("a");
    const actor_id b = stuck.add_actor("b");
    stuck.add_channel(a, b, 1, 1);
    stuck.add_channel(b, a, 1, 1, 0);
    const static_schedule dead = compute_static_schedule(stuck);
    EXPECT_FALSE(dead.ok());
    EXPECT_EQ(dead.failure, schedule_failure::deadlock);
    EXPECT_FALSE(dead.stalled_actors.empty());
    EXPECT_EQ(to_string(schedule_failure::deadlock), "deadlock");

    sdf_graph freed("freed");
    const actor_id c = freed.add_actor("a");
    const actor_id d = freed.add_actor("b");
    freed.add_channel(c, d, 1, 1);
    freed.add_channel(d, c, 1, 1, 1);
    EXPECT_TRUE(compute_static_schedule(freed).ok());
}

TEST(static_schedule, inconsistent_reported)
{
    sdf_graph g("bad");
    const actor_id a = g.add_actor("a");
    const actor_id b = g.add_actor("b");
    g.add_channel(a, b, 1, 1);
    g.add_channel(a, b, 2, 1);
    const static_schedule s = compute_static_schedule(g);
    EXPECT_FALSE(s.ok());
    EXPECT_EQ(s.failure, schedule_failure::inconsistent_rates);
}

TEST(conversion, sdf_to_petri_net_and_back)
{
    const sdf_graph g = downsampler();
    const pn::petri_net net = to_petri_net(g);
    EXPECT_EQ(net.transition_count(), 3u);
    EXPECT_EQ(net.place_count(), 2u);

    const sdf_graph back = from_marked_graph(net);
    EXPECT_EQ(back.actor_count(), 3u);
    ASSERT_EQ(back.channel_count(), 2u);
    EXPECT_EQ(back.channel_at(0).production, 2);
    EXPECT_EQ(back.channel_at(0).consumption, 1);
}

TEST(conversion, figure_2_is_an_sdf_graph)
{
    const sdf_graph g = from_marked_graph(nets::figure_2());
    const repetition_result r = repetition_vector(g);
    ASSERT_TRUE(r.consistent());
    EXPECT_EQ(r.counts, (std::vector<std::int64_t>{4, 2, 1}));
}

TEST(conversion, rejects_non_marked_graph)
{
    EXPECT_THROW((void)from_marked_graph(nets::figure_3a()), domain_error);
}

TEST(buffer_bounds, downsampler_bounds)
{
    const sdf_graph g = downsampler();
    const static_schedule s = compute_static_schedule(g);
    ASSERT_TRUE(s.ok());
    const auto bounds = buffer_bounds(g, s);
    ASSERT_EQ(bounds.size(), 2u);
    EXPECT_EQ(bounds[0], 2); // a's burst of 2 waits for b
    EXPECT_EQ(bounds[1], 2); // c needs 2 before firing
    EXPECT_EQ(total_buffer_bytes(bounds, 4), 16);
}

TEST(buffer_bounds, includes_initial_tokens)
{
    sdf_graph g("delayed");
    const actor_id a = g.add_actor("a");
    const actor_id b = g.add_actor("b");
    g.add_channel(a, b, 1, 1, 3);
    const static_schedule s = compute_static_schedule(g);
    ASSERT_TRUE(s.ok());
    EXPECT_EQ(buffer_bounds(g, s).front(), 4); // 3 delays + 1 in flight
}

TEST(buffer_bounds, requires_valid_schedule)
{
    sdf_graph g("bad");
    const actor_id a = g.add_actor("a");
    const actor_id b = g.add_actor("b");
    g.add_channel(a, b, 1, 1);
    g.add_channel(a, b, 2, 1);
    const static_schedule s = compute_static_schedule(g);
    EXPECT_THROW((void)buffer_bounds(g, s), domain_error);
}

// Property sweep: for random consistent chains, one period returns all
// channels to their delays and the repetition vector is minimal (gcd 1).
class sdf_property : public ::testing::TestWithParam<int> {};

TEST_P(sdf_property, period_restores_and_is_minimal)
{
    std::uint64_t state =
        static_cast<std::uint64_t>(GetParam()) * 0x9e3779b97f4a7c15ULL + 7;
    const auto rnd = [&state](std::uint64_t bound) {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        return (state * 0x2545f4914f6cdd1dULL) % bound;
    };
    sdf_graph g("chain");
    const int actors = 3 + static_cast<int>(rnd(4));
    for (int i = 0; i < actors; ++i) {
        (void)g.add_actor(testutil::numbered("a", i));
    }
    for (int i = 0; i + 1 < actors; ++i) {
        g.add_channel(static_cast<actor_id>(i), static_cast<actor_id>(i + 1),
                      1 + static_cast<std::int64_t>(rnd(3)),
                      1 + static_cast<std::int64_t>(rnd(3)),
                      static_cast<std::int64_t>(rnd(3)));
    }
    const static_schedule s = compute_static_schedule(g);
    ASSERT_TRUE(s.ok());

    std::int64_t gcd_all = 0;
    for (std::int64_t q : s.repetitions.counts) {
        gcd_all = linalg::gcd64(gcd_all, q);
        EXPECT_GT(q, 0);
    }
    EXPECT_EQ(gcd_all, 1) << "repetition vector must be minimal";

    // Executing the schedule through the PN view returns the initial marking.
    const pn::petri_net net = to_petri_net(g);
    pn::marking m = pn::initial_marking(net);
    for (actor_id a : s.firing_order) {
        pn::fire(net, m, pn::transition_id{static_cast<std::int32_t>(a)});
    }
    EXPECT_EQ(m, pn::initial_marking(net));
}

INSTANTIATE_TEST_SUITE_P(random_chains, sdf_property, ::testing::Range(0, 20));

} // namespace
} // namespace fcqss::sdf
