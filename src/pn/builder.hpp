// fcqss — pn/builder.hpp
// Incremental construction of petri_net instances with validation at build().
#ifndef FCQSS_PN_BUILDER_HPP
#define FCQSS_PN_BUILDER_HPP

#include <cstdint>
#include <string>

#include "pn/petri_net.hpp"

namespace fcqss::pn {

/// Builds a petri_net.  Node names must be unique per kind; arcs must have
/// positive weight; duplicate arcs between the same pair are rejected (use a
/// single arc with the combined weight instead).
///
/// Typical use:
///   net_builder b("fig3a");
///   auto p1 = b.add_place("p1");
///   auto t1 = b.add_transition("t1");
///   b.add_arc(t1, p1);
///   petri_net net = std::move(b).build();
class net_builder {
public:
    explicit net_builder(std::string net_name);

    /// Adds a place with `initial_tokens` tokens in the initial marking.
    place_id add_place(const std::string& name, std::int64_t initial_tokens = 0);

    transition_id add_transition(const std::string& name);

    /// Adds the arc place -> transition with weight F(p, t).
    void add_arc(place_id from, transition_id to, std::int64_t weight = 1);
    /// Adds the arc transition -> place with weight F(t, p).
    void add_arc(transition_id from, place_id to, std::int64_t weight = 1);

    /// Changes the initial marking of an already-added place.
    void set_initial_tokens(place_id p, std::int64_t tokens);

    /// Sizes of the net built so far.
    [[nodiscard]] std::size_t place_count() const noexcept { return net_.place_count(); }
    [[nodiscard]] std::size_t transition_count() const noexcept
    {
        return net_.transition_count();
    }
    [[nodiscard]] std::size_t arc_count() const noexcept { return net_.arc_count(); }

    /// Validates and returns the finished net.  The builder is consumed.
    [[nodiscard]] petri_net build() &&;

    /// Validates and returns the finished net, leaving the builder reusable
    /// for further extension (used by the random-net generators in tests).
    [[nodiscard]] petri_net build_copy() const;

private:
    petri_net net_;
};

} // namespace fcqss::pn

#endif // FCQSS_PN_BUILDER_HPP
