// fcqss — pn/reachability.hpp
// Explicit-state exploration with a budget: explore_space() is the front
// door, and the span-served queries answer deadlock, reachability, path
// and bound questions from its compact state_space.  Used for deadlock
// checks, liveness of bounded nets and for cross-validating the structural
// analyses in tests.  explore_reference() and its reachability_graph are
// the naive oracle the engine is tested against.
#ifndef FCQSS_PN_REACHABILITY_HPP
#define FCQSS_PN_REACHABILITY_HPP

#include <cstdint>
#include <optional>
#include <vector>

#include "pn/firing.hpp"
#include "pn/marking.hpp"
#include "pn/petri_net.hpp"
#include "pn/state_space.hpp"

namespace fcqss::pn {

/// Breadth-first exploration from the net's initial marking: the one
/// exploration entry point.  Runs explore_state_space() (options.threads is
/// accepted and ignored).
[[nodiscard]] state_space explore_space(const petri_net& net,
                                        const reachability_options& options = {});

// -- Span-served queries ----------------------------------------------------
//
// The queries below answer straight from the compact state_space: tokens
// are read as arena spans and lookups go through the store's hash table,
// so nothing is ever materialized into marking objects.  Each is
// observationally identical to its linear-scan reachability_graph
// counterpart over explore_reference() (pinned by
// tests/test_state_space.cpp).

/// First deadlocked state in id order, if any (the marking is one
/// space.marking_of() away).  States with outgoing edges are skipped
/// outright: an edge means some transition fired there.  Sound on reduced
/// graphs too: a stubborn subset always contains an enabled transition, so
/// zero recorded edges still means "dead or budget-dropped", and the
/// enabled re-check below settles which.
[[nodiscard]] std::optional<state_id> find_deadlock(const petri_net& net,
                                                    const state_space& space);

/// Every deadlocked state in the explored region, ascending by id.  On a
/// non-truncated stubborn-reduced exploration this is exactly the set of
/// reachable dead markings of the full graph (pn/stubborn.hpp).
[[nodiscard]] std::vector<state_id> deadlock_states(const petri_net& net,
                                                    const state_space& space);

/// True when `target` is an explored state (one hash lookup, no scan).
[[nodiscard]] bool is_reachable(const state_space& space, const marking& target);

/// A shortest firing sequence from the initial marking to `target`, or
/// nullopt when not present in the explored region.  The target is located
/// with one hash lookup; the BFS runs over the CSR edge list.
[[nodiscard]] std::optional<firing_sequence>
shortest_path_to(const petri_net& net, const state_space& space, const marking& target);

/// Max token count per place over the explored region (bounds witness).
[[nodiscard]] std::vector<std::int64_t> place_bounds(const state_space& space);

// -- The reference oracle -----------------------------------------------------

/// One explored marking and its outgoing firings.
struct reachability_node {
    marking state;
    /// (transition fired, index of successor node), ascending by transition.
    std::vector<std::pair<transition_id, std::size_t>> successors;
};

/// The (partial) reachability graph from the initial marking, as marking
/// objects.
struct reachability_graph {
    std::vector<reachability_node> nodes;
    /// True when exploration stopped because a budget was hit; every
    /// "for all reachable markings" verdict is then only valid for the
    /// explored region.
    bool truncated = false;

    [[nodiscard]] std::size_t size() const noexcept { return nodes.size(); }
};

/// The pre-engine exploration: a naive BFS deduplicating through an
/// unordered_map of marking objects (options.threads and the reduction are
/// ignored).  Visits exactly the same states and edges as explore_space(),
/// in the same order — kept as the oracle for differential tests and for
/// before/after rows in bench_scaling.
[[nodiscard]] reachability_graph
explore_reference(const petri_net& net, const reachability_options& options = {});

// Linear-scan queries over the oracle graph, the test counterparts of the
// span-served queries above.

/// A reachable dead marking, if the explored region has one.
[[nodiscard]] std::optional<marking> find_deadlock(const petri_net& net,
                                                   const reachability_graph& graph);

/// True when `target` appears in the explored region.
[[nodiscard]] bool is_reachable(const reachability_graph& graph, const marking& target);

/// A shortest firing sequence from the initial marking to `target`, or
/// nullopt when not present in the explored region.
[[nodiscard]] std::optional<firing_sequence>
shortest_path_to(const petri_net& net, const reachability_graph& graph,
                 const marking& target);

/// Max token count per place over the explored region (bounds witness).
[[nodiscard]] std::vector<std::int64_t> place_bounds(const reachability_graph& graph);

} // namespace fcqss::pn

#endif // FCQSS_PN_REACHABILITY_HPP
