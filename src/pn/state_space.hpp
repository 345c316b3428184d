// fcqss — pn/state_space.hpp
// The shared explicit-state exploration engine behind reachability,
// deadlock, executability and valid-schedule checking.  Markings live in an
// arena-backed marking_store; successor generation keeps each state's
// enabled set incrementally — after firing t only the consumers of the
// places t touched are re-checked (via petri_net::consumers), instead of
// re-scanning every transition — and successor hashes are updated
// Zobrist-style from the parent's hash in O(|arcs of t|).
#ifndef FCQSS_PN_STATE_SPACE_HPP
#define FCQSS_PN_STATE_SPACE_HPP

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "pn/firing.hpp"
#include "pn/marking.hpp"
#include "pn/marking_store.hpp"
#include "pn/petri_net.hpp"
#include "pn/stubborn.hpp"

namespace fcqss::pn {

struct state_space_edge;
class state_space;

/// Limits and reduction for explicit exploration: the one option struct
/// behind explore_space() and the engine.
struct reachability_options {
    /// Bound on the state count.
    std::size_t max_markings = 100000;
    /// Successors where some place exceeds this cap are dropped (the space
    /// is then truncated): the guard against unbounded nets.
    std::int64_t max_tokens_per_place = 1 << 20;
    /// Soft ceiling on resident arena bytes; 0 = unlimited (heap arena).
    /// Non-zero backs the marking arenas with an mmap'd spill file
    /// (exec::chunk_pager) and evicts cold chunks past the budget, so
    /// exploration can outgrow RAM; the explored graph is bit-identical at
    /// any spill ratio.
    std::size_t max_bytes = 0;
    /// Accepted and ignored: exploration is sequential.  Kept only so
    /// existing callers that still set it compile.
    std::size_t threads = 1;
    /// Per-state partial-order reduction (pn/stubborn.hpp).  `stubborn`
    /// explores a property-preserving fragment: with `strength = deadlock`
    /// has-deadlock and the set of reachable dead markings match the full
    /// graph (exactly, when neither run is truncated); with `strength =
    /// ltl_x` transition liveness and stutter-invariant queries over
    /// `observed_places` are preserved too.  The reachability *set* is
    /// never preserved — keep `none` for is_reachable / shortest_path /
    /// place_bounds-style queries.
    reduction_kind reduction = reduction_kind::none;
    /// How much the stubborn reduction preserves (pn/stubborn.hpp):
    /// `deadlock` applies D1/D2 only; `ltl_x` adds the visibility
    /// conditions over `observed_places` and the SCC-local "no transition
    /// ignored forever" post-pass.
    reduction_strength strength = reduction_strength::deadlock;
    /// Places the query observes (the ltl_x visibility set — see
    /// stubborn_options::observed_places).  Empty is right for deadlock and
    /// liveness queries; boundedness-style queries observe the places they
    /// bound.
    std::vector<place_id> observed_places{};
};

namespace detail {

/// True when `tokens` (length |P|) enables t.
[[nodiscard]] bool enabled_in(const petri_net& net, const std::int64_t* tokens,
                              transition_id t);

/// affected[t]: the transitions whose enabledness can change when t fires —
/// the consumers of every place t consumes from or produces into.  The
/// engine drives its incremental enabled-set updates off this table.
[[nodiscard]] std::vector<std::vector<transition_id>>
affected_transitions(const petri_net& net);

/// The incremental enabled-set step: the successor's
/// enabled set is the parent's (`parent_enabled`, ascending) with the
/// members of `recheck` (ascending) re-tested against the successor tokens.
/// The result is written to `out` (cleared first), ascending.
void merge_enabled(const petri_net& net, const std::vector<transition_id>& parent_enabled,
                   const std::vector<transition_id>& recheck,
                   const std::int64_t* tokens, std::vector<transition_id>& out);

/// The ltl_x "no transition ignored forever" post-pass: over the finished
/// reduced graph, every SCC that can sustain a cycle (two or more states,
/// or a self-loop) and ignores a transition — enabled at some member state
/// but fired from none — gets its smallest such state fully expanded;
/// freshly discovered states are then explored with the normal per-state
/// reduction, and the check repeats until no SCC ignores anything.  Successors are interned in (state id, transition id)
/// order, so the result is deterministic in (net, reduction, space,
/// options) alone.  Budgets are respected exactly like in-engine expansion
/// (dropped successors mark the space truncated).
void enforce_nonignoring(const petri_net& net, const stubborn_reduction& reduction,
                         state_space& space, const reachability_options& options);

} // namespace detail

/// One outgoing edge of a state: the transition fired and the successor.
struct state_space_edge {
    transition_id via;
    state_id to;

    friend bool operator==(const state_space_edge&, const state_space_edge&) = default;
};

/// The explored fragment of the reachability graph in compact form: interned
/// states plus a CSR edge list (states are expanded in discovery order, so
/// edges of state s occupy one contiguous run).
class state_space {
public:
    [[nodiscard]] const marking_store& store() const noexcept { return store_; }
    [[nodiscard]] std::size_t state_count() const noexcept { return store_.size(); }
    [[nodiscard]] std::size_t edge_count() const noexcept { return edges_.size(); }
    /// True when a budget stopped exploration; "for all reachable markings"
    /// verdicts then only hold for the explored region.
    [[nodiscard]] bool truncated() const noexcept { return truncated_; }
    /// Token counts of state s (a stable span into the arena).
    [[nodiscard]] std::span<const std::int64_t> tokens(state_id s) const noexcept
    {
        return store_.tokens(s);
    }
    /// Outgoing edges of s, ascending by transition id.
    [[nodiscard]] std::span<const state_space_edge> successors(state_id s) const noexcept
    {
        return {edges_.data() + edge_offsets_[s],
                edge_offsets_[s + 1] - edge_offsets_[s]};
    }

    /// Materializes state s as a marking object.
    [[nodiscard]] marking marking_of(state_id s) const;

private:
    friend state_space explore_state_space(const petri_net& net,
                                           const reachability_options& options);
    friend void detail::enforce_nonignoring(const petri_net& net,
                                            const stubborn_reduction& reduction,
                                            state_space& space,
                                            const reachability_options& options);

    marking_store store_{0};
    std::vector<state_space_edge> edges_;
    /// size state_count()+1; successors of s are edges_[offsets[s]..offsets[s+1]).
    std::vector<std::size_t> edge_offsets_;
    bool truncated_ = false;
};

/// Breadth-first exploration from the net's initial marking (the engine
/// behind explore_space(); options.threads is ignored).  Visits exactly the
/// states and edges of the naive reference exploration (reachability.cpp
/// explore_reference), in the same order.
[[nodiscard]] state_space explore_state_space(const petri_net& net,
                                              const reachability_options& options = {});

/// A reusable token-game runner over a dense token vector: one allocation
/// per game, checked enabling, unchecked firing (pn::fire_unchecked).  The
/// schedule-replay loops (qss executability / validity) use this instead of
/// marking objects to avoid per-step allocation and double enabledness
/// checks.
class token_game {
public:
    explicit token_game(const petri_net& net);

    /// Resets the tokens to the net's initial marking.
    void reset();

    [[nodiscard]] bool enabled(transition_id t) const;
    /// Fires t when enabled; returns whether it fired.
    bool try_fire(transition_id t);
    /// Fires the whole sequence; returns the first failing position, or
    /// nullopt when every transition fired.
    std::optional<std::size_t> run(const firing_sequence& sequence);

    /// True when the current tokens equal the initial marking.
    [[nodiscard]] bool at_initial() const;
    [[nodiscard]] const std::vector<std::int64_t>& tokens() const noexcept
    {
        return tokens_;
    }

private:
    const petri_net* net_;
    std::vector<std::int64_t> tokens_;
};

} // namespace fcqss::pn

#endif // FCQSS_PN_STATE_SPACE_HPP
