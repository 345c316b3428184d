// fcqss — pn/mutator.hpp
// Seeded, deterministic net mutation for the differential fuzz harness
// (pipeline/fuzz.hpp).  A mutation *plan* is drawn once from a PRNG seed;
// applying the plan — or any subset of it, which is how disagreements are
// shrunk to minimal reproducers — is a pure function of (base net, plan).
//
// Two mutation classes, by contract:
//
//   structure-preserving   perturb_weight, perturb_marking.  The arc set
//                          and node set are untouched: weights move within
//                          [1, max_weight], initial markings within
//                          [0, max_tokens].  Connectivity can never change.
//
//   structure-mutating     add_arc, remove_arc, redirect_arc, merge_places,
//                          split_place, drop_transition,
//                          duplicate_transition.  These deliberately leave
//                          the generator's schedulable-by-design region:
//                          mutants may be non-free-choice, inconsistent,
//                          unbounded, or disconnected.  The invariant the
//                          fuzz harness enforces is *not* that such nets
//                          synthesize — it is that every downstream stage
//                          either succeeds or rejects them cleanly, with
//                          agreeing verdicts across reductions.
//
// Every mutant is a valid pn::petri_net: names stay unique identifiers,
// arc weights stay positive, duplicate arcs are merged (weights summed),
// at least one transition survives.  Mutations that cannot apply to the
// current structure (removing an arc from an arc-less net, splitting a
// single-consumer place, ...) are skipped and do not appear in
// mutation_result::applied — so `applied` is exactly the subset a shrink
// needs to replay.
#ifndef FCQSS_PN_MUTATOR_HPP
#define FCQSS_PN_MUTATOR_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "pn/petri_net.hpp"

namespace fcqss::pn {

/// One mutation operator.
enum class mutation_kind : std::uint8_t {
    add_arc,              ///< new place<->transition arc (either direction)
    remove_arc,           ///< delete one existing arc
    redirect_arc,         ///< move one arc endpoint to another node
    merge_places,         ///< fold place b into place a (arcs + tokens)
    split_place,          ///< move half of a place's consumers to a clone
    perturb_weight,       ///< change one arc weight (structure-preserving)
    perturb_marking,      ///< change one initial marking (structure-preserving)
    drop_transition,      ///< delete a transition and its arcs
    duplicate_transition, ///< clone a transition with identical arcs
};

inline constexpr std::size_t mutation_kind_count = 9;

[[nodiscard]] const char* to_string(mutation_kind kind);

/// One planned mutation.  Operands are raw PRNG draws; apply_mutations
/// interprets them modulo the *current* node/arc counts, so a plan (and any
/// subset of it) stays applicable no matter how earlier mutations reshaped
/// the net.
struct mutation {
    mutation_kind kind = mutation_kind::perturb_weight;
    std::uint32_t a = 0;   ///< primary operand (node or arc selector)
    std::uint32_t b = 0;   ///< secondary operand (partner node, direction)
    std::int64_t value = 1; ///< weight or token payload

    friend bool operator==(const mutation&, const mutation&) = default;
};

struct mutation_options {
    /// Mutations drawn per plan.
    int count = 4;
    /// Perturbed/new arc weights land in [1, max_weight].
    std::int64_t max_weight = 4;
    /// Perturbed initial markings land in [0, max_tokens].
    std::int64_t max_tokens = 3;
};

/// A mutant plus the mutations that actually applied, in application order.
struct mutation_result {
    petri_net net;
    std::vector<mutation> applied;
};

/// Draws `options.count` mutations from `seed`.  Deterministic: the same
/// (net, seed, options) always yields the same plan, on every platform.
[[nodiscard]] std::vector<mutation> plan_mutations(const petri_net& base,
                                                   std::uint64_t seed,
                                                   const mutation_options& options = {});

/// Applies `plan` to `base` in order, skipping mutations that cannot apply
/// to the evolved structure.  Pure: no PRNG involved, so any subset of a
/// plan replays bit-identically — the property the fuzz shrinker relies on.
[[nodiscard]] mutation_result apply_mutations(const petri_net& base,
                                              const std::vector<mutation>& plan);

/// plan + apply in one step.
[[nodiscard]] mutation_result mutate(const petri_net& base, std::uint64_t seed,
                                     const mutation_options& options = {});

} // namespace fcqss::pn

#endif // FCQSS_PN_MUTATOR_HPP
