// Shared test utilities: a seeded random free-choice net generator (for
// property-style sweeps) and an eager reference simulator that mirrors the
// generated code's operational semantics on the net itself.
#ifndef FCQSS_TESTS_TEST_UTIL_HPP
#define FCQSS_TESTS_TEST_UTIL_HPP

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "base/prng.hpp"
#include "codegen/interpreter.hpp"
#include "pn/builder.hpp"
#include "pn/firing.hpp"
#include "pn/petri_net.hpp"

namespace fcqss::testutil {

/// The shared deterministic PRNG (see base/prng.hpp).
using fcqss::prng;

/// `prefix` followed by the decimal digits of `n` ("p", 3 -> "p3"): the
/// element names of generated test nets.
[[nodiscard]] std::string numbered(std::string prefix, long long n);

struct random_net_options {
    int sources = 2;          // independent inputs
    int depth = 4;            // layers of processing
    int width = 3;            // transitions per layer
    int choice_percent = 35;  // probability a place becomes a choice
    int max_weight = 2;       // arc weights in [1, max_weight]
    bool allow_joins = true;
};

/// Generates a schedulable-by-construction free-choice net: layered forward
/// chains from source transitions, choices branch to per-alternative chains
/// that all terminate in sink transitions, weights paired so every path is
/// balanced (producer weight w feeds a consumer of weight w or 1xw / wx1
/// pairs that the QSS cycle covers).
[[nodiscard]] pn::petri_net
random_free_choice_net(std::uint64_t seed, const random_net_options& options = {});

/// Eager reference semantics: fire `source`, then repeatedly fire any
/// enabled non-source transition (choices resolved by the oracle, keyed by
/// the choice place), until quiescent.  Mirrors the generated code's
/// reaction semantics; every fired transition is reported in order.
void eager_react(const pn::petri_net& net, pn::marking& m, pn::transition_id source,
                 const std::function<int(pn::place_id)>& choose,
                 const std::function<void(pn::transition_id)>& on_fire,
                 int max_steps = 100000);

} // namespace fcqss::testutil

#endif // FCQSS_TESTS_TEST_UTIL_HPP
