#include "pn/coverability.hpp"

#include <algorithm>
#include <deque>

#include "base/error.hpp"
#include "linalg/checked.hpp"
#include "pn/marking_store.hpp"
#include "pn/state_space.hpp"

namespace fcqss::pn {

namespace {

// Flattens an omega-marking to raw counts (omega encodes as its sentinel
// value) so it can be interned in a marking_store for deduplication.
void flatten(const omega_marking& m, std::vector<std::int64_t>& out)
{
    out.resize(m.size());
    for (std::size_t i = 0; i < m.size(); ++i) {
        out[i] = m[i].value;
    }
}

omega_marking to_omega(const std::vector<std::int64_t>& tokens)
{
    omega_marking m(tokens.size());
    for (std::size_t i = 0; i < tokens.size(); ++i) {
        m[i].value = tokens[i];
    }
    return m;
}

bool omega_enabled(const petri_net& net, const omega_marking& m, transition_id t)
{
    for (const place_weight& in : net.inputs(t)) {
        const omega_count& c = m[in.place.index()];
        if (!c.is_omega() && c.value < in.weight) {
            return false;
        }
    }
    return true;
}

omega_marking omega_fire(const petri_net& net, omega_marking m, transition_id t)
{
    for (const place_weight& in : net.inputs(t)) {
        omega_count& c = m[in.place.index()];
        if (!c.is_omega()) {
            c.value -= in.weight;
        }
    }
    for (const place_weight& out : net.outputs(t)) {
        omega_count& c = m[out.place.index()];
        if (!c.is_omega()) {
            // Saturate into omega rather than overflowing; a count this large
            // is indistinguishable from unbounded for analysis purposes.
            if (c.value > omega_count::omega_value - out.weight) {
                c.value = omega_count::omega_value;
            } else {
                c.value += out.weight;
            }
        }
    }
    return m;
}

// a <= b componentwise, omega dominating.
bool omega_leq(const omega_marking& a, const omega_marking& b)
{
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i].is_omega() && !b[i].is_omega()) {
            return false;
        }
        if (!a[i].is_omega() && !b[i].is_omega() && a[i].value > b[i].value) {
            return false;
        }
    }
    return true;
}

} // namespace

coverability_tree build_coverability_tree(const petri_net& net,
                                          const coverability_options& options)
{
    coverability_tree tree;
    tree.nodes.push_back(
        {to_omega(net.initial_marking_vector()), 0, transition_id{}, {}});

    // Global dedup: an omega-marking seen anywhere already generates the
    // same subtree, so only its first occurrence is expanded.  This turns
    // the Karp–Miller tree into the (equivalent for boundedness and
    // coverability) coverability graph and avoids path-count blowup on
    // symmetric nets.  The seen set is an arena-backed marking_store
    // (omega flattened to its sentinel count) instead of a node-based
    // unordered_set.
    marking_store expanded(net.place_count());
    std::vector<std::int64_t> flat;
    flatten(tree.nodes.front().state, flat);
    expanded.intern(flat.data(), marking_store::hash_tokens(flat.data(), flat.size()));

    // Incremental enabled sets, exactly like the exploration engine: on
    // flattened counts (omega = its sentinel, which exceeds every arc
    // weight) detail::enabled_in coincides with omega_enabled, so a child's
    // enabled set is its parent's with only affected[t] re-checked — plus
    // the consumers of any place the acceleration pumped to omega, since
    // pumping can enable transitions t never touched.  The root's set is
    // the one full scan over T.
    const std::vector<std::vector<transition_id>> affected =
        detail::affected_transitions(net);
    std::vector<std::vector<transition_id>> enabled_of(1);
    for (transition_id t : net.transitions()) {
        if (omega_enabled(net, tree.nodes.front().state, t)) {
            enabled_of[0].push_back(t);
        }
    }

    std::vector<std::size_t> pumped;
    std::vector<transition_id> recheck;
    std::deque<std::size_t> frontier{0};
    while (!frontier.empty()) {
        const std::size_t node_index = frontier.front();
        frontier.pop_front();
        const std::vector<transition_id> enabled = std::move(enabled_of[node_index]);

        for (transition_id t : enabled) {
            omega_marking next = omega_fire(net, tree.nodes[node_index].state, t);

            // Acceleration: any strictly-dominated ancestor pumps its strictly
            // smaller components to omega.
            pumped.clear();
            std::size_t at = node_index;
            while (true) {
                const omega_marking& ancestor = tree.nodes[at].state;
                if (omega_leq(ancestor, next) && ancestor != next) {
                    for (std::size_t i = 0; i < next.size(); ++i) {
                        const bool strictly_greater =
                            !ancestor[i].is_omega() &&
                            (next[i].is_omega() || next[i].value > ancestor[i].value);
                        if (strictly_greater) {
                            if (!next[i].is_omega()) {
                                pumped.push_back(i);
                            }
                            next[i].value = omega_count::omega_value;
                        }
                    }
                }
                if (at == tree.nodes[at].parent) {
                    break;
                }
                at = tree.nodes[at].parent;
            }

            if (tree.nodes.size() >= options.max_nodes) {
                tree.truncated = true;
                return tree;
            }
            flatten(next, flat);
            const bool fresh =
                expanded
                    .intern(flat.data(),
                            marking_store::hash_tokens(flat.data(), flat.size()))
                    .second;
            const std::size_t child_index = tree.nodes.size();
            tree.nodes.push_back({std::move(next), node_index, t, {}});
            tree.nodes[node_index].children.emplace_back(t, child_index);
            if (fresh) {
                frontier.push_back(child_index);
                recheck.assign(affected[t.index()].begin(), affected[t.index()].end());
                for (const std::size_t place : pumped) {
                    for (const transition_weight& c :
                         net.consumers(place_id{static_cast<std::int32_t>(place)})) {
                        recheck.push_back(c.transition);
                    }
                }
                if (!pumped.empty()) {
                    std::sort(recheck.begin(), recheck.end());
                    recheck.erase(std::unique(recheck.begin(), recheck.end()),
                                  recheck.end());
                }
                enabled_of.resize(tree.nodes.size());
                detail::merge_enabled(net, enabled, recheck, flat.data(),
                                      enabled_of[child_index]);
            }
        }
    }
    return tree;
}

bool is_bounded(const coverability_tree& tree)
{
    for (const coverability_node& node : tree.nodes) {
        for (const omega_count& c : node.state) {
            if (c.is_omega()) {
                return false;
            }
        }
    }
    return true;
}

bool is_k_bounded(const coverability_tree& tree, std::int64_t k)
{
    for (const coverability_node& node : tree.nodes) {
        for (const omega_count& c : node.state) {
            if (c.is_omega() || c.value > k) {
                return false;
            }
        }
    }
    return true;
}

std::vector<place_id> unbounded_places(const coverability_tree& tree)
{
    if (tree.nodes.empty()) {
        return {};
    }
    std::vector<bool> unbounded(tree.nodes.front().state.size(), false);
    for (const coverability_node& node : tree.nodes) {
        for (std::size_t i = 0; i < node.state.size(); ++i) {
            if (node.state[i].is_omega()) {
                unbounded[i] = true;
            }
        }
    }
    std::vector<place_id> result;
    for (std::size_t i = 0; i < unbounded.size(); ++i) {
        if (unbounded[i]) {
            result.emplace_back(static_cast<std::int32_t>(i));
        }
    }
    return result;
}

bool is_coverable(const coverability_tree& tree, const marking& target)
{
    for (const coverability_node& node : tree.nodes) {
        bool covers = true;
        const auto& tokens = target.vector();
        if (tokens.size() != node.state.size()) {
            throw model_error("is_coverable: marking size mismatch");
        }
        for (std::size_t i = 0; i < tokens.size(); ++i) {
            if (!node.state[i].is_omega() && node.state[i].value < tokens[i]) {
                covers = false;
                break;
            }
        }
        if (covers) {
            return true;
        }
    }
    return false;
}

} // namespace fcqss::pn
