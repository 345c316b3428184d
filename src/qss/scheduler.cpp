#include "qss/scheduler.hpp"

#include <cstdint>
#include <functional>
#include <unordered_map>

#include "base/error.hpp"
#include "obs/obs.hpp"
#include "pn/net_class.hpp"
#include "qss/reduction_internal.hpp"

namespace fcqss::qss {

std::vector<pn::firing_sequence> qss_result::cycles() const
{
    std::vector<pn::firing_sequence> result;
    result.reserve(entries.size());
    for (const schedule_entry& entry : entries) {
        result.push_back(entry.analysis.cycle);
    }
    return result;
}

namespace {

/// Work done by one enumeration, flushed to the qss.* counters once per
/// schedule so the search itself never touches an atomic.
struct enumeration_stats {
    std::uint64_t nodes = 0;  ///< search nodes: the root plus one per branch taken
    std::uint64_t pruned = 0; ///< don't-care clusters fixed without branching
};

void flush_obs(const qss_result& result, const enumeration_stats& stats)
{
    if (!obs::stats_enabled()) {
        return;
    }
    static obs::counter& computed = obs::get_counter("qss.reductions_computed");
    static obs::counter& unique = obs::get_counter("qss.reductions_distinct");
    static obs::counter& nodes = obs::get_counter("qss.dfs_nodes");
    static obs::counter& pruned = obs::get_counter("qss.pruned_clusters");
    computed.add(result.reductions_computed);
    unique.add(result.entries.size());
    nodes.add(stats.nodes);
    pruned.add(stats.pruned);
}

std::size_t subnet_hash(const t_reduction& reduction)
{
    const std::hash<std::vector<bool>> hash;
    return hash(reduction.keep_transition) * 31 + hash(reduction.keep_place);
}

// The depth-first search described in scheduler.hpp.  Fills result.entries
// with the distinct reductions in lexicographic order of their first
// allocation.
void enumerate_reductions(const pn::petri_net& net, const scheduler_options& options,
                          qss_result& result, enumeration_stats& stats)
{
    const std::vector<choice_cluster>& clusters = result.clusters;
    t_allocation allocation;
    allocation.chosen.resize(clusters.size());
    std::unordered_multimap<std::size_t, std::size_t> seen; // subnet hash -> entry

    // `reduction` is the leaf's prefix reduction.  Every cluster past the
    // prefix is a don't-care whose alternatives that prefix already removed,
    // so it equals reduce() on the full allocation (scheduler.hpp, (1));
    // reduce() runs again only to record the trace.
    const auto visit_leaf = [&](t_reduction&& reduction) {
        if (result.reductions_computed >= options.max_allocations) {
            throw resource_limit_error(
                "quasi_static_schedule: more than " +
                std::to_string(options.max_allocations) +
                " T-reductions to compute, over the configured limit (allocation "
                "space " +
                std::to_string(result.allocations_enumerated) + ")");
        }
        ++result.reductions_computed;
        if (options.record_traces) {
            reduction = reduce(net, clusters, allocation, true);
        } else {
            reduction.allocation = allocation;
        }
        const std::size_t hash = subnet_hash(reduction);
        const auto [first, last] = seen.equal_range(hash);
        for (auto it = first; it != last; ++it) {
            if (result.entries[it->second].reduction.same_subnet(reduction)) {
                return; // a lexicographically smaller allocation got here first
            }
        }
        seen.emplace(hash, result.entries.size());
        result.entries.push_back({std::move(reduction), {}});
    };

    // Explicit stack (nets can carry hundreds of clusters): one frame per
    // cluster the current path branches on, with the next alternative to try.
    struct branch {
        std::size_t cluster;
        std::size_t next;
    };
    std::vector<branch> stack;

    // Enters the node whose clusters [0, from) are fixed and whose prefix
    // reduction is `prefix`: fixes the don't-care clusters that follow, then
    // branches on the first cluster still live or, when none is left,
    // computes the leaf.
    const auto enter = [&](std::size_t from, t_reduction&& prefix) {
        ++stats.nodes;
        const std::vector<bool>& keep_place = prefix.keep_place;
        std::size_t i = from;
        for (; i < clusters.size() && !keep_place[clusters[i].place.index()]; ++i) {
            allocation.chosen[i] = clusters[i].alternatives.front();
            ++stats.pruned;
        }
        if (i == clusters.size()) {
            visit_leaf(std::move(prefix));
        } else {
            stack.push_back({i, 0});
        }
    };

    enter(0, detail::prefix_reduction(net, clusters, allocation, 0));
    while (!stack.empty()) {
        const std::size_t i = stack.back().cluster;
        const std::vector<pn::transition_id>& alternatives = clusters[i].alternatives;
        if (stack.back().next == alternatives.size()) {
            stack.pop_back();
            continue;
        }
        allocation.chosen[i] = alternatives[stack.back().next++];
        enter(i + 1, detail::prefix_reduction(net, clusters, allocation, i + 1));
    }
}

} // namespace

qss_result quasi_static_schedule(const pn::petri_net& net,
                                 const scheduler_options& options)
{
    qss_result result;
    result.clusters = choice_clusters(net); // validates free choice
    result.allocations_enumerated = allocation_count(result.clusters);

    enumeration_stats stats;
    {
        obs::span span("qss.enumerate", "clusters",
                       static_cast<std::int64_t>(result.clusters.size()));
        try {
            enumerate_reductions(net, options, result, stats);
        } catch (const resource_limit_error&) {
            flush_obs(result, stats);
            throw;
        }
        span.arg("reductions", static_cast<std::int64_t>(result.reductions_computed));
    }
    flush_obs(result, stats);

    // Def. 3.5 on every distinct reduction; Theorem 3.1 assembles the verdict.
    obs::span check_span("qss.check", "reductions",
                         static_cast<std::int64_t>(result.entries.size()));
    bool all_ok = true;
    for (schedule_entry& entry : result.entries) {
        entry.analysis = schedule_reduction(net, result.clusters, entry.reduction);
        if (!entry.analysis.ok()) {
            all_ok = false;
            if (result.failure == reduction_failure::none) {
                result.failure = entry.analysis.failure;
            }
            if (!result.diagnosis.empty()) {
                result.diagnosis += "; ";
            }
            result.diagnosis += "T-reduction for allocation " +
                                to_string(net, result.clusters,
                                          entry.reduction.allocation) +
                                " is " + to_string(entry.analysis.failure);
            if (!entry.analysis.offending.empty()) {
                result.diagnosis += " (";
                for (std::size_t i = 0; i < entry.analysis.offending.size(); ++i) {
                    if (i != 0) {
                        result.diagnosis += ", ";
                    }
                    result.diagnosis += net.transition_name(entry.analysis.offending[i]);
                }
                result.diagnosis += ")";
            }
        }
    }
    result.schedulable = all_ok;
    return result;
}

} // namespace fcqss::qss
