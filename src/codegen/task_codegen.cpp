#include "codegen/task_codegen.hpp"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "base/error.hpp"
#include "base/strings.hpp"
#include "pn/firing.hpp"
#include "qss/tradeoff.hpp"

namespace fcqss::cgen {

namespace {

// Per-program facts shared by all fragment generators.
struct generation_context {
    const pn::petri_net& net;
    const std::vector<qss::choice_cluster>& clusters;
    codegen_options options;

    // cluster_of[p] = index into clusters, or SIZE_MAX.
    std::vector<std::size_t> cluster_of;
    // Places whose counter can be elided (tokens never persist).
    std::vector<bool> elidable;
    // Places where some producer over-delivers (=> while instead of if).
    std::vector<bool> needs_while;
    // Places whose counter was actually referenced by emitted code.
    std::vector<bool> counter_used;
    // Transitions reachable downstream of each place (emission ordering).
    std::vector<std::size_t> downstream_size;

    generation_context(const pn::petri_net& n, const std::vector<qss::choice_cluster>& cl,
                       const codegen_options& opt)
        : net(n), clusters(cl), options(opt)
    {
        cluster_of.assign(net.place_count(), SIZE_MAX);
        for (std::size_t i = 0; i < clusters.size(); ++i) {
            cluster_of[clusters[i].place.index()] = i;
        }
        elidable.assign(net.place_count(), false);
        needs_while.assign(net.place_count(), false);
        counter_used.assign(net.place_count(), false);
        downstream_size.assign(net.place_count(), 0);
        for (pn::place_id p : net.places()) {
            if (options.elide_trivial_counters) {
                elidable[p.index()] = compute_elidable(p);
            }
            needs_while[p.index()] = compute_needs_while(p);
            downstream_size[p.index()] = compute_downstream_size(p);
        }
    }

    // Number of transitions reachable downstream of p.  Used to order a
    // transition's output emissions so the bulkiest subtree sits in tail
    // position, maximizing goto-shared merge suffixes (the outputs are
    // concurrent in the net, so any order is a valid serialization).
    [[nodiscard]] std::size_t compute_downstream_size(pn::place_id start) const
    {
        std::vector<bool> seen(net.transition_count(), false);
        std::vector<pn::place_id> frontier{start};
        std::vector<bool> seen_place(net.place_count(), false);
        seen_place[start.index()] = true;
        std::size_t count = 0;
        while (!frontier.empty()) {
            const pn::place_id p = frontier.back();
            frontier.pop_back();
            for (const pn::transition_weight& consumer : net.consumers(p)) {
                if (seen[consumer.transition.index()]) {
                    continue;
                }
                seen[consumer.transition.index()] = true;
                ++count;
                for (const pn::place_weight& out : net.outputs(consumer.transition)) {
                    if (!seen_place[out.place.index()]) {
                        seen_place[out.place.index()] = true;
                        frontier.push_back(out.place);
                    }
                }
            }
        }
        return count;
    }

    // A counter is unnecessary when tokens can never persist past the
    // producing activation: the place starts empty, every producer delivers
    // exactly the consumption weight, and the consumer does not wait on
    // other inputs (not a join).
    [[nodiscard]] bool compute_elidable(pn::place_id p) const
    {
        if (net.initial_tokens(p) != 0) {
            return false;
        }
        const auto& consumers = net.consumers(p);
        if (consumers.empty()) {
            return false; // sink place: counter observes emitted tokens
        }
        const std::int64_t consume_weight = consumers.front().weight;
        for (const pn::transition_weight& consumer : consumers) {
            if (consumer.weight != consume_weight) {
                return false;
            }
            if (net.inputs(consumer.transition).size() > 1) {
                return false; // join: tokens may wait for the partner input
            }
        }
        const auto& producers = net.producers(p);
        if (producers.empty()) {
            return false;
        }
        for (const pn::transition_weight& producer : producers) {
            if (producer.weight != consume_weight) {
                return false;
            }
        }
        return true;
    }

    // `while` is required when one arrival can enable several consumer
    // firings (some producer delivers more than one consumption's worth, or
    // the consumer joins several places whose backlog may already suffice).
    [[nodiscard]] bool compute_needs_while(pn::place_id p) const
    {
        const auto& consumers = net.consumers(p);
        if (consumers.empty()) {
            return false;
        }
        const std::int64_t consume_weight = consumers.front().weight;
        for (const pn::transition_weight& producer : net.producers(p)) {
            if (producer.weight > consume_weight) {
                return true;
            }
        }
        for (const pn::transition_weight& consumer : consumers) {
            if (net.inputs(consumer.transition).size() > 1) {
                return true;
            }
        }
        return false;
    }
};

// Generates one fragment: the reaction to a single firing of `driver`.
class fragment_generator {
public:
    explicit fragment_generator(generation_context& ctx) : ctx_(ctx) {}

    block generate(pn::transition_id driver, bool driver_is_source)
    {
        block body;
        if (driver_is_source) {
            emit_transition_body(driver, body, /*tail=*/true);
        } else {
            // Autonomous driver (net without sources): fire while its input
            // backlog allows, like any other guarded unit.
            emit_consumer_unit(driver, /*use_while=*/true, body, /*tail=*/true);
        }
        prune_unused_labels(body);
        return body;
    }

private:
    // Emits action + downstream propagation of t into `out`.  Consumption
    // from t's input places is the caller's responsibility.  Only the last
    // output place inherits tail position.
    void emit_transition_body(pn::transition_id t, block& out, bool tail)
    {
        if (++emitted_ > 100000) {
            throw error("task_codegen: generated code exceeds the statement limit "
                        "(merge duplication blow-up)");
        }
        out.push_back(make_action(t));

        // Self-loop (read-modify-write state) places only need their counter
        // restored: the enclosing guard re-reads them, and dispatching would
        // just re-emit this very unit.
        std::vector<pn::place_weight> outputs;
        for (const pn::place_weight& arc : ctx_.net.outputs(t)) {
            if (is_self_loop(t, arc.place)) {
                if (!ctx_.elidable[arc.place.index()]) {
                    ctx_.counter_used[arc.place.index()] = true;
                    out.push_back(make_counter_add(arc.place, arc.weight));
                }
            } else {
                outputs.push_back(arc);
            }
        }
        std::stable_sort(outputs.begin(), outputs.end(),
                         [&](const pn::place_weight& a, const pn::place_weight& b) {
                             return ctx_.downstream_size[a.place.index()] <
                                    ctx_.downstream_size[b.place.index()];
                         });
        for (std::size_t i = 0; i < outputs.size(); ++i) {
            emit_place_production(outputs[i].place, outputs[i].weight, out,
                                  tail && i + 1 == outputs.size());
        }
    }

    [[nodiscard]] bool is_self_loop(pn::transition_id t, pn::place_id p) const
    {
        for (const pn::transition_weight& consumer : ctx_.net.consumers(p)) {
            if (consumer.transition == t) {
                return true;
            }
        }
        return false;
    }

    // Token production into p: bump the counter, then dispatch to the
    // consumer unit (guard + firing).  Revisits of a unit are resolved by
    // goto — the paper's "already visited" rule:
    //  * a unit higher up the current path is a cycle; the backward goto
    //    re-runs its guard with the freshly added tokens;
    //  * a unit previously emitted in *tail position* (nothing following it
    //    up to the fragment root) is a merge; jumping into it is safe
    //    because no branch-specific code can follow the shared suffix.
    // Anything else is duplicated.
    void emit_place_production(pn::place_id p, std::int64_t produced, block& out,
                               bool tail)
    {
        const bool elided = ctx_.elidable[p.index()];
        if (!elided) {
            ctx_.counter_used[p.index()] = true;
            out.push_back(make_counter_add(p, produced));
        }
        const auto& consumers = ctx_.net.consumers(p);
        if (consumers.empty()) {
            return; // sink place: tokens leave for the environment
        }

        // `if` preserves initial-marking slack for one-shot arrivals;
        // `while` drains multi-token arrivals and join backlogs.
        const bool use_while =
            ctx_.needs_while[p.index()] || produced_forces_while(p, produced);

        std::string unit_key = "p";
        unit_key += std::to_string(p.value());
        const auto on_path = on_path_label_.find(unit_key);
        if (on_path != on_path_label_.end()) {
            used_labels_.insert(on_path->second);
            out.push_back(make_goto(on_path->second));
            return;
        }
        const auto merged = tail_merge_label_.find(unit_key);
        if (tail && merged != tail_merge_label_.end() &&
            merged->second.second == use_while) {
            used_labels_.insert(merged->second.first);
            out.push_back(make_goto(merged->second.first));
            return;
        }

        // Unique per emission instance: duplicated units may each own a
        // cycle, so labels cannot be reused across copies.
        const std::string label = "L_" + sanitize_c_identifier(ctx_.net.place_name(p)) +
                                  "_" + std::to_string(label_serial_++);
        out.push_back(make_label(label));
        on_path_label_.emplace(unit_key, label);
        if (tail) {
            tail_merge_label_.emplace(unit_key, std::make_pair(label, use_while));
        }

        const std::size_t cluster_index = ctx_.cluster_of[p.index()];
        if (cluster_index != SIZE_MAX) {
            emit_choice_unit(p, cluster_index, elided, use_while, out, tail);
        } else {
            emit_single_consumer_unit(p, elided, use_while, out, tail);
        }
        on_path_label_.erase(unit_key);
    }

    [[nodiscard]] bool produced_forces_while(pn::place_id p, std::int64_t produced) const
    {
        const auto& consumers = ctx_.net.consumers(p);
        return !consumers.empty() && produced > consumers.front().weight;
    }

    void emit_choice_unit(pn::place_id p, std::size_t cluster_index, bool elided,
                          bool use_while, block& out, bool tail)
    {
        const qss::choice_cluster& cluster = ctx_.clusters[cluster_index];
        const std::int64_t consume =
            ctx_.net.consumers(p).front().weight; // equal across the cluster

        std::vector<block> branches;
        for (pn::transition_id alternative : cluster.alternatives) {
            block branch;
            // Free choice: the alternative's only input is the choice place,
            // whose tokens the guard below already consumed.
            require_internal(ctx_.net.inputs(alternative).size() == 1,
                             "task_codegen: choice alternative with extra inputs");
            emit_transition_body(alternative, branch, tail);
            branches.push_back(std::move(branch));
        }
        stmt choice = make_choice(p, cluster.alternatives, std::move(branches));

        if (elided) {
            out.push_back(std::move(choice));
            return;
        }
        block body;
        body.push_back(make_counter_add(p, -consume));
        body.push_back(std::move(choice));
        guard g;
        g.tests.push_back({p, consume});
        // Each loop iteration re-queries the choice hook: every control
        // token carries its own value.
        out.push_back(use_while ? make_while(std::move(g), std::move(body))
                                : make_if(std::move(g), std::move(body)));
    }

    void emit_single_consumer_unit(pn::place_id p, bool elided, bool use_while,
                                   block& out, bool tail)
    {
        const pn::transition_weight consumer = ctx_.net.consumers(p).front();
        if (elided) {
            // Exactly one firing per producing event; no counters involved.
            emit_transition_body(consumer.transition, out, tail);
            return;
        }
        emit_consumer_unit(consumer.transition, use_while, out, tail);
    }

    // Guard + fire for a transition whose inputs are all counted: test every
    // input counter (joins wait for all operands), decrement, fire.
    void emit_consumer_unit(pn::transition_id u, bool use_while, block& out, bool tail)
    {
        guard g;
        block body;
        for (const pn::place_weight& in : ctx_.net.inputs(u)) {
            ctx_.counter_used[in.place.index()] = true;
            g.tests.push_back({in.place, in.weight});
            body.push_back(make_counter_add(in.place, -in.weight));
        }
        emit_transition_body(u, body, tail);
        out.push_back(use_while ? make_while(std::move(g), std::move(body))
                                : make_if(std::move(g), std::move(body)));
    }

    void prune_unused_labels(block& b)
    {
        std::erase_if(b, [&](const stmt& s) {
            return s.k == stmt::kind::label && !used_labels_.contains(s.text);
        });
        for (stmt& s : b) {
            prune_unused_labels(s.body);
            for (block& branch : s.branches) {
                prune_unused_labels(branch);
            }
        }
    }

    generation_context& ctx_;
    std::unordered_map<std::string, std::string> on_path_label_;
    // unit key -> (label, use_while) of its tail-position emission.
    std::unordered_map<std::string, std::pair<std::string, bool>> tail_merge_label_;
    std::unordered_set<std::string> used_labels_;
    std::size_t emitted_ = 0;
    std::size_t label_serial_ = 0;
};

} // namespace

generated_program generate_program(const pn::petri_net& net,
                                   const qss::qss_result& result,
                                   const qss::task_partition& partition,
                                   const codegen_options& options)
{
    if (!result.schedulable) {
        throw domain_error("generate_program: net is not quasi-statically schedulable");
    }

    generation_context ctx(net, result.clusters, options);

    // Autonomous drivers consume through explicit counters; make sure their
    // input places are never elided (an elided producer site would bypass
    // the counters the driver's guard reads).
    const pn::marking m0 = pn::initial_marking(net);
    for (const qss::task_group& group : partition.tasks) {
        if (!group.sources.empty()) {
            continue;
        }
        for (pn::transition_id t : group.members) {
            if (pn::is_enabled(net, m0, t)) {
                for (const pn::place_weight& in : net.inputs(t)) {
                    ctx.elidable[in.place.index()] = false;
                }
            }
        }
    }

    generated_program program;
    program.name = net.name();

    for (const qss::task_group& group : partition.tasks) {
        task_code task;
        task.name = group.name;

        std::vector<pn::transition_id> drivers = group.sources;
        const bool drivers_are_sources = !drivers.empty();
        if (!drivers_are_sources) {
            for (pn::transition_id t : group.members) {
                if (pn::is_enabled(net, m0, t)) {
                    drivers.push_back(t);
                }
            }
        }
        for (pn::transition_id driver : drivers) {
            fragment f;
            f.source = driver;
            f.function_name =
                group.name + "_on_" + sanitize_c_identifier(net.transition_name(driver));
            fragment_generator generator(ctx);
            f.body = generator.generate(driver, drivers_are_sources);
            task.fragments.push_back(std::move(f));
        }
        program.tasks.push_back(std::move(task));
    }

    // Counter declarations for every counter the code references, annotated
    // with the peak fill the valid schedule exhibits (buffer sizing).
    std::vector<std::int64_t> peaks;
    if (options.annotate_counter_bounds) {
        peaks = qss::schedule_buffer_bounds(net, result);
    }
    for (pn::place_id p : net.places()) {
        if (ctx.counter_used[p.index()]) {
            counter_decl decl;
            decl.place = p;
            decl.name = "count_" + sanitize_c_identifier(net.place_name(p));
            decl.initial = net.initial_tokens(p);
            if (!peaks.empty()) {
                decl.peak_bound = peaks[p.index()];
            }
            program.counters.push_back(std::move(decl));
        }
    }

    // Hook names.
    program.action_names.resize(net.transition_count());
    for (pn::transition_id t : net.transitions()) {
        program.action_names[t.index()] =
            "action_" + sanitize_c_identifier(net.transition_name(t));
    }
    program.choice_names.assign(net.place_count(), "");
    program.choice_arity.assign(net.place_count(), 0);
    for (const qss::choice_cluster& cluster : result.clusters) {
        program.choice_names[cluster.place.index()] =
            "choice_" + sanitize_c_identifier(net.place_name(cluster.place));
        program.choice_arity[cluster.place.index()] =
            static_cast<int>(cluster.alternatives.size());
    }
    return program;
}

} // namespace fcqss::cgen
