// perfbench — oracle.cpp
#include "oracle.hpp"

#include <algorithm>
#include <map>

#include "codegen/interpreter.hpp"
#include "nets/paper_nets.hpp"
#include "pn/net_class.hpp"
#include "pn/state_space.hpp"

namespace perfbench {

using namespace fcqss;

hand_game::hand_game(const pn::petri_net& net)
    : hand_game(net, net.initial_marking_vector())
{
}

hand_game::hand_game(const pn::petri_net& net, std::vector<std::int64_t> tokens)
    : net_(&net), tokens_(std::move(tokens))
{
}

bool hand_game::enabled(pn::transition_id t) const
{
    for (const pn::place_weight& in : net_->inputs(t)) {
        if (tokens_[in.place.index()] < in.weight) {
            return false;
        }
    }
    return true;
}

bool hand_game::fire(pn::transition_id t)
{
    if (!enabled(t)) {
        return false;
    }
    for (const pn::place_weight& in : net_->inputs(t)) {
        tokens_[in.place.index()] -= in.weight;
    }
    for (const pn::place_weight& out : net_->outputs(t)) {
        tokens_[out.place.index()] += out.weight;
    }
    return true;
}

bool hand_free_choice(const pn::petri_net& net)
{
    for (const pn::place_id p : net.places()) {
        const auto& consumers = net.consumers(p);
        if (consumers.size() < 2) {
            continue;
        }
        for (const pn::transition_weight& c : consumers) {
            if (net.inputs(c.transition).size() != 1 || c.weight != consumers[0].weight) {
                return false;
            }
        }
    }
    return true;
}

std::uint64_t allocation_product(const pn::petri_net& net)
{
    std::uint64_t product = 1;
    for (const pn::place_id p : net.places()) {
        const std::uint64_t fan_out = net.consumers(p).size();
        if (fan_out > 1) {
            product = product > (std::uint64_t{1} << 62) / fan_out ? (std::uint64_t{1} << 62)
                                                                   : product * fan_out;
        }
    }
    return product;
}

void check_cycles(const pn::petri_net& net, const std::vector<pn::firing_sequence>& cycles,
                  run_result& result, const std::string& label)
{
    for (std::size_t i = 0; i < cycles.size(); ++i) {
        const pn::firing_sequence& cycle = cycles[i];
        const std::string where = label + " cycle " + std::to_string(i);
        if (cycle.empty()) {
            result.mismatch(where + " is empty");
            continue;
        }
        pn::token_game game(net);
        if (game.run(cycle).has_value() || !game.at_initial()) {
            result.mismatch(where + " does not fire back to the initial marking on token_game");
        }
        hand_game hand(net);
        bool fired = true;
        for (const pn::transition_id t : cycle) {
            fired = fired && hand.fire(t);
        }
        if (!fired || hand.tokens() != net.initial_marking_vector()) {
            result.mismatch(where + " does not fire back to the initial marking by hand");
        }
    }
}

void check_program(const pn::petri_net& net, const cgen::generated_program& program,
                   std::uint64_t seed, int activations, run_result& result,
                   const std::string& label, std::uint64_t& instructions,
                   std::uint64_t& actions)
{
    std::vector<pn::transition_id> sources;
    for (const pn::transition_id t : net.transitions()) {
        if (net.inputs(t).empty()) {
            sources.push_back(t);
        }
    }
    if (sources.empty()) {
        result.mismatch(label + " has no source transition to activate");
        return;
    }
    rng random(seed);
    cgen::program_instance instance(program);
    hand_game hand(net);
    bool disabled_fired = false;
    const cgen::choice_oracle choose = [&](pn::place_id p) {
        return static_cast<int>(random.below(net.consumers(p).size()));
    };
    const cgen::action_observer replay = [&](pn::transition_id t) {
        ++actions;
        if (!hand.fire(t)) {
            disabled_fired = true;
        }
    };
    for (int i = 0; i < activations && !disabled_fired; ++i) {
        const pn::transition_id source = sources[random.below(sources.size())];
        instructions += static_cast<std::uint64_t>(
            instance.run_source(source, choose, replay).instructions);
    }
    if (disabled_fired) {
        result.mismatch(label + " generated code fired a disabled transition");
    }
}

namespace {

using parikh = std::map<std::string, int>;

parikh parikh_of(const pn::petri_net& net, const pn::firing_sequence& cycle)
{
    parikh counts;
    for (const pn::transition_id t : cycle) {
        ++counts[net.transition_name(t)];
    }
    return counts;
}

struct paper_case {
    const char* name;
    pn::petri_net net;
    bool schedulable;
    std::vector<parikh> cycles; // the paper's valid schedule, as Parikh vectors
};

} // namespace

void check_paper_nets(run_result& result, const std::string& corrupt)
{
    result.check("paper_net_verdicts");
    if (!pn::is_free_choice(nets::figure_1a()) || pn::is_free_choice(nets::figure_1b())) {
        result.mismatch("figure 1: free-choice verdicts differ from the paper");
    }
    // Sec. 2-3 of the paper: the published valid schedules.
    std::vector<paper_case> cases;
    cases.push_back({"figure_2", nets::figure_2(), true, {{{"t1", 4}, {"t2", 2}, {"t3", 1}}}});
    cases.push_back({"figure_3a", nets::figure_3a(), true,
                     {{{"t1", 1}, {"t2", 1}, {"t4", 1}}, {{"t1", 1}, {"t3", 1}, {"t5", 1}}}});
    cases.push_back({"figure_3b", nets::figure_3b(), false, {}});
    cases.push_back({"figure_4", nets::figure_4(), true,
                     {{{"t1", 2}, {"t2", 2}, {"t4", 1}}, {{"t1", 1}, {"t3", 1}, {"t5", 2}}}});
    cases.push_back(
        {"figure_5", nets::figure_5(), true,
         {{{"t1", 1}, {"t2", 1}, {"t4", 2}, {"t6", 5}, {"t8", 1}, {"t9", 1}},
          {{"t1", 1}, {"t3", 1}, {"t5", 1}, {"t6", 1}, {"t7", 2}, {"t8", 1}, {"t9", 1}}}});
    cases.push_back({"figure_7", nets::figure_7(), false, {}});
    for (paper_case& c : cases) {
        qss::qss_result schedule = qss::quasi_static_schedule(c.net);
        if (corrupt == "verdict" && std::string(c.name) == "figure_7") {
            schedule.schedulable = !schedule.schedulable;
        }
        if (schedule.schedulable != c.schedulable) {
            result.mismatch(std::string(c.name) + ": schedulability differs from the paper");
            continue;
        }
        if (!c.schedulable) {
            continue;
        }
        std::vector<parikh> got;
        for (const pn::firing_sequence& cycle : schedule.cycles()) {
            got.push_back(parikh_of(c.net, cycle));
        }
        std::sort(got.begin(), got.end());
        std::sort(c.cycles.begin(), c.cycles.end());
        if (got != c.cycles) {
            result.mismatch(std::string(c.name) + ": cycles differ from the paper's schedule");
        }
        check_cycles(c.net, schedule.cycles(), result, c.name);
    }
}

} // namespace perfbench
