// perfbench — oracle.hpp
// Output checks that do not reuse the code they check: verdicts the paper
// states, written out by hand; a hand-rolled firing rule that replays cycles,
// generated programs and exploration edges; and a structural free-choice
// test for the expected verdict of every generated net.
#ifndef PERFBENCH_ORACLE_HPP
#define PERFBENCH_ORACLE_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "codegen/c_ast.hpp"
#include "common.hpp"
#include "pn/petri_net.hpp"
#include "qss/scheduler.hpp"

namespace perfbench {

/// The firing rule straight from the arc lists: enabled iff every input
/// place holds at least its arc weight.
class hand_game {
public:
    explicit hand_game(const fcqss::pn::petri_net& net);
    explicit hand_game(const fcqss::pn::petri_net& net, std::vector<std::int64_t> tokens);
    [[nodiscard]] bool enabled(fcqss::pn::transition_id t) const;
    bool fire(fcqss::pn::transition_id t);
    [[nodiscard]] const std::vector<std::int64_t>& tokens() const { return tokens_; }

private:
    const fcqss::pn::petri_net* net_;
    std::vector<std::int64_t> tokens_;
};

/// True when every choice place's consumers have that place as their only
/// input and all take the same weight from it (equal-conflict free choice).
[[nodiscard]] bool hand_free_choice(const fcqss::pn::petri_net& net);

/// Product of choice fan-outs: the number of T-allocations of a free-choice
/// net.  Saturates at 2^62.
[[nodiscard]] std::uint64_t allocation_product(const fcqss::pn::petri_net& net);

/// Every cycle fires to completion from the initial marking on both
/// pn::token_game and hand_game and returns to the initial marking.
void check_cycles(const fcqss::pn::petri_net& net,
                  const std::vector<fcqss::pn::firing_sequence>& cycles,
                  run_result& result, const std::string& label);

/// Runs `activations` seeded source activations of the program in
/// cgen::program_instance with a seeded choice oracle, replaying every action
/// on hand_game; any action fired while disabled is a mismatch.  Adds the
/// interpreter's instructions and actions to the totals.
void check_program(const fcqss::pn::petri_net& net,
                   const fcqss::cgen::generated_program& program, std::uint64_t seed,
                   int activations, run_result& result, const std::string& label,
                   std::uint64_t& instructions, std::uint64_t& actions);

/// The paper's stated verdicts for nets::figure_*: free-choice class,
/// schedulability, and the Parikh vector of every cycle of the valid
/// schedule.  `corrupt == "verdict"` flips one computed verdict first.
void check_paper_nets(run_result& result, const std::string& corrupt);

} // namespace perfbench

#endif // PERFBENCH_ORACLE_HPP
