// Differential oracle for the scheduler's output-sensitive enumeration.
// quasi_static_schedule searches the choice clusters depth-first and keeps
// one representative allocation per leaf; the reference below is the plain
// algorithm it replaced: enumerate the whole allocation product in
// lexicographic order, reduce every allocation, and keep each subnet's first
// occurrence by a linear scan.  The two must agree exactly — entry count and
// order, keep-bitmaps, representative allocation, recorded traces, verdict,
// failure class, diagnosis text and the emitted C, with traces recorded and
// without (the two take different leaf paths) — on the paper nets, the
// fuzz corpus, generated fc and choice-heavy nets over every allocation-count
// stratum up to 2^12, and pn::mutate mutants (self-loops and arc weights are
// where reduction rules b.ii and c.ii interact).  The file also pins the cap
// semantics: max_allocations bounds the reductions computed, not the product.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "base/error.hpp"
#include "codegen/c_emitter.hpp"
#include "codegen/task_codegen.hpp"
#include "nets/paper_nets.hpp"
#include "pipeline/net_generator.hpp"
#include "pn/builder.hpp"
#include "pn/mutator.hpp"
#include "pnio/parser.hpp"
#include "qss/reduction.hpp"
#include "qss/scheduler.hpp"
#include "qss/t_allocation.hpp"
#include "qss/task_partition.hpp"

#ifndef FCQSS_CORPUS_DIR
#error "FCQSS_CORPUS_DIR must point at tests/corpus (set by CMakeLists.txt)"
#endif

namespace fcqss::qss {
namespace {

/// Allocation-space strata covered by the generated sets: 2^0 .. 2^12.
constexpr std::size_t max_stratum = 12;

/// The reference: reduce every allocation of the product, dedupe linearly,
/// then Def. 3.5 on each distinct reduction in first-occurrence order.
qss_result reference_schedule(const pn::petri_net& net)
{
    qss_result result;
    result.clusters = choice_clusters(net);
    const std::vector<t_allocation> allocations =
        enumerate_allocations(result.clusters, std::size_t{1} << max_stratum << 1);
    result.allocations_enumerated = allocations.size();
    for (const t_allocation& allocation : allocations) {
        const t_reduction reduction = reduce(net, result.clusters, allocation);
        const bool seen = std::any_of(result.entries.begin(), result.entries.end(),
                                      [&](const schedule_entry& entry) {
                                          return entry.reduction.same_subnet(reduction);
                                      });
        if (!seen) {
            // The first occurrence keeps its trace (recorded only here, for speed).
            result.entries.push_back(
                {reduce(net, result.clusters, allocation, true), {}});
        }
    }
    bool all_ok = true;
    for (schedule_entry& entry : result.entries) {
        entry.analysis = schedule_reduction(net, result.clusters, entry.reduction);
        if (entry.analysis.ok()) {
            continue;
        }
        all_ok = false;
        if (result.failure == reduction_failure::none) {
            result.failure = entry.analysis.failure;
        }
        if (!result.diagnosis.empty()) {
            result.diagnosis += "; ";
        }
        result.diagnosis += "T-reduction for allocation " +
                            to_string(net, result.clusters, entry.reduction.allocation) +
                            " is " + to_string(entry.analysis.failure);
        if (!entry.analysis.offending.empty()) {
            result.diagnosis += " (";
            for (std::size_t i = 0; i < entry.analysis.offending.size(); ++i) {
                result.diagnosis += (i != 0 ? ", " : "") +
                                    net.transition_name(entry.analysis.offending[i]);
            }
            result.diagnosis += ")";
        }
    }
    result.schedulable = all_ok;
    return result;
}

/// The emitted C of a schedulable result, or the exception text when a
/// downstream stage rejects it (both sides must reject alike).
std::string emitted_c(const pn::petri_net& net, const qss_result& result)
{
    if (!result.schedulable) {
        return {};
    }
    try {
        const task_partition partition = partition_tasks(net, result);
        return cgen::emit_c(cgen::generate_program(net, result, partition));
    } catch (const std::exception& e) {
        return std::string("threw: ") + e.what();
    }
}

bool same_trace(const std::vector<reduction_step>& a,
                const std::vector<reduction_step>& b)
{
    return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                      [](const reduction_step& x, const reduction_step& y) {
                          return x.action == y.action && x.node == y.node &&
                                 x.reason == y.reason;
                      });
}

/// Allocation-space size of a free-choice net, or 0 when it is out of class.
std::size_t space_of(const pn::petri_net& net)
{
    try {
        return allocation_count(choice_clusters(net));
    } catch (const domain_error&) {
        return 0;
    }
}

std::size_t stratum_of(std::size_t space)
{
    std::size_t stratum = 0;
    while (space > 1) {
        space >>= 1;
        ++stratum;
    }
    return stratum;
}

/// Checks one quasi_static_schedule result against the reference.  With
/// traces off the scheduler takes its leaves' reductions from the search
/// itself instead of calling reduce(), so both settings are checked.
void expect_same(const pn::petri_net& net, const qss_result& fast, const qss_result& slow,
                 bool traced)
{
    SCOPED_TRACE(traced ? "record_traces on" : "record_traces off");
    EXPECT_EQ(fast.allocations_enumerated, slow.allocations_enumerated);
    EXPECT_EQ(fast.schedulable, slow.schedulable);
    EXPECT_EQ(fast.failure, slow.failure);
    EXPECT_EQ(fast.diagnosis, slow.diagnosis);
    EXPECT_EQ(fast.entries.size(), slow.entries.size());
    const std::size_t shared = std::min(fast.entries.size(), slow.entries.size());
    for (std::size_t i = 0; i < shared; ++i) {
        SCOPED_TRACE("entry " + std::to_string(i));
        const schedule_entry& f = fast.entries[i];
        const schedule_entry& s = slow.entries[i];
        EXPECT_EQ(f.reduction.keep_transition, s.reduction.keep_transition);
        EXPECT_EQ(f.reduction.keep_place, s.reduction.keep_place);
        EXPECT_EQ(f.reduction.allocation, s.reduction.allocation);
        if (traced) {
            EXPECT_TRUE(same_trace(f.reduction.trace, s.reduction.trace));
        } else {
            EXPECT_TRUE(f.reduction.trace.empty());
        }
        EXPECT_EQ(f.analysis.failure, s.analysis.failure);
        EXPECT_EQ(f.analysis.cycle, s.analysis.cycle);
    }
    EXPECT_EQ(emitted_c(net, fast), emitted_c(net, slow));
}

/// Checks quasi_static_schedule, with traces on and off, against the
/// reference on one net; returns the number of distinct reductions (0 when
/// out of class).
std::size_t expect_agreement(const pn::petri_net& net)
{
    SCOPED_TRACE(net.name());
    if (space_of(net) == 0) {
        EXPECT_THROW((void)quasi_static_schedule(net), domain_error);
        return 0;
    }
    const qss_result slow = reference_schedule(net);
    scheduler_options options;
    options.record_traces = true;
    const qss_result fast = quasi_static_schedule(net, options);
    expect_same(net, fast, slow, true);
    options.record_traces = false;
    expect_same(net, quasi_static_schedule(net, options), slow, false);
    return fast.entries.size();
}

bool has_self_loop(const pn::petri_net& net)
{
    for (pn::transition_id t : net.transitions()) {
        for (const pn::place_weight& in : net.inputs(t)) {
            for (const pn::place_weight& out : net.outputs(t)) {
                if (in.place == out.place) {
                    return true;
                }
            }
        }
    }
    return false;
}

/// Up to `per_stratum` in-class nets from each stratum 0..max_stratum among
/// the first `scan` nets of a generator stream.
std::vector<pn::petri_net> stratified(std::uint64_t seed, pipeline::net_family family,
                                      std::size_t scan, std::size_t per_stratum)
{
    pipeline::generator_options options;
    options.family = family;
    options.defect_percent = 10;
    pipeline::net_generator generator(seed, options);
    std::vector<std::size_t> taken(max_stratum + 1, 0);
    std::vector<pn::petri_net> nets;
    for (std::size_t n = 0; n < scan; ++n) {
        pn::petri_net net = generator.next();
        const std::size_t space = space_of(net);
        if (space == 0 || stratum_of(space) > max_stratum) {
            continue;
        }
        std::size_t& count = taken[stratum_of(space)];
        if (count < per_stratum) {
            ++count;
            nets.push_back(std::move(net));
        }
    }
    return nets;
}

/// A choice nested `depth` deep inside one alternative of a top-level
/// choice: choice i's first alternative leads to choice i + 1, its second
/// drains to a sink.  The allocation space is 2^(depth + 1) while only
/// depth + 2 allocations matter (where the chain turns off, or the other
/// top-level branch).
pn::petri_net nested_choice_chain(int depth)
{
    pn::net_builder b("nested_chain_" + std::to_string(depth));
    const auto source = b.add_transition("src");
    const auto top = b.add_place("top");
    b.add_arc(source, top);
    const auto other = b.add_transition("other");
    b.add_arc(top, other);
    const auto enter = b.add_transition("enter");
    b.add_arc(top, enter);
    pn::transition_id into = enter;
    for (int i = 0; i < depth; ++i) {
        const std::string n = std::to_string(i);
        const auto choice = b.add_place("c" + n);
        b.add_arc(into, choice);
        const auto deeper = b.add_transition("deeper" + n);
        const auto leave = b.add_transition("leave" + n);
        b.add_arc(choice, deeper);
        b.add_arc(choice, leave);
        into = deeper;
    }
    return std::move(b).build();
}

TEST(qss_enumeration, paper_nets_match_reference)
{
    for (const pn::petri_net& net :
         {nets::figure_1a(), nets::figure_1b(), nets::figure_2(), nets::figure_3a(),
          nets::figure_3b(), nets::figure_4(), nets::figure_5(), nets::figure_7()}) {
        expect_agreement(net);
    }
}

TEST(qss_enumeration, corpus_matches_reference)
{
    std::size_t checked = 0;
    for (const auto& entry : std::filesystem::directory_iterator(FCQSS_CORPUS_DIR)) {
        if (entry.path().extension() != ".pn") {
            continue;
        }
        std::ifstream in(entry.path());
        std::ostringstream text;
        text << in.rdbuf();
        expect_agreement(pnio::parse_net(text.str()));
        ++checked;
    }
    EXPECT_GE(checked, 20u);
}

TEST(qss_enumeration, generated_strata_match_reference)
{
    struct stream {
        std::uint64_t seed;
        pipeline::net_family family;
    };
    const stream streams[] = {{1, pipeline::net_family::free_choice},
                              {3, pipeline::net_family::free_choice},
                              {7, pipeline::net_family::free_choice},
                              {5, pipeline::net_family::choice_heavy}};
    std::vector<std::size_t> covered(max_stratum + 1, 0);
    for (const stream& s : streams) {
        for (const pn::petri_net& net : stratified(s.seed, s.family, 1500, 1)) {
            expect_agreement(net);
            ++covered[stratum_of(space_of(net))];
        }
    }
    for (std::size_t stratum = 0; stratum <= max_stratum; ++stratum) {
        EXPECT_GT(covered[stratum], 0u) << "no net in stratum 2^" << stratum;
    }
}

TEST(qss_enumeration, mutants_match_reference)
{
    pn::mutation_options mutations;
    mutations.count = 5;
    std::size_t in_class = 0;
    std::size_t self_loops = 0;
    const std::vector<pn::petri_net> bases =
        stratified(11, pipeline::net_family::free_choice, 400, 1);
    for (std::uint64_t seed = 1; seed <= 400; ++seed) {
        const pn::petri_net& base = bases[seed % bases.size()];
        const pn::petri_net mutant = pn::mutate(base, seed, mutations).net;
        // Up to 2^10: the strata test covers the large spaces, and the
        // sanitizer job runs this file too.
        const std::size_t space = space_of(mutant);
        if (space > (std::size_t{1} << 10)) {
            continue;
        }
        in_class += space > 0 ? 1 : 0;
        self_loops += space > 0 && has_self_loop(mutant) ? 1 : 0;
        expect_agreement(mutant);
    }
    EXPECT_GE(in_class, 100u);
    EXPECT_GE(self_loops, 10u);
}

TEST(qss_enumeration, nested_choices_prune_to_the_reductions)
{
    const pn::petri_net net = nested_choice_chain(12);
    EXPECT_EQ(expect_agreement(net), 14u);

    scheduler_options options;
    options.max_allocations = 64;
    const qss_result result = quasi_static_schedule(net, options);
    EXPECT_TRUE(result.schedulable) << result.diagnosis;
    EXPECT_EQ(result.allocations_enumerated, std::size_t{1} << 13);
    EXPECT_EQ(result.reductions_computed, 14u);
    EXPECT_EQ(result.entries.size(), 14u);

    options.max_allocations = 13;
    EXPECT_THROW((void)quasi_static_schedule(net, options), resource_limit_error);
}

} // namespace
} // namespace fcqss::qss
