// fcqss — qss/scheduler.hpp
// The complete QSS pipeline (Sec. 3): enumerate the distinct T-reductions,
// check Def. 3.5 on each, and assemble the valid schedule — one finite
// complete cycle per distinct T-reduction.  By Theorem 3.1 the net is
// quasi-statically schedulable iff every reduction passes; the algorithm is
// complete for free-choice nets.
//
// Enumeration is output-sensitive.  T-allocations that differ only inside
// removed branches give the same T-reduction (Sec. 3), so instead of
// reducing every allocation of the product, the scheduler runs a depth-first
// search over the choice clusters in cluster order.  At each node it runs the
// reduction rules on the prefix allocation (the unchosen alternatives of the
// fixed clusters removed, nothing else); a cluster whose choice place that
// prefix reduction already removed is a don't-care: it takes its first
// alternative and the search does not branch on it.  At a leaf every cluster
// past the prefix is a don't-care, so by (1) the prefix reduction is the
// reduction of the leaf's representative allocation; reduce() runs on it
// again only when traces are recorded.  Leaves are deduplicated by hashing
// the keep-bitmaps.  Two arguments make the result identical to reducing the
// whole product in lexicographic order and keeping each subnet's first
// occurrence:
//
//  (1) A choice place removed under a prefix stays removed, and the result
//      does not depend on that cluster, for every completion.  reduce()
//      computes the least removal set closed under its rules, whatever the
//      order it processes them in: each rule's condition can only become
//      true as more is removed (a kept producer, a kept join partner or an
//      independent supply can only disappear), the re-sweep re-tests rule b
//      to the fixpoint, and rule c never needs a re-test: a place is only
//      removed once no surviving consumer has another input with an
//      independent supply (rule b.ii failed, or rule c.ii fired on that
//      consumer; a choice place's other consumers have no other input), so
//      rule c fires on every surviving consumer when the place is
//      processed.  A least fixpoint of monotone rules grows with the
//      excluded set, so a completion (which excludes a superset of the
//      prefix's transitions) removes the choice place p too.  Every
//      alternative of p has p as its only input (free choice), so rule c.i
//      removes all of them, chosen or not; excluding any of them then adds
//      nothing to the closure, and all completions that differ only at p's
//      cluster reduce to the same subnet.
//  (2) Lex-min representatives reproduce the product's order.  A leaf
//      stands for every allocation that agrees with it on the clusters it
//      branched on; its representative takes alternatives[0] everywhere
//      else, so it is the lexicographically smallest of that class.  The
//      search tries alternatives in ascending order, so leaves come in
//      ascending lexicographic order of their representatives.  The first
//      leaf to produce a subnet therefore holds the first allocation of the
//      product that produces it: entry order, entry.reduction.allocation and
//      its trace are those of the first occurrence.
//
// tests/test_qss_enumeration.cpp checks both against the full product
// (reduce() on every allocation, linear dedupe) on the paper nets, the fuzz
// corpus, generated nets and mutants.
#ifndef FCQSS_QSS_SCHEDULER_HPP
#define FCQSS_QSS_SCHEDULER_HPP

#include <cstddef>
#include <string>
#include <vector>

#include "pn/firing.hpp"
#include "qss/schedulability.hpp"

namespace fcqss::qss {

/// Tuning knobs for the scheduler.
struct scheduler_options {
    /// Abort with resource_limit_error instead of computing more than this
    /// many T-reductions (search leaves: at least the distinct reductions,
    /// at most the allocation space).  The allocation space itself is not
    /// bounded — it is exponential in the number of choice clusters, while
    /// the work is proportional to the reductions computed.
    std::size_t max_allocations = 1u << 20;
    /// Record reduction traces (Fig. 6 style) into the result.
    bool record_traces = false;
};

/// One entry of the valid schedule: a distinct T-reduction together with its
/// finite complete cycle.  reduction.allocation is the lexicographically
/// smallest allocation that produces this subnet.
struct schedule_entry {
    t_reduction reduction;
    reduction_schedule analysis;
};

/// Outcome of quasi-static scheduling.
struct qss_result {
    /// True iff every distinct T-reduction is schedulable (Theorem 3.1).
    bool schedulable = false;

    /// All distinct T-reductions with their cycles (the valid schedule when
    /// schedulable; partial diagnostics otherwise).
    std::vector<schedule_entry> entries;

    /// The choice clusters of the net (enumeration order for allocations).
    std::vector<choice_cluster> clusters;

    /// Size of the allocation space: the product of cluster sizes
    /// (allocation_count, saturating).  Not the work done — the search
    /// computes far fewer reductions than this when choices sit inside
    /// removed branches.
    std::size_t allocations_enumerated = 0;

    /// T-reductions the search computed (its leaves, the quantity
    /// scheduler_options::max_allocations bounds): between entries.size()
    /// and allocations_enumerated.
    std::size_t reductions_computed = 0;

    /// Human-readable failure summary; empty when schedulable.
    std::string diagnosis;

    /// The first failing reduction's diagnosis class (reduction_failure::none
    /// when schedulable) — the machine-readable twin of `diagnosis`, carried
    /// to CLI exit codes and the service wire format via wire_code().
    reduction_failure failure = reduction_failure::none;

    /// The finite complete cycles, in entry order (convenience view).
    [[nodiscard]] std::vector<pn::firing_sequence> cycles() const;
};

/// Runs the full QSS algorithm on an (equal-conflict) free-choice net.
/// Throws domain_error when the net is outside that class and
/// resource_limit_error when more than options.max_allocations reductions
/// would have to be computed; returns a result with schedulable == false and
/// a diagnosis when the net is in class but not quasi-statically
/// schedulable.
[[nodiscard]] qss_result quasi_static_schedule(const pn::petri_net& net,
                                               const scheduler_options& options = {});

} // namespace fcqss::qss

#endif // FCQSS_QSS_SCHEDULER_HPP
