#include "pipeline/net_generator.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "base/error.hpp"
#include "base/prng.hpp"
#include "pn/builder.hpp"
#include "pnio/lexer.hpp"

namespace fcqss::pipeline {

const char* to_string(net_family family)
{
    switch (family) {
    case net_family::marked_graph:
        return "mg";
    case net_family::free_choice:
        return "fc";
    case net_family::choice_heavy:
        return "choice";
    case net_family::client_server:
        return "client";
    case net_family::layered_pipeline:
        return "layered";
    case net_family::bursty_multirate:
        return "bursty";
    }
    return "?";
}

namespace {

/// Throws resource_limit_error as soon as the net under construction has
/// more places, transitions or arcs than the default pnio::parse_limits
/// admit: no default reader would load it back, and growing on only burns
/// memory (the fc family at depth 40 grows until the process is killed).
void check_readable_size(const pn::net_builder& builder)
{
    constexpr pnio::parse_limits limits{};
    if (builder.place_count() > limits.max_places ||
        builder.transition_count() > limits.max_transitions ||
        builder.arc_count() > limits.max_arcs) {
        throw resource_limit_error(
            "net_generator: net exceeds the default reader limits (" +
            std::to_string(limits.max_places) + " places, " +
            std::to_string(limits.max_transitions) + " transitions, " +
            std::to_string(limits.max_arcs) + " arcs); lower --depth or --sources");
    }
}

// Grows one net: layered chains below each source, every path ending in a
// sink transition so the net is consistent (and schedulable) by design.
class grower {
public:
    grower(pn::net_builder& builder, prng& rng, const generator_options& options)
        : builder_(builder), rng_(rng), options_(options)
    {
        switch (options_.family) {
        case net_family::marked_graph:
            choice_percent_ = 0;
            fork_percent_ = 30;
            break;
        case net_family::free_choice:
            choice_percent_ = options_.choice_percent;
            fork_percent_ = 20;
            break;
        case net_family::choice_heavy:
            choice_percent_ = 70;
            fork_percent_ = 10;
            break;
        case net_family::client_server:
        case net_family::layered_pipeline:
        case net_family::bursty_multirate:
            // The production-shaped families are built by dedicated
            // builders below; the grower only serves defect injection.
            choice_percent_ = 0;
            fork_percent_ = 0;
            break;
        }
    }

    void grow(pn::transition_id from, int depth_left)
    {
        check_readable_size(builder_);
        if (depth_left <= 0) {
            return; // `from` stays a sink transition
        }
        const auto roll = static_cast<int>(rng_.below(100));
        if (roll < choice_percent_) {
            grow_choice(from, depth_left);
        } else if (roll < choice_percent_ + fork_percent_) {
            grow_fork_join(from, depth_left);
        } else {
            grow_chain(from, depth_left);
        }
    }

    /// Splices a free-choice violation into the finished structure: a fresh
    /// transition consuming from both a choice place and a private place, so
    /// one consumer of the choice no longer has a singleton preset.
    void inject_defect()
    {
        pn::place_id choice = first_choice_;
        if (!choice.valid()) {
            // Families without choices (marked graphs): manufacture one.
            const auto src = builder_.add_transition(fresh("t_defect_src"));
            extra_sources_.push_back(src);
            choice = builder_.add_place(fresh("c_defect"));
            builder_.add_arc(src, choice);
            const auto alt = builder_.add_transition(fresh("t_defect_alt"));
            builder_.add_arc(choice, alt);
        }
        const auto env = builder_.add_transition(fresh("t_defect_env"));
        extra_sources_.push_back(env);
        const auto gate = builder_.add_place(fresh("p_defect_gate"));
        builder_.add_arc(env, gate);
        const auto join = builder_.add_transition(fresh("t_defect_join"));
        builder_.add_arc(gate, join);
        builder_.add_arc(choice, join);
    }

    /// Source transitions created outside the main source loop (by defect
    /// injection), so source_credit can bound them too.
    [[nodiscard]] const std::vector<pn::transition_id>& extra_sources() const noexcept
    {
        return extra_sources_;
    }

private:
    std::string fresh(const char* prefix)
    {
        return std::string(prefix) + std::to_string(serial_++);
    }

    std::int64_t weight() { return rng_.range(1, options_.max_weight); }

    void maybe_load_tokens(pn::place_id p)
    {
        if (options_.token_load > 0 && rng_.below(100) < 30) {
            builder_.set_initial_tokens(p, rng_.range(1, options_.token_load));
        }
    }

    void grow_chain(pn::transition_id from, int depth_left)
    {
        const auto p = builder_.add_place(fresh("p"));
        const auto u = builder_.add_transition(fresh("t"));
        // Any (produce, consume) weight pair stays balanced: the minimal
        // T-invariant scales both sides of the edge.
        builder_.add_arc(from, p, weight());
        builder_.add_arc(p, u, weight());
        maybe_load_tokens(p);
        grow(u, depth_left - 1);
    }

    void grow_choice(pn::transition_id from, int depth_left)
    {
        const auto p = builder_.add_place(fresh("c"));
        if (!first_choice_.valid()) {
            first_choice_ = p;
        }
        const std::int64_t w = weight();
        builder_.add_arc(from, p, w);
        const int alternatives =
            static_cast<int>(rng_.range(2, std::max(2, options_.max_alternatives)));
        for (int i = 0; i < alternatives; ++i) {
            const auto alt = builder_.add_transition(fresh("t"));
            builder_.add_arc(p, alt, w); // equal conflict: identical Pre vectors
            grow(alt, depth_left - 1);
        }
    }

    void grow_fork_join(pn::transition_id from, int depth_left)
    {
        const auto pa = builder_.add_place(fresh("p"));
        const auto pb = builder_.add_place(fresh("p"));
        const auto u = builder_.add_transition(fresh("t"));
        const std::int64_t wa = weight();
        const std::int64_t wb = weight();
        // Matched weights on both legs keep the join balanced one-to-one.
        builder_.add_arc(from, pa, wa);
        builder_.add_arc(from, pb, wb);
        builder_.add_arc(pa, u, wa);
        builder_.add_arc(pb, u, wb);
        maybe_load_tokens(pa);
        grow(u, depth_left - 1);
    }

    pn::net_builder& builder_;
    prng& rng_;
    const generator_options& options_;
    int choice_percent_ = 0;
    int fork_percent_ = 0;
    int serial_ = 0;
    pn::place_id first_choice_;
    std::vector<pn::transition_id> extra_sources_;
};

// -- Production-shaped families ---------------------------------------------
//
// Built whole instead of grown: their shapes (shared resource pools, staged
// fan-out/fan-in, bursty buffers) do not decompose into the per-source
// layered growth above.  Token-load sprinkling matches grower semantics
// (30% of eligible places, 1..token_load tokens) so the knob reads the same
// across all six families.

void maybe_load(pn::net_builder& builder, prng& rng, const generator_options& options,
                pn::place_id p)
{
    if (options.token_load > 0 && rng.below(100) < 30) {
        builder.set_initial_tokens(p, rng.range(1, options.token_load));
    }
}

/// The ATM app generalized: `sources` request classes contend for one
/// shared pool of `depth` tellers.  grab_m consumes a request *and* a
/// teller, done_m returns the teller — a join on a shared place, so the
/// family is non-free-choice by design (the synthesis path must reject it;
/// the engine explores it like any other net).
void build_client_server(pn::net_builder& builder, prng& rng,
                         const generator_options& options,
                         std::vector<pn::transition_id>& sources)
{
    const auto pool =
        builder.add_place("tellers", std::max(1, options.depth));
    for (int m = 0; m < options.sources; ++m) {
        check_readable_size(builder);
        const std::string id = std::to_string(m);
        const auto src = builder.add_transition("req_src" + id);
        sources.push_back(src);
        const auto req = builder.add_place("req" + id);
        builder.add_arc(src, req);
        const auto grab = builder.add_transition("grab" + id);
        builder.add_arc(req, grab);
        builder.add_arc(pool, grab);
        const auto work = builder.add_place("work" + id);
        builder.add_arc(grab, work);
        const auto done = builder.add_transition("done" + id);
        builder.add_arc(work, done);
        builder.add_arc(done, pool);
        const auto resp = builder.add_place("resp" + id);
        builder.add_arc(done, resp);
        const auto reply = builder.add_transition("reply" + id);
        builder.add_arc(resp, reply);
        maybe_load(builder, rng, options, req);
        maybe_load(builder, rng, options, resp);
    }
}

/// Staged dataflow: `depth` alternating fan-out/fan-in layers per source.
/// Every place keeps exactly one producer and one consumer with matched
/// weights, so the family is a weight-consistent marked graph —
/// schedulable by design, with levels far wider than the chain-shaped mg
/// family.
void build_layered_pipeline(pn::net_builder& builder, prng& rng,
                            const generator_options& options,
                            std::vector<pn::transition_id>& sources)
{
    int serial = 0;
    for (int s = 0; s < options.sources; ++s) {
        std::vector<pn::transition_id> stage{
            builder.add_transition("stage_src" + std::to_string(s))};
        sources.push_back(stage.front());
        for (int layer = 0; layer < options.depth; ++layer) {
            check_readable_size(builder);
            if (stage.size() == 1) {
                // Fan out: one transition feeds `width` parallel branches.
                const auto width = static_cast<int>(
                    rng.range(2, std::max(2, options.max_alternatives)));
                std::vector<pn::transition_id> next;
                next.reserve(static_cast<std::size_t>(width));
                for (int i = 0; i < width; ++i) {
                    const std::string id = std::to_string(serial++);
                    const auto p = builder.add_place("lp" + id);
                    const auto t = builder.add_transition("lt" + id);
                    const std::int64_t w = rng.range(1, options.max_weight);
                    builder.add_arc(stage.front(), p, w);
                    builder.add_arc(p, t, w);
                    maybe_load(builder, rng, options, p);
                    next.push_back(t);
                }
                stage = std::move(next);
            } else {
                // Fan in: every branch joins into one transition.
                const auto join =
                    builder.add_transition("lj" + std::to_string(serial++));
                for (const pn::transition_id t : stage) {
                    const auto p = builder.add_place("lp" + std::to_string(serial++));
                    const std::int64_t w = rng.range(1, options.max_weight);
                    builder.add_arc(t, p, w);
                    builder.add_arc(p, join, w);
                }
                stage.assign(1, join);
            }
        }
    }
}

/// Bursty multirate feeds: each source emits bursts of 2*max_weight tokens
/// into a buffer drained one at a time, followed by a chain of
/// rate-changing stages (independent produce/consume weights).  Consistent
/// by construction; the rate mismatches stress multirate scheduling.
void build_bursty_multirate(pn::net_builder& builder, prng& rng,
                            const generator_options& options,
                            std::vector<pn::transition_id>& sources)
{
    const std::int64_t burst = std::max<std::int64_t>(2, 2 * options.max_weight);
    int serial = 0;
    for (int s = 0; s < options.sources; ++s) {
        const std::string id = std::to_string(s);
        const auto src = builder.add_transition("burst_src" + id);
        sources.push_back(src);
        const auto buffer = builder.add_place("buf" + id);
        builder.add_arc(src, buffer, burst);
        auto prev = builder.add_transition("drain" + id);
        builder.add_arc(buffer, prev);
        maybe_load(builder, rng, options, buffer);
        for (int stage = 0; stage < options.depth; ++stage) {
            check_readable_size(builder);
            const std::string sid = std::to_string(serial++);
            const auto p = builder.add_place("bp" + sid);
            const auto t = builder.add_transition("bt" + sid);
            builder.add_arc(prev, p, rng.range(1, options.max_weight));
            builder.add_arc(p, t, rng.range(1, options.max_weight));
            maybe_load(builder, rng, options, p);
            prev = t;
        }
    }
}

} // namespace

net_generator::net_generator(std::uint64_t seed, generator_options options)
    : seed_(seed), options_(options), state_(seed ? seed : 0x9e3779b97f4a7c15ULL)
{
    if (options_.sources < 1 || options_.depth < 1 || options_.max_weight < 1 ||
        options_.max_alternatives < 2) {
        throw model_error("net_generator: sources/depth/max_weight must be >= 1 "
                          "and max_alternatives >= 2");
    }
    if (options_.choice_percent < 0 || options_.choice_percent > 100 ||
        options_.defect_percent < 0 || options_.defect_percent > 100) {
        throw model_error("net_generator: percentages must be in [0, 100]");
    }
    if (options_.source_credit < 0) {
        throw model_error("net_generator: source_credit must be >= 0");
    }
}

pn::petri_net net_generator::next()
{
    prng rng(state_);
    const std::string name = std::string("gen_") + to_string(options_.family) + "_s" +
                             std::to_string(seed_) + "_n" + std::to_string(generated_);
    pn::net_builder builder(name);
    grower g(builder, rng, options_);
    std::vector<pn::transition_id> sources;
    sources.reserve(static_cast<std::size_t>(options_.sources));
    switch (options_.family) {
    case net_family::client_server:
        build_client_server(builder, rng, options_, sources);
        break;
    case net_family::layered_pipeline:
        build_layered_pipeline(builder, rng, options_, sources);
        break;
    case net_family::bursty_multirate:
        build_bursty_multirate(builder, rng, options_, sources);
        break;
    default:
        // The paper-shaped families: layered random growth below each
        // source (byte-identical to the pre-production-family generator).
        for (int s = 0; s < options_.sources; ++s) {
            const auto source = builder.add_transition("src" + std::to_string(s));
            sources.push_back(source);
            g.grow(source, options_.depth);
        }
        break;
    }
    if (options_.defect_percent > 0 &&
        rng.below(100) < static_cast<std::uint64_t>(options_.defect_percent)) {
        g.inject_defect();
    }
    if (options_.source_credit > 0) {
        // Credit places go in after the structure is grown (no extra PRNG
        // draws), so the same seed yields the same net modulo the credits.
        // Defect-injected sources are included: one uncredited source would
        // keep the whole net unbounded.
        sources.insert(sources.end(), g.extra_sources().begin(),
                       g.extra_sources().end());
        for (std::size_t s = 0; s < sources.size(); ++s) {
            const auto credit = builder.add_place("credit" + std::to_string(s),
                                                  options_.source_credit);
            builder.add_arc(credit, sources[s]);
        }
    }
    check_readable_size(builder);
    state_ = rng.state() ^ (0x9e3779b97f4a7c15ULL + generated_);
    if (state_ == 0) {
        state_ = 0x9e3779b97f4a7c15ULL;
    }
    ++generated_;
    return std::move(builder).build();
}

std::vector<pn::petri_net> net_generator::make(std::size_t count)
{
    std::vector<pn::petri_net> nets;
    nets.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        nets.push_back(next());
    }
    return nets;
}

} // namespace fcqss::pipeline
