// perfbench — stages.hpp
// The paper's flow (parse -> classify -> structural -> schedule ->
// partition -> codegen) driven through each layer's public entry point, one
// layer_span per call.  Traced runs use it to split a synthesis into layer
// self times; the oracles use it to get the cycles and programs that the
// pipeline's result only counts.
#ifndef PERFBENCH_STAGES_HPP
#define PERFBENCH_STAGES_HPP

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "codegen/c_ast.hpp"
#include "pipeline/synthesis_pipeline.hpp"
#include "pn/firing.hpp"
#include "pn/petri_net.hpp"

namespace perfbench {

struct staged_outcome {
    fcqss::pipeline::pipeline_status status = fcqss::pipeline::pipeline_status::failed;
    std::size_t allocations = 0;
    std::size_t reductions = 0;
    std::size_t code_bytes = 0;
    std::size_t text_bytes = 0;
    bool capped = false;
    /// Kept only when requested: the parsed net, the valid schedule's cycles
    /// and the generated program.
    std::shared_ptr<fcqss::pn::petri_net> net;
    std::vector<fcqss::pn::firing_sequence> cycles;
    std::shared_ptr<fcqss::cgen::generated_program> program;
};

[[nodiscard]] staged_outcome synthesize_staged(const std::string& text, bool keep,
                                               const fcqss::pipeline::pipeline_options& options);

/// Sums of staged outcomes over `passes` passes of the same nets.
struct staged_totals {
    std::size_t passes = 0;
    std::uint64_t nets = 0;
    std::uint64_t allocations = 0;
    std::uint64_t reductions = 0;
    std::uint64_t capped = 0;
    std::uint64_t code_bytes = 0;
    std::uint64_t text_bytes = 0;

    void add(const staged_outcome& outcome);
};

/// The per-layer synthesis metrics of a traced run: each stage's mean self
/// ms per net (from the layer table), parse throughput, and the QSS and
/// codegen counts of one pass.
void add_stage_metrics(const staged_totals& totals, std::map<std::string, double>& metrics);

} // namespace perfbench

#endif // PERFBENCH_STAGES_HPP
