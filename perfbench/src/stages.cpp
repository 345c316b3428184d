// perfbench — stages.cpp
#include "stages.hpp"

#include "base/error.hpp"
#include "codegen/c_emitter.hpp"
#include "codegen/task_codegen.hpp"
#include "common.hpp"
#include "pn/invariants.hpp"
#include "pn/net_class.hpp"
#include "pnio/parser.hpp"
#include "qss/scheduler.hpp"
#include "qss/task_partition.hpp"

namespace perfbench {

using namespace fcqss;
using pipeline::pipeline_status;

staged_outcome synthesize_staged(const std::string& text, bool keep,
                                 const pipeline::pipeline_options& options)
{
    staged_outcome outcome;
    outcome.text_bytes = text.size();
    try {
        std::shared_ptr<pn::petri_net> net;
        {
            const layer_span span("pnio.parse");
            net = std::make_shared<pn::petri_net>(pnio::parse_net(text, options.limits));
        }
        if (keep) {
            outcome.net = net;
        }
        {
            const layer_span span("pn.classify");
            (void)pn::classify(*net);
            if (!pn::is_free_choice(*net) || !pn::is_equal_conflict_free_choice(*net)) {
                outcome.status = pipeline_status::not_free_choice;
                return outcome;
            }
        }
        if (options.structural_analysis) {
            const layer_span span("linalg.structural");
            (void)pn::is_consistent(*net);
        }
        qss::qss_result schedule;
        {
            const layer_span span("qss.schedule");
            schedule = qss::quasi_static_schedule(*net, options.scheduler);
        }
        outcome.allocations = schedule.allocations_enumerated;
        outcome.reductions = schedule.entries.size();
        if (!schedule.schedulable) {
            outcome.status = pipeline_status::not_schedulable;
            return outcome;
        }
        if (keep) {
            outcome.cycles = schedule.cycles();
        }
        qss::task_partition partition;
        {
            const layer_span span("qss.partition");
            partition = qss::partition_tasks(*net, schedule);
        }
        if (options.generate_code) {
            auto program = std::make_shared<cgen::generated_program>();
            {
                const layer_span span("codegen.generate");
                *program = cgen::generate_program(*net, schedule, partition, options.codegen);
            }
            {
                const layer_span span("codegen.emit");
                outcome.code_bytes = cgen::emit_c(*program).size();
            }
            if (keep) {
                outcome.program = program;
            }
        }
        outcome.status = pipeline_status::ok;
    } catch (const resource_limit_error&) {
        outcome.capped = true;
        outcome.status = pipeline_status::resource_limit;
    } catch (const parse_error&) {
        outcome.status = pipeline_status::parse_failed;
    } catch (...) {
        outcome.status = pipeline_status::failed;
    }
    return outcome;
}

void staged_totals::add(const staged_outcome& outcome)
{
    ++nets;
    allocations += outcome.allocations;
    reductions += outcome.reductions;
    capped += outcome.capped ? 1 : 0;
    code_bytes += outcome.code_bytes;
    text_bytes += outcome.text_bytes;
}

void add_stage_metrics(const staged_totals& totals, std::map<std::string, double>& metrics)
{
    const layer_table& table = layer_table::global();
    const double nets = totals.nets > 0 ? static_cast<double>(totals.nets) : 1;
    const double passes = totals.passes > 0 ? static_cast<double>(totals.passes) : 1;
    const double parse_ms = table.self_ms("pnio.parse");
    metrics["pnio.parse_ms"] = parse_ms / nets;
    metrics["pnio.mb_per_s"] =
        parse_ms > 0 ? static_cast<double>(totals.text_bytes) / 1e6 / (parse_ms / 1000.0) : 0;
    metrics["pn.classify_ms"] = table.self_ms("pn.classify") / nets;
    metrics["linalg.structural_ms"] = table.self_ms("linalg.structural") / nets;
    metrics["qss.schedule_ms"] = table.self_ms("qss.schedule") / nets;
    metrics["qss.partition_ms"] = table.self_ms("qss.partition") / nets;
    metrics["codegen.generate_ms"] = table.self_ms("codegen.generate") / nets;
    metrics["codegen.emit_ms"] = table.self_ms("codegen.emit") / nets;
    metrics["qss.allocations"] = static_cast<double>(totals.allocations) / passes;
    metrics["qss.reductions"] = static_cast<double>(totals.reductions) / passes;
    metrics["qss.reduction_yield"] = totals.allocations > 0
                                         ? static_cast<double>(totals.reductions) /
                                               static_cast<double>(totals.allocations)
                                         : 0;
    metrics["qss.capped"] = static_cast<double>(totals.capped) / passes;
    metrics["codegen.c_bytes"] = static_cast<double>(totals.code_bytes) / passes;
}

} // namespace perfbench
