// perfbench — workloads.hpp
// One entry point per named workload.  Each builds its inputs from the seed
// (timed as set-up), measures for config.seconds, checks every output with
// the oracles, and fills the end-to-end metrics (untraced) or the per-layer
// metrics (traced).
#ifndef PERFBENCH_WORKLOADS_HPP
#define PERFBENCH_WORKLOADS_HPP

#include "common.hpp"

namespace perfbench {

run_result run_batch_fc(const run_config& config);
run_result run_serve_mixed(const run_config& config);
run_result run_explore(const run_config& config);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HPP
