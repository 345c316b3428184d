// fcqss — pn/parallel_explore.hpp
// Sharded parallel BFS over the arena-interned state-space engine.  The
// marking universe is partitioned into hash-prefix shards (twice the
// thread count), each owning a private marking_store (arena +
// open-addressing table) that only one worker thread ever mutates;
// successors that hash to another shard travel through per-(chunk, shard)
// handoff outboxes between barriers, so the hot paths need no locks at all.
// Exploration is level-synchronous, and ids are (re)assigned after every
// level in sequential discovery order, which makes the result
// *bit-identical* to explore_state_space() — same state ids, same CSR edge
// layout, same truncation behaviour — for every thread count.  See the
// "Determinism" note in parallel_explore.cpp.
#ifndef FCQSS_PN_PARALLEL_EXPLORE_HPP
#define FCQSS_PN_PARALLEL_EXPLORE_HPP

#include "pn/petri_net.hpp"
#include "pn/state_space.hpp"

namespace fcqss::pn {

/// Breadth-first exploration from the net's initial marking on the sharded
/// parallel engine.  options.threads = 0 picks the hardware concurrency; 1
/// still runs the sharded engine on a single worker (the differential tests
/// exercise the same code path at every thread count).  The stubborn subset
/// is a deterministic function of each marking alone and the ltl_x
/// ignoring fix-up is the same sequential post-pass both engines share
/// (detail::enforce_nonignoring), so reduced exploration is bit-identical
/// to explore_state_space() with the same options too.  Under max_bytes the
/// result and every per-shard store share one spill budget.
[[nodiscard]] state_space explore_parallel(const petri_net& net,
                                           const reachability_options& options = {});

} // namespace fcqss::pn

#endif // FCQSS_PN_PARALLEL_EXPLORE_HPP
