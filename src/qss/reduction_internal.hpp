// fcqss — qss/reduction_internal.hpp
// Private to src/qss: the reduction rules run on a partial allocation, the
// step quasi_static_schedule's search takes at every node (see
// scheduler.hpp).  Not part of the public reduction API.
#ifndef FCQSS_QSS_REDUCTION_INTERNAL_HPP
#define FCQSS_QSS_REDUCTION_INTERNAL_HPP

#include <cstddef>
#include <vector>

#include "pn/petri_net.hpp"
#include "qss/conflict_clusters.hpp"
#include "qss/reduction.hpp"
#include "qss/t_allocation.hpp"

namespace fcqss::qss::detail {

/// The reduction rules run with only the unchosen alternatives of clusters
/// [0, fixed) removed — the T-reduction of the partial allocation
/// allocation.chosen[0, fixed).  Records no trace and leaves `allocation`
/// empty.
[[nodiscard]] t_reduction prefix_reduction(const pn::petri_net& net,
                                           const std::vector<choice_cluster>& clusters,
                                           const t_allocation& allocation,
                                           std::size_t fixed);

} // namespace fcqss::qss::detail

#endif // FCQSS_QSS_REDUCTION_INTERNAL_HPP
