// The five-stage distributed KNN query protocol (paper Section III-C):
//   1. find owner        — route each query to the rank owning its
//                          region via the replicated global tree;
//   2. local KNN         — the owner answers from its local tree; the
//                          k-th squared distance becomes the radius r';
//   3. identify remote   — ranks whose region intersects ball(q, r')
//                          (all ranks while fewer than k candidates);
//   4. remote KNN        — radius-limited query_sq on each such rank;
//   5. merge             — the owner merges candidate lists to the
//                          final top-k and returns them to the origin.
//
// Two transports implement the same exact protocol: Collective runs
// the stages in lock-step alltoallv rounds; Pipelined is the paper's
// software pipelining — batched point-to-point messages through
// net::Mailbox, each rank multiplexing the five stages through one
// poll loop so communication overlaps computation.
#pragma once

#include <cstdint>
#include <vector>

#include "core/kdtree.hpp"
#include "core/knn_heap.hpp"
#include "core/neighbor_table.hpp"
#include "core/query_workspace.hpp"
#include "data/point_set.hpp"
#include "dist/dist_kdtree.hpp"
#include "net/comm.hpp"

namespace panda::dist {

struct DistQueryConfig {
  std::size_t k = 5;
  /// Queries processed per pipeline step (Pipelined transport).
  std::size_t batch_size = 256;
  enum class Mode { Collective, Pipelined };
  Mode mode = Mode::Pipelined;
  core::TraversalPolicy policy = core::TraversalPolicy::Exact;
};

/// Query-phase wall-clock seconds and protocol counters, the querying
/// side of Figure 5(c). Counter semantics: queries_owned counts the
/// queries this rank processed as owner (each query has exactly one
/// owner); queries_sent_remote those whose ball crossed >= 1 region
/// boundary; remote_requests the (query, remote rank) pairs contacted.
struct DistQueryBreakdown {
  double find_owner = 0.0;
  double local_knn = 0.0;
  double identify_remote = 0.0;
  double remote_knn = 0.0;
  double merge = 0.0;
  double non_overlapped_comm = 0.0;
  std::uint64_t queries_owned = 0;
  std::uint64_t queries_sent_remote = 0;
  std::uint64_t remote_requests = 0;
};

class DistQueryEngine {
 public:
  DistQueryEngine(net::Comm& comm, const DistKdTree& tree)
      : comm_(comm), tree_(tree) {}

  /// Collective. Answers this rank's `queries` (may be empty; all
  /// ranks must still call) into the flat `results` table (top-k mode,
  /// row i = query i, ascending (dist², id)), exact against the full
  /// distributed dataset. The caller-owned table is reusable across
  /// runs; the engine may be reused with different configurations over
  /// the same tree.
  void run_into(const data::PointSet& queries, const DistQueryConfig& config,
                core::NeighborTable& results,
                DistQueryBreakdown* breakdown = nullptr);

 private:
  void run_single_rank(const data::PointSet& queries,
                       const DistQueryConfig& config,
                       core::NeighborTable& results,
                       DistQueryBreakdown& breakdown);
  void run_collective(const data::PointSet& queries,
                      const DistQueryConfig& config,
                      core::NeighborTable& results,
                      DistQueryBreakdown& breakdown);
  void run_pipelined(const data::PointSet& queries,
                     const DistQueryConfig& config,
                     core::NeighborTable& results,
                     DistQueryBreakdown& breakdown);

  net::Comm& comm_;
  const DistKdTree& tree_;
  /// Reusable batch scratch for the single-rank fast path.
  core::BatchWorkspace batch_ws_;
};

}  // namespace panda::dist
