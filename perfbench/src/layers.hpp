// The per-layer probes every workload's traced run makes, on that
// workload's own points, queries, pool and engine: the kd-tree kernel
// and its SIMD leaf scan, the thread pool and MPMC queue, the Index
// facade and the serving backend. Layers only some workloads have
// (service admission, the mutable forest, the WAL, the distributed
// transport) are measured by those workloads and printed as figures.
#pragma once

#include <memory>
#include <vector>

#include "api/index.hpp"
#include "parallel/thread_pool.hpp"
#include "serve/backend.hpp"
#include "support.hpp"

namespace perfbench {

struct LayerInputs {
  /// The indexed points and the workload's queries.
  const panda::data::PointSet* points = nullptr;
  const panda::data::PointSet* queries = nullptr;
  /// The pool the core tree is built and queried on.
  std::shared_ptr<panda::parallel::ThreadPool> pool;
  /// An index over *points with the workload's engine (no writes yet).
  std::shared_ptr<panda::Index> index;
  /// Requests fed to IndexBackend::run_batch in batches of 64.
  const std::vector<panda::serve::Request>* requests = nullptr;
};

/// The k of the probes' KNN queries (the paper's k).
constexpr std::size_t kLayerK = 5;

/// Runs every common probe within about `budget_s` seconds and adds
/// its per-layer metrics to `report` (the names BENCHMARK.json lists
/// under per_layer). Cross-checks the engine's answers against the
/// core tree's; a difference counts as an oracle mismatch.
void common_layers(const LayerInputs& in, double budget_s, Report& report);

/// KNN k=5 requests, one per query point (the batch workloads' backend
/// batches).
std::vector<panda::serve::Request> knn_requests(
    const panda::data::PointSet& queries, std::size_t count);

}  // namespace perfbench
