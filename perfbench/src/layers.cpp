#include "layers.hpp"

#include <algorithm>
#include <limits>

#include "core/kdtree.hpp"
#include "parallel/mpmc_queue.hpp"
#include "simd/distance.hpp"

namespace perfbench {

using panda::core::NeighborTable;

std::vector<panda::serve::Request> knn_requests(
    const panda::data::PointSet& queries, std::size_t count) {
  std::vector<panda::serve::Request> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count && i < queries.size(); ++i) {
    std::vector<float> q(queries.dims());
    queries.copy_point(i, q.data());
    out.push_back(panda::serve::Request::knn(std::move(q), kLayerK));
  }
  return out;
}

void common_layers(const LayerInputs& in, double budget_s, Report& report) {
  const panda::data::PointSet& points = *in.points;
  const panda::data::PointSet& queries = *in.queries;
  auto& pool = *in.pool;
  const panda::core::BuildConfig config;
  const double nq = static_cast<double>(queries.size());

  // simd: one packed leaf block (bucket_size points, padded), kept in
  // cache, distances from one query.
  {
    const std::size_t stride = panda::simd::padded_count(config.bucket_size);
    std::vector<float> block(stride * 3, panda::simd::kPadSentinel);
    for (std::size_t i = 0; i < config.bucket_size; ++i) {
      for (std::size_t d = 0; d < 3; ++d) block[d * stride + i] = points.at(i, d);
    }
    std::vector<float> out(stride);
    const float q[3] = {queries.at(0, 0), queries.at(0, 1), queries.at(0, 2)};
    volatile float sink = 0.0f;
    constexpr int kCalls = 1'000'000;
    const auto ns_per_pt = repeat_for(0.05 * budget_s, 3, [&] {
      const double t0 = now_s();
      Scoped span("simd.squared_distances_padded");
      for (int c = 0; c < kCalls; ++c) {
        panda::simd::squared_distances_padded(q, block.data(), stride, 3,
                                              out.data());
        sink = sink + out[static_cast<std::size_t>(c) % stride];
      }
      return (now_s() - t0) * 1e9 / (double(kCalls) * double(stride));
    });
    report.layer("simd.dist_ns_per_pt", "ns", median(ns_per_pt));
  }

  // core: build, batch query with exact traversal counts, and the
  // single-query path on one thread.
  panda::core::KdTree tree;
  const auto builds = repeat_for(0.15 * budget_s, 3, [&] {
    tree = panda::core::KdTree();
    const double t0 = now_s();
    Scoped span("core.KdTree::build");
    tree = panda::core::KdTree::build(points, config, pool);
    return now_s() - t0;
  });
  report.layer("core.build_s", "s", median(builds));

  NeighborTable core_table;
  panda::core::BatchWorkspace bws;
  panda::core::QueryStats qstats;
  tree.query_sq_batch(queries, kLayerK, pool, core_table, bws, {}, {},
                      panda::core::TraversalPolicy::Exact, &qstats);
  report.layer("core.nodes_per_query", "count",
               static_cast<double>(qstats.nodes_visited) / nq);
  report.layer("core.leaves_per_query", "count",
               static_cast<double>(qstats.leaves_visited) / nq);
  report.layer("core.points_per_query", "count",
               static_cast<double>(qstats.points_scanned) / nq);
  const std::uint64_t core_digest = digest_table(core_table);
  const auto core_rates = repeat_for(0.15 * budget_s, 3, [&] {
    const double t0 = now_s();
    Scoped span("core.query_sq_batch");
    tree.query_sq_batch(queries, kLayerK, pool, core_table, bws);
    return nq / (now_s() - t0);
  });
  const double core_qps = median(core_rates);
  report.layer("core.batch_qps", "1/s", core_qps);

  {
    panda::core::QueryWorkspace qws;
    std::vector<Neighbor> out(kLayerK);
    std::vector<float> q(3);
    const std::uint64_t single =
        std::min<std::uint64_t>(100'000, queries.size());
    const auto single_us = repeat_for(0.05 * budget_s, 3, [&] {
      const double t0 = now_s();
      Scoped span("core.query_sq_into");
      for (std::uint64_t i = 0; i < single; ++i) {
        queries.copy_point(i, q.data());
        tree.query_sq_into(q, kLayerK, std::numeric_limits<float>::infinity(),
                           qws, out);
      }
      return (now_s() - t0) * 1e6 / double(single);
    });
    report.layer("core.single_query_us", "us", median(single_us));
  }

  // parallel: fan-out + join of the pool with an empty body, and one
  // push plus one pop of the MPMC ring the service admits through.
  {
    constexpr int kRuns = 20'000;
    const auto run_us = repeat_for(0.05 * budget_s, 3, [&] {
      const double t0 = now_s();
      Scoped span("parallel.ThreadPool::run");
      for (int r = 0; r < kRuns; ++r) pool.run([](int) {});
      return (now_s() - t0) * 1e6 / kRuns;
    });
    report.layer("parallel.pool_run_us", "us", median(run_us));
  }
  {
    panda::parallel::MpmcQueue<std::uint64_t> ring(1024);
    constexpr int kPairs = 1'000'000;
    volatile std::uint64_t sink = 0;
    const auto pair_ns = repeat_for(0.05 * budget_s, 3, [&] {
      std::uint64_t v = 0;
      const double t0 = now_s();
      Scoped span("parallel.MpmcQueue::push+pop");
      for (int i = 0; i < kPairs; ++i) {
        std::uint64_t x = static_cast<std::uint64_t>(i);
        ring.try_push(std::move(x));
        ring.try_pop(v);
        sink = v;
      }
      return (now_s() - t0) * 1e9 / kPairs;
    });
    report.layer("parallel.mpmc_pair_ns", "ns", median(pair_ns));
  }

  // api: the facade (the workload's engine) over the same points.
  {
    panda::SearchParams knn;
    knn.k = kLayerK;
    NeighborTable table;
    panda::SearchWorkspace ws;
    in.index->knn_into(queries, knn, table, ws);
    if (digest_table(table) != core_digest) {
      report.note(format("Index::knn_into (%s engine) differs from "
                         "core.query_sq_batch", in.index->engine_name()));
      ++report.mismatches;
    }
    const auto api_rates = repeat_for(0.15 * budget_s, 3, [&] {
      const double t0 = now_s();
      Scoped span("api.knn_into");
      in.index->knn_into(queries, knn, table, ws);
      return nq / (now_s() - t0);
    });
    const double api_qps = median(api_rates);
    report.layer("api.knn_qps", "1/s", api_qps);
    report.layer("api.tax_pct", "%", (core_qps / api_qps - 1.0) * 100.0);

    panda::SearchParams self;
    self.k = kLayerK + 1;  // 5 neighbours plus the point itself
    const auto self_rates = repeat_for(0.15 * budget_s, 2, [&] {
      const double t0 = now_s();
      Scoped span("api.self_knn_into");
      in.index->self_knn_into(self, table, ws);
      return static_cast<double>(points.size()) / (now_s() - t0);
    });
    report.layer("api.selfknn_pps", "1/s", median(self_rates));
  }

  // serve: the backend alone, 64-request batches, no admission.
  {
    panda::serve::IndexBackend backend(in.index);
    const auto& requests = *in.requests;
    std::vector<panda::serve::Result> results;
    std::size_t slot = 0;
    const auto batch_us = repeat_for(0.1 * budget_s, 50, [&] {
      const std::vector<panda::serve::Request> batch(
          requests.begin() + static_cast<std::ptrdiff_t>(slot),
          requests.begin() + static_cast<std::ptrdiff_t>(slot + 64));
      slot = (slot + 64) % (requests.size() - requests.size() % 64);
      const double t0 = now_s();
      Scoped span("serve.IndexBackend::run_batch");
      backend.run_batch(batch, results);
      return (now_s() - t0) * 1e6;
    });
    const double b_us = median(batch_us);
    report.layer("serve.backend_batch_us", "us", b_us);
    report.layer("serve.backend_qps", "1/s", 64.0 / (b_us * 1e-6));
  }
}

}  // namespace perfbench
