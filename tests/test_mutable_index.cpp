// Tests for core::MutableIndex (DESIGN.md §12): the logarithmic method
// pinned id-exact against an incrementally-maintained brute-force
// oracle at every step of interleaved insert/erase/query schedules —
// across datasets (including duplicate-heavy), k values, seals,
// background merges, explicit compactions, erase-then-reinsert of the
// same id, and concurrent readers during mutations (the TSan target).
//
// Exactness here means *identical*: the forest accumulates distances
// in the same dimension order as brute_force_knn and both sides break
// ties by the (dist², id) total order, so every row must match the
// oracle bit for bit — ids and distances, no tolerance.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "baselines/brute_force.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/mutable_index.hpp"
#include "data/generators.hpp"
#include "parallel/thread_pool.hpp"

namespace panda::core {
namespace {

using data::PointSet;

/// The ground truth: a map of live points updated in lockstep with the
/// index under test, answered by brute force over a materialized
/// ascending-id PointSet (also the live_points()/self-KNN row order).
class LiveOracle {
 public:
  explicit LiveOracle(std::size_t dims) : dims_(dims), cache_(dims) {}

  void insert(const PointSet& points) {
    std::vector<float> p(dims_);
    for (std::uint64_t i = 0; i < points.size(); ++i) {
      points.copy_point(i, p.data());
      live_[points.id(i)] = p;
    }
    dirty_ = true;
  }

  std::size_t erase(std::span<const std::uint64_t> ids) {
    std::size_t n = 0;
    for (const std::uint64_t id : ids) n += live_.erase(id);
    if (n != 0) dirty_ = true;
    return n;
  }

  std::uint64_t size() const { return live_.size(); }

  std::vector<std::uint64_t> ids() const {
    std::vector<std::uint64_t> out;
    out.reserve(live_.size());
    for (const auto& [id, p] : live_) out.push_back(id);
    return out;
  }

  /// Live points ascending by id (std::map iteration order).
  const PointSet& points() const {
    if (dirty_) {
      cache_ = PointSet(dims_);
      for (const auto& [id, p] : live_) cache_.push_point(p, id);
      dirty_ = false;
    }
    return cache_;
  }

  std::vector<Neighbor> knn(std::span<const float> query,
                            std::size_t k) const {
    return baselines::brute_force_knn(points(), query, k);
  }

  /// dist² < radius², ascending (dist², id); distances accumulated in
  /// dimension order like every kernel in the repository.
  std::vector<Neighbor> radius(std::span<const float> query,
                               float radius) const {
    const PointSet& pts = points();
    const float r2 = radius * radius;
    std::vector<Neighbor> out;
    for (std::uint64_t i = 0; i < pts.size(); ++i) {
      float acc = 0.0f;
      for (std::size_t d = 0; d < dims_; ++d) {
        const float diff = query[d] - pts.at(i, d);
        acc += diff * diff;
      }
      if (acc < r2) out.push_back(Neighbor{acc, pts.id(i)});
    }
    std::sort(out.begin(), out.end(), [](const Neighbor& a,
                                         const Neighbor& b) {
      return a.dist2 != b.dist2 ? a.dist2 < b.dist2 : a.id < b.id;
    });
    return out;
  }

 private:
  std::size_t dims_;
  std::map<std::uint64_t, std::vector<float>> live_;
  mutable PointSet cache_;
  mutable bool dirty_ = true;
};

void expect_row_identical(std::span<const Neighbor> actual,
                          const std::vector<Neighbor>& expected,
                          const std::string& context) {
  ASSERT_EQ(actual.size(), expected.size()) << context;
  for (std::size_t r = 0; r < actual.size(); ++r) {
    ASSERT_EQ(actual[r].id, expected[r].id) << context << " rank " << r;
    ASSERT_EQ(actual[r].dist2, expected[r].dist2)
        << context << " rank " << r;
  }
}

/// Every query row of knn_batch must equal the oracle's brute-force
/// answer exactly.
void expect_knn_matches(const MutableIndex& index, const LiveOracle& oracle,
                        const PointSet& queries, std::size_t k,
                        NeighborTable& results, ForestWorkspace& ws,
                        const std::string& context) {
  index.knn_batch(queries, k, results, ws);
  ASSERT_EQ(results.size(), queries.size()) << context;
  std::vector<float> q(queries.dims());
  for (std::uint64_t i = 0; i < queries.size(); ++i) {
    queries.copy_point(i, q.data());
    expect_row_identical(results[i], oracle.knn(q, k),
                         context + " query " + std::to_string(i));
  }
}

void expect_radius_matches(const MutableIndex& index,
                           const LiveOracle& oracle, const PointSet& queries,
                           std::span<const float> radii,
                           NeighborTable& results, ForestWorkspace& ws,
                           const std::string& context) {
  index.radius_batch(queries, radii, results, ws);
  ASSERT_EQ(results.size(), queries.size()) << context;
  std::vector<float> q(queries.dims());
  for (std::uint64_t i = 0; i < queries.size(); ++i) {
    queries.copy_point(i, q.data());
    expect_row_identical(results[i], oracle.radius(q, radii[i]),
                         context + " radius query " + std::to_string(i));
  }
}

/// self_knn_batch row i answers the i-th live point ascending by id.
void expect_self_knn_matches(const MutableIndex& index,
                             const LiveOracle& oracle, std::size_t k,
                             NeighborTable& results, ForestWorkspace& ws,
                             const std::string& context) {
  index.self_knn_batch(k, results, ws);
  const PointSet& pts = oracle.points();
  ASSERT_EQ(results.size(), pts.size()) << context;
  std::vector<float> q(pts.dims());
  for (std::uint64_t i = 0; i < pts.size(); ++i) {
    pts.copy_point(i, q.data());
    expect_row_identical(results[i], oracle.knn(q, k),
                         context + " self row " + std::to_string(i));
  }
}

struct Harness {
  std::shared_ptr<parallel::ThreadPool> pool =
      std::make_shared<parallel::ThreadPool>(2);
  NeighborTable results;
  ForestWorkspace ws;

  MutableIndex make(std::size_t dims, std::size_t buffer_capacity,
                    std::uint32_t fan_in) {
    MutableConfig config;
    config.buffer_capacity = buffer_capacity;
    config.merge_fan_in = fan_in;
    return MutableIndex(dims, config, BuildConfig{}, pool);
  }
};

// ---------------------------------------------------------------------
// The tentpole pin: interleaved insert/erase/query schedules stay
// id-exact versus the incremental oracle, across datasets × k, with a
// buffer small enough (64) that the schedule drives seals, level
// merges, quiesces, and one compaction.
// ---------------------------------------------------------------------
class MutableSchedule
    : public ::testing::TestWithParam<std::tuple<const char*, std::size_t>> {};

TEST_P(MutableSchedule, InterleavedMutationsMatchOracle) {
  const auto [dataset, k] = GetParam();
  Harness h;
  const auto gen = data::make_generator(dataset, /*seed=*/1234);
  const auto qgen = data::make_generator(dataset, /*seed=*/99);
  MutableIndex index = h.make(gen->dims(), /*buffer_capacity=*/64,
                              /*fan_in=*/2);
  LiveOracle oracle(gen->dims());
  Rng rng(derive_seed(0xABCD, k));

  std::uint64_t next_id = 0;
  const std::size_t steps = 12;
  for (std::size_t step = 0; step < steps; ++step) {
    const std::string at = std::string(dataset) + " k=" +
                           std::to_string(k) + " step " +
                           std::to_string(step);
    // Insert a chunk (first chunk big enough that k=32 always has
    // enough live points).
    const std::uint64_t chunk = step == 0 ? 200 : 48;
    PointSet fresh(gen->dims());
    gen->generate(next_id, next_id + chunk, fresh);
    next_id += chunk;
    index.insert(fresh);
    oracle.insert(fresh);

    // Erase a deterministic random sample of live ids (plus one id
    // that was never inserted — must be ignored, not counted).
    if (step % 2 == 1) {
      const auto live = oracle.ids();
      std::vector<std::uint64_t> doomed;
      for (int e = 0; e < 16; ++e) {
        doomed.push_back(live[rng.uniform_index(live.size())]);
      }
      doomed.push_back(next_id + 1000000);
      const std::size_t expected = oracle.erase(doomed);
      EXPECT_EQ(index.erase(doomed), expected) << at;
    }

    // Mid-schedule structural events: drain merges once, compact once
    // — neither may change any answer.
    if (step == 6) index.quiesce();
    if (step == 8) index.compact();

    EXPECT_EQ(index.size(), oracle.size()) << at;
    PointSet queries(gen->dims());
    qgen->generate(step * 16, step * 16 + 16, queries);
    expect_knn_matches(index, oracle, queries, k, h.results, h.ws, at);
    if (step % 3 == 0) {
      std::vector<float> radii(queries.size());
      for (std::size_t i = 0; i < radii.size(); ++i) {
        radii[i] = 0.05f + 0.03f * static_cast<float>(i % 5);
      }
      expect_radius_matches(index, oracle, queries, radii, h.results, h.ws,
                            at);
    }
  }

  // The schedule must actually have exercised the machinery.
  const MutationStats stats = index.stats();
  EXPECT_GT(stats.seals, 0u);
  EXPECT_EQ(stats.compactions, 1u);
  EXPECT_EQ(stats.live_points, oracle.size());

  expect_self_knn_matches(index, oracle, std::min<std::size_t>(k, 5),
                          h.results, h.ws, "final self-knn");

  // live_points() is the oracle's ascending-id set, coordinates and
  // all.
  const PointSet live = index.live_points();
  const PointSet& expected = oracle.points();
  ASSERT_EQ(live.size(), expected.size());
  for (std::uint64_t i = 0; i < live.size(); ++i) {
    ASSERT_EQ(live.id(i), expected.id(i)) << "live point " << i;
    for (std::size_t d = 0; d < live.dims(); ++d) {
      ASSERT_EQ(live.at(i, d), expected.at(i, d)) << "live point " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    DatasetsAndK, MutableSchedule,
    ::testing::Combine(::testing::Values("uniform", "gmm", "dupes"),
                       ::testing::Values(std::size_t{1}, std::size_t{5},
                                         std::size_t{32})));

// ---------------------------------------------------------------------
// Tombstone semantics.
// ---------------------------------------------------------------------

TEST(MutableErase, EraseThenReinsertSameIdInATree) {
  Harness h;
  const auto gen = data::make_generator("uniform", /*seed=*/7);
  // Tiny buffer: the first batch seals into a tree, so the erased copy
  // of id 5 is tree-resident when the new copy lands in the buffer.
  MutableIndex index = h.make(gen->dims(), /*buffer_capacity=*/8,
                              /*fan_in=*/2);
  LiveOracle oracle(gen->dims());

  PointSet batch(gen->dims());
  gen->generate(0, 64, batch);
  index.insert(batch);
  oracle.insert(batch);
  index.quiesce();
  ASSERT_GT(index.stats().trees, 0u);

  const std::uint64_t doomed[] = {5};
  EXPECT_EQ(index.erase(doomed), 1u);
  EXPECT_EQ(oracle.erase(doomed), 1u);
  // A second erase of the same id is a no-op.
  EXPECT_EQ(index.erase(doomed), 0u);

  // Re-insert id 5 at a brand-new location.
  PointSet reborn(gen->dims());
  reborn.push_point(std::vector<float>{0.123f, 0.456f, 0.789f}, 5);
  index.insert(reborn);
  oracle.insert(reborn);

  // The new copy answers at distance 0; the old copy stays dead even
  // though its coordinates are still packed in the tree.
  std::vector<float> at_new{0.123f, 0.456f, 0.789f};
  PointSet queries(gen->dims());
  queries.push_point(at_new, 0);
  std::vector<float> at_old(gen->dims());
  batch.copy_point(5, at_old.data());
  queries.push_point(at_old, 1);
  expect_knn_matches(index, oracle, queries, 4, h.results, h.ws,
                     "reinserted id");
  index.knn_batch(queries, 1, h.results, h.ws);
  ASSERT_EQ(h.results[0].size(), 1u);
  EXPECT_EQ(h.results[0][0].id, 5u);
  EXPECT_EQ(h.results[0][0].dist2, 0.0f);

  // Compaction drops the tombstones without changing any answer.
  index.compact();
  EXPECT_EQ(index.stats().tombstones, 0u);
  expect_knn_matches(index, oracle, queries, 4, h.results, h.ws,
                     "after compact");
}

TEST(MutableErase, EraseEverythingThenRefill) {
  Harness h;
  const auto gen = data::make_generator("gmm", /*seed=*/3);
  MutableIndex index = h.make(gen->dims(), /*buffer_capacity=*/16,
                              /*fan_in=*/2);
  LiveOracle oracle(gen->dims());

  PointSet batch(gen->dims());
  gen->generate(0, 40, batch);
  index.insert(batch);
  oracle.insert(batch);

  std::vector<std::uint64_t> all;
  for (std::uint64_t id = 0; id < 40; ++id) all.push_back(id);
  EXPECT_EQ(index.erase(all), 40u);
  oracle.erase(all);
  EXPECT_EQ(index.size(), 0u);

  // Queries against a fully-tombstoned forest return empty rows.
  PointSet queries(gen->dims());
  gen->generate(500, 504, queries);
  index.knn_batch(queries, 3, h.results, h.ws);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(h.results[i].size(), 0u);
  }

  // Refill (reusing the erased ids) and verify exactness end to end.
  PointSet fresh(gen->dims());
  gen->generate(1000, 1040, fresh);
  PointSet reborn(gen->dims());
  std::vector<float> p(gen->dims());
  for (std::uint64_t i = 0; i < fresh.size(); ++i) {
    fresh.copy_point(i, p.data());
    reborn.push_point(p, i);  // ids 0..39 again
  }
  index.insert(reborn);
  oracle.insert(reborn);
  expect_knn_matches(index, oracle, queries, 5, h.results, h.ws, "refill");
}

// ---------------------------------------------------------------------
// Input validation: typed errors, all-or-nothing batches.
// ---------------------------------------------------------------------

TEST(MutableValidation, DuplicateInsertsRejectedAtomically) {
  Harness h;
  const auto gen = data::make_generator("uniform", /*seed=*/11);
  MutableIndex index = h.make(gen->dims(), 32, 2);
  LiveOracle oracle(gen->dims());

  PointSet batch(gen->dims());
  gen->generate(0, 20, batch);
  index.insert(batch);
  oracle.insert(batch);

  // Collides with live id 7 → whole batch rejected, nothing admitted.
  PointSet collide(gen->dims());
  gen->generate(100, 110, collide);
  std::vector<float> p(gen->dims());
  collide.copy_point(0, p.data());
  collide.push_point(p, 7);
  EXPECT_THROW(index.insert(collide), panda::Error);
  EXPECT_EQ(index.size(), 20u);

  // Repeats an id within the batch → rejected too.
  PointSet repeat(gen->dims());
  gen->generate(200, 202, repeat);
  repeat.copy_point(0, p.data());
  repeat.push_point(p, 200);
  EXPECT_THROW(index.insert(repeat), panda::Error);
  EXPECT_EQ(index.size(), 20u);

  // The failed batches must not have perturbed any answer.
  PointSet queries(gen->dims());
  gen->generate(900, 908, queries);
  expect_knn_matches(index, oracle, queries, 5, h.results, h.ws,
                     "after rejected batches");
}

TEST(MutableValidation, DimensionAndParameterErrors) {
  Harness h;
  MutableIndex index = h.make(3, 32, 2);
  PointSet batch(3);
  batch.push_point(std::vector<float>{1, 2, 3}, 0);
  index.insert(batch);

  PointSet wrong(2);
  wrong.push_point(std::vector<float>{1, 2}, 9);
  EXPECT_THROW(index.insert(wrong), panda::Error);

  PointSet queries(3);
  queries.push_point(std::vector<float>{0, 0, 0}, 0);
  EXPECT_THROW(index.knn_batch(queries, 0, h.results, h.ws), panda::Error);
  PointSet wrong_q(2);
  wrong_q.push_point(std::vector<float>{0, 0}, 0);
  EXPECT_THROW(index.knn_batch(wrong_q, 1, h.results, h.ws), panda::Error);

  const std::vector<float> too_few_radii{0.5f, 0.5f};
  EXPECT_THROW(index.radius_batch(queries, too_few_radii, h.results, h.ws),
               panda::Error);
  const std::vector<float> negative{-0.5f};
  EXPECT_THROW(index.radius_batch(queries, negative, h.results, h.ws),
               panda::Error);

  EXPECT_THROW(MutableIndex(0, MutableConfig{}, BuildConfig{}, h.pool),
               panda::Error);
  MutableConfig bad_fan;
  bad_fan.merge_fan_in = 1;
  EXPECT_THROW(MutableIndex(3, bad_fan, BuildConfig{}, h.pool),
               panda::Error);
}

TEST(MutableValidation, EmptyIndexAndEmptyBatches) {
  Harness h;
  MutableIndex index = h.make(3, 32, 2);
  EXPECT_EQ(index.size(), 0u);

  // Empty insert: a no-op, not an error.
  index.insert(PointSet(3));
  EXPECT_EQ(index.size(), 0u);
  const std::uint64_t ids[] = {1, 2, 3};
  EXPECT_EQ(index.erase(ids), 0u);

  PointSet queries(3);
  queries.push_point(std::vector<float>{0.5f, 0.5f, 0.5f}, 0);
  index.knn_batch(queries, 4, h.results, h.ws);
  ASSERT_EQ(h.results.size(), 1u);
  EXPECT_EQ(h.results[0].size(), 0u);
  const std::vector<float> radii{0.5f};
  index.radius_batch(queries, radii, h.results, h.ws);
  EXPECT_EQ(h.results[0].size(), 0u);
}

// ---------------------------------------------------------------------
// Concurrency: readers run full speed through snapshots while a writer
// mutates — ordering invariants hold on every row, and the final state
// is oracle-exact. The TSan build runs this binary (ci.sh tsan).
// ---------------------------------------------------------------------

TEST(MutableConcurrency, ReadersDuringInsertsErasesAndMerges) {
  Harness h;
  const auto gen = data::make_generator("uniform", /*seed=*/21);
  MutableIndex index = h.make(gen->dims(), /*buffer_capacity=*/32,
                              /*fan_in=*/2);
  LiveOracle oracle(gen->dims());

  PointSet seed_batch(gen->dims());
  gen->generate(0, 100, seed_batch);
  index.insert(seed_batch);
  oracle.insert(seed_batch);

  const auto qgen = data::make_generator("uniform", /*seed=*/5);
  PointSet queries(gen->dims());
  qgen->generate(0, 8, queries);

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> rows_checked{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      NeighborTable results;
      ForestWorkspace ws;
      // At least a few passes even if the writer finishes first (on a
      // loaded single-core box the whole schedule can run before this
      // thread is ever scheduled).
      int remaining_min_passes = 5;
      while (remaining_min_passes-- > 0 ||
             !stop.load(std::memory_order_relaxed)) {
        index.knn_batch(queries, 5, results, ws);
        for (std::size_t i = 0; i < results.size(); ++i) {
          const auto row = results[i];
          for (std::size_t j = 0; j + 1 < row.size(); ++j) {
            // Ascending (dist², id) — a torn snapshot would break it.
            const bool ordered =
                row[j].dist2 < row[j + 1].dist2 ||
                (row[j].dist2 == row[j + 1].dist2 &&
                 row[j].id < row[j + 1].id);
            if (!ordered) {
              ADD_FAILURE() << "row order violated at rank " << j;
              stop.store(true);
              return;
            }
          }
          rows_checked.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  // Writer: 30 mutation rounds against live readers.
  Rng rng(derive_seed(0xF00D, 1));
  std::uint64_t next_id = 100;
  for (int round = 0; round < 30; ++round) {
    PointSet fresh(gen->dims());
    gen->generate(next_id, next_id + 24, fresh);
    index.insert(fresh);
    oracle.insert(fresh);
    next_id += 24;
    if (round % 3 == 2) {
      const auto live = oracle.ids();
      std::vector<std::uint64_t> doomed;
      for (int e = 0; e < 8; ++e) {
        doomed.push_back(live[rng.uniform_index(live.size())]);
      }
      oracle.erase(doomed);
      index.erase(doomed);
    }
  }
  stop.store(true);
  for (auto& t : readers) t.join();
  EXPECT_GT(rows_checked.load(), 0u);

  // Settled state is exact.
  index.quiesce();
  EXPECT_EQ(index.size(), oracle.size());
  expect_knn_matches(index, oracle, queries, 5, h.results, h.ws,
                     "after concurrent schedule");
}

// Batches big enough to fan out: every other case here sends at most 16
// queries, which the forest answers inline. 256 KNN and 256 radius
// queries on a 4-thread pool run the chunk-stolen fork-join across the
// team (and the TSan build races its per-thread radius staging), over a
// forest holding open runs, several trees and tombstones at once.
TEST(MutableConcurrency, ParallelForestBatchesMatchOracle) {
  Harness h;
  h.pool = std::make_shared<parallel::ThreadPool>(4);
  const auto gen = data::make_generator("gmm", /*seed=*/31);
  // fan_in 8: the five sealed groups stay five level-0 trees.
  MutableIndex index = h.make(gen->dims(), /*buffer_capacity=*/64,
                              /*fan_in=*/8);
  LiveOracle oracle(gen->dims());
  for (std::uint64_t b = 0; b < 5; ++b) {
    PointSet batch(gen->dims());
    gen->generate(b * 64, b * 64 + 64, batch);
    index.insert(batch);
    oracle.insert(batch);
  }
  index.quiesce();
  PointSet open_run(gen->dims());
  gen->generate(320, 360, open_run);
  index.insert(open_run);
  oracle.insert(open_run);
  std::vector<std::uint64_t> doomed;
  for (std::uint64_t id = 3; id < 360; id += 9) doomed.push_back(id);
  EXPECT_EQ(index.erase(doomed), oracle.erase(doomed));

  const MutationStats stats = index.stats();
  ASSERT_EQ(stats.trees, 5u);
  ASSERT_EQ(stats.buffered_points, 40u);
  ASSERT_GT(stats.tombstones, 0u);

  const auto qgen = data::make_generator("gmm", /*seed=*/32);
  PointSet queries(gen->dims());
  qgen->generate(0, 256, queries);
  for (const std::size_t k : {std::size_t{1}, std::size_t{7}}) {
    expect_knn_matches(index, oracle, queries, k, h.results, h.ws,
                       "parallel knn k=" + std::to_string(k));
  }
  std::vector<float> radii(queries.size());
  for (std::size_t i = 0; i < radii.size(); ++i) {
    radii[i] = 0.02f + 0.04f * static_cast<float>(i % 7);
  }
  expect_radius_matches(index, oracle, queries, radii, h.results, h.ws,
                        "parallel radius");
}

// ---------------------------------------------------------------------
// Stats bookkeeping.
// ---------------------------------------------------------------------

TEST(MutableStats, CountersTrackTheSchedule) {
  Harness h;
  const auto gen = data::make_generator("uniform", /*seed=*/42);
  MutableIndex index = h.make(gen->dims(), /*buffer_capacity=*/16,
                              /*fan_in=*/2);

  PointSet batch(gen->dims());
  gen->generate(0, 50, batch);
  index.insert(batch);
  index.quiesce();

  MutationStats stats = index.stats();
  EXPECT_EQ(stats.inserts, 50u);
  EXPECT_EQ(stats.live_points, 50u);
  EXPECT_GT(stats.seals, 0u);
  EXPECT_GT(stats.trees, 0u);
  EXPECT_EQ(stats.pending_sealed_groups, 0u);
  EXPECT_FALSE(stats.merge_in_flight);

  const std::uint64_t doomed[] = {1, 2, 3};
  index.erase(doomed);
  stats = index.stats();
  EXPECT_EQ(stats.erases, 3u);
  EXPECT_EQ(stats.live_points, 47u);
  EXPECT_EQ(stats.tombstones, 3u);

  index.compact();
  stats = index.stats();
  EXPECT_EQ(stats.compactions, 1u);
  EXPECT_EQ(stats.tombstones, 0u);
  EXPECT_EQ(stats.trees, 1u);
  EXPECT_EQ(stats.buffered_points, 0u);
  EXPECT_EQ(stats.live_points, 47u);
}

// ---------------------------------------------------------------------
// Durable mode (DESIGN.md §13): a directory-backed forest survives
// destruction and reopens id- and query-exact, through seals, merges,
// erases, and compaction.
// ---------------------------------------------------------------------

class DurableDir {
 public:
  DurableDir() {
    dir_ = ::testing::TempDir() + "/panda_durable_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
  }
  ~DurableDir() { std::filesystem::remove_all(dir_); }
  const std::string& path() const { return dir_; }

 private:
  std::string dir_;
};

MutableConfig durable_config(const std::string& dir,
                             std::size_t buffer_capacity) {
  MutableConfig config;
  config.durable_dir = dir;
  config.buffer_capacity = buffer_capacity;
  config.merge_fan_in = 2;
  return config;
}

TEST(MutableDurability, ReopenedDirectoryMatchesOracleExactly) {
  DurableDir dir;
  Harness h;
  const auto gen = data::make_generator("gmm", /*seed=*/4242);
  LiveOracle oracle(gen->dims());

  // Phase 1: interleaved mutations against a durable forest, buffer
  // small enough (32) that seals and merges run mid-schedule.
  {
    MutableIndex index(gen->dims(), durable_config(dir.path(), 32),
                       BuildConfig{}, h.pool);
    std::uint64_t next_id = 0;
    for (int round = 0; round < 6; ++round) {
      PointSet batch = gen->generate_all(40);
      PointSet relabeled(batch.dims());
      std::vector<float> p(batch.dims());
      for (std::uint64_t i = 0; i < batch.size(); ++i) {
        batch.copy_point(i, p.data());
        relabeled.push_point(p, next_id++);
      }
      index.insert(relabeled);
      oracle.insert(relabeled);
      if (round % 2 == 1) {
        std::vector<std::uint64_t> doomed;
        for (std::uint64_t id = round; id < next_id; id += 7) {
          doomed.push_back(id);
        }
        EXPECT_EQ(index.erase(doomed), oracle.erase(doomed));
      }
    }
    index.quiesce();
    EXPECT_EQ(index.size(), oracle.size());
    // The destructor closes the directory cleanly (WAL synced).
  }

  // Phase 2: recovery — same live set, same answers.
  MutableIndex reopened(gen->dims(), durable_config(dir.path(), 32),
                        BuildConfig{}, h.pool);
  EXPECT_TRUE(reopened.recovery_diagnostic().empty())
      << reopened.recovery_diagnostic();
  EXPECT_EQ(reopened.size(), oracle.size());
  const PointSet live = reopened.live_points();
  ASSERT_EQ(live.size(), oracle.size());
  const auto want_ids = oracle.ids();
  for (std::uint64_t i = 0; i < live.size(); ++i) {
    EXPECT_EQ(live.id(i), want_ids[i]);
  }
  expect_knn_matches(reopened, oracle, oracle.points(), /*k=*/5, h.results,
                       h.ws, "recovered knn");

  // Phase 3: the recovered forest keeps mutating durably.
  PointSet extra = gen->generate_all(10);
  PointSet relabeled(extra.dims());
  std::vector<float> p(extra.dims());
  for (std::uint64_t i = 0; i < extra.size(); ++i) {
    extra.copy_point(i, p.data());
    relabeled.push_point(p, 10000 + i);
  }
  reopened.insert(relabeled);
  oracle.insert(relabeled);
  expect_knn_matches(reopened, oracle, oracle.points(), /*k=*/5, h.results,
                       h.ws, "post-recovery knn");
}

TEST(MutableDurability, CompactionRotatesWalAndSurvivesReopen) {
  DurableDir dir;
  Harness h;
  const auto gen = data::make_generator("gmm", /*seed=*/7);
  LiveOracle oracle(gen->dims());

  {
    MutableIndex index(gen->dims(), durable_config(dir.path(), 16),
                       BuildConfig{}, h.pool);
    PointSet batch = gen->generate_all(100);
    index.insert(batch);
    oracle.insert(batch);
    std::vector<std::uint64_t> doomed;
    for (std::uint64_t i = 0; i < batch.size(); i += 3) {
      doomed.push_back(batch.id(i));
    }
    EXPECT_EQ(index.erase(doomed), oracle.erase(doomed));
    index.compact();
    // Compaction rewrites the directory to one tree + an empty WAL;
    // the only surviving files are MANIFEST, one tree, one wal.
    std::size_t trees = 0, wals = 0, manifests = 0, other = 0;
    for (const auto& entry :
         std::filesystem::directory_iterator(dir.path())) {
      const std::string name = entry.path().filename().string();
      if (name == "MANIFEST") {
        ++manifests;
      } else if (name.starts_with("tree-")) {
        ++trees;
      } else if (name.starts_with("wal-")) {
        ++wals;
      } else {
        ++other;
      }
    }
    EXPECT_EQ(manifests, 1u);
    EXPECT_EQ(trees, 1u);
    EXPECT_EQ(wals, 1u);
    EXPECT_EQ(other, 0u);
  }

  MutableIndex reopened(gen->dims(), durable_config(dir.path(), 16),
                        BuildConfig{}, h.pool);
  EXPECT_TRUE(reopened.recovery_diagnostic().empty());
  EXPECT_EQ(reopened.size(), oracle.size());
  expect_knn_matches(reopened, oracle, oracle.points(), /*k=*/4, h.results,
                       h.ws, "post-compaction recovery");
}

// Destruction drains: groups sealed right before ~MutableIndex are
// built and committed, not abandoned to WAL replay.
TEST(MutableDurability, DestructorCommitsPendingSeals) {
  DurableDir dir;
  Harness h;
  const auto gen = data::make_generator("uniform", /*seed=*/77);
  LiveOracle oracle(gen->dims());
  MutableConfig config = durable_config(dir.path(), 32);
  config.merge_fan_in = 8;  // three level-0 trees never merge
  {
    MutableIndex index(gen->dims(), config, BuildConfig{}, h.pool);
    for (std::uint64_t b = 0; b < 3; ++b) {
      PointSet batch(gen->dims());
      gen->generate(b * 32, b * 32 + 32, batch);  // fills the buffer
      index.insert(batch);
      oracle.insert(batch);
    }
    // Destroyed at once, with up to three seals still queued.
  }
  MutableIndex reopened(gen->dims(), config, BuildConfig{}, h.pool);
  const MutationStats stats = reopened.stats();
  EXPECT_EQ(stats.trees, 3u);
  EXPECT_EQ(stats.buffered_points, 0u);
  EXPECT_EQ(stats.pending_sealed_groups, 0u);
  EXPECT_EQ(reopened.size(), oracle.size());
  expect_knn_matches(reopened, oracle, oracle.points(), /*k=*/5, h.results,
                     h.ws, "reopened after drain");
}

TEST(MutableDurability, SeedingANonEmptyDirectoryIsRefused) {
  DurableDir dir;
  Harness h;
  {
    MutableIndex index(3, durable_config(dir.path(), 32), BuildConfig{},
                       h.pool);
    PointSet one(3);
    one.push_point(std::vector<float>{1.f, 2.f, 3.f}, 1);
    index.insert(one);
  }
  // Inserting a colliding id after recovery is refused like any other
  // collision — the WAL must never record a rejected batch (replaying
  // it would corrupt the live set).
  MutableIndex reopened(3, durable_config(dir.path(), 32), BuildConfig{},
                        h.pool);
  PointSet dup(3);
  dup.push_point(std::vector<float>{4.f, 5.f, 6.f}, 1);
  EXPECT_THROW(reopened.insert(dup), Error);
  EXPECT_EQ(reopened.size(), 1u);
}

}  // namespace
}  // namespace panda::core
