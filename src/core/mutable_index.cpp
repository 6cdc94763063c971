// MutableIndex — the logarithmic method over packed kd-trees
// (DESIGN.md §12).
//
// Concurrency shape in one paragraph: mutex_ guards the write-side
// state (runs, sealed groups, forest, live-id set); every mutation
// ends by publishing a fresh immutable Snapshot through one
// atomic<shared_ptr> store, and queries only ever touch that snapshot.
// Each background lane claims a Fold under the lock (copying the
// claimed Run/TreeShard values, whose payloads are immutable shared
// state), builds the replacement tree outside the lock, and re-locks
// only to splice the forest and publish. Erases that land while a fold
// is in flight COW the *current* containers; at splice time the fold
// computes the residual (current dead minus dead-at-claim) and carries
// it onto the new tree, so no tombstone is ever lost or resurrected.
#include "core/mutable_index.hpp"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <utility>

#include "common/atomic_file.hpp"
#include "common/checksum.hpp"
#include "common/error.hpp"
#include "core/batch_dispatch.hpp"

namespace panda::core {

namespace {

// Durable-mode MANIFEST (DESIGN.md §13): the single commit point. A
// flat little-endian record naming the committed state — the tree
// files and the WAL that together reconstruct the index — replaced
// atomically (write-temp / fsync / rename) on every state change.
// Anything in the directory the MANIFEST does not name is an
// uncommitted leftover from a crash and is swept at recovery.
//
//   magic u64  version u32  dims u32
//   wal_seq u64  next_file_seq u64  tree_count u64
//   per tree: file_seq u64, level u32, pad u32
//   crc32c u32 (over all preceding bytes)
constexpr std::uint64_t kManifestMagic = 0x50414e44414d414eULL;  // PANDAMAN
constexpr std::uint32_t kManifestVersion = 1;
constexpr std::size_t kManifestFixedBytes = 8 + 4 + 4 + 8 + 8 + 8;
constexpr std::size_t kManifestTreeBytes = 16;

using IdList = std::vector<std::uint64_t>;

bool contains(const IdList& sorted, std::uint64_t id) {
  return std::binary_search(sorted.begin(), sorted.end(), id);
}

/// The one tombstone filter: is `id` in a container's dead list?
bool is_dead(const std::shared_ptr<const IdList>& dead, std::uint64_t id) {
  return dead != nullptr && contains(*dead, id);
}

/// Appends the rows of one tree's answer whose id is not dead there.
void append_live_rows(std::span<const Neighbor> rows,
                      const std::shared_ptr<const IdList>& dead,
                      std::vector<Neighbor>& out) {
  for (const Neighbor& nb : rows) {
    if (!is_dead(dead, nb.id)) out.push_back(nb);
  }
}

/// Reorders `points` ascending by id — the self-KNN row order and the
/// deterministic point order of compaction/save builds.
data::PointSet sort_by_id(const data::PointSet& points) {
  std::vector<std::uint64_t> order(points.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](std::uint64_t a, std::uint64_t b) {
              return points.id(a) < points.id(b);
            });
  return points.extract(order);
}

/// Logs `points` as one Insert frame (ids plus row-major coordinates).
void log_insert(Wal& wal, const data::PointSet& points) {
  std::vector<float> coords(points.size() * points.dims());
  for (std::size_t p = 0; p < points.size(); ++p) {
    points.copy_point(p, coords.data() + p * points.dims());
  }
  wal.append_insert(points.ids(), coords);
}

/// The one forest-query fork-join: chunk-stolen over the batch's
/// queries, `per_query(i, w, tid)` answering query i on pool thread tid
/// with the query copied into its scratch `w.query`.
/// Threads share nothing but the work counter — rows are disjoint and
/// the pinned snapshot is immutable. The grain is finer than the tree
/// kernels' (16 chunks per thread, not 4): the batch ends when the
/// last chunk finishes, and on a box where a background build competes
/// for cores, a fat final chunk on a descheduled straggler stretches
/// the whole batch. Steal cost is one relaxed fetch_add per chunk.
template <typename PerQuery>
void fork_join(parallel::ThreadPool& pool, const data::PointSet& queries,
               std::uint64_t inline_threshold,
               std::vector<ForestWorkspace::ThreadScratch>& scratch,
               const PerQuery& per_query) {
  const auto threads = static_cast<std::size_t>(pool.size());
  if (scratch.size() < threads) scratch.resize(threads);
  // The pool lambda captures only `&ctx`, which fits std::function's
  // small-object storage — the dispatch stays allocation-free.
  struct Ctx {
    const PerQuery* per_query;
    const data::PointSet* queries;
    ForestWorkspace::ThreadScratch* scratch;
    std::uint64_t n;
    std::uint64_t grain;
    std::atomic<std::uint64_t> next{0};
  } ctx{&per_query, &queries, scratch.data(), queries.size(),
        batch_grain(queries.size(), pool.size(), 32, 16), {}};
  dispatch_batch(
      pool, ctx.n,
      [c = &ctx](int tid) {
        ForestWorkspace::ThreadScratch& w = c->scratch[tid];
        w.query.resize(c->queries->dims());
        for (;;) {
          // order: relaxed — pure work-stealing counter; chunk claims
          // need atomicity only, the batch's completion barrier orders
          // the data.
          const std::uint64_t lo =
              c->next.fetch_add(c->grain, std::memory_order_relaxed);
          if (lo >= c->n) break;
          const std::uint64_t hi = std::min(lo + c->grain, c->n);
          for (std::uint64_t i = lo; i < hi; ++i) {
            c->queries->copy_point(i, w.query.data());
            (*c->per_query)(i, w, tid);
          }
        }
      },
      inline_threshold);
}

}  // namespace

MutableIndex::MutableIndex(std::size_t dims, const MutableConfig& config,
                           const BuildConfig& build,
                           std::shared_ptr<parallel::ThreadPool> pool)
    : dims_(dims), config_(config), build_(build), pool_(std::move(pool)) {
  PANDA_CHECK_MSG(dims_ >= 1, "MutableIndex needs dims >= 1");
  PANDA_CHECK_MSG(config_.buffer_capacity >= 1,
                  "MutableConfig.buffer_capacity must be >= 1");
  PANDA_CHECK_MSG(config_.merge_fan_in >= 2,
                  "MutableConfig.merge_fan_in must be >= 2");
  PANDA_CHECK_MSG(pool_ != nullptr, "MutableIndex needs a thread pool");
  PANDA_CHECK_MSG(!durable() || config_.wal_flush_every >= 1,
                  "MutableConfig.wal_flush_every must be >= 1");
  // order: release — the empty snapshot is published before any
  // thread exists, but every later publish_locked() store pairs with
  // snapshot()'s acquire load; keep the ctor store symmetric.
  snapshot_.store(std::make_shared<const Snapshot>(),
                  std::memory_order_release);
  // Durable setup (and recovery) runs before the background threads
  // exist: replayed state is complete by the time anything can claim
  // work from it.
  if (durable()) init_durable();
  seal_thread_ = std::thread([this] { lane_loop(Lane::Seal); });
  merge_thread_ = std::thread([this] { lane_loop(Lane::Merge); });
}

MutableIndex::MutableIndex(KdTree seed, const MutableConfig& config,
                           const BuildConfig& build,
                           std::shared_ptr<parallel::ThreadPool> pool)
    : MutableIndex(seed.dims(), config, build, std::move(pool)) {
  if (seed.empty()) return;
  data::PointSet exported(dims_);
  seed.export_points(exported);
  const std::uint32_t level = level_for_size(seed.size());
  MutexLock lock(mutex_);
  if (durable()) {
    // Seeding writes the seed as committed state; a directory that
    // recovered content would be silently shadowed by it.
    PANDA_CHECK_MSG(live_.empty(),
                    "cannot seed a MutableIndex into non-empty durable "
                    "directory "
                        << config_.durable_dir
                        << " (open it without a seed, or point at a fresh "
                           "directory)");
  }
  TreeShard shard = make_shard(std::move(seed), exported.ids(), level,
                               durable() ? next_file_seq_++ : 0);
  live_.insert(shard.ids->begin(), shard.ids->end());
  // order: relaxed — live_count_ is the size() gauge; see the hpp.
  live_count_.store(shard.ids->size(), std::memory_order_relaxed);
  if (durable()) shard.tree->save(tree_path(shard.file_seq));
  trees_.push_back(std::move(shard));
  if (durable()) write_manifest_locked();
  publish_locked();
}

MutableIndex::~MutableIndex() {
  {
    // Drain, then stop: every group sealed before destruction is built
    // and committed, so a durable directory closes with no pending
    // seal and the background lanes' I/O always runs.
    MutexLock lock(mutex_);
    wait_idle_locked(lock);
    stop_ = true;
  }
  work_cv_.notify_all();
  if (seal_thread_.joinable()) seal_thread_.join();
  if (merge_thread_.joinable()) merge_thread_.join();
  // Close the group-commit window on clean shutdown: acknowledged
  // frames not yet fsynced become power-loss durable too.
  if (wal_.has_value()) {
    try {
      wal_->sync();
    } catch (...) {
      // Destructor: nowhere to report; the frames are still write()n.
    }
  }
}

MutableIndex::TreeShard MutableIndex::make_shard(
    KdTree tree, std::span<const std::uint64_t> ids, std::uint32_t level,
    std::uint64_t file_seq) {
  TreeShard shard;
  shard.tree = std::make_shared<const KdTree>(std::move(tree));
  shard.level = level;
  // Sorted for tombstone lookup; ids must be unique for the live set
  // to mean anything (a seed tree is the one untrusted source).
  IdList sorted(ids.begin(), ids.end());
  std::sort(sorted.begin(), sorted.end());
  const auto dup = std::adjacent_find(sorted.begin(), sorted.end());
  PANDA_CHECK_MSG(dup == sorted.end(),
                  "MutableIndex seed has duplicate id " << *dup);
  shard.ids = std::make_shared<const IdList>(std::move(sorted));
  shard.file_seq = file_seq;
  return shard;
}

void MutableIndex::append_live(const Run& run, data::PointSet& out) {
  if (run.dead == nullptr) {
    out.append(*run.points);
    return;
  }
  std::vector<std::uint64_t> keep;
  keep.reserve(run.points->size());
  for (std::size_t p = 0; p < run.points->size(); ++p) {
    if (!contains(*run.dead, run.points->id(p))) keep.push_back(p);
  }
  out.append(*run.points, keep);
}

void MutableIndex::append_live(const TreeShard& shard, data::PointSet& out) {
  if (shard.dead == nullptr) {
    shard.tree->export_points(out);
    return;
  }
  // A tree's exported points filter exactly like a run.
  auto exported = std::make_shared<data::PointSet>(out.dims());
  shard.tree->export_points(*exported);
  append_live(Run{std::move(exported), shard.dead}, out);
}

data::PointSet MutableIndex::live_points_of(const Snapshot& snap) const {
  data::PointSet live(dims_);
  for (const Run& run : snap.runs) append_live(run, live);
  for (const TreeShard& shard : snap.trees) append_live(shard, live);
  return sort_by_id(live);
}

// ---------------------------------------------------------------------
// Write side
// ---------------------------------------------------------------------

void MutableIndex::insert(const data::PointSet& points) {
  PANDA_CHECK_MSG(points.dims() == dims_,
                  "insert dimensionality mismatch: batch has "
                      << points.dims() << " dims, index has " << dims_);
  if (points.empty()) return;
  MutexLock lock(mutex_);
  // All-or-nothing admission: a collision rolls back the ids this
  // batch already claimed, so a failed insert leaves no trace. The
  // admission check runs *before* logging — a rejected batch must not
  // reach the WAL, or recovery would replay the collision.
  for (std::size_t p = 0; p < points.size(); ++p) {
    if (!live_.insert(points.id(p)).second) {
      for (std::size_t q = 0; q < p; ++q) live_.erase(points.id(q));
      throw Error("MutableIndex::insert: id " +
                  std::to_string(points.id(p)) +
                  " is already live (erase it first or use a fresh id)");
    }
  }
  if (durable()) {
    // Log before apply: once the frame is write()n the batch survives
    // process death; a failed append rolls the admission back so
    // neither memory nor log keeps a trace.
    try {
      log_insert(*wal_, points);
    } catch (...) {
      for (std::size_t p = 0; p < points.size(); ++p) {
        live_.erase(points.id(p));
      }
      throw;
    }
  }
  apply_insert_locked(points);
  publish_locked();
  if (durable()) maybe_sync_wal_locked();
}

/// The state mutation behind insert() and WAL replay: the batch's ids
/// must already be admitted into live_ by the caller.
void MutableIndex::apply_insert_locked(const data::PointSet& points) {
  Run run;
  run.points = std::make_shared<const data::PointSet>(points);
  runs_.push_back(std::move(run));
  ++open_runs_;
  open_points_ += points.size();
  inserts_ += points.size();
  // order: relaxed — size() gauge; see the hpp.
  live_count_.fetch_add(points.size(), std::memory_order_relaxed);
  if (open_points_ >= config_.buffer_capacity) {
    sealed_groups_.push_back(open_runs_);
    open_runs_ = 0;
    open_points_ = 0;
    work_cv_.notify_all();
  }
}

std::size_t MutableIndex::erase(std::span<const std::uint64_t> ids) {
  MutexLock lock(mutex_);
  const IdList hit = take_live_locked(ids);
  if (hit.empty()) return 0;
  if (durable()) {
    try {
      wal_->append_erase(hit);
    } catch (...) {
      live_.insert(hit.begin(), hit.end());
      throw;
    }
  }
  apply_erase_locked(hit);
  publish_locked();
  if (durable()) maybe_sync_wal_locked();
  return hit.size();
}

/// Removes whichever of `ids` are live from live_ and returns them, in
/// first-seen order with repeats dropped — exactly the erases the call
/// performs, so erase()'s WAL frame logs nothing more. Ids that are not
/// live are skipped silently: on replay, an id a WAL frame names may
/// have been dropped from the files by a post-rotation merge, which is
/// not an error.
MutableIndex::IdList MutableIndex::take_live_locked(
    std::span<const std::uint64_t> ids) {
  IdList hit;
  for (const std::uint64_t id : ids) {
    if (live_.erase(id) == 1) hit.push_back(id);
  }
  return hit;
}

/// The state mutation behind erase() and WAL replay: `hit` holds ids
/// the caller already took out of live_, each live in exactly one
/// container. Every run and tree gets at most one copy-on-write copy
/// of its dead list per batch — pinned snapshots keep reading the old
/// list.
void MutableIndex::apply_erase_locked(std::span<const std::uint64_t> hit) {
  if (hit.empty()) return;
  IdList pending(hit.begin(), hit.end());
  std::sort(pending.begin(), pending.end());
  IdList found;
  // Merges `found` (the pending ids one container holds live) into its
  // dead list and drops them from `pending`.
  const auto retire = [&](std::shared_ptr<const IdList>& dead) {
    if (found.empty()) return;
    std::sort(found.begin(), found.end());
    auto next = std::make_shared<IdList>();
    next->reserve((dead ? dead->size() : 0) + found.size());
    if (dead) {
      std::merge(dead->begin(), dead->end(), found.begin(), found.end(),
                 std::back_inserter(*next));
    } else {
      next->assign(found.begin(), found.end());
    }
    dead = std::move(next);
    IdList rest;
    rest.reserve(pending.size() - found.size());
    std::set_difference(pending.begin(), pending.end(), found.begin(),
                        found.end(), std::back_inserter(rest));
    pending.swap(rest);
    found.clear();
  };
  for (Run& run : runs_) {
    if (pending.empty()) break;
    for (const std::uint64_t id : run.points->ids()) {
      if (contains(pending, id) && !is_dead(run.dead, id)) found.push_back(id);
    }
    retire(run.dead);
  }
  for (TreeShard& shard : trees_) {
    if (pending.empty()) break;
    for (const std::uint64_t id : pending) {
      if (contains(*shard.ids, id) && !is_dead(shard.dead, id)) {
        found.push_back(id);
      }
    }
    retire(shard.dead);
  }
  PANDA_CHECK_MSG(pending.empty(), "internal: live id "
                                       << pending.front()
                                       << " found in no container");
  erases_ += hit.size();
  // order: relaxed — size() gauge; see the hpp.
  live_count_.fetch_sub(hit.size(), std::memory_order_relaxed);
}

void MutableIndex::publish_locked() {
  // order: release — publishes the fully built Snapshot; pairs with the
  // acquire load in snapshot().
  snapshot_.store(std::make_shared<const Snapshot>(Snapshot{runs_, trees_}),
                  std::memory_order_release);
}

std::uint32_t MutableIndex::level_for_size(std::uint64_t points) const {
  // Level ℓ holds trees of up to capacity · fan^ℓ points, so a tree of
  // `points` lands at ceil(log_fan(points / capacity)).
  std::uint32_t level = 0;
  std::uint64_t scale = std::max<std::uint64_t>(config_.buffer_capacity, 1);
  while (points > scale) {
    scale *= config_.merge_fan_in;
    ++level;
  }
  return level;
}

int MutableIndex::overfull_level_locked() const {
  std::vector<std::uint32_t> counts;
  for (const TreeShard& shard : trees_) {
    if (counts.size() <= shard.level) counts.resize(shard.level + 1, 0);
    ++counts[shard.level];
  }
  for (std::size_t level = 0; level < counts.size(); ++level) {
    if (counts[level] >= config_.merge_fan_in) {
      return static_cast<int>(level);
    }
  }
  return -1;
}

bool MutableIndex::has_work_locked(Lane lane) const {
  return lane == Lane::Seal ? !sealed_groups_.empty()
                            : overfull_level_locked() >= 0;
}

void MutableIndex::wait_idle_locked(MutexLock& lock) {
  idle_cv_.wait(lock, [&]() PANDA_REQUIRES(mutex_) {
    return busy_lanes_ == 0 && !has_work_locked(Lane::Seal) &&
           !has_work_locked(Lane::Merge);
  });
}

// ---------------------------------------------------------------------
// Background maintenance: two lanes, one fold
// ---------------------------------------------------------------------

// Both lanes run at normal priority on purpose: a deprioritized
// background thread starves on a saturated box, work piles up, and
// queries degrade *structurally* (ever-longer brute scans over
// unsealed runs, ever-deeper forests) — worse than the CPU it saves.
// The interference bound comes from merge_build_pool_ being size 1
// instead: each lane builds on its own single thread, query batches
// keep the whole shared-pool team.

void MutableIndex::lane_loop(Lane lane) {
  MutexLock lock(mutex_);
  for (;;) {
    // A merge that overfills the next level cascades: the predicate
    // re-evaluates before parking.
    work_cv_.wait(lock, [&]() PANDA_REQUIRES(mutex_) {
      return stop_ || has_work_locked(lane);
    });
    if (stop_) return;  // set only once idle: no queued work is lost
    Fold claimed = claim_locked(lane);
    lock.unlock();
    fold(std::move(claimed));
    lock.lock();
    --busy_lanes_;
    work_cv_.notify_all();  // a new level-0 tree may overfill level 0
    idle_cv_.notify_all();
  }
}

MutableIndex::Fold MutableIndex::claim_locked(Lane lane) {
  // Claim by value: the payloads are immutable and the dead lists are
  // COW — these copies ARE the dead-at-claim baseline. The durable file
  // sequence is allocated here, under the lock, so the build can write
  // tree-<seq>.panda without holding it.
  Fold claimed;
  if (lane == Lane::Seal) {
    claimed.runs.assign(runs_.begin(),
                        runs_.begin() + static_cast<std::ptrdiff_t>(
                                            sealed_groups_.front()));
  } else {
    const int level = overfull_level_locked();
    for (const TreeShard& shard : trees_) {
      if (static_cast<int>(shard.level) == level) {
        claimed.trees.push_back(shard);
      }
    }
    claimed.level = static_cast<std::uint32_t>(level) + 1;
  }
  claimed.file_seq = durable() ? next_file_seq_++ : 0;
  ++busy_lanes_;
  return claimed;
}

void MutableIndex::fold(Fold claimed) {
  // 1. The points live at claim time; queries keep answering from the
  // claimed containers in their pinned snapshots meanwhile.
  data::PointSet pts(dims_);
  for (const Run& run : claimed.runs) append_live(run, pts);
  for (const TreeShard& shard : claimed.trees) append_live(shard, pts);
  // 2-3. Build on the private pool and persist, both outside the lock —
  // the file is invisible until the MANIFEST names it, so writers and
  // queries never stall on this I/O. An uncommitted file left by a
  // crash is swept at recovery.
  std::optional<TreeShard> built;
  if (!pts.empty()) {
    built = make_shard(KdTree::build(pts, build_, merge_build_pool_),
                       pts.ids(), claimed.level, claimed.file_seq);
    if (durable()) built->tree->save(tree_path(claimed.file_seq));
  }

  // 4. Ids erased since the claim are inside the new tree: carry them
  // as residual tombstones. Claimed containers are matched by payload
  // pointer, so whatever the other lane or a writer added meanwhile
  // stays untouched.
  MutexLock lock(mutex_);
  IdList residual;
  const auto retire = [&residual](const auto& current, const auto& sources) {
    const auto source = std::find_if(
        sources.begin(), sources.end(),
        [&](const auto& s) { return s.payload() == current.payload(); });
    if (source == sources.end()) return false;
    if (current.dead != nullptr) {
      for (const std::uint64_t id : *current.dead) {
        if (!is_dead(source->dead, id)) residual.push_back(id);
      }
    }
    return true;
  };
  std::erase_if(runs_, [&](const Run& run) {
    return retire(run, claimed.runs);
  });
  std::erase_if(trees_, [&](const TreeShard& shard) {
    return retire(shard, claimed.trees);
  });
  // The seal lane is the queue's only consumer: its group is still
  // the front.
  const bool seal = !claimed.runs.empty();
  if (seal) sealed_groups_.pop_front();
  ++(seal ? seals_ : merges_);
  // 5. Splice, commit, publish.
  if (built.has_value()) {
    std::sort(residual.begin(), residual.end());
    if (!residual.empty()) {
      built->dead = std::make_shared<const IdList>(std::move(residual));
    }
    trees_.push_back(std::move(*built));
  } else {
    // Everything was dead at claim: nothing live remained for an
    // erase to target afterwards, so there can be no residual.
    PANDA_ASSERT(residual.empty());
  }
  // A seal also shrinks the log: the WAL rotates to hold only the
  // still-buffered state. A merge is a MANIFEST-only commit (erase
  // frames replay by live-id membership, so ids the merge dropped are
  // skipped silently).
  commit_locked(seal, claimed.trees);
  publish_locked();
}

void MutableIndex::commit_locked(bool consumed_runs,
                                 std::span<const TreeShard> replaced) {
  if (!durable()) return;
  const std::uint64_t old_wal = wal_seq_;
  if (consumed_runs) rotate_wal_locked();
  write_manifest_locked();
  std::error_code ec;
  if (consumed_runs) std::filesystem::remove(wal_path(old_wal), ec);
  for (const TreeShard& shard : replaced) {
    std::filesystem::remove(tree_path(shard.file_seq), ec);
  }
}

void MutableIndex::quiesce() {
  MutexLock lock(mutex_);
  wait_idle_locked(lock);
}

void MutableIndex::compact() {
  MutexLock lock(mutex_);
  // Drain both lanes first: a fold splices by payload pointer, so the
  // forest must not be replaced under a claim. The wait releases the
  // lock, letting them finish.
  wait_idle_locked(lock);
  // Under mutex_ the published snapshot is the guarded state: every
  // mutation publishes before it unlocks.
  const data::PointSet live = live_points();
  const std::vector<TreeShard> replaced = std::exchange(trees_, {});
  runs_.clear();
  open_runs_ = 0;
  open_points_ = 0;
  if (!live.empty()) {
    // Built under the lock: writers wait, queries keep serving the
    // pre-compaction snapshot.
    TreeShard shard = make_shard(KdTree::build(live, build_, *pool_),
                                 live.ids(), level_for_size(live.size()),
                                 durable() ? next_file_seq_++ : 0);
    if (durable()) shard.tree->save(tree_path(shard.file_seq));
    trees_.push_back(std::move(shard));
  }
  ++compactions_;
  // The buffer is empty and the one tree has no tombstones, so the
  // rotated WAL is just a fresh header.
  commit_locked(/*consumed_runs=*/true, replaced);
  publish_locked();
}

// ---------------------------------------------------------------------
// Durability (DESIGN.md §13)
// ---------------------------------------------------------------------

std::string MutableIndex::manifest_path() const {
  return config_.durable_dir + "/MANIFEST";
}

std::string MutableIndex::tree_path(std::uint64_t seq) const {
  return config_.durable_dir + "/tree-" + std::to_string(seq) + ".panda";
}

std::string MutableIndex::wal_path(std::uint64_t seq) const {
  return config_.durable_dir + "/wal-" + std::to_string(seq) + ".log";
}

void MutableIndex::init_durable() {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::create_directories(config_.durable_dir, ec);
  PANDA_CHECK_MSG(!ec, "cannot create durable directory "
                           << config_.durable_dir << ": " << ec.message());
  MutexLock lock(mutex_);
  if (fs::exists(manifest_path())) {
    recover_durable();
  } else {
    wal_seq_ = next_file_seq_++;
    wal_.emplace(
        Wal::create(wal_path(wal_seq_), static_cast<std::uint32_t>(dims_)));
    write_manifest_locked();
  }
  last_wal_sync_ = std::chrono::steady_clock::now();
}

void MutableIndex::recover_durable() {
  namespace fs = std::filesystem;
  const std::string path = manifest_path();
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) {
    common::throw_io_error("cannot open durable MANIFEST", path, "open",
                           errno);
  }
  std::error_code ec;
  const std::uint64_t fsize = fs::file_size(path, ec);
  PANDA_CHECK_MSG(!ec, "cannot stat durable MANIFEST: " << path);
  std::vector<unsigned char> buf(fsize);
  in.read(reinterpret_cast<char*>(buf.data()),
          static_cast<std::streamsize>(buf.size()));
  PANDA_CHECK_MSG(in.good() || fsize == 0,
                  "durable MANIFEST truncated: " << path);
  PANDA_CHECK_MSG(buf.size() >= kManifestFixedBytes + 4,
                  "durable MANIFEST truncated: " << path);
  // The trailing CRC covers everything, so one check subsumes all
  // torn-write cases — the MANIFEST is replaced atomically, but a
  // corrupt one must never be trusted.
  std::uint32_t stored_crc = 0;
  std::memcpy(&stored_crc, buf.data() + buf.size() - 4, 4);
  const std::uint32_t computed = common::crc32c(buf.data(), buf.size() - 4);
  PANDA_CHECK_MSG(computed == stored_crc,
                  "durable MANIFEST checksum mismatch (stored 0x"
                      << std::hex << stored_crc << ", computed 0x" << computed
                      << std::dec << "): " << path);
  const auto get = [&](std::size_t off, auto& value) {
    std::memcpy(&value, buf.data() + off, sizeof(value));
  };
  std::uint64_t magic = 0;
  std::uint32_t version = 0;
  std::uint32_t dims32 = 0;
  std::uint64_t tree_count = 0;
  get(0, magic);
  get(8, version);
  get(12, dims32);
  get(16, wal_seq_);
  get(24, next_file_seq_);
  get(32, tree_count);
  PANDA_CHECK_MSG(magic == kManifestMagic,
                  "not a PANDA durable MANIFEST: " << path);
  PANDA_CHECK_MSG(version == kManifestVersion,
                  "unsupported durable MANIFEST version " << version << ": "
                                                          << path);
  PANDA_CHECK_MSG(dims32 == dims_,
                  "durable directory dims mismatch (manifest has "
                      << dims32 << ", index opened with " << dims_
                      << "): " << path);
  PANDA_CHECK_MSG(
      buf.size() == kManifestFixedBytes + tree_count * kManifestTreeBytes + 4,
      "durable MANIFEST field 'tree_count' inconsistent with its size: "
          << path);

  // Sweep uncommitted leftovers first: tree/WAL files a crashed seal
  // or merge wrote but never committed, and stray .tmp files.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> entries(tree_count);
  for (std::uint64_t t = 0; t < tree_count; ++t) {
    get(kManifestFixedBytes + t * kManifestTreeBytes, entries[t].first);
    get(kManifestFixedBytes + t * kManifestTreeBytes + 8, entries[t].second);
  }
  std::unordered_set<std::string> keep;
  keep.insert("MANIFEST");
  keep.insert(fs::path(wal_path(wal_seq_)).filename().string());
  for (const auto& [seq, level] : entries) {
    keep.insert(fs::path(tree_path(seq)).filename().string());
  }
  for (const auto& entry : fs::directory_iterator(config_.durable_dir)) {
    if (keep.count(entry.path().filename().string()) == 0) {
      fs::remove(entry.path(), ec);
    }
  }

  // Committed trees: mmap-open (header + section CRCs verified), and
  // their ids seed the live set. Dead lists are not persisted — the
  // WAL's Tombstones/Erase frames reconstruct them below.
  for (const auto& [seq, level] : entries) {
    KdTree tree = KdTree::open_mmap(tree_path(seq), /*verify_sections=*/true);
    data::PointSet exported(dims_);
    tree.export_points(exported);
    TreeShard shard = make_shard(std::move(tree), exported.ids(), level, seq);
    live_.insert(shard.ids->begin(), shard.ids->end());
    trees_.push_back(std::move(shard));
  }
  // order: relaxed — size() gauge; see the hpp.
  live_count_.store(live_.size(), std::memory_order_relaxed);

  // Replay the WAL's valid prefix in order. A torn tail is the
  // expected shape after a crash — the torn frame was never
  // acknowledged — so it is recorded, not thrown.
  auto replayed =
      Wal::replay(wal_path(wal_seq_), static_cast<std::uint32_t>(dims_));
  if (replayed.torn) recovery_diagnostic_ = replayed.diagnostic;
  for (const Wal::Frame& frame : replayed.frames) {
    switch (frame.type) {
      case Wal::FrameType::Insert: {
        data::PointSet points(dims_);
        for (std::size_t p = 0; p < frame.ids.size(); ++p) {
          points.push_point(
              std::span<const float>(frame.coords.data() + p * dims_, dims_),
              frame.ids[p]);
          PANDA_CHECK_MSG(live_.insert(frame.ids[p]).second,
                          "durable WAL replays id "
                              << frame.ids[p]
                              << " over a live id — inconsistent state in "
                              << config_.durable_dir);
        }
        apply_insert_locked(points);
        break;
      }
      case Wal::FrameType::Erase:
      case Wal::FrameType::Tombstones:
        apply_erase_locked(take_live_locked(frame.ids));
        break;
    }
  }
  wal_.emplace(Wal::open_for_append(wal_path(wal_seq_),
                                    static_cast<std::uint32_t>(dims_),
                                    replayed.valid_bytes));
  publish_locked();
}

void MutableIndex::write_manifest_locked() {
  std::vector<unsigned char> buf;
  buf.reserve(kManifestFixedBytes + trees_.size() * kManifestTreeBytes + 4);
  const auto put = [&](const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    buf.insert(buf.end(), b, b + n);
  };
  const std::uint64_t magic = kManifestMagic;
  const std::uint32_t version = kManifestVersion;
  const auto dims32 = static_cast<std::uint32_t>(dims_);
  const std::uint64_t tree_count = trees_.size();
  put(&magic, 8);
  put(&version, 4);
  put(&dims32, 4);
  put(&wal_seq_, 8);
  put(&next_file_seq_, 8);
  put(&tree_count, 8);
  for (const TreeShard& shard : trees_) {
    const std::uint32_t level = shard.level;
    const std::uint32_t pad = 0;
    put(&shard.file_seq, 8);
    put(&level, 4);
    put(&pad, 4);
  }
  const std::uint32_t crc = common::crc32c(buf.data(), buf.size());
  put(&crc, 4);
  common::AtomicFileWriter out(manifest_path());
  out.write(buf.data(), buf.size());
  out.commit();
}

void MutableIndex::rotate_wal_locked() {
  const std::uint64_t seq = next_file_seq_++;
  Wal fresh =
      Wal::create(wal_path(seq), static_cast<std::uint32_t>(dims_));
  // The committed tree files still hold their dead points (dead lists
  // are in-memory only), so the fresh log opens with one Tombstones
  // frame re-seeding them.
  IdList dead;
  for (const TreeShard& shard : trees_) {
    if (shard.dead != nullptr) {
      dead.insert(dead.end(), shard.dead->begin(), shard.dead->end());
    }
  }
  if (!dead.empty()) fresh.append_tombstones(dead);
  // Re-log the still-buffered batches (live points only — a run's
  // dead ids simply aren't carried forward).
  for (const Run& run : runs_) {
    data::PointSet live(dims_);
    append_live(run, live);
    if (!live.empty()) log_insert(fresh, live);
  }
  fresh.sync();
  wal_ = std::move(fresh);
  wal_seq_ = seq;
  last_wal_sync_ = std::chrono::steady_clock::now();
}

void MutableIndex::maybe_sync_wal_locked() {
  if (!wal_.has_value() || wal_->frames_since_sync() == 0) return;
  const auto now = std::chrono::steady_clock::now();
  const bool due_count = wal_->frames_since_sync() >= config_.wal_flush_every;
  const bool due_time =
      now - last_wal_sync_ >=
      std::chrono::microseconds(config_.wal_flush_interval_us);
  if (due_count || due_time) {
    wal_->sync();
    last_wal_sync_ = now;
  }
}

// ---------------------------------------------------------------------
// Read side
// ---------------------------------------------------------------------

void MutableIndex::knn_batch(const data::PointSet& queries, std::size_t k,
                             NeighborTable& results,
                             ForestWorkspace& ws) const {
  PANDA_CHECK_MSG(queries.dims() == dims_, "query dimensionality mismatch");
  PANDA_CHECK_MSG(k >= 1, "k must be >= 1");
  const auto snap = snapshot();
  results.reset_topk(queries.size(), k);
  if (queries.empty()) return;
  knn_rows(queries, k, *snap, results, ws);
}

void MutableIndex::knn_rows(const data::PointSet& queries, std::size_t k,
                            const Snapshot& snap, NeighborTable& results,
                            ForestWorkspace& ws) const {
  // Per-tree over-fetch CAP: at min(k + |dead|, tree size) a full
  // return always holds >= k live points, so the per-query retry loop
  // terminates there. The common case fetches far less.
  const std::size_t n_trees = snap.trees.size();
  ws.k_pad.resize(n_trees);
  for (std::size_t t = 0; t < n_trees; ++t) {
    const TreeShard& shard = snap.trees[t];
    const std::size_t dead = shard.dead != nullptr ? shard.dead->size() : 0;
    ws.k_pad[t] =
        std::min(k + dead, static_cast<std::size_t>(shard.tree->size()));
  }
  // Visit trees descending by size: the biggest tree establishes a
  // tight k-th-best bound that the per-query loop carries into every
  // later traversal, so the small trees of a deep mid-merge forest
  // prune to near-nothing instead of each paying a fresh unbounded
  // descent.
  ws.tree_order.resize(n_trees);
  for (std::size_t t = 0; t < n_trees; ++t) ws.tree_order[t] = t;
  std::sort(ws.tree_order.begin(), ws.tree_order.end(),
            [&](std::size_t a, std::size_t b) {
              return snap.trees[a].tree->size() > snap.trees[b].tree->size();
            });
  fork_join(*pool_, queries, kInlineBatchThreshold, ws.per_thread,
            [&](std::uint64_t i, ForestWorkspace::ThreadScratch& w, int) {
              knn_one(i, k, snap, ws, results, w);
            });
}

template <typename Within, typename Take>
void MutableIndex::scan_runs(std::span<const Run> runs,
                             ForestWorkspace::ThreadScratch& w,
                             const Within& within, const Take& take) const {
  // Accumulates in dimension order — the same arithmetic as the SIMD
  // leaf kernel and brute_force_knn — so merged results are
  // bit-identical to a from-scratch build over the live points.
  // Blocked over the SoA columns so the compiler vectorizes across
  // points; admission stays a scalar pass in point order.
  constexpr std::size_t kScanBlock = 256;
  if (w.dist.size() < kScanBlock) w.dist.resize(kScanBlock);
  for (const Run& run : runs) {
    const data::PointSet& ps = *run.points;
    for (std::size_t base = 0; base < ps.size(); base += kScanBlock) {
      const std::size_t len = std::min(kScanBlock, ps.size() - base);
      float* dist = w.dist.data();
      std::fill_n(dist, len, 0.0f);
      for (std::size_t d = 0; d < dims_; ++d) {
        const float q = w.query[d];
        const float* col = ps.coordinate(d).data() + base;
        for (std::size_t p = 0; p < len; ++p) {
          const float diff = q - col[p];
          dist[p] += diff * diff;
        }
      }
      for (std::size_t p = 0; p < len; ++p) {
        if (within(dist[p])) {
          const std::uint64_t id = ps.id(base + p);
          if (is_dead(run.dead, id)) continue;
          take(dist[p], id);
        }
      }
    }
  }
}

void MutableIndex::knn_one(std::size_t i, std::size_t k,
                           const Snapshot& snap,
                           const ForestWorkspace& ws,
                           NeighborTable& results,
                           ForestWorkspace::ThreadScratch& w) const {
  w.heap.reset(k);
  scan_runs(
      snap.runs, w, [&w](float d2) { return d2 <= w.heap.bound(); },
      [&w](float d2, std::uint64_t id) { w.heap.offer(d2, id); });
  const auto slot = results.slot(i);
  std::size_t count = w.heap.extract_sorted_into(slot.data());
  constexpr float kInf = std::numeric_limits<float>::infinity();
  for (const std::size_t t : ws.tree_order) {
    const TreeShard& shard = snap.trees[t];
    const std::size_t cap = ws.k_pad[t];
    const std::size_t dead_n = shard.dead != nullptr ? shard.dead->size() : 0;
    if (w.row.size() < cap) w.row.resize(cap);
    // Carry the running k-th best as the traversal bound: only
    // candidates strictly below (kth dist², kth id) in the §5 tie
    // order can still displace a merged result, which is exactly
    // query_sq_into's admission rule — results stay exact, later
    // (smaller) trees prune to near-nothing.
    float bound2 = kInf;
    std::uint64_t bound_id = 0;
    if (count == k) {
      bound2 = slot[k - 1].dist2;
      bound_id = slot[k - 1].id;
    }
    // Tombstones over-fetch lazily: ask for k plus a little, filter,
    // and double only if the dead ids actually crowded this query's
    // neighborhood — padding outright to k + |dead| would turn every
    // k=5 query on a 125-tombstone tree into a k=130 one. Exactness:
    // if got < k_try the tree returned every point admissible under
    // the bound, so the filtered list is already complete; any
    // unreturned point ranks after the k_try-th returned one, so k
    // live survivors bound the true top-k; and at the cap
    // min(k + |dead|, tree size) a full return holds at least k live
    // points by counting.
    std::size_t k_try = std::min(k + std::min<std::size_t>(dead_n, 8), cap);
    std::span<const Neighbor> incoming;
    for (;;) {
      const std::size_t got = shard.tree->query_sq_into(
          std::span<const float>(w.query.data(), dims_), k_try, bound2,
          w.tree_ws, std::span<Neighbor>(w.row.data(), k_try),
          TraversalPolicy::Exact, nullptr, bound_id);
      incoming = std::span<const Neighbor>(w.row.data(), got);
      if (shard.dead != nullptr) {
        w.filtered.clear();
        append_live_rows(incoming, shard.dead, w.filtered);
        incoming = w.filtered;
      }
      if (got < k_try || incoming.size() >= k || k_try >= cap) break;
      k_try = std::min(cap, k_try * 2);
    }
    count = merge_topk_into_row(slot, count, incoming, k, w.scratch);
  }
  results.set_count(i, count);
}

void MutableIndex::radius_batch(const data::PointSet& queries,
                                std::span<const float> radii,
                                NeighborTable& results,
                                ForestWorkspace& ws) const {
  PANDA_CHECK_MSG(queries.dims() == dims_, "query dimensionality mismatch");
  PANDA_CHECK_MSG(radii.size() == queries.size(),
                  "radius_batch needs one radius per query");
  for (const float radius : radii) {
    PANDA_CHECK_MSG(radius >= 0.0f, "radius must be non-negative");
  }
  const auto snap = snapshot();
  const std::uint64_t n = queries.size();
  results.reset_rows(n);
  if (n == 0) return;
  for (auto& w : ws.per_thread) w.staging.clear();
  if (ws.row_refs.size() < n) ws.row_refs.resize(n);
  // Each thread stages its rows contiguously in its own buffer and
  // records where each query's row landed; the stitch below copies
  // them into the flat table in query order.
  fork_join(*pool_, queries, kInlineRadiusThreshold, ws.per_thread,
            [&](std::uint64_t i, ForestWorkspace::ThreadScratch& w, int tid) {
              const std::uint64_t begin = w.staging.size();
              const float r2 = radii[i] * radii[i];
              scan_runs(
                  snap->runs, w, [r2](float d2) { return d2 < r2; },
                  [&w](float d2, std::uint64_t id) {
                    w.staging.push_back({d2, id});
                  });
              for (const TreeShard& shard : snap->trees) {
                shard.tree->query_radius_into(
                    std::span<const float>(w.query.data(), dims_), radii[i],
                    w.tree_ws, w.row);
                append_live_rows(w.row, shard.dead, w.staging);
              }
              std::sort(w.staging.begin() + static_cast<std::ptrdiff_t>(begin),
                        w.staging.end());
              ws.row_refs[i] = {
                  begin, static_cast<std::uint32_t>(w.staging.size() - begin),
                  static_cast<std::uint32_t>(tid)};
            });
  for (std::uint64_t i = 0; i < n; ++i) {
    const QueryWorkspace::RowRef& ref = ws.row_refs[i];
    const auto& staging = ws.per_thread[ref.thread].staging;
    results.append_row(
        i, std::span<const Neighbor>(staging.data() + ref.begin, ref.count));
  }
}

void MutableIndex::self_knn_batch(std::size_t k, NeighborTable& results,
                                  ForestWorkspace& ws) const {
  // One snapshot serves both the query set and the answers, so the
  // call is exact even while writers race it.
  const auto snap = snapshot();
  const data::PointSet queries = live_points_of(*snap);
  PANDA_CHECK_MSG(k >= 1, "k must be >= 1");
  results.reset_topk(queries.size(), k);
  if (queries.empty()) return;
  knn_rows(queries, k, *snap, results, ws);
}

data::PointSet MutableIndex::live_points() const {
  return live_points_of(*snapshot());
}

void MutableIndex::save(const std::string& path) const {
  // Compact-on-save: the artifact is always one packed tree with
  // zero tombstones, built over the pinned snapshot's live points in
  // ascending-id order. The in-memory forest is untouched (save is
  // const and concurrent-safe); Index::open seeds a fresh forest's
  // largest level from the file.
  const data::PointSet live = live_points();
  PANDA_CHECK_MSG(!live.empty(),
                  "cannot save an empty mutable index (insert points first)");
  const KdTree compacted = KdTree::build(live, build_, *pool_);
  compacted.save(path);
}

MutationStats MutableIndex::stats() const {
  MutexLock lock(mutex_);
  MutationStats out;
  out.inserts = inserts_;
  out.erases = erases_;
  out.seals = seals_;
  out.merges = merges_;
  out.compactions = compactions_;
  // order: relaxed — size() gauge; see the hpp.
  out.live_points = live_count_.load(std::memory_order_relaxed);
  out.buffered_points = 0;
  out.tombstones = 0;
  for (const Run& run : runs_) {
    out.buffered_points += run.points->size();
    if (run.dead != nullptr) out.tombstones += run.dead->size();
  }
  for (const TreeShard& shard : trees_) {
    if (shard.dead != nullptr) out.tombstones += shard.dead->size();
  }
  out.trees = trees_.size();
  out.pending_sealed_groups = sealed_groups_.size();
  out.merge_in_flight = busy_lanes_ > 0;
  return out;
}

}  // namespace panda::core
