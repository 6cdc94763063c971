// MutableIndex — the logarithmic method over packed kd-trees
// (DESIGN.md §12).
//
// Concurrency shape in one paragraph: mutex_ guards the write-side
// state (runs, sealed groups, forest, live-id set); every mutation
// ends by publishing a fresh immutable Snapshot through one
// atomic<shared_ptr> store, and queries only ever touch that snapshot.
// The merge thread claims work under the lock (copying the claimed
// Run/TreeShard values, whose payloads are immutable shared state),
// builds the replacement tree outside the lock, and re-locks only to
// splice the forest and publish. Erases that land while a merge is in
// flight COW the *current* containers; at publish time the merge
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

bool contains(const std::vector<std::uint64_t>& sorted, std::uint64_t id) {
  return std::binary_search(sorted.begin(), sorted.end(), id);
}

/// Ascending copy of `ids`; throws on duplicates (seed trees must
/// carry unique ids for the live set to mean anything).
std::vector<std::uint64_t> sorted_unique_ids(
    std::span<const std::uint64_t> ids) {
  std::vector<std::uint64_t> sorted(ids.begin(), ids.end());
  std::sort(sorted.begin(), sorted.end());
  const auto dup = std::adjacent_find(sorted.begin(), sorted.end());
  PANDA_CHECK_MSG(dup == sorted.end(),
                  "MutableIndex seed has duplicate id " << *dup);
  return sorted;
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
  seal_thread_ = std::thread([this] { seal_loop(); });
  merge_thread_ = std::thread([this] { merge_loop(); });
}

MutableIndex::MutableIndex(KdTree seed, const MutableConfig& config,
                           const BuildConfig& build,
                           std::shared_ptr<parallel::ThreadPool> pool)
    : MutableIndex(seed.dims(), config, build, std::move(pool)) {
  if (!seed.empty()) {
    data::PointSet exported(dims_);
    seed.export_points(exported);
    auto ids =
        std::make_shared<const IdList>(sorted_unique_ids(exported.ids()));
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
    live_.insert(ids->begin(), ids->end());
    // order: relaxed — live_count_ is the size() gauge; see the hpp.
    live_count_.store(ids->size(), std::memory_order_relaxed);
    TreeShard shard;
    shard.level = level_for_size(seed.size());
    shard.ids = std::move(ids);
    shard.tree = std::make_shared<const KdTree>(std::move(seed));
    if (durable()) {
      shard.file_seq = next_file_seq_++;
      shard.tree->save(tree_path(shard.file_seq));
    }
    trees_.push_back(std::move(shard));
    if (durable()) write_manifest_locked();
    publish_locked();
  }
}

MutableIndex::~MutableIndex() {
  {
    MutexLock lock(mutex_);
    stop_ = true;
  }
  seal_cv_.notify_all();
  merge_cv_.notify_all();
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
      std::vector<std::uint64_t> ids(points.ids().begin(),
                                     points.ids().end());
      std::vector<float> coords(points.size() * dims_);
      for (std::size_t p = 0; p < points.size(); ++p) {
        points.copy_point(p, coords.data() + p * dims_);
      }
      wal_->append_insert(ids, coords);
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
  open_runs_.push_back(std::move(run));
  open_points_ += points.size();
  inserts_ += points.size();
  // order: relaxed — size() gauge; see the hpp.
  live_count_.fetch_add(points.size(), std::memory_order_relaxed);
  if (open_points_ >= config_.buffer_capacity) {
    sealed_groups_.push_back(std::move(open_runs_));
    open_runs_.clear();
    open_points_ = 0;
    seal_cv_.notify_one();
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
  const auto is_dead = [](const std::shared_ptr<const IdList>& dead,
                          std::uint64_t id) {
    return dead != nullptr && contains(*dead, id);
  };
  const auto scan_run = [&](Run& run) {
    if (pending.empty()) return;
    for (const std::uint64_t id : run.points->ids()) {
      if (contains(pending, id) && !is_dead(run.dead, id)) found.push_back(id);
    }
    retire(run.dead);
  };
  for (Run& run : open_runs_) scan_run(run);
  for (auto& group : sealed_groups_) {
    for (Run& run : group) scan_run(run);
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
  auto snap = std::make_shared<Snapshot>();
  std::size_t n_runs = open_runs_.size();
  for (const auto& group : sealed_groups_) n_runs += group.size();
  snap->runs.reserve(n_runs);
  for (const auto& group : sealed_groups_) {
    snap->runs.insert(snap->runs.end(), group.begin(), group.end());
  }
  snap->runs.insert(snap->runs.end(), open_runs_.begin(), open_runs_.end());
  snap->trees = trees_;
  // order: release — publishes the fully built Snapshot; pairs with the
  // acquire load in snapshot().
  snapshot_.store(std::shared_ptr<const Snapshot>(std::move(snap)),
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

bool MutableIndex::has_work_locked() const {
  return !sealed_groups_.empty() || overfull_level_locked() >= 0;
}

// ---------------------------------------------------------------------
// Background merges
// ---------------------------------------------------------------------

// Both lanes run at normal priority on purpose: a deprioritized
// background thread starves on a saturated box, work piles up, and
// queries degrade *structurally* (ever-longer brute scans over
// unsealed runs, ever-deeper forests) — worse than the CPU it saves.
// The interference bound comes from merge_build_pool_ being size 1
// instead: each lane builds on its own single thread, query batches
// keep the whole shared-pool team.

void MutableIndex::seal_loop() {
  MutexLock lock(mutex_);
  for (;;) {
    seal_cv_.wait(lock, [&]() PANDA_REQUIRES(mutex_) {
      return stop_ || !sealed_groups_.empty();
    });
    if (stop_) return;  // abandon pending work; the index is dying
    seal_busy_ = true;
    // Claim by value: the Run payloads are immutable, and the dead
    // lists are COW — this copy IS the dead-at-claim baseline. The
    // durable file sequence is allocated at claim, under the lock, so
    // the build can write tree-<seq>.panda without holding it.
    std::vector<Run> claimed = sealed_groups_.front();
    const std::uint64_t seq = durable() ? next_file_seq_++ : 0;
    lock.unlock();
    do_seal(std::move(claimed), seq);
    lock.lock();
    seal_busy_ = false;
    merge_cv_.notify_one();  // the new level-0 tree may overfill level 0
    idle_cv_.notify_all();
  }
}

void MutableIndex::merge_loop() {
  MutexLock lock(mutex_);
  for (;;) {
    // Cascading overfull levels (a merge into level L+1 overfilling
    // L+1) re-enter through the wait predicate, which re-evaluates
    // before parking.
    merge_cv_.wait(lock, [&]() PANDA_REQUIRES(mutex_) {
      return stop_ || overfull_level_locked() >= 0;
    });
    if (stop_) return;
    merge_busy_ = true;
    const int level = overfull_level_locked();
    std::vector<TreeShard> claimed;
    for (const TreeShard& shard : trees_) {
      if (static_cast<int>(shard.level) == level) claimed.push_back(shard);
    }
    const std::uint64_t seq = durable() ? next_file_seq_++ : 0;
    lock.unlock();
    do_level_merge(static_cast<std::uint32_t>(level), std::move(claimed),
                   seq);
    lock.lock();
    merge_busy_ = false;
    idle_cv_.notify_all();
  }
}

void MutableIndex::do_seal(std::vector<Run> claimed, std::uint64_t file_seq) {
  // Gather the points live at claim time and build outside the lock;
  // queries keep brute-scanning the runs from their pinned snapshots.
  data::PointSet pts(dims_);
  std::vector<float> buf(dims_);
  for (const Run& run : claimed) {
    const data::PointSet& ps = *run.points;
    for (std::size_t p = 0; p < ps.size(); ++p) {
      const std::uint64_t id = ps.id(p);
      if (run.dead != nullptr && contains(*run.dead, id)) continue;
      ps.copy_point(p, buf.data());
      pts.push_point(buf, id);
    }
  }
  std::shared_ptr<const KdTree> tree;
  std::shared_ptr<const IdList> ids;
  if (!pts.empty()) {
    tree = std::make_shared<const KdTree>(
        KdTree::build(pts, build_, merge_build_pool_));
    ids = std::make_shared<const IdList>(sorted_unique_ids(pts.ids()));
  }
  // Persist outside the lock too — the file is invisible until the
  // MANIFEST names it, so writers/queries never stall on this I/O. An
  // uncommitted file left by a crash is swept at recovery.
  if (durable() && tree != nullptr) tree->save(tree_path(file_seq));

  MutexLock lock(mutex_);
  // Writers only ever COW dead lists inside the queued group, so the
  // front still matches `claimed` position by position. Ids erased
  // since the claim are inside the new tree — carry them as residual
  // tombstones.
  IdList residual;
  const std::vector<Run>& current = sealed_groups_.front();
  for (std::size_t r = 0; r < current.size(); ++r) {
    if (current[r].dead == nullptr) continue;
    for (const std::uint64_t id : *current[r].dead) {
      if (claimed[r].dead == nullptr || !contains(*claimed[r].dead, id)) {
        residual.push_back(id);
      }
    }
  }
  sealed_groups_.pop_front();
  if (tree != nullptr) {
    std::sort(residual.begin(), residual.end());
    TreeShard shard;
    shard.tree = std::move(tree);
    shard.level = 0;
    shard.ids = std::move(ids);
    shard.file_seq = file_seq;
    if (!residual.empty()) {
      shard.dead = std::make_shared<const IdList>(std::move(residual));
    }
    trees_.push_back(std::move(shard));
  } else {
    // Everything was dead at claim: nothing live remained for an
    // erase to target afterwards, so there can be no residual.
    PANDA_ASSERT(residual.empty());
  }
  ++seals_;
  if (durable()) {
    // Commit the seal and shrink the log in one step: rotate to a
    // fresh WAL holding only the still-buffered state, then the
    // MANIFEST rename makes {new tree file, new WAL} the committed
    // truth. The old WAL (whose frames the new tree now embodies) is
    // deleted only after the commit — a crash in between recovers
    // from the old WAL and sweeps the new files as orphans.
    const std::uint64_t old_wal = wal_seq_;
    rotate_wal_locked();
    write_manifest_locked();
    std::error_code ec;
    std::filesystem::remove(wal_path(old_wal), ec);
  }
  publish_locked();
}

void MutableIndex::do_level_merge(std::uint32_t level,
                                  std::vector<TreeShard> claimed,
                                  std::uint64_t file_seq) {
  data::PointSet pts(dims_);
  data::PointSet exported(dims_);
  std::vector<float> buf(dims_);
  for (const TreeShard& shard : claimed) {
    exported.clear();
    shard.tree->export_points(exported);
    for (std::size_t p = 0; p < exported.size(); ++p) {
      const std::uint64_t id = exported.id(p);
      if (shard.dead != nullptr && contains(*shard.dead, id)) continue;
      exported.copy_point(p, buf.data());
      pts.push_point(buf, id);
    }
  }
  std::shared_ptr<const KdTree> tree;
  std::shared_ptr<const IdList> ids;
  if (!pts.empty()) {
    tree = std::make_shared<const KdTree>(
        KdTree::build(pts, build_, merge_build_pool_));
    ids = std::make_shared<const IdList>(sorted_unique_ids(pts.ids()));
  }
  if (durable() && tree != nullptr) tree->save(tree_path(file_seq));

  MutexLock lock(mutex_);
  IdList residual;
  std::vector<TreeShard> rest;
  rest.reserve(trees_.size());
  for (TreeShard& current : trees_) {
    const auto source = std::find_if(
        claimed.begin(), claimed.end(), [&](const TreeShard& c) {
          return c.tree.get() == current.tree.get();
        });
    if (source == claimed.end()) {
      rest.push_back(std::move(current));
      continue;
    }
    if (current.dead != nullptr) {
      for (const std::uint64_t id : *current.dead) {
        if (source->dead == nullptr || !contains(*source->dead, id)) {
          residual.push_back(id);
        }
      }
    }
  }
  trees_ = std::move(rest);
  if (tree != nullptr) {
    std::sort(residual.begin(), residual.end());
    TreeShard shard;
    shard.tree = std::move(tree);
    shard.level = level + 1;
    shard.ids = std::move(ids);
    shard.file_seq = file_seq;
    if (!residual.empty()) {
      shard.dead = std::make_shared<const IdList>(std::move(residual));
    }
    trees_.push_back(std::move(shard));
  } else {
    PANDA_ASSERT(residual.empty());
  }
  ++merges_;
  if (durable()) {
    // A merge is a MANIFEST-only commit: no WAL rotation (erase
    // frames replay by live-id membership, so ids the merge dropped
    // are skipped silently). Source files outlive the commit, then go.
    write_manifest_locked();
    std::error_code ec;
    for (const TreeShard& source : claimed) {
      std::filesystem::remove(tree_path(source.file_seq), ec);
    }
  }
  publish_locked();
}

void MutableIndex::quiesce() {
  MutexLock lock(mutex_);
  idle_cv_.wait(lock, [&]() PANDA_REQUIRES(mutex_) {
    return !seal_busy_ && !merge_busy_ && !has_work_locked();
  });
}

void MutableIndex::compact() {
  MutexLock lock(mutex_);
  // Drain both background lanes first: their publish steps match
  // containers positionally / by pointer, so the forest must not
  // change shape under a claim. The wait releases the lock, letting
  // them finish.
  idle_cv_.wait(lock, [&]() PANDA_REQUIRES(mutex_) {
    return !seal_busy_ && !merge_busy_ && !has_work_locked();
  });
  data::PointSet pts(dims_);
  gather_live_locked(pts);
  data::PointSet sorted = sort_by_id(pts);
  std::vector<std::uint64_t> old_files;
  if (durable()) {
    old_files.reserve(trees_.size());
    for (const TreeShard& shard : trees_) old_files.push_back(shard.file_seq);
  }
  open_runs_.clear();
  open_points_ = 0;
  trees_.clear();
  if (!sorted.empty()) {
    // Built under the lock: writers wait, queries keep serving the
    // pre-compaction snapshot.
    TreeShard shard;
    shard.tree = std::make_shared<const KdTree>(
        KdTree::build(sorted, build_, *pool_));
    shard.level = level_for_size(sorted.size());
    shard.ids = std::make_shared<const IdList>(
        sorted_unique_ids(sorted.ids()));
    if (durable()) {
      shard.file_seq = next_file_seq_++;
      shard.tree->save(tree_path(shard.file_seq));
    }
    trees_.push_back(std::move(shard));
  }
  ++compactions_;
  if (durable()) {
    // The buffer is empty and the one tree has no tombstones, so the
    // rotated WAL is just a fresh header.
    const std::uint64_t old_wal = wal_seq_;
    rotate_wal_locked();
    write_manifest_locked();
    std::error_code ec;
    std::filesystem::remove(wal_path(old_wal), ec);
    for (const std::uint64_t seq : old_files) {
      std::filesystem::remove(tree_path(seq), ec);
    }
  }
  publish_locked();
}

void MutableIndex::gather_live_locked(data::PointSet& out) const {
  std::vector<float> buf(dims_);
  const auto gather_run = [&](const Run& run) {
    const data::PointSet& ps = *run.points;
    for (std::size_t p = 0; p < ps.size(); ++p) {
      const std::uint64_t id = ps.id(p);
      if (run.dead != nullptr && contains(*run.dead, id)) continue;
      ps.copy_point(p, buf.data());
      out.push_point(buf, id);
    }
  };
  for (const auto& group : sealed_groups_) {
    for (const Run& run : group) gather_run(run);
  }
  for (const Run& run : open_runs_) gather_run(run);
  data::PointSet exported(dims_);
  for (const TreeShard& shard : trees_) {
    exported.clear();
    shard.tree->export_points(exported);
    for (std::size_t p = 0; p < exported.size(); ++p) {
      const std::uint64_t id = exported.id(p);
      if (shard.dead != nullptr && contains(*shard.dead, id)) continue;
      exported.copy_point(p, buf.data());
      out.push_point(buf, id);
    }
  }
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
    auto ids =
        std::make_shared<const IdList>(sorted_unique_ids(exported.ids()));
    live_.insert(ids->begin(), ids->end());
    TreeShard shard;
    shard.tree = std::make_shared<const KdTree>(std::move(tree));
    shard.level = level;
    shard.ids = std::move(ids);
    shard.file_seq = seq;
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
        }
        for (std::size_t p = 0; p < points.size(); ++p) {
          PANDA_CHECK_MSG(live_.insert(points.id(p)).second,
                          "durable WAL replays id "
                              << points.id(p)
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
  std::vector<std::uint64_t> ids;
  std::vector<float> coords;
  std::vector<float> buf(dims_);
  const auto relog = [&](const Run& run) {
    ids.clear();
    coords.clear();
    const data::PointSet& ps = *run.points;
    for (std::size_t p = 0; p < ps.size(); ++p) {
      const std::uint64_t id = ps.id(p);
      if (run.dead != nullptr && contains(*run.dead, id)) continue;
      ids.push_back(id);
      ps.copy_point(p, buf.data());
      coords.insert(coords.end(), buf.begin(), buf.end());
    }
    if (!ids.empty()) fresh.append_insert(ids, coords);
  };
  for (const auto& group : sealed_groups_) {
    for (const Run& run : group) relog(run);
  }
  for (const Run& run : open_runs_) relog(run);
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

namespace {

/// Appends the live points of one pinned snapshot (runs, then trees).
void gather_snapshot_live(std::size_t dims, const auto& runs,
                          const auto& trees, data::PointSet& out) {
  std::vector<float> buf(dims);
  for (const auto& run : runs) {
    const data::PointSet& ps = *run.points;
    for (std::size_t p = 0; p < ps.size(); ++p) {
      const std::uint64_t id = ps.id(p);
      if (run.dead != nullptr && contains(*run.dead, id)) continue;
      ps.copy_point(p, buf.data());
      out.push_point(buf, id);
    }
  }
  data::PointSet exported(dims);
  for (const auto& shard : trees) {
    exported.clear();
    shard.tree->export_points(exported);
    for (std::size_t p = 0; p < exported.size(); ++p) {
      const std::uint64_t id = exported.id(p);
      if (shard.dead != nullptr && contains(*shard.dead, id)) continue;
      exported.copy_point(p, buf.data());
      out.push_point(buf, id);
    }
  }
}

}  // namespace

void MutableIndex::knn_batch(const data::PointSet& queries, std::size_t k,
                             NeighborTable& results, ForestWorkspace& ws,
                             TraversalPolicy policy) const {
  PANDA_CHECK_MSG(queries.dims() == dims_, "query dimensionality mismatch");
  PANDA_CHECK_MSG(k >= 1, "k must be >= 1");
  const auto snap = snapshot();
  results.reset_topk(queries.size(), k);
  if (queries.empty()) return;
  knn_rows(queries, k, *snap, policy, results, ws);
}

void MutableIndex::knn_rows(const data::PointSet& queries, std::size_t k,
                            const Snapshot& snap, TraversalPolicy policy,
                            NeighborTable& results,
                            ForestWorkspace& ws) const {
  // One chunk-stolen parallel region answers every query end to end:
  // buffer scan, every tree (the single-query kernel — documented
  // identical to the batch kernel's rows — with lazy tombstone
  // over-fetch), and the (dist², id) row merge. One fork-join per batch, NOT one
  // per tree: a mid-merge forest is deep (up to fan_in trees per
  // level), and on a loaded box every extra barrier's join tail costs
  // a scheduler round against the background build — the per-tree
  // two-pass form was the dominant term in bench_mutable's
  // p99-during-merges gate. Rows are disjoint and the snapshot is
  // immutable, so threads share nothing but the work counter.
  // Per-tree over-fetch CAP: at min(k + |dead|, tree size) a full
  // return always holds >= k live points, so the per-query retry loop
  // terminates there. The common case fetches far less.
  const std::size_t n_trees = snap.trees.size();
  if (ws.k_pad.size() < n_trees) ws.k_pad.resize(n_trees);
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
  const std::uint64_t n = queries.size();
  const auto threads = static_cast<std::size_t>(pool_->size());
  if (ws.merge.size() < threads) ws.merge.resize(threads);
  struct Ctx {
    const MutableIndex* self;
    const data::PointSet* queries;
    const Snapshot* snap;
    NeighborTable* results;
    ForestWorkspace* ws;
    std::size_t k;
    TraversalPolicy policy;
    std::uint64_t n;
    std::uint64_t grain;
    std::atomic<std::uint64_t> next{0};
  } ctx{this,
        &queries,
        &snap,
        &results,
        &ws,
        k,
        policy,
        n,
        // Finer grain than the tree kernels (16 chunks/thread, not 4):
        // the batch ends when the last chunk finishes, and on a box
        // where a background merge thread competes for cores, a fat
        // final chunk on a descheduled straggler stretches the whole
        // batch. Steal cost is one relaxed fetch_add per chunk.
        std::clamp<std::uint64_t>(
            n / (static_cast<std::uint64_t>(threads) * 16 + 1), 1, 32),
        {}};
  const auto body = [c = &ctx](int tid) {
    ForestWorkspace::MergeScratch& w =
        c->ws->merge[static_cast<std::size_t>(tid)];
    const std::span<const std::size_t> k_pads(c->ws->k_pad.data(),
                                              c->snap->trees.size());
    const std::span<const std::size_t> tree_order(
        c->ws->tree_order.data(), c->snap->trees.size());
    for (;;) {
      // order: relaxed — pure work-stealing counter; chunk claims need
      // atomicity only, the batch's completion barrier orders the data.
      const std::uint64_t lo =
          c->next.fetch_add(c->grain, std::memory_order_relaxed);
      if (lo >= c->n) break;
      const std::uint64_t hi = std::min(lo + c->grain, c->n);
      for (std::uint64_t i = lo; i < hi; ++i) {
        c->self->answer_one_query(*c->queries, i, c->k, *c->snap, k_pads,
                                  tree_order, c->policy, *c->results, w);
      }
    }
  };
  // Same inline cutoffs as dispatch_batch in the tree kernels: tiny
  // batches and size-1 pools skip the fan-out, a busy team falls back
  // to covering the whole range inline (the body self-schedules).
  if (n <= 64 || pool_->size() == 1) {
    body(0);
    return;
  }
  if (!pool_->try_run(body)) body(0);
}

void MutableIndex::answer_one_query(const data::PointSet& queries,
                                    std::size_t i, std::size_t k,
                                    const Snapshot& snap,
                                    std::span<const std::size_t> k_pads,
                                    std::span<const std::size_t> tree_order,
                                    TraversalPolicy policy,
                                    NeighborTable& results,
                                    ForestWorkspace::MergeScratch& w) const {
  // The buffer scan accumulates in dimension order — the same
  // arithmetic as the SIMD leaf kernel and brute_force_knn — so merged
  // results are bit-identical to a from-scratch build over the live
  // points.
  w.query.resize(dims_);
  queries.copy_point(i, w.query.data());
  w.heap.reset(k);
  // Blocked over the SoA columns so the compiler vectorizes across
  // points; each point's accumulation still runs in dimension order,
  // preserving the bit-identical contract above. Admission stays a
  // scalar pass with the same comparison sequence as before.
  constexpr std::size_t kScanBlock = 256;
  if (w.dist.size() < kScanBlock) w.dist.resize(kScanBlock);
  for (const Run& run : snap.runs) {
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
        if (dist[p] <= w.heap.bound()) {
          const std::uint64_t id = ps.id(base + p);
          if (run.dead != nullptr && contains(*run.dead, id)) continue;
          w.heap.offer(dist[p], id);
        }
      }
    }
  }
  const auto slot = results.slot(i);
  std::size_t count = w.heap.extract_sorted_into(slot.data());
  constexpr float kInf = std::numeric_limits<float>::infinity();
  for (const std::size_t t : tree_order) {
    const TreeShard& shard = snap.trees[t];
    const std::size_t cap = k_pads[t];
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
          w.tree_ws, std::span<Neighbor>(w.row.data(), k_try), policy,
          nullptr, bound_id);
      incoming = std::span<const Neighbor>(w.row.data(), got);
      if (shard.dead != nullptr) {
        w.filtered.clear();
        for (const Neighbor& nb : incoming) {
          if (!contains(*shard.dead, nb.id)) w.filtered.push_back(nb);
        }
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
  results.reset_rows(queries.size());
  if (queries.empty()) return;
  if (ws.tree_tables.size() < snap->trees.size()) {
    ws.tree_tables.resize(snap->trees.size());
  }
  for (std::size_t t = 0; t < snap->trees.size(); ++t) {
    snap->trees[t].tree->query_radius_batch(queries, radii, *pool_,
                                            ws.tree_tables[t], ws.batch);
  }
  ws.query.resize(dims_);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    queries.copy_point(i, ws.query.data());
    const float r2 = radii[i] * radii[i];
    ws.merged.clear();
    for (const Run& run : snap->runs) {
      const data::PointSet& ps = *run.points;
      for (std::size_t p = 0; p < ps.size(); ++p) {
        float acc = 0.0f;
        for (std::size_t d = 0; d < dims_; ++d) {
          const float diff = ws.query[d] - ps.at(p, d);
          acc += diff * diff;
        }
        if (acc < r2) {
          const std::uint64_t id = ps.id(p);
          if (run.dead != nullptr && contains(*run.dead, id)) continue;
          ws.merged.push_back(Neighbor{acc, id});
        }
      }
    }
    for (std::size_t t = 0; t < snap->trees.size(); ++t) {
      const TreeShard& shard = snap->trees[t];
      for (const Neighbor& nb : ws.tree_tables[t].row(i)) {
        if (shard.dead != nullptr && contains(*shard.dead, nb.id)) continue;
        ws.merged.push_back(nb);
      }
    }
    std::sort(ws.merged.begin(), ws.merged.end());
    results.append_row(i, ws.merged);
  }
}

void MutableIndex::self_knn_batch(std::size_t k, NeighborTable& results,
                                  ForestWorkspace& ws) const {
  // One snapshot serves both the query set and the answers, so the
  // call is exact even while writers race it.
  const auto snap = snapshot();
  data::PointSet live(dims_);
  gather_snapshot_live(dims_, snap->runs, snap->trees, live);
  const data::PointSet queries = sort_by_id(live);
  PANDA_CHECK_MSG(k >= 1, "k must be >= 1");
  results.reset_topk(queries.size(), k);
  if (queries.empty()) return;
  knn_rows(queries, k, *snap, TraversalPolicy::Exact, results, ws);
}

data::PointSet MutableIndex::live_points() const {
  const auto snap = snapshot();
  data::PointSet live(dims_);
  gather_snapshot_live(dims_, snap->runs, snap->trees, live);
  return sort_by_id(live);
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
  const auto count_run = [&](const Run& run) {
    out.buffered_points += run.points->size();
    if (run.dead != nullptr) out.tombstones += run.dead->size();
  };
  for (const auto& group : sealed_groups_) {
    for (const Run& run : group) count_run(run);
  }
  for (const Run& run : open_runs_) count_run(run);
  for (const TreeShard& shard : trees_) {
    if (shard.dead != nullptr) out.tombstones += shard.dead->size();
  }
  out.trees = trees_.size();
  out.pending_sealed_groups = sealed_groups_.size();
  out.merge_in_flight = seal_busy_ || merge_busy_;
  return out;
}

}  // namespace panda::core
