// The PANDA local kd-tree (Sections III-A ii–iv and III-C).
//
// Construction runs in three phases, exactly as the paper describes:
//   1. data-parallel breadth-first top levels — all pool threads
//      cooperate on one node at a time: sampled-variance dimension
//      choice, sampled-histogram approximate median (counted with the
//      SIMD sub-interval searcher), parallel partition;
//   2. thread-parallel depth-first subtrees — once the frontier holds
//      at least threads x switch_factor branches, each subtree is
//      built serially by one pool thread;
//   3. SIMD packing — leaf buckets (<= bucket_size points) are copied
//      into padded, aligned, bucket-contiguous SoA storage so querying
//      scans them with vector code.
//
// Node storage is split hot/cold (DESIGN.md §9): traversal reads a
// flat array of 12-byte HotNode records (split, dim, child pair) laid
// out with sibling children adjacent, while leaf bucket metadata
// (packed offset + live count) lives in a separate cold LeafInfo
// array touched only when a bucket is actually scanned. Querying
// implements Algorithm 1 as an explicit-stack iterative descent with
// a bounded max-heap, near-child-first ordering, lower-bound pruning,
// and a prefetch of each admitted far-child record. Two pruning
// policies are provided (see TraversalPolicy); the default is exact.
// Radius-limited queries (the r of Algorithm 1) support the
// distributed remote-KNN stage.
//
// Result and scratch memory are caller-owned on the native entry
// points: query_sq_into / query_radius_into take a QueryWorkspace, the
// batch entry points take a NeighborTable + BatchWorkspace — repeated
// calls with warm state make zero allocator calls (DESIGN.md §9). The
// classic std::vector returns remain as thin compatibility shims.
//
// Thread safety: a built tree is immutable, and every query entry
// point is const — concurrent queries from any number of threads are
// safe (the serving frontend depends on this). All mutable query state
// lives in the caller's QueryWorkspace/BatchWorkspace (the shims use a
// per-thread workspace internally); QueryStats out-parameters are
// caller-owned, so concurrent callers must pass distinct instances
// (the batch entry points already accumulate per-thread).
//
// Storage backing (DESIGN.md §11): the query kernels read the tree
// through std::span views. A built or load()ed tree owns its arrays;
// an open_mmap()ed tree binds the same views straight into a mapped
// index file — open cost is one mmap plus header validation, no
// matter how many points the index holds. Either way the views are
// immutable after construction, so KdTree is move-only (a copy would
// alias the owner's buffers).
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/aligned.hpp"
#include "common/mmap_file.hpp"
#include "core/knn_heap.hpp"
#include "core/neighbor_table.hpp"
#include "core/query_workspace.hpp"
#include "data/point_set.hpp"
#include "data/storage.hpp"
#include "parallel/thread_pool.hpp"

namespace panda::core {

struct BuildConfig {
  /// How the split dimension is chosen. MaxVariance is the paper's
  /// choice (costs up to 18 % more construction time, improves query
  /// time by up to 43 % — Section III-A1); RoundRobin cycles the
  /// dimensions by depth, the cheap classical alternative measured in
  /// bench_ablation.
  enum class DimensionPolicy { MaxVariance, RoundRobin };
  DimensionPolicy dim_policy = DimensionPolicy::MaxVariance;

  /// Leaf capacity; the paper found 32 best (Section III-A1).
  std::uint32_t bucket_size = 32;
  /// Sample size for variance-based dimension selection.
  std::uint32_t variance_samples = 256;
  /// Sample size for the local histogram median (paper: 1024).
  std::uint32_t median_samples = 1024;
  /// Switch to thread-parallel subtrees at >= threads * this factor
  /// frontier branches. The paper quotes 10; with dynamically
  /// scheduled subtree tasks a factor of 4 balances as well and spends
  /// fewer breadth-first levels on sub-threshold (serial) splits.
  std::uint32_t thread_switch_factor = 4;
  /// Subtrees at or below this size use the exact positional median
  /// (nth_element) instead of sampling.
  std::uint64_t exact_median_threshold = 4096;
  /// Frontier nodes smaller than this are split serially during the
  /// breadth-first phase: below it, cooperative (all-thread) histogram
  /// and partition passes cost more in pool synchronization than the
  /// work itself.
  std::uint64_t serial_split_threshold = 65536;
  /// Histogram binning via the SIMD sub-interval searcher (true) or
  /// plain binary search (false) — the paper's 42 % ablation.
  bool use_subinterval_search = true;
};

/// Out-of-core build parameters (KdTree::build_external).
struct ExternalBuildOptions {
  /// Approximate peak bytes of point + tree data held in RAM at once.
  /// The build splits the input into enough on-disk chunks that one
  /// chunk's in-RAM subtree build fits the budget. 0 means unlimited
  /// (degenerates to an in-RAM build that is then saved and mapped).
  std::uint64_t memory_budget_bytes = 0;
  /// Directory for the spill chunk files (scratch, removed when the
  /// build finishes). Empty: out_path + ".spill".
  std::string scratch_dir;
  /// Where the index file is written (required). The returned tree
  /// is the zero-copy mapped view of this file.
  std::string out_path;
};

/// Build-phase wall-clock seconds, keyed like Figure 5(b).
struct BuildBreakdown {
  double data_parallel = 0.0;
  double thread_parallel = 0.0;
  double simd_packing = 0.0;

  double total() const {
    return data_parallel + thread_parallel + simd_packing;
  }
};

struct TreeStats {
  std::uint64_t nodes = 0;
  std::uint64_t leaves = 0;
  std::uint64_t points = 0;
  std::uint32_t max_depth = 0;
  double mean_leaf_fill = 0.0;  // points per leaf / bucket_size
};

enum class TraversalPolicy {
  /// Arya–Mount incremental lower bound (per-dimension offsets): a
  /// true lower bound, guarantees exact results.
  Exact,
  /// The update printed in Algorithm 1 (d' = sqrt(d^2 + off^2) with no
  /// same-dimension replacement). Can over-prune when a root-to-node
  /// path splits twice on one dimension; recall measured in
  /// bench_ablation. Faster per node.
  PaperFormula,
};

// QueryStats lives in core/query_workspace.hpp (the workspace carries
// the per-thread accumulator); it is re-exported here for callers.

class KdTree {
 public:
  KdTree() = default;

  // The query kernels read through span views into this tree's own
  // arrays (or its mapping); copying would alias the source's buffers,
  // so the tree is move-only. Moves keep the views valid: vector moves
  // preserve the heap buffers the spans point into.
  KdTree(const KdTree&) = delete;
  KdTree& operator=(const KdTree&) = delete;
  KdTree(KdTree&&) = default;
  KdTree& operator=(KdTree&&) = default;

  /// Builds from resident `points` using all threads of `pool`. The
  /// points are copied into packed storage; the original may be
  /// discarded. Throws panda::Error when `points` is not resident
  /// (use build_external for spill-backed storage).
  static KdTree build(const data::PointStorage& points,
                      const BuildConfig& config, parallel::ThreadPool& pool,
                      BuildBreakdown* breakdown = nullptr);

  /// Compatibility shim: builds from a PointSet through a stack view.
  static KdTree build(const data::PointSet& points, const BuildConfig& config,
                      parallel::ThreadPool& pool,
                      BuildBreakdown* breakdown = nullptr);

  /// Out-of-core build (DESIGN.md §11): routes `points` through a
  /// sampled top-level splitter into on-disk chunks sized to
  /// options.memory_budget_bytes, builds one in-RAM subtree per chunk,
  /// and stitches the results directly into the on-disk index layout at
  /// options.out_path. Returns the memory-mapped view of that file.
  /// Exact queries on the result are id-identical to an in-RAM build
  /// of the same points. `points` may be any storage backend; only
  /// the chunk protocol is used.
  static KdTree build_external(const data::PointStorage& points,
                               const BuildConfig& config,
                               parallel::ThreadPool& pool,
                               const ExternalBuildOptions& options);

  std::size_t dims() const { return dims_; }
  std::size_t size() const { return stats_.points; }
  bool empty() const { return stats_.points == 0; }
  const TreeStats& stats() const { return stats_; }
  const BuildConfig& config() const { return config_; }

  // -------------------------------------------------------------------
  // Native (allocation-free) entry points. Results land in caller
  // memory; scratch lives in a caller-owned workspace.
  // -------------------------------------------------------------------

  /// k nearest neighbors of `query` under the squared-distance bound
  /// `radius2`, written sorted ascending by (dist², id) into `out`
  /// (which must hold at least k slots). Returns the result count.
  ///
  /// `radius_bound_id` resolves candidates exactly *at* the bound: a
  /// point is admitted iff (dist², id) < (radius2, radius_bound_id)
  /// under the deterministic tie order (DESIGN.md §5). The default of
  /// 0 keeps the classical strict dist² < radius2 semantics; the
  /// distributed engines pass the owner's k-th neighbor id so remote
  /// ranks return equal-distance candidates with smaller ids.
  std::size_t query_sq_into(std::span<const float> query, std::size_t k,
                            float radius2, QueryWorkspace& ws,
                            std::span<Neighbor> out,
                            TraversalPolicy policy = TraversalPolicy::Exact,
                            QueryStats* stats = nullptr,
                            std::uint64_t radius_bound_id = 0) const;

  /// Leaf-block-batched KNN over `queries` into a flat NeighborTable
  /// (top-k mode, stride k), the bulk entry point of the all-KNN
  /// engine and the serving backend. Queries are grouped by the leaf
  /// bucket their descent lands in and processed in bucket-contiguous
  /// order: each query primes its heap by scanning the shared home
  /// bucket first (one SIMD block, hot in cache across the group) and
  /// then runs the root traversal with that already-tight bound,
  /// skipping the home leaf — amortizing descent and leaf scans across
  /// co-located queries. Results are identical to per-query query_sq.
  ///
  /// radius2s/radius_bound_ids give per-query pruning bounds with the
  /// query_sq_into semantics above (both empty = unbounded; when
  /// radius2s is non-empty both spans must have queries.size()
  /// entries).
  void query_sq_batch(const data::PointSet& queries, std::size_t k,
                      parallel::ThreadPool& pool, NeighborTable& results,
                      BatchWorkspace& ws,
                      std::span<const float> radius2s = {},
                      std::span<const std::uint64_t> radius_bound_ids = {},
                      TraversalPolicy policy = TraversalPolicy::Exact,
                      QueryStats* stats = nullptr) const;

  /// Bulk self-KNN over the indexed points themselves: row i of
  /// `results` holds the k nearest indexed neighbors of build-time
  /// point i (the point itself included as its own 0-distance
  /// neighbor). Results are id-identical to query_sq_batch over the
  /// original build PointSet, but the descent and ordering phases
  /// vanish: the packed leaves ARE the bucket-contiguous schedule,
  /// each query's home bucket is the bucket it lives in, and query
  /// coordinates are gathered from the (cache-hot) packed block
  /// instead of the caller's PointSet. This is stage 2 of the bulk
  /// all-KNN engine (DESIGN.md §7, §9).
  void query_self_batch(std::size_t k, parallel::ThreadPool& pool,
                        NeighborTable& results, BatchWorkspace& ws,
                        QueryStats* stats = nullptr) const;

  /// Batched metric-radius KNN into a flat NeighborTable: row i holds
  /// the k nearest neighbors of queries[i] within `radius`.
  void query_batch(const data::PointSet& queries, std::size_t k,
                   parallel::ThreadPool& pool, NeighborTable& results,
                   BatchWorkspace& ws,
                   float radius = std::numeric_limits<float>::infinity(),
                   TraversalPolicy policy = TraversalPolicy::Exact,
                   QueryStats* stats = nullptr) const;

  /// All neighbors within metric `radius` (squared distance strictly
  /// less than radius²), appended to `out` sorted ascending, unbounded
  /// count. `out` is cleared first; with warm capacity the call makes
  /// zero allocations.
  void query_radius_into(std::span<const float> query, float radius,
                         QueryWorkspace& ws, std::vector<Neighbor>& out,
                         QueryStats* stats = nullptr) const;

  /// Batched fixed-radius search into a flat NeighborTable (rows
  /// mode): row i holds all neighbors of queries[i] with dist² <
  /// radii[i]², ascending (dist², id). radii must have queries.size()
  /// entries.
  void query_radius_batch(const data::PointSet& queries,
                          std::span<const float> radii,
                          parallel::ThreadPool& pool, NeighborTable& results,
                          BatchWorkspace& ws,
                          QueryStats* stats = nullptr) const;

  // -------------------------------------------------------------------
  // Single-query convenience: same semantics, results materialized as
  // std::vector (scratch comes from an internal per-thread workspace).
  // Batch results are only ever a NeighborTable.
  // -------------------------------------------------------------------

  /// k nearest neighbors of `query` (dims() floats) within metric
  /// radius `radius` (default unbounded). Results are sorted ascending
  /// by squared distance and carry the global ids of the indexed
  /// points. Fewer than k results are returned when the tree holds
  /// fewer than k points within the radius.
  std::vector<Neighbor> query(std::span<const float> query, std::size_t k,
                              float radius =
                                  std::numeric_limits<float>::infinity(),
                              TraversalPolicy policy = TraversalPolicy::Exact,
                              QueryStats* stats = nullptr) const;

  /// As query(), but the bound is given as a squared distance (see
  /// query_sq_into for the radius_bound_id tie semantics).
  std::vector<Neighbor> query_sq(std::span<const float> query, std::size_t k,
                                 float radius2,
                                 TraversalPolicy policy =
                                     TraversalPolicy::Exact,
                                 QueryStats* stats = nullptr,
                                 std::uint64_t radius_bound_id = 0) const;

  /// FLANN-style approximate query: the traversal stops opening new
  /// leaves after `max_leaf_visits` buckets have been scanned, trading
  /// recall for bounded latency (the mode FLANN calls "checks"). The
  /// near-child-first descent order of Algorithm 1 makes the first
  /// buckets the most promising, so recall degrades gracefully; with a
  /// large enough budget results equal the exact search. Results are
  /// sorted ascending and come with no exactness guarantee.
  std::vector<Neighbor> query_approx(std::span<const float> query,
                                     std::size_t k,
                                     std::uint64_t max_leaf_visits,
                                     QueryStats* stats = nullptr) const;

  /// Vector shim over query_radius_into. This is the fixed-radius
  /// primitive of BD-CATS-style clustering ([11] in the paper) — an
  /// easier problem than KNN because the pruning bound is known up
  /// front.
  std::vector<Neighbor> query_radius(std::span<const float> query,
                                     float radius,
                                     QueryStats* stats = nullptr) const;

  /// Number of tree nodes a root-to-leaf descent would visit for this
  /// query point (the tree depth along the query's path).
  std::uint32_t path_depth(std::span<const float> query) const;

  /// Appends every indexed point (global id + coordinates, de-padded
  /// from the packed SoA leaf blocks) to `out`, leaf-contiguous order.
  /// out.dims() must equal dims(). This is how the mutable tier's
  /// level merges rebuild larger trees from smaller ones
  /// (core::MutableIndex, DESIGN.md §12); works identically on owned
  /// and mapped trees.
  void export_points(data::PointSet& out) const;

  /// Persists the built tree (hot/cold node arrays + packed leaf
  /// storage) so that a reused index — the common case the paper
  /// designs for — need not be rebuilt across process runs. Writes
  /// format v4: every section at a 64-byte-aligned offset recorded in
  /// the header, so open_mmap can serve the file zero-copy, plus a
  /// CRC32C per section and over the header (DESIGN.md §13). The file
  /// is replaced atomically (tmp + fsync + rename): a crash mid-save
  /// leaves the previous index intact. Throws panda::Error with path,
  /// syscall, and errno text on I/O failure.
  void save(const std::string& path) const;

  /// Loads a tree written by save() into owned memory: open_mmap()
  /// with every section checksum verified, then a copy of the mapped
  /// sections, so the result outlives the file (and survives it being
  /// replaced). Queries on the loaded tree return bit-identical
  /// results. Throws panda::Error on I/O or format errors with the
  /// same diagnostics as open_mmap().
  static KdTree load(const std::string& path);

  /// Opens an index zero-copy: maps the file, validates the header
  /// (magic, version, dims, every count against the file size,
  /// section offsets/alignment, header CRC), and binds the query
  /// views straight into the map. With verify_sections (the default)
  /// every section CRC is checked too — a full sequential read; pass
  /// false to keep open cost independent of index size and trust the
  /// mapping (the header CRC is always checked). Throws panda::Error
  /// on any mismatch; a file of any format version other than 4 is
  /// refused with a rebuild hint.
  static KdTree open_mmap(const std::string& path,
                          bool verify_sections = true);

  /// True when the tree's arrays live in a mapped file rather than
  /// owned memory.
  bool mapped() const { return mapping_ != nullptr; }

 private:
  friend class KdTreeBuilder;
  friend class ExternalBuilder;

  /// Hot traversal record: everything the descent loop reads. Sibling
  /// children occupy adjacent slots (left = child, right = child + 1)
  /// so one index names both and a line fetch covers the pair.
  struct HotNode {
    float split = 0.0f;
    std::uint32_t dim = kLeafMarker;  // kLeafMarker => leaf
    /// Internal node: left child index (right child = child + 1).
    /// Leaf: index into leaves_.
    std::uint32_t child = 0;
  };
  static_assert(sizeof(HotNode) == 12);

  /// Cold leaf metadata, read only when a bucket is scanned.
  struct LeafInfo {
    std::uint64_t packed_begin = 0;  // first slot in packed_
    std::uint32_t count = 0;         // number of live points
  };

  static constexpr std::uint32_t kLeafMarker = 0xffffffffu;

  bool is_leaf(const HotNode& n) const { return n.dim == kLeafMarker; }

  /// "No node" sentinel for skip_node below (never a valid index:
  /// nodes_ is bounded well under 2^32 - 1 entries).
  static constexpr std::uint32_t kNoNode = 0xffffffffu;

  /// Iterative explicit-stack exact traversal from the root, with
  /// far-child prefetch; visit order, pruning decisions and stats are
  /// identical to the classic recursion.
  void search_exact(const float* query, KnnHeap& heap, QueryWorkspace& ws,
                    QueryStats& stats, std::uint32_t skip_node = kNoNode) const;
  /// Leaf index the plain descent for `query` ends at (kNoNode when
  /// the tree is empty).
  std::uint32_t home_leaf(const float* query) const;
  void search_budgeted(std::uint32_t node_index, const float* query,
                       KnnHeap& heap, float region_dist2, float* offsets,
                       QueryWorkspace& ws, std::uint64_t& leaf_budget,
                       QueryStats& stats) const;
  void search_radius(std::uint32_t node_index, const float* query,
                     float radius2, float region_dist2, float* offsets,
                     AlignedVector<float>& dist, std::vector<Neighbor>& out,
                     QueryStats& stats) const;
  void search_paper(const float* query, KnnHeap& heap, QueryWorkspace& ws,
                    QueryStats& stats) const;
  void scan_leaf(const LeafInfo& leaf, const float* query, KnnHeap& heap,
                 QueryWorkspace& ws, QueryStats& stats) const;
  /// One batched query: prime with the home leaf, traverse skipping
  /// it, extract into the table row.
  void batch_query_one(std::uint64_t i, std::size_t k, float radius2,
                       std::uint64_t bound_id, std::uint32_t home,
                       QueryWorkspace& ws, NeighborTable& results,
                       QueryStats& stats) const;

  /// Owned backing arrays — populated by build()/load(), empty on a
  /// mapped tree. Only rebind_owned() and the builders touch these;
  /// everything else reads the span views below.
  struct OwnedArrays {
    std::vector<HotNode> nodes;
    std::vector<LeafInfo> leaves;
    std::vector<std::uint32_t> leaf_nodes;
    AlignedVector<float> packed;
    std::vector<std::uint64_t> packed_ids;
    std::vector<std::uint64_t> packed_local_idx;
  };

  /// Points the query views at the owned arrays. Builders and load()
  /// call this once after filling own_.
  void rebind_owned() {
    nodes_ = own_.nodes;
    leaves_ = own_.leaves;
    leaf_nodes_ = own_.leaf_nodes;
    packed_ = std::span<const float>(own_.packed.data(), own_.packed.size());
    packed_ids_ = own_.packed_ids;
    packed_local_idx_ = own_.packed_local_idx;
  }

  std::size_t dims_ = 0;
  BuildConfig config_;
  OwnedArrays own_;
  /// Keeps a mapped index file alive for the views below; null on an
  /// owned tree.
  std::shared_ptr<common::MmapFile> mapping_;
  // Query views — into own_ or into mapping_. Packed leaf storage:
  // leaf with packed_begin s0 and padded stride
  // st = simd::padded_count(count) occupies floats
  // [s0*dims, (s0+st)*dims), coordinate d of bucket point i at
  // packed_[s0*dims + d*st + i]; packed_ids_[s0+i] is its global id.
  std::span<const HotNode> nodes_;
  std::span<const LeafInfo> leaves_;
  /// Hot node index of each leaf record (leaf_nodes_[leaves index]).
  std::span<const std::uint32_t> leaf_nodes_;
  std::span<const float> packed_;
  std::span<const std::uint64_t> packed_ids_;
  /// Build-time point index of each packed slot (padding slots hold
  /// ~0): the self-KNN batch writes its result rows through this map.
  std::span<const std::uint64_t> packed_local_idx_;
  TreeStats stats_;
};

}  // namespace panda::core
