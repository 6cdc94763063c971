// The concurrent query-serving frontend (DESIGN.md §8).
//
// QueryService turns the repository's batch engines into an online
// service: many client threads submit individual KNN / radius
// requests; requests are admitted into per-shard lock-free queues,
// micro-batched work-conservingly (a worker takes whatever is already
// queued, up to max_batch, and never waits for more), executed on
// per-shard worker threads through a Backend snapshot, and completed
// through per-request futures with latency accounting.
//
//   clients ──submit──▶ shard 0: MPMC ring ──collect──▶ micro-batch
//        ◀──future────  shard 1: MPMC ring ◀──execute── Backend
//                       ...        (hash-routed, probe on overflow)
//
// Why shards: a single mutex-guarded admission queue serializes every
// client and every worker on one cache line — at "millions of users"
// rates the admission lock, not the KNN kernel, idles the cores. Each
// shard owns a bounded Vyukov MPMC ring (parallel/mpmc_queue.hpp), its
// own worker set, and its own snapshot handle; requests hash-route by
// query bytes (same query point → same shard → warm cache) and probe
// the other shards round-robin when the target is full, so load
// balances before backpressure triggers. The hot admission path is
// CAS + release-store only: no mutex, no condition variable, no
// allocation beyond the promise pair.
//
// Why micro-batching: per-request dispatch pays the full pool fan-out,
// queue handoff, and cache-cold descent for every query; one batched
// kernel call amortizes all three across the batch (the ParlayANN /
// KNN-join observation — throughput lives in hardware-friendly
// batches). Batches form from the backlog that builds while the
// previous batch runs, so they fill under load; an idle worker never
// holds a request back waiting for company, so light traffic pays no
// batching latency. bench_serve measures the win.
//
// Index swap (rebuild-behind-traffic): each shard holds the served
// Backend in a std::atomic<std::shared_ptr>. Workers pin their shard's
// current snapshot for exactly one batch; swap_backend() stages the
// replacement across shards in order, so every request still observes
// exactly one snapshot — in-flight batches finish on the old index,
// batches pinned after the swap use the new one, and the old index is
// destroyed when its last batch drops the reference. Nothing blocks
// traffic.
//
// Backpressure: admission is bounded by queue_capacity, split across
// shards. Overflow::Block parks submitters until space frees
// (closed-loop clients); Overflow::Reject fails the request once every
// shard is full (open-loop frontends that shed load instead of
// growing latency). Both policies are spin-then-park wrappers over the
// non-blocking ring — the lock only ever appears on the cold
// (queue-full / queue-empty) edges.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>  // std::once_flag
#include <thread>
#include <vector>

#include "common/mutex.hpp"
#include "parallel/mpmc_queue.hpp"
#include "serve/backend.hpp"
#include "serve/serve_stats.hpp"

namespace panda::serve {

struct ServeConfig {
  /// Largest batch a worker takes from its shard's queue. A worker
  /// takes whatever is queued up to this bound and runs it at once.
  std::size_t max_batch = 64;
  /// Admission bound across ALL shards (backpressure trigger). Each
  /// shard enforces ceil(queue_capacity / shards).
  std::size_t queue_capacity = 4096;
  enum class Overflow {
    Block,   // submit() waits for queue space
    Reject,  // submit() fails the future / try_submit() returns false
  };
  Overflow overflow = Overflow::Block;
  /// Batch-executing worker threads PER SHARD. Workers share the
  /// backend's thread pool; >1 overlaps completion/bookkeeping of one
  /// batch with the kernel of the next.
  int workers = 1;
  /// Admission shards: independent queue + worker set + snapshot
  /// handle per shard. Size to one per core group; 1 reproduces the
  /// single-queue service exactly.
  int shards = 1;
};

class QueryService {
 public:
  /// Starts the workers immediately. `backend` must be non-null.
  QueryService(std::shared_ptr<Backend> backend, const ServeConfig& config);
  ~QueryService();

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Submits one request; the future completes with the exact answer
  /// (ascending (dist², id), identical to a per-request engine call).
  /// Validates dimensionality and parameters (throws panda::Error).
  /// Under Overflow::Block a full service blocks the caller; under
  /// Overflow::Reject the returned future holds a panda::Error.
  /// Throws panda::Error if the service has been shut down.
  std::future<Result> submit(Request request);

  /// Reject-style admission without the exception: returns false (and
  /// leaves *out untouched) if every shard is full or the service is
  /// stopped, regardless of the configured Overflow policy.
  bool try_submit(Request request, std::future<Result>* out);

  /// Ingest path (live-updatable indexes, DESIGN.md §12): routes a
  /// write batch to the currently served backend. The backend must be
  /// mutable (an Engine::Mutable index behind IndexBackend) — an
  /// immutable backend surfaces its typed panda::Error. Visibility
  /// follows the snapshot rule of the mutable tier: every request
  /// admitted after ingest() returns observes the new points;
  /// in-flight batches finish on the snapshot they pinned and never
  /// block on the writer. Throws panda::Error after shutdown.
  void ingest(const data::PointSet& points);

  /// Erase counterpart of ingest(): removes points by global id from
  /// the served mutable index, with the same visibility ordering
  /// (requests admitted after the call never return an erased id).
  /// Returns how many ids were live.
  std::size_t erase_ids(std::span<const std::uint64_t> ids);

  /// Replaces the served index snapshot, staged shard by shard. Every
  /// request observes exactly one snapshot: in-flight batches finish
  /// on the old one, requests admitted after swap_backend returns are
  /// answered by `next`. The old snapshot is released when its last
  /// in-flight batch completes. dims() must match.
  void swap_backend(std::shared_ptr<Backend> next);

  /// The currently served snapshot (shard 0's handle).
  std::shared_ptr<Backend> backend() const;

  /// Drains every shard's queue (every admitted request still
  /// completes exactly once), stops the workers, and rejects future
  /// submissions. Idempotent and safe to call concurrently (atomic
  /// state machine + once_flag); also run by the destructor.
  void shutdown();

  /// Counter snapshot (see ServeStats).
  ServeStats stats() const;

 private:
  /// Service lifecycle (atomic state machine, DESIGN.md §8):
  /// Running —shutdown()→ Draining (admission closed, in-flight
  /// admissions settling, workers still serving) → drain_ raised
  /// (workers flush queues and exit) → Stopped.
  enum State : int { kRunning = 0, kDraining = 1, kStopped = 2 };

  struct Pending {
    Request request;
    std::promise<Result> promise;
    std::chrono::steady_clock::time_point enqueued;
  };

  /// One admission shard. The hot path touches only the ring and the
  /// two depth atomics; park_mutex/work_cv exist solely to park idle
  /// workers (queue-empty edge) and are never held while work exists.
  struct Shard {
    explicit Shard(std::size_t ring_capacity) : queue(ring_capacity) {}

    parallel::MpmcQueue<Pending> queue;
    /// Logical occupancy: bounds admission at exactly the configured
    /// per-shard capacity (the ring rounds up to a power of two) and
    /// doubles as the queue-depth gauge.
    std::atomic<std::uint64_t> depth{0};
    /// High-water mark, maintained by relaxed CAS-max on admission.
    std::atomic<std::uint64_t> max_depth{0};
    /// The served snapshot; batches pin it with one atomic load.
    std::atomic<std::shared_ptr<Backend>> backend;

    // Cold-edge worker parking. The mutex guards no data — the state
    // workers re-check (depth, drain_) is all atomics; it exists only
    // so the eventcount notify/wait pair has a common rendezvous.
    Mutex park_mutex;
    CondVar work_cv;
    std::atomic<int> parked{0};
  };

  void worker_loop(Shard& shard);
  /// Blocks (spin, then park) until a first request is popped. Returns
  /// false when draining and the shard's queue is empty (worker exit).
  bool acquire_first(Shard& shard, Pending& out);
  /// Tops up `batch` (which holds its first request) with whatever
  /// the shard already queues, popping through `slot`; returns true
  /// when the batch reached max_batch, false when the queue ran dry.
  bool collect_rest(Shard& shard, Pending& slot, std::vector<Pending>& batch);
  /// Runs one batch; `requests` and `results` are the worker's reused
  /// staging vectors.
  void execute(Shard& shard, std::vector<Pending>& batch, bool full,
               std::vector<Request>& requests, std::vector<Result>& results);
  /// Core admission; returns false when rejected (full or stopped).
  bool admit(Request&& request, std::future<Result>* out, bool blocking);
  /// Bounded push onto one shard; false when that shard is at
  /// capacity. On success wakes a parked worker if any.
  bool shard_push(Shard& shard, Pending& pending);
  /// Non-blocking pop from one shard; frees logical space and wakes a
  /// parked Block-policy submitter if any.
  bool shard_pop(Shard& shard, Pending& out);
  /// Hash route: FNV-1a over the query bytes, so identical query
  /// points land on the same shard (warm top-of-tree cache).
  std::size_t route(const Request& request) const;
  void validate(const Request& request) const;

  ServeConfig config_;
  std::size_t dims_;
  std::size_t shard_capacity_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<std::thread> workers_;

  // Lifecycle (see State).
  std::atomic<int> state_{kRunning};
  std::atomic<bool> drain_{false};
  std::atomic<int> admissions_in_flight_{0};
  std::once_flag shutdown_once_;

  // Cold-edge parking for Block-policy submitters (every shard full).
  // Guards no data, same eventcount-rendezvous role as Shard::park_mutex.
  mutable Mutex space_mutex_;
  CondVar space_cv_;
  std::atomic<int> space_waiters_{0};

  // Hot-path counters: atomics, never a lock (DESIGN.md §8).
  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> failed_{0};
  std::atomic<std::uint64_t> batches_{0};
  std::atomic<std::uint64_t> flushes_on_size_{0};
  std::atomic<std::uint64_t> flushes_underfull_{0};
  std::atomic<std::uint64_t> swaps_{0};
  std::atomic<std::uint64_t> ingest_batches_{0};
  std::atomic<std::uint64_t> ingested_points_{0};
  std::atomic<std::uint64_t> erased_ids_{0};
  static constexpr std::size_t kBatchBuckets = 20;
  std::array<std::atomic<std::uint64_t>, kBatchBuckets> batch_size_log2_{};
  std::atomic<std::uint64_t> batched_requests_{0};
  LatencyHistogram latency_;
  std::chrono::steady_clock::time_point start_;
  std::atomic<std::uint64_t> last_completion_ns_{0};  // since start_
};

}  // namespace panda::serve
