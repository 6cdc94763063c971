#include "serve/query_service.hpp"

#include <algorithm>
#include <bit>
#include <utility>

#include "common/error.hpp"
#include "common/failpoint.hpp"

namespace panda::serve {

namespace {

// The eventcount handshakes below need a full seq_cst fence between a
// relaxed publish and a relaxed read of the waiter counter. TSan does
// not model standalone fences (GCC rejects them outright under
// -fsanitize=thread -Werror), so under TSan we substitute a seq_cst
// RMW on a shared dummy atomic: both sides of each handshake pass
// through it, which gives the same pairwise ordering guarantee in a
// form the race detector understands.
#if !defined(PANDA_TSAN) && defined(__SANITIZE_THREAD__)
#define PANDA_TSAN 1
#endif
#if !defined(PANDA_TSAN) && defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define PANDA_TSAN 1
#endif
#endif
#if defined(PANDA_TSAN)
inline void seq_cst_fence() {
  static std::atomic<unsigned> dummy{0};
  dummy.fetch_add(1, std::memory_order_seq_cst);
}
#else
inline void seq_cst_fence() {
  std::atomic_thread_fence(std::memory_order_seq_cst);
}
#endif

}  // namespace

QueryService::QueryService(std::shared_ptr<Backend> backend,
                           const ServeConfig& config)
    : config_(config), start_(std::chrono::steady_clock::now()) {
  PANDA_CHECK_MSG(backend != nullptr, "QueryService needs a backend");
  PANDA_CHECK_MSG(config_.max_batch >= 1, "max_batch must be >= 1");
  PANDA_CHECK_MSG(config_.queue_capacity >= 1, "queue_capacity must be >= 1");
  PANDA_CHECK_MSG(config_.workers >= 1, "workers must be >= 1");
  PANDA_CHECK_MSG(config_.shards >= 1, "shards must be >= 1");
  dims_ = backend->dims();
  const auto shard_count = static_cast<std::size_t>(config_.shards);
  shard_capacity_ = (config_.queue_capacity + shard_count - 1) / shard_count;
  shards_.reserve(shard_count);
  for (std::size_t s = 0; s < shard_count; ++s) {
    auto shard = std::make_unique<Shard>(shard_capacity_);
    shard->backend.store(backend);
    shards_.push_back(std::move(shard));
  }
  workers_.reserve(shard_count * static_cast<std::size_t>(config_.workers));
  for (auto& shard : shards_) {
    for (int w = 0; w < config_.workers; ++w) {
      workers_.emplace_back([this, s = shard.get()] { worker_loop(*s); });
    }
  }
}

QueryService::~QueryService() { shutdown(); }

void QueryService::validate(const Request& request) const {
  PANDA_CHECK_MSG(request.query.size() == dims_,
                  "request dimensionality mismatch");
  if (request.kind == Request::Kind::Knn) {
    PANDA_CHECK_MSG(request.k >= 1, "k must be >= 1");
  } else {
    PANDA_CHECK_MSG(request.radius >= 0.0f, "radius must be non-negative");
  }
}

std::size_t QueryService::route(const Request& request) const {
  if (shards_.size() == 1) return 0;
  // FNV-1a over the query bytes: the same query point always routes to
  // the same shard, so repeated queries hit a warm top-of-tree cache.
  std::uint64_t hash = 1469598103934665603ull;
  for (const float v : request.query) {
    hash = (hash ^ std::bit_cast<std::uint32_t>(v)) * 1099511628211ull;
  }
  return static_cast<std::size_t>(hash % shards_.size());
}

bool QueryService::shard_push(Shard& shard, Pending& pending) {
  // Logical occupancy bounds admission at exactly shard_capacity_
  // (the ring itself is the next power of two). Reserve space first:
  // once reserved, the ring push below cannot fail permanently.
  // order: acq_rel — the reservation both publishes this submitter's
  // prior writes to the consumer that frees the slot and observes the
  // release half of shard_pop()'s decrement, keeping the depth bound
  // exact under concurrent push/pop.
  const std::uint64_t depth =
      shard.depth.fetch_add(1, std::memory_order_acq_rel) + 1;
  if (depth > shard_capacity_) {
    // order: relaxed — undoing our own reservation publishes nothing;
    // the ring was never touched.
    shard.depth.fetch_sub(1, std::memory_order_relaxed);
    return false;
  }
  // order: relaxed — max_depth is a monotonic gauge read only by
  // stats(); it orders nothing.
  std::uint64_t seen = shard.max_depth.load(std::memory_order_relaxed);
  while (depth > seen &&
         !shard.max_depth.compare_exchange_weak(seen, depth,
                                                std::memory_order_relaxed)) {
  }
  pending.enqueued = std::chrono::steady_clock::now();
  unsigned spins = 0;
  while (!shard.queue.try_push(std::move(pending))) {
    // Space is reserved, so the ring is only transiently wrap-blocked
    // by a consumer mid-recycle; spin it out.
    parallel::spin_backoff(spins);
  }
  // Eventcount handoff (publish, fence, read parked): either the
  // parked worker's final re-pop sees this push, or its parked count
  // is visible here and we wake it under its mutex.
  // order: relaxed — the seq_cst fence above supplies the ordering;
  // the load itself only needs the fenced value.
  seq_cst_fence();
  if (shard.parked.load(std::memory_order_relaxed) > 0) {
    MutexLock lock(shard.park_mutex);
    shard.work_cv.notify_one();
  }
  return true;
}

bool QueryService::shard_pop(Shard& shard, Pending& out) {
  if (!shard.queue.try_pop(out)) return false;
  // order: acq_rel — release publishes the freed slot to the next
  // shard_push reservation; acquire pairs with that push's release
  // half so the consumer sees the submitter's writes.
  shard.depth.fetch_sub(1, std::memory_order_acq_rel);
  // Mirror-image eventcount for Block-policy submitters parked on a
  // full service.
  // order: relaxed — ordering comes from the seq_cst fence above.
  seq_cst_fence();
  if (space_waiters_.load(std::memory_order_relaxed) > 0) {
    MutexLock lock(space_mutex_);
    space_cv_.notify_all();
  }
  return true;
}

bool QueryService::admit(Request&& request, std::future<Result>* out,
                         bool blocking) {
  validate(request);
  // Admission guard: shutdown() closes state_, then waits for this
  // count to settle before raising drain_ — so every request that
  // passes the state check below is guaranteed a worker will pop it.
  admissions_in_flight_.fetch_add(1, std::memory_order_seq_cst);
  struct InFlightGuard {
    std::atomic<int>& count;
    ~InFlightGuard() { count.fetch_sub(1, std::memory_order_seq_cst); }
  } guard{admissions_in_flight_};
  if (state_.load(std::memory_order_seq_cst) != kRunning) return false;

  Pending pending;
  pending.request = std::move(request);
  std::future<Result> future = pending.promise.get_future();
  const std::size_t primary = route(pending.request);
  const std::size_t n = shards_.size();
  for (;;) {
    // Hash-routed with round-robin fallback: probe the other shards
    // before declaring the service full, so one hot shard sheds to
    // its neighbors instead of rejecting.
    for (std::size_t probe = 0; probe < n; ++probe) {
      if (shard_push(*shards_[(primary + probe) % n], pending)) {
        // order: relaxed — stats counter; stats() tolerates a stale
        // view, and completion ordering is carried by the future.
        submitted_.fetch_add(1, std::memory_order_relaxed);
        *out = std::move(future);
        return true;
      }
    }
    if (!blocking) {
      // order: relaxed — stats counter, same contract as submitted_.
      rejected_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    // Every shard full: park until a worker frees space (cold edge;
    // the 1 ms backstop makes a lost wakeup a hiccup, not a hang).
    space_waiters_.fetch_add(1, std::memory_order_seq_cst);
    seq_cst_fence();
    {
      // order: relaxed (both loads) — the predicate is a wake hint;
      // the authoritative state_ check below and the shard_push retry
      // re-validate with full ordering, and the 1 ms backstop bounds
      // any stale read.
      MutexLock lock(space_mutex_);
      space_cv_.wait_for(lock, std::chrono::milliseconds(1), [&] {
        if (state_.load(std::memory_order_relaxed) != kRunning) return true;
        for (const auto& shard : shards_) {
          if (shard->depth.load(std::memory_order_relaxed) <
              shard_capacity_) {
            return true;
          }
        }
        return false;
      });
    }
    space_waiters_.fetch_sub(1, std::memory_order_seq_cst);
    if (state_.load(std::memory_order_seq_cst) != kRunning) return false;
  }
}

std::future<Result> QueryService::submit(Request request) {
  std::future<Result> future;
  const bool blocking = config_.overflow == ServeConfig::Overflow::Block;
  if (admit(std::move(request), &future, blocking)) return future;
  PANDA_CHECK_MSG(state_.load(std::memory_order_seq_cst) == kRunning,
                  "QueryService is shut down");
  // Overflow::Reject with a full service: fail the future, not the
  // call, so open-loop clients can keep a uniform submit-and-collect
  // shape.
  std::promise<Result> broken;
  broken.set_exception(
      std::make_exception_ptr(Error("serve queue full (rejected)")));
  return broken.get_future();
}

bool QueryService::try_submit(Request request, std::future<Result>* out) {
  PANDA_CHECK_MSG(out != nullptr, "try_submit needs an output future");
  return admit(std::move(request), out, /*blocking=*/false);
}

void QueryService::ingest(const data::PointSet& points) {
  PANDA_CHECK_MSG(state_.load(std::memory_order_seq_cst) == kRunning,
                  "QueryService::ingest after shutdown");
  PANDA_CHECK_MSG(points.dims() == dims_,
                  "ingest batch must keep the served dimensionality");
  // Fault-injection hook: the crash-recovery tests kill the process
  // here — before the backend (and its WAL) sees the batch — to prove
  // an unacknowledged ingest leaves no trace after recovery.
  PANDA_FAILPOINT("serve.ingest");
  // Pin the currently served backend exactly like a worker pins it
  // for a batch (shard 0's handle — swap_backend stages the same
  // pointer across shards). The mutable index serializes writers
  // internally; queries keep draining against their own pins.
  const std::shared_ptr<Backend> backend = shards_.front()->backend.load();
  backend->ingest(points);
  // order: relaxed — stats counters only.
  ingest_batches_.fetch_add(1, std::memory_order_relaxed);
  ingested_points_.fetch_add(points.size(), std::memory_order_relaxed);
}

std::size_t QueryService::erase_ids(std::span<const std::uint64_t> ids) {
  PANDA_CHECK_MSG(state_.load(std::memory_order_seq_cst) == kRunning,
                  "QueryService::erase_ids after shutdown");
  const std::shared_ptr<Backend> backend = shards_.front()->backend.load();
  const std::size_t erased = backend->erase_ids(ids);
  // order: relaxed — stats counter only.
  erased_ids_.fetch_add(erased, std::memory_order_relaxed);
  return erased;
}

void QueryService::swap_backend(std::shared_ptr<Backend> next) {
  PANDA_CHECK_MSG(next != nullptr, "swap_backend needs a backend");
  PANDA_CHECK_MSG(next->dims() == dims_,
                  "swapped index must keep the served dimensionality");
  // Staged across shards: each store is atomic, every batch pins
  // exactly one snapshot, and a request admitted after this loop
  // returns is answered by `next` (its batch's pin happens-after the
  // admission, which happens-after the store).
  for (auto& shard : shards_) shard->backend.store(next);
  // order: relaxed — stats counter only.
  swaps_.fetch_add(1, std::memory_order_relaxed);
}

std::shared_ptr<Backend> QueryService::backend() const {
  return shards_.front()->backend.load();
}

bool QueryService::acquire_first(Shard& shard, Pending& out) {
  for (;;) {
    // Fast path: work is already queued.
    for (int spin = 0; spin < 64; ++spin) {
      if (shard_pop(shard, out)) return true;
      parallel::cpu_relax();
    }
    // order: acquire — pairs with shutdown()'s seq_cst store; a worker
    // that sees drain must also see every admission that settled
    // before it was raised.
    if (drain_.load(std::memory_order_acquire)) {
      // Draining: one final pop; an empty shard means every admitted
      // request has been claimed by some worker — exit.
      return shard_pop(shard, out);
    }
    // Park (cold edge). Advertise, fence, re-check: a racing push
    // either sees parked > 0 and notifies under the mutex, or this
    // final pop sees its item. The bounded wait is a backstop only.
    shard.parked.fetch_add(1, std::memory_order_seq_cst);
    seq_cst_fence();
    if (shard_pop(shard, out)) {
      shard.parked.fetch_sub(1, std::memory_order_seq_cst);
      return true;
    }
    {
      // order: relaxed (both loads) — wake hint only; the loop
      // re-checks drain_ with acquire and re-pops after waking, and
      // the 1 ms backstop bounds a stale view.
      MutexLock lock(shard.park_mutex);
      shard.work_cv.wait_for(lock, std::chrono::milliseconds(1), [&] {
        return drain_.load(std::memory_order_relaxed) ||
               shard.depth.load(std::memory_order_relaxed) > 0;
      });
    }
    shard.parked.fetch_sub(1, std::memory_order_seq_cst);
  }
}

bool QueryService::collect_rest(Shard& shard, Pending& slot,
                                std::vector<Pending>& batch) {
  // Work-conserving: take only what is already queued. Under load the
  // ring refills while the previous batch runs, so batches still reach
  // max_batch; at light load a lone request runs at once instead of
  // idling the worker while it waits for company.
  while (batch.size() < config_.max_batch) {
    if (!shard_pop(shard, slot)) return false;
    batch.push_back(std::move(slot));
  }
  return true;
}

void QueryService::worker_loop(Shard& shard) {
  // Reused across batches: at light load a batch is one request, so a
  // per-batch allocation would be a per-request one. `slot` is popped
  // into and moved out of; once moved-from its promise holds no state,
  // so refilling it never allocates.
  std::vector<Pending> batch;
  std::vector<Request> requests;
  std::vector<Result> results;
  batch.reserve(config_.max_batch);
  requests.reserve(config_.max_batch);
  Pending slot;
  for (;;) {
    if (!acquire_first(shard, slot)) return;
    batch.clear();
    batch.push_back(std::move(slot));
    const bool full = collect_rest(shard, slot, batch);
    execute(shard, batch, full, requests, results);
  }
}

void QueryService::execute(Shard& shard, std::vector<Pending>& batch,
                           bool full, std::vector<Request>& requests,
                           std::vector<Result>& results) {
  // Pin the shard's snapshot for exactly this batch (swap-safe).
  std::shared_ptr<Backend> backend = shard.backend.load();

  requests.clear();
  for (Pending& p : batch) requests.push_back(std::move(p.request));

  std::exception_ptr error;
  try {
    backend->run_batch(requests, results);
    PANDA_CHECK_MSG(results.size() == batch.size(),
                    "backend answered the wrong batch size");
  } catch (...) {
    error = std::current_exception();
  }

  // All bookkeeping happens BEFORE the promises are fulfilled: a
  // client that has observed its result must already find itself in
  // the counters (tests read stats() right after the last get()).
  // order: relaxed (every counter below) — stats-only accounting; the
  // client-visible ordering guarantee ("a client that has observed
  // its result finds itself in the counters") is carried by the
  // promise/future synchronization of set_value below, not by these.
  const auto now = std::chrono::steady_clock::now();
  if (error) {
    // Failed requests are counted but not timed: the histogram is
    // completion latency (latency.count tracks completed).
    failed_.fetch_add(batch.size(), std::memory_order_relaxed);
  } else {
    for (const Pending& p : batch) {
      latency_.record(
          std::chrono::duration<double, std::micro>(now - p.enqueued)
              .count());
    }
    // order: relaxed — see the bookkeeping note above.
    completed_.fetch_add(batch.size(), std::memory_order_relaxed);
  }
  // order: relaxed (this store and the adds below) — same stats-only
  // contract as the bookkeeping note above.
  last_completion_ns_.store(
      static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(now - start_)
              .count()),
      std::memory_order_relaxed);
  batches_.fetch_add(1, std::memory_order_relaxed);
  batched_requests_.fetch_add(batch.size(), std::memory_order_relaxed);
  const auto bucket = std::min<std::size_t>(
      kBatchBuckets - 1,
      static_cast<std::size_t>(std::bit_width(batch.size()) - 1));
  batch_size_log2_[bucket].fetch_add(1, std::memory_order_relaxed);
  // order: relaxed — flush-reason stats counters, same contract.
  (full ? flushes_on_size_ : flushes_underfull_)
      .fetch_add(1, std::memory_order_relaxed);

  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (error) {
      batch[i].promise.set_exception(error);
    } else {
      batch[i].promise.set_value(std::move(results[i]));
    }
  }
}

void QueryService::shutdown() {
  std::call_once(shutdown_once_, [this] {
    // 1. Close admission.
    state_.store(kDraining, std::memory_order_seq_cst);
    // 2. Wake Block-policy submitters so they observe the closed state.
    {
      MutexLock lock(space_mutex_);
    }
    space_cv_.notify_all();
    // 3. Let racing admissions settle: after this loop every request
    //    that will ever be admitted is in some shard's queue.
    while (admissions_in_flight_.load(std::memory_order_seq_cst) != 0) {
      std::this_thread::yield();
    }
    // 4. Raise drain: workers flush their queues and exit on empty.
    drain_.store(true, std::memory_order_seq_cst);
    for (auto& shard : shards_) {
      {
        MutexLock lock(shard->park_mutex);
      }
      shard->work_cv.notify_all();
    }
    for (auto& w : workers_) w.join();
    workers_.clear();
    state_.store(kStopped, std::memory_order_seq_cst);
  });
}

ServeStats QueryService::stats() const {
  ServeStats out;
  // order: relaxed (every load in this function) — stats() is an
  // unsynchronized gauge snapshot by contract: each counter is
  // individually coherent, cross-counter consistency is not promised
  // (see ServeStats). Tests that want exact totals quiesce first.
  out.submitted = submitted_.load(std::memory_order_relaxed);
  out.rejected = rejected_.load(std::memory_order_relaxed);
  out.completed = completed_.load(std::memory_order_relaxed);
  out.failed = failed_.load(std::memory_order_relaxed);
  out.batches = batches_.load(std::memory_order_relaxed);
  out.flushes_on_size = flushes_on_size_.load(std::memory_order_relaxed);
  out.flushes_on_window = flushes_underfull_.load(std::memory_order_relaxed);
  out.swaps = swaps_.load(std::memory_order_relaxed);
  out.ingest_batches = ingest_batches_.load(std::memory_order_relaxed);
  out.ingested_points = ingested_points_.load(std::memory_order_relaxed);
  out.erased_ids = erased_ids_.load(std::memory_order_relaxed);
  out.batch_size_log2.resize(kBatchBuckets);
  for (std::size_t b = 0; b < kBatchBuckets; ++b) {
    out.batch_size_log2[b] = batch_size_log2_[b].load(
        std::memory_order_relaxed);
  }
  out.mean_batch_size =
      out.batches == 0
          ? 0.0
          : static_cast<double>(
                batched_requests_.load(std::memory_order_relaxed)) /
                static_cast<double>(out.batches);
  out.latency = latency_.summary();
  out.shards = shards_.size();
  out.shard_max_queue_depth.reserve(shards_.size());
  out.shard_current_queue_depth.reserve(shards_.size());
  for (const auto& shard : shards_) {
    const std::uint64_t smax = shard->max_depth.load(std::memory_order_relaxed);
    const std::uint64_t scur = shard->depth.load(std::memory_order_relaxed);
    out.shard_max_queue_depth.push_back(smax);
    out.shard_current_queue_depth.push_back(scur);
    out.max_queue_depth = std::max(out.max_queue_depth, smax);
    out.current_queue_depth += scur;
  }
  const double elapsed_ns = static_cast<double>(
      last_completion_ns_.load(std::memory_order_relaxed));
  out.elapsed_seconds = elapsed_ns / 1e9;
  out.qps = elapsed_ns > 0.0
                ? static_cast<double>(out.completed) / (elapsed_ns / 1e9)
                : 0.0;
  return out;
}

}  // namespace panda::serve
