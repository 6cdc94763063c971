// serve_read and serve_ingest: the serving front door.
//
// serve_read puts the batch_local index (2 M cosmo points, a Local pool
// of 2 threads) behind serve::QueryService with ServeConfig defaults (1
// shard, 1 worker, max_batch 64, 200 us flush window). Its request mix
// is KNN with k drawn from {1, 5, 32} plus 10 % radius requests at one
// radius calibrated for about 10 neighbours. Admission, micro-batching,
// futures and k_max/radius normalisation dominate; batches of 64 or
// fewer run inline, so the pool sits idle.
//
// serve_ingest serves an Engine::Mutable index seeded synchronously
// from 1 M cosmo points, with crash-safe persistence on (WAL, tree
// saves, manifest commits under the run's work directory, default
// group commit of 256 frames / 50 ms). One writer sends 2k-point
// batches at a fixed rate — 9 insert batches of fresh ids, then 1
// erase batch of earlier ids — while KNN k=5 reads arrive open loop at
// a fixed rate; then a closed loop reads the forest the writes left.
// Seal/merge lanes, tombstone filtering, the forest query path and the
// WAL do the work serve_read never touches.
//
// Open-loop requests are timed from the moment they were due, so a
// stall charges every request queued behind it, and the generator's
// own lateness is reported next to the latencies.
#include <sys/prctl.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <future>
#include <map>
#include <random>
#include <set>
#include <thread>

#include "api/index.hpp"
#include "core/mutable_index.hpp"
#include "core/wal.hpp"
#include "data/cosmology.hpp"
#include "parallel/mpmc_queue.hpp"
#include "parallel/thread_pool.hpp"
#include "serve/backend.hpp"
#include "serve/query_service.hpp"
#include "layers.hpp"
#include "support.hpp"

namespace perfbench {
namespace {

using panda::Index;
using panda::IndexOptions;
using panda::serve::Request;
using panda::serve::Result;

// Fixed offered rates. They are constants of the benchmark, chosen
// from the parent build's measured capacity and never adapted to the
// build under test (see README.md).
constexpr double kReadRate = 20'000.0;         // serve_read, requests/s
constexpr double kIngestReadRate = 10'000.0;   // serve_ingest, requests/s
// 16 batches/s of 2k points is a quarter of what the forest drains.
// Its 62.5 ms interval keeps every insert clear of the default 50 ms
// group-commit interval, so each one takes the same path (an fsync);
// at 20/s the writes sat on that boundary and synced or not by jitter.
constexpr double kWriteRate = 16.0;            // serve_ingest, batches/s
constexpr std::size_t kWriteBatch = 2'000;     // points (or ids) per batch
constexpr int kInsertsPerErase = 9;
constexpr std::size_t kClosedInFlight = 256;
constexpr std::size_t kPoolRequests = 1 << 16;
constexpr std::size_t kOracleSample = 64;

double us(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

/// Asks the kernel to wake this thread's sleeps on time (1 ns timer
/// slack instead of the default 50 us), so generators can sleep between
/// sends instead of spinning a core the service needs.
void precise_sleeps() { ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL); }

/// Waits until `due`: sleeps, then spins for the last `spin`. Readers
/// send every few tens of microseconds and spin only 10 us; the writer
/// sleeps tens of milliseconds, after which an idle virtual CPU takes
/// ~100 us to wake, so it wakes 500 us early and spins the rest.
void wait_until(Clock::time_point due,
                Clock::duration spin = std::chrono::microseconds(10)) {
  for (;;) {
    const auto left = due - Clock::now();
    if (left <= Clock::duration::zero()) return;
    if (left > spin) {
      std::this_thread::sleep_for(left - spin);
    } else {
      panda::parallel::cpu_relax();
    }
  }
}

/// How late an open-loop generator sent its requests (send time minus
/// due time).
struct Lateness {
  double p90_us = 0.0;
  double p99_us = 0.0;
  double max_us = 0.0;
  void add(const std::vector<double>& late_us) {
    p90_us = std::max(p90_us, quantile(late_us, 0.90));
    p99_us = std::max(p99_us, quantile(late_us, 0.99));
    for (double l : late_us) max_us = std::max(max_us, l);
  }
};

/// Prints the generator's lateness next to the latency it affects, and
/// flags the run when the generator, not the service, set that
/// latency: more than a tenth of requests sent later than a tenth of
/// the reported latency.
void report_lateness(Report& report, const char* what, const Lateness& late,
                     double reported_us) {
  const bool behind = late.p90_us > 0.1 * reported_us;
  report.note(format("%s generator lateness: p90 %.1f us, p99 %.1f us, "
                     "max %.1f us%s",
                     what, late.p90_us, late.p99_us, late.max_us,
                     behind ? "  ** GENERATOR BEHIND: the client, not the "
                              "service, set these latencies **"
                            : ""));
}

/// Outcome of one open-loop read phase.
struct OpenLoopResult {
  std::vector<double> latency_us;  // completion - due, per request
  std::vector<double> late_us;     // submit start - due, per request
  double submit_us = 0.0;          // mean time inside submit()
  std::uint64_t failed = 0;
};

/// Offers requests at `rate` for `seconds`: this thread submits on
/// schedule, a collector thread waits for the answers in order (the
/// service completes in admission order) and times them from their due
/// time. `on_result(slot, result)` sees every answer on the collector.
OpenLoopResult open_loop(
    panda::serve::QueryService& service, const std::vector<Request>& pool,
    std::size_t first_slot, double rate, double seconds,
    const std::function<void(std::size_t, const Result&)>& on_result) {
  const auto count = static_cast<std::size_t>(rate * seconds);
  struct Entry {
    std::future<Result> future;
    Clock::time_point due;
    std::int32_t span = -1;
  };
  std::vector<Entry> entries(count);
  std::atomic<std::size_t> published{0};
  OpenLoopResult out;
  out.latency_us.resize(count);
  out.late_us.resize(count);
  std::atomic<std::uint64_t> failed{0};

  precise_sleeps();
  std::thread collector([&] {
    for (std::size_t i = 0; i < count; ++i) {
      // Caught up with the generator: block (not spin) until it
      // publishes the next request, so the client leaves the cores to
      // the service.
      for (std::size_t seen = published.load(std::memory_order_acquire);
           seen <= i; seen = published.load(std::memory_order_acquire)) {
        published.wait(seen, std::memory_order_acquire);
      }
      Entry& e = entries[i];
      try {
        const Result r = e.future.get();
        const auto done = Clock::now();
        out.latency_us[i] = us(done - e.due);
        Tracer::instance().finish(e.span, done);
        on_result((first_slot + i) % pool.size(), r);
      } catch (const std::exception&) {
        out.latency_us[i] = us(Clock::now() - e.due);
        failed.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });

  Tracer& tracer = Tracer::instance();
  const auto start = Clock::now() + std::chrono::milliseconds(1);
  const auto interval = std::chrono::duration<double>(1.0 / rate);
  double submit_total = 0.0;
  for (std::size_t i = 0; i < count; ++i) {
    Entry& e = entries[i];
    e.due = start + std::chrono::duration_cast<Clock::duration>(
                        interval * static_cast<double>(i));
    wait_until(e.due);
    const auto t0 = Clock::now();
    out.late_us[i] = us(t0 - e.due);
    Request req = pool[(first_slot + i) % pool.size()];
    if (tracer.enabled()) e.span = tracer.begin_at("serve.request", i + 1, e.due);
    try {
      Scoped span("serve.submit", i + 1);
      e.future = service.submit(std::move(req));
    } catch (const std::exception&) {
      // A refused submission is a failed request, not a dead run.
      std::promise<Result> refused;
      refused.set_exception(std::current_exception());
      e.future = refused.get_future();
    }
    tracer.detach(e.span);
    submit_total += us(Clock::now() - t0);
    published.store(i + 1, std::memory_order_release);
    published.notify_one();
  }
  collector.join();
  out.submit_us = count == 0 ? 0.0 : submit_total / double(count);
  out.failed = failed.load();
  return out;
}

/// Closed loop: one client thread keeps `in_flight` requests
/// outstanding (in_flight callers, each waiting for its reply) for
/// `seconds`; returns completed requests per second.
double closed_loop(panda::serve::QueryService& service,
                   const std::vector<Request>& pool, std::size_t& next_slot,
                   double seconds, std::uint64_t& attempted,
                   std::uint64_t& failed,
                   const std::function<void(std::size_t, const Result&)>&
                       on_result) {
  std::vector<std::pair<std::future<Result>, std::size_t>> ring(
      kClosedInFlight);
  const auto submit = [&](std::size_t h) {
    const std::size_t slot = next_slot++ % pool.size();
    Scoped span("serve.submit", slot + 1);
    ring[h] = {service.submit(Request(pool[slot])), slot};
    ++attempted;
  };
  for (std::size_t h = 0; h < ring.size(); ++h) submit(h);
  const double t0 = now_s();
  std::uint64_t completed = 0;
  double t_last = t0;
  std::size_t h = 0;
  const auto drain_one = [&](std::size_t at) {
    try {
      const Result r = ring[at].first.get();
      on_result(ring[at].second, r);
    } catch (const std::exception&) {
      ++failed;
    }
    ++completed;
  };
  while (now_s() - t0 < seconds) {
    drain_one(h);
    t_last = now_s();
    submit(h);
    h = (h + 1) % ring.size();
  }
  // Drain what is still in flight; counted, but outside the window.
  const std::uint64_t in_window = completed;
  for (std::size_t n = 0; n < ring.size(); ++n) {
    drain_one(h);
    h = (h + 1) % ring.size();
  }
  return static_cast<double>(in_window) / (t_last - t0);
}

/// Per-slot result digests: the first answer of each pool slot is
/// recorded, later answers must match it.
class SlotDigests {
 public:
  explicit SlotDigests(std::size_t slots) : digest_(slots), seen_(slots) {}
  void record(std::size_t slot, const Result& r, std::atomic<std::uint64_t>& bad) {
    const std::uint64_t d = digest_of(r);
    if (!seen_[slot]) {
      digest_[slot] = d;
      seen_[slot] = 1;
    } else if (digest_[slot] != d) {
      bad.fetch_add(1, std::memory_order_relaxed);
    }
  }
  /// Digest over every slot in order; empty when a slot was never answered.
  std::string combined() const {
    Digest all;
    for (std::size_t i = 0; i < digest_.size(); ++i) {
      if (!seen_[i]) return "incomplete";
      all.add(digest_[i]);
    }
    return all.hex();
  }

 private:
  std::vector<std::uint64_t> digest_;
  std::vector<char> seen_;
};

/// Times every run_batch call as a "serve.run_batch" span (traced runs
/// only); otherwise a transparent forwarder to the IndexBackend.
class TracedBackend final : public panda::serve::Backend {
 public:
  explicit TracedBackend(std::shared_ptr<panda::serve::Backend> inner)
      : inner_(std::move(inner)) {}
  std::size_t dims() const override { return inner_->dims(); }
  std::uint64_t size() const override { return inner_->size(); }
  void run_batch(std::span<const Request> batch,
                 std::vector<Result>& results) override {
    const auto t0 = Clock::now();
    inner_->run_batch(batch, results);
    const auto t1 = Clock::now();
    Tracer::instance().record("serve.run_batch", t0, t1, batch.size());
    weighted_ns_.fetch_add(
        static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                .count()) *
            batch.size(),
        std::memory_order_relaxed);
    requests_.fetch_add(batch.size(), std::memory_order_relaxed);
  }
  bool mutable_index() const override { return inner_->mutable_index(); }
  void ingest(const panda::data::PointSet& points) override {
    inner_->ingest(points);
  }
  std::size_t erase_ids(std::span<const std::uint64_t> ids) override {
    return inner_->erase_ids(ids);
  }
  /// Mean batch time seen by a request (request-weighted), in us.
  double request_batch_us() const {
    const std::uint64_t n = requests_.load();
    return n == 0 ? 0.0 : double(weighted_ns_.load()) / 1000.0 / double(n);
  }
  void reset() {
    weighted_ns_ = 0;
    requests_ = 0;
  }

 private:
  std::shared_ptr<panda::serve::Backend> inner_;
  std::atomic<std::uint64_t> weighted_ns_{0};  // batch ns x batch size
  std::atomic<std::uint64_t> requests_{0};
};

std::shared_ptr<panda::serve::Backend> make_backend(
    std::shared_ptr<Index> index) {
  auto backend = std::make_shared<panda::serve::IndexBackend>(std::move(index));
  if (!Tracer::instance().enabled()) return backend;
  return std::make_shared<TracedBackend>(std::move(backend));
}

std::vector<float> point_of(const panda::data::PointSet& set, std::size_t i) {
  std::vector<float> q(set.dims());
  set.copy_point(i, q.data());
  return q;
}

// ======================================================================
// serve_read
// ======================================================================

class ServeRead final : public Workload {
 public:
  explicit ServeRead(const Args& args) : args_(args), digests_(kPoolRequests) {}

  void prepare() override {
    constexpr std::uint64_t kPoints = 2'000'000;
    const panda::data::CosmologyGenerator gen({}, args_.seed);
    points_ = generate(gen, 0, kPoints);
    queries_ = generate(gen, kPoints, kPoints + kPoolRequests);
    opts_.engine = IndexOptions::Engine::Local;
    opts_.pool = std::make_shared<panda::parallel::ThreadPool>(2);

    // One radius for every radius request: the median distance to the
    // 10th neighbour over a query sample, so a radius request returns
    // about 10 neighbours.
    {
      auto index = Index::build(points_, opts_);
      const auto sample = queries_.extract(
          sample_indices(queries_.size(), 4096, args_.seed ^ 0xca1ull));
      panda::core::NeighborTable table;
      panda::SearchWorkspace ws;
      panda::SearchParams p;
      p.k = 10;
      index->knn_into(sample, p, table, ws);
      std::vector<double> d10;
      for (std::size_t i = 0; i < table.size(); ++i) {
        d10.push_back(std::sqrt(double(table.row(i).back().dist2)));
      }
      radius_ = static_cast<float>(median(d10));
    }

    std::mt19937_64 rng(args_.seed ^ 0x5e7eull);
    constexpr std::size_t kKs[] = {1, 5, 32};
    pool_.reserve(kPoolRequests);
    for (std::size_t i = 0; i < kPoolRequests; ++i) {
      if (rng() % 10 == 0) {
        pool_.push_back(Request::radius_search(point_of(queries_, i), radius_));
      } else {
        pool_.push_back(Request::knn(point_of(queries_, i), kKs[rng() % 3]));
      }
    }
  }

  std::vector<Report::Metric> measure(double budget_s,
                                      Report& report) override {
    std::atomic<std::uint64_t> bad{0};
    const auto record = [&](std::size_t slot, const Result& r) {
      digests_.record(slot, r, bad);
      if (oracle_slots_.count(slot) != 0 && kept_.count(slot) == 0) {
        kept_[slot] = r;
      }
    };
    for (const auto s : sample_indices(pool_.size(), kOracleSample,
                                       args_.seed ^ 0x0acull)) {
      oracle_slots_.insert(s);
    }

    std::vector<double> setups, qps, p50, p90, p99;
    Lateness late;
    double submit_us = 0.0;
    // Many short rounds: a slow spell of the shared host spoils single
    // rounds, and the median over rounds passes over them.
    const double slice = std::max(0.5, budget_s / 24.0);
    const double start = now_s();
    do {
      // Set-up: points in memory -> index built and service answering.
      service_.reset();
      index_.reset();
      const double t0 = now_s();
      {
        Scoped span("api.build");
        index_ = Index::build(points_, opts_);
      }
      backend_ = make_backend(index_);
      service_ = std::make_unique<panda::serve::QueryService>(
          backend_, panda::serve::ServeConfig{});
      setups.push_back(now_s() - t0);

      // Warm-up, one request at a time (keeps the queue-depth gauge
      // at the open loop's own high-water mark).
      for (std::size_t i = 0; i < 2000; ++i) {
        service_->submit(Request(pool_[i])).get();
      }
      if (auto* traced = dynamic_cast<TracedBackend*>(backend_.get())) {
        traced->reset();
      }

      const auto before = service_->stats();
      auto open = open_loop(*service_, pool_, next_slot_, kReadRate,
                            1.5 * slice, record);
      next_slot_ += open.latency_us.size();
      const auto after = service_->stats();
      report.attempted += open.latency_us.size();
      report.failed += open.failed;
      p50.push_back(quantile(open.latency_us, 0.50));
      p90.push_back(quantile(open.latency_us, 0.90));
      p99.push_back(quantile(open.latency_us, 0.99));
      late.add(open.late_us);
      submit_us = open.submit_us;
      batch_stats(before, after);
      if (auto* traced = dynamic_cast<TracedBackend*>(backend_.get())) {
        batch_us_ = traced->request_batch_us();
        mean_latency_us_ = 0.0;
        for (double l : open.latency_us) mean_latency_us_ += l;
        mean_latency_us_ /= double(std::max<std::size_t>(1, open.latency_us.size()));
      }

      qps.push_back(closed_loop(*service_, pool_, next_slot_, slice,
                                report.attempted, report.failed, record));
    } while (setups.size() < 3 || now_s() - start < budget_s);

    report.failed += bad.load();
    if (bad.load() != 0) report.note("served answers differ between repeats");
    report_lateness(report, "read", late, median(p90));
    submit_us_ = submit_us;
    read_p99_us_ = median(p99);
    serve_qps_.push_back(median(qps));
    report.note(samples("read_qps", qps));
    report.note(samples("read_p90_us", p90));
    report.note(format("%zu rounds; offered read rate %.0f/s; radius %.6g",
                       setups.size(), kReadRate, double(radius_)));
    return {{"setup_s", "s", median(setups)},
            {"read_qps", "1/s", median(qps)},
            {"read_p50_us", "us", median(p50)},
            {"read_p90_us", "us", median(p90)}};
  }

  void layers(double budget_s, Report& report) override {
    LayerInputs in;
    in.points = &points_;
    in.queries = &queries_;
    in.pool = opts_.pool;
    in.index = index_;
    in.requests = &pool_;
    common_layers(in, budget_s, report);
    double backend_qps = 0.0;
    for (const auto& m : report.per_layer) {
      if (m.name == "serve.backend_qps") backend_qps = m.value;
    }
    report.figure("serve.tax_x", "ratio", backend_qps / serve_qps_.front());
    report.figure("serve.submit_us", "us", submit_us_);
    report.figure("serve.mean_batch", "count", mean_batch_);
    report.figure("serve.window_flush_frac", "ratio", window_frac_);
    report.figure("serve.max_queue_depth", "count", max_depth_);
    report.figure("serve.queue_wait_us", "us", mean_latency_us_ - batch_us_);
    report.figure("serve.read_p99_us", "us", read_p99_us_);
  }

  void verify(Report& report) override {
    service_.reset();
    const Oracle oracle(points_);
    for (const std::size_t slot : oracle_slots_) {
      const Request& r = pool_[slot];
      const auto it = kept_.find(slot);
      if (it == kept_.end()) {
        report.note(format("oracle slot %zu never answered", slot));
        ++report.mismatches;
        continue;
      }
      const auto want = r.kind == Request::Kind::Knn
                            ? oracle.knn(r.query.data(), r.k)
                            : oracle.radius(r.query.data(), r.radius);
      report.check(it->second, want, format("request slot %zu", slot));
    }
    report.digest = digests_.combined();
    if (report.digest == "incomplete") ++report.mismatches;
  }

 private:
  void batch_stats(const panda::serve::ServeStats& before,
                   const panda::serve::ServeStats& after) {
    const double batches = double(after.batches - before.batches);
    const double requests = after.mean_batch_size * double(after.batches) -
                            before.mean_batch_size * double(before.batches);
    mean_batch_ = batches > 0 ? requests / batches : 0.0;
    window_frac_ =
        batches > 0
            ? double(after.flushes_on_window - before.flushes_on_window) / batches
            : 0.0;
    max_depth_ = double(after.max_queue_depth);
  }

  Args args_;
  IndexOptions opts_;
  panda::data::PointSet points_;
  panda::data::PointSet queries_;
  std::vector<Request> pool_;
  float radius_ = 0.0f;
  std::shared_ptr<Index> index_;
  std::shared_ptr<panda::serve::Backend> backend_;
  std::unique_ptr<panda::serve::QueryService> service_;
  std::size_t next_slot_ = 0;
  SlotDigests digests_;
  std::set<std::size_t> oracle_slots_;
  std::map<std::size_t, Result> kept_;
  std::vector<double> serve_qps_;  // one per measure() call, untraced first
  double submit_us_ = 0.0, read_p99_us_ = 0.0, mean_batch_ = 0.0,
         window_frac_ = 0.0, max_depth_ = 0.0, batch_us_ = 0.0,
         mean_latency_us_ = 0.0;
};

// ======================================================================
// serve_ingest
// ======================================================================

class ServeIngest final : public Workload {
 public:
  explicit ServeIngest(const Args& args) : args_(args) {}

  void prepare() override {
    const panda::data::CosmologyGenerator gen({}, args_.seed);
    seed_ = generate(gen, 0, kSeedPoints);
    reads_ = generate(gen, kSeedPoints, kSeedPoints + kPoolRequests);
    for (std::size_t i = 0; i < kPoolRequests; ++i) {
      pool_.push_back(Request::knn(point_of(reads_, i), 5));
    }
    // The write schedule of one slice: batches of fresh points (ids
    // after the read pool), every tenth an erase of seed ids.
    const std::size_t ops = static_cast<std::size_t>(kWriteRate * slice_s());
    std::uint64_t next_id = kSeedPoints + kPoolRequests;
    std::uint64_t next_erase = 0;
    for (std::size_t op = 0; op < ops; ++op) {
      WriteOp w;
      if (op % (kInsertsPerErase + 1) == kInsertsPerErase) {
        for (std::size_t j = 0; j < kWriteBatch; ++j) {
          w.erase.push_back(next_erase++);
        }
      } else {
        w.insert = generate(gen, next_id, next_id + kWriteBatch);
        next_id += kWriteBatch;
      }
      schedule_.push_back(std::move(w));
    }
    opts_.engine = IndexOptions::Engine::Mutable;
    opts_.pool = std::make_shared<panda::parallel::ThreadPool>(1);
  }

  std::vector<Report::Metric> measure(double budget_s,
                                      Report& report) override {
    std::vector<double> setups, qps, p50, p90, p99, insert_us, erase_us;
    Lateness read_late, write_late;
    const double start = now_s();
    do {
      teardown();
      opts_.mutable_config.durable_dir = fresh_dir();
      const double t0 = now_s();
      {
        Scoped span("api.build");
        index_ = Index::build(seed_, opts_);
      }
      backend_ = make_backend(index_);
      service_ = std::make_unique<panda::serve::QueryService>(
          backend_, panda::serve::ServeConfig{});
      setups.push_back(now_s() - t0);
      for (std::size_t i = 0; i < 2000; ++i) {
        service_->submit(Request(pool_[i])).get();
      }

      // Writer: the slice's schedule at kWriteRate, timed from due.
      std::vector<double> write_us(schedule_.size()), write_late_us(schedule_.size());
      std::atomic<std::uint64_t> write_failed{0};
      const auto w_start = Clock::now() + std::chrono::milliseconds(1);
      std::thread writer([&] {
        precise_sleeps();
        const auto interval = std::chrono::duration<double>(1.0 / kWriteRate);
        for (std::size_t op = 0; op < schedule_.size(); ++op) {
          const auto due = w_start + std::chrono::duration_cast<Clock::duration>(
                                         interval * double(op));
          wait_until(due, std::chrono::microseconds(500));
          const auto t = Clock::now();
          write_late_us[op] = us(t - due);
          try {
            if (schedule_[op].erase.empty()) {
              Scoped span("serve.ingest", op + 1);
              service_->ingest(schedule_[op].insert);
            } else {
              Scoped span("serve.erase_ids", op + 1);
              service_->erase_ids(schedule_[op].erase);
            }
          } catch (const std::exception&) {
            write_failed.fetch_add(1);
          }
          write_us[op] = us(Clock::now() - due);
        }
      });
      auto open = open_loop(*service_, pool_, 0, kIngestReadRate, slice_s(),
                            [](std::size_t, const Result&) {});
      writer.join();
      report.attempted += open.latency_us.size() + schedule_.size();
      report.failed += open.failed + write_failed.load();
      p50.push_back(quantile(open.latency_us, 0.50));
      p90.push_back(quantile(open.latency_us, 0.90));
      p99.push_back(quantile(open.latency_us, 0.99));
      // Inserts and erases are summarised apart: erases are a tenth of
      // the writes and several times slower, so a p90 over both sits on
      // the boundary between them and swings with the single slowest
      // insert. A round holds only a few dozen writes,
      // so write percentiles pool every round's samples.
      for (std::size_t op = 0; op < schedule_.size(); ++op) {
        (schedule_[op].erase.empty() ? insert_us : erase_us)
            .push_back(write_us[op]);
      }
      read_late.add(open.late_us);
      write_late.add(write_late_us);

      // Closed loop on the index the writes left behind (buffer,
      // several trees, tombstones): the forest's read throughput. It
      // runs beside the seals and merges the writes started, so it
      // lasts a whole slice (a 0.6 s loop spread 16-20 % between runs).
      std::size_t slot = 0;
      qps.push_back(closed_loop(*service_, pool_, slot, slice_s(),
                                report.attempted, report.failed,
                                [](std::size_t, const Result&) {}));
    } while (setups.size() < 3 || now_s() - start < budget_s);

    report_lateness(report, "read", read_late, median(p90));
    write_p50_us_ = quantile(insert_us, 0.50);
    write_p90_us_ = quantile(insert_us, 0.90);
    erase_p50_us_ = quantile(erase_us, 0.50);
    report_lateness(report, "write", write_late, write_p50_us_);
    report.note(format("write latency: insert p50 %.1f us, p90 %.1f us; "
                       "erase p50 %.1f us", write_p50_us_, write_p90_us_,
                       erase_p50_us_));
    report.note(samples("read_qps", qps));
    report.note(samples("read_p90_us", p90));
    read_p99_us_ = median(p99);
    report.note(format("%zu rounds of %zu writes (%.0f batches/s of %zu) and "
                       "%.0f reads/s over %.1f s",
                       setups.size(), schedule_.size(), kWriteRate, kWriteBatch,
                       kIngestReadRate, slice_s()));
    return {{"setup_s", "s", median(setups)},
            {"read_qps", "1/s", median(qps)},
            {"read_p50_us", "us", median(p50)},
            {"read_p90_us", "us", median(p90)}};
  }

  void layers(double budget_s, Report& report) override {
    // The common probes on a fresh Mutable index of the seed points
    // (no durable directory, no writes), so the core tree and the
    // engine answer over the same points.
    IndexOptions fresh = opts_;
    fresh.mutable_config.durable_dir.clear();
    LayerInputs in;
    in.points = &seed_;
    in.queries = &reads_;
    in.pool = opts_.pool;
    in.index = Index::build(seed_, fresh);
    in.requests = &pool_;
    common_layers(in, 0.6 * budget_s, report);
    in.index.reset();

    report.figure("serve.read_p99_us", "us", read_p99_us_);
    report.figure("serve.write_p50_us", "us", write_p50_us_);
    report.figure("serve.write_p90_us", "us", write_p90_us_);
    report.figure("serve.erase_p50_us", "us", erase_p50_us_);

    // mutable: the forest alone (no durable directory), fed the same
    // write schedule back to back while a reader thread queries it.
    auto pool = opts_.pool;
    panda::core::MutableIndex forest(
        panda::core::KdTree::build(seed_, panda::core::BuildConfig{}, *pool),
        panda::core::MutableConfig{}, panda::core::BuildConfig{}, pool);
    const panda::data::PointSet probe = reads_.extract(
        sample_indices(reads_.size(), 1024, args_.seed ^ 0xf0ull));
    // The reader counts a batch toward the phase it started in.
    std::atomic<int> phase{0};  // 0 writing, 1 quiesced, 2 stop
    std::atomic<std::uint64_t> answered[2] = {0, 0};
    std::thread reader([&] {
      panda::core::NeighborTable table;
      panda::core::ForestWorkspace ws;
      for (int p = phase.load(); p != 2; p = phase.load()) {
        Scoped span("mutable.knn_batch");
        forest.knn_batch(probe, 5, table, ws);
        answered[p] += probe.size();
      }
    });
    std::vector<double> insert_us;
    std::uint64_t points = 0;
    const double t0 = now_s();
    for (const WriteOp& w : schedule_) {
      if (w.erase.empty()) {
        const double a = now_s();
        Scoped span("mutable.insert", points + 1);
        forest.insert(w.insert);
        insert_us.push_back((now_s() - a) * 1e6);
        points += w.insert.size();
      } else {
        Scoped span("mutable.erase");
        forest.erase(w.erase);
      }
    }
    {
      Scoped span("mutable.quiesce");
      forest.quiesce();
    }
    const double drain_s = now_s() - t0;
    phase = 1;
    const double q0 = now_s();
    std::this_thread::sleep_for(
        std::chrono::duration<double>(std::clamp(0.1 * budget_s, 0.5, 3.0)));
    const double quiesced_s = now_s() - q0;
    phase = 2;
    reader.join();
    const auto st = forest.stats();
    report.figure("mutable.insert_us_p50", "us", quantile(insert_us, 0.5));
    report.figure("mutable.insert_us_p90", "us", quantile(insert_us, 0.9));
    report.figure("mutable.drain_pps", "1/s", double(points) / drain_s);
    report.figure("mutable.seals", "count", double(st.seals));
    report.figure("mutable.merges", "count", double(st.merges));
    report.figure("mutable.trees", "count", double(st.trees));
    report.figure("mutable.buffered_points", "count",
                  double(st.buffered_points));
    report.figure("mutable.knn_qps_during", "1/s",
                  double(answered[0].load()) / drain_s);
    report.figure("mutable.knn_qps_quiesced", "1/s",
                  double(answered[1].load()) / quiesced_s);
    report.note("mutable.merges, mutable.trees and mutable.buffered_points "
                "are sampled: the forest's shape depends on thread timing");

    // wal: 2k-point insert frames appended to a log in the work
    // directory, each followed by an fsync.
    const std::string path = args_.work_dir + "/wal-probe.log";
    auto wal = panda::core::Wal::create(path, 3);
    const auto& batch = schedule_.front().insert;
    std::vector<float> coords(batch.size() * 3);
    for (std::size_t i = 0; i < batch.size(); ++i) batch.copy_point(i, &coords[i * 3]);
    std::vector<double> append_us, sync_us;
    const double w0 = now_s();
    while (append_us.size() < 20 || now_s() - w0 < 0.1 * budget_s) {
      const double a = now_s();
      {
        Scoped span("wal.append_insert");
        wal.append_insert(batch.ids(), coords);
      }
      const double b = now_s();
      {
        Scoped span("wal.sync");
        wal.sync();
      }
      append_us.push_back((b - a) * 1e6);
      sync_us.push_back((now_s() - b) * 1e6);
    }
    std::filesystem::remove(path);
    report.figure("wal.append_us", "us", median(append_us));
    report.figure("wal.sync_us", "us", median(sync_us));
  }

  void verify(Report& report) override {
    service_.reset();
    backend_.reset();
    // The expected live set after one slice's schedule.
    std::set<std::uint64_t> erased;
    panda::data::PointSet live(3);
    for (const WriteOp& w : schedule_) erased.insert(w.erase.begin(), w.erase.end());
    for (std::size_t i = 0; i < seed_.size(); ++i) {
      if (erased.count(seed_.id(i)) == 0) {
        live.push_point(point_of(seed_, i), seed_.id(i));
      }
    }
    for (const WriteOp& w : schedule_) {
      if (w.erase.empty()) live.append(w.insert);
    }
    if (index_->size() != live.size()) {
      report.note(format("live size %llu, expected %zu",
                         static_cast<unsigned long long>(index_->size()),
                         live.size()));
      ++report.mismatches;
    }
    // Final answers over a fixed query sample: oracle-checked, digested.
    const auto sample = reads_.extract(
        sample_indices(reads_.size(), 256, args_.seed ^ 0xd16ull));
    panda::core::NeighborTable table;
    panda::SearchWorkspace ws;
    panda::SearchParams p;
    p.k = 5;
    index_->knn_into(sample, p, table, ws);
    const Oracle oracle(live);
    for (std::size_t i = 0; i < std::min<std::size_t>(kOracleSample, sample.size()); ++i) {
      report.check(table.row(i), oracle.knn(point_of(sample, i).data(), 5),
                   format("final-state query %zu", i));
    }
    Digest d;
    d.add(index_->size());
    d.add(digest_table(table));
    report.digest = d.hex();
    teardown();
  }

  ~ServeIngest() override { teardown(); }

 private:
  static constexpr std::uint64_t kSeedPoints = 1'000'000;

  struct WriteOp {
    panda::data::PointSet insert{3};
    std::vector<std::uint64_t> erase;
  };

  /// One round's traffic. Short, so a run holds many rounds: a slow
  /// spell of the shared host (generators woken up to 10 ms late)
  /// spoils single rounds, and the median over rounds passes over them.
  double slice_s() const { return std::max(1.0, args_.seconds / 16.0); }

  std::string fresh_dir() {
    const std::string dir = args_.work_dir + "/ingest-" +
                            std::to_string(::getpid()) + "-" +
                            std::to_string(round_++);
    std::filesystem::remove_all(dir);
    return dir;
  }

  void teardown() {
    service_.reset();
    backend_.reset();
    const std::string dir = opts_.mutable_config.durable_dir;
    index_.reset();
    if (!dir.empty()) std::filesystem::remove_all(dir);
  }

  Args args_;
  IndexOptions opts_;
  panda::data::PointSet seed_;
  panda::data::PointSet reads_;
  std::vector<Request> pool_;
  std::vector<WriteOp> schedule_;
  std::shared_ptr<Index> index_;
  std::shared_ptr<panda::serve::Backend> backend_;
  std::unique_ptr<panda::serve::QueryService> service_;
  int round_ = 0;
  double read_p99_us_ = 0.0;
  double write_p50_us_ = 0.0;
  double write_p90_us_ = 0.0;
  double erase_p50_us_ = 0.0;
};

}  // namespace

std::unique_ptr<Workload> make_serve_read(const Args& args) {
  return std::make_unique<ServeRead>(args);
}

std::unique_ptr<Workload> make_serve_ingest(const Args& args) {
  return std::make_unique<ServeIngest>(args);
}

}  // namespace perfbench
