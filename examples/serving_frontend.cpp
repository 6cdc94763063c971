// Serving frontend: a live KNN query service with an index swap
// behind traffic — the whole stack on the panda::Index front door.
//
// The ROADMAP north star is serving heavy interactive traffic, not
// just batch analysis. This example stands up the serve::QueryService
// over a cosmology index and drives it like a production frontend:
//   1. client threads submit individual KNN and radius requests;
//      the service micro-batches them onto one serve::IndexBackend
//      (a thin adapter over any panda::Index — flipping the backend
//      to the distributed engine is one IndexOptions field);
//   2. mid-traffic, a *new* index (the next simulation timestep,
//      drifted positions) is built over the same shared thread pool
//      and swapped in atomically — the rebuild-behind-traffic pattern
//      — without failing or blocking a single in-flight request;
//   3. the ServeStats panel prints what an SRE would watch: QPS,
//      latency quantiles, queue depth, batch-size histogram.
//
// With --mmap <path> the service serves off a memory-mapped index
// file instead of an owned in-RAM tree (building and saving the file
// first when it does not exist yet). Open latency and resident set
// are printed — the point of the mapped path is that both stay flat
// no matter how big the index is. The mid-run rebuild+swap phase is
// skipped in this mode: the index under test is the on-disk one.
//
// With --ingest-rate R the served index is Engine::Mutable and an
// ingest thread streams ~R new points/s (plus periodic erases)
// through QueryService::ingest while the clients keep querying — the
// query-while-ingest story of DESIGN.md §12: no rebuild, no swap, no
// stalled request, writes visible as soon as ingest() returns. The
// rebuild+swap phase is skipped (live updates replace it).
//
// Run:  ./serving_frontend [points] [clients] [seconds] [--shards N]
//                          [--mmap path | --ingest-rate R]
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/index.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "data/generators.hpp"
#include "example_args.hpp"
#include "serve/query_service.hpp"

namespace {

/// Resident set (VmRSS) of this process in KiB, from
/// /proc/self/status; 0 when unavailable (non-Linux).
std::uint64_t vm_rss_kib() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  std::uint64_t kib = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmRSS: %" SCNu64, &kib) == 1) break;
  }
  std::fclose(f);
  return kib;
}

bool file_exists(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  std::fclose(f);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace panda;
  std::uint64_t n = 100000;
  int clients = 8;
  int seconds = 2;
  int shards = 2;
  std::uint64_t ingest_rate = 0;
  std::string mmap_path;
  // --shards / --mmap are flags; the remaining arguments stay
  // positional.
  std::vector<const char*> positional;
  bool parsed = true;
  for (int a = 1; a < argc; ++a) {
    if (std::strcmp(argv[a], "--shards") == 0) {
      parsed = parsed && a + 1 < argc &&
               examples::parse_int(argv[++a], shards);
    } else if (std::strcmp(argv[a], "--mmap") == 0) {
      parsed = parsed && a + 1 < argc;
      if (parsed) mmap_path = argv[++a];
    } else if (std::strcmp(argv[a], "--ingest-rate") == 0) {
      parsed = parsed && a + 1 < argc &&
               examples::parse_u64(argv[++a], ingest_rate) &&
               ingest_rate > 0;
    } else {
      positional.push_back(argv[a]);
    }
  }
  parsed = parsed && positional.size() <= 3 &&
           (positional.size() < 1 || examples::parse_u64(positional[0], n)) &&
           (positional.size() < 2 ||
            examples::parse_int(positional[1], clients)) &&
           (positional.size() < 3 ||
            examples::parse_int(positional[2], seconds));
  if (!parsed || n == 0 || clients < 1 || seconds < 1 || shards < 1 ||
      (!mmap_path.empty() && ingest_rate > 0)) {
    std::fprintf(stderr,
                 "usage: serving_frontend [points>0] [clients>=1] "
                 "[seconds>=1] [--shards N>=1] "
                 "[--mmap path | --ingest-rate R>0]\n");
    return 1;
  }
  const std::size_t k = 5;
  const bool use_mmap = !mmap_path.empty();
  const bool use_ingest = ingest_rate > 0;

  // ------------------------------------------------------------------
  // Index v1 and the service.
  // ------------------------------------------------------------------
  const auto gen = data::make_generator("cosmo", /*seed=*/2016);
  const data::PointSet points = gen->generate_all(n);
  IndexOptions index_options;
  index_options.pool = std::make_shared<parallel::ThreadPool>(8);

  std::shared_ptr<serve::IndexBackend> backend;
  if (use_mmap) {
    if (!file_exists(mmap_path)) {
      std::printf("--mmap: %s does not exist; building and saving it\n",
                  mmap_path.c_str());
      Index::build(points, index_options)->save(mmap_path);
    }
    const std::uint64_t rss_before = vm_rss_kib();
    WallTimer open_watch;
    auto index = Index::open(mmap_path, index_options);
    const double open_seconds = open_watch.seconds();
    std::printf("--mmap: opened %s in %.3f ms (zero-copy; resident set "
                "%" PRIu64 " KiB -> %" PRIu64 " KiB)\n",
                mmap_path.c_str(), open_seconds * 1e3, rss_before,
                vm_rss_kib());
    backend = std::make_shared<serve::IndexBackend>(std::move(index));
  } else if (use_ingest) {
    index_options.engine = IndexOptions::Engine::Mutable;
    backend = std::make_shared<serve::IndexBackend>(
        Index::build(points, index_options));
    std::printf("--ingest-rate: serving a mutable index, streaming ~%" PRIu64
                " points/s behind the query traffic\n",
                ingest_rate);
  } else {
    backend = std::make_shared<serve::IndexBackend>(
        Index::build(points, index_options));
  }

  serve::ServeConfig config;
  config.max_batch = 64;
  config.flush_window = std::chrono::microseconds(300);
  config.queue_capacity = 4096;
  config.workers = 1;
  config.shards = shards;
  serve::QueryService service(backend, config);
  std::printf("serving %" PRIu64 " points (k=%zu) to %d clients for "
              "~%ds; micro-batch <= %zu, window %lld us, %d shard%s\n",
              n, k, clients, seconds, config.max_batch,
              static_cast<long long>(config.flush_window.count()),
              shards, shards == 1 ? "" : "s");

  // ------------------------------------------------------------------
  // Client traffic: 3 KNN requests to 1 radius request.
  // ------------------------------------------------------------------
  const auto qgen = data::make_generator("cosmo", /*seed=*/77);
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> answered{0};
  std::atomic<std::uint64_t> neighbors_returned{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      data::PointSet qs(qgen->dims());
      const std::uint64_t base =
          n + static_cast<std::uint64_t>(c) * 4096;
      qgen->generate(base, base + 256, qs);
      std::vector<float> q(qgen->dims());
      std::uint64_t j = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        qs.copy_point(j % 256, q.data());
        serve::Request request =
            (j % 4 == 3) ? serve::Request::radius_search(q, 0.02f)
                         : serve::Request::knn(q, k);
        const auto result = service.submit(std::move(request)).get();
        answered.fetch_add(1, std::memory_order_relaxed);
        neighbors_returned.fetch_add(result.size(),
                                     std::memory_order_relaxed);
        ++j;
      }
    });
  }

  // ------------------------------------------------------------------
  // Ingest behind traffic (--ingest-rate): a writer thread streams
  // fresh points through service.ingest() at the requested rate, with
  // a periodic erase batch, while the clients keep hammering. No
  // rebuild, no swap — the logarithmic merge machinery absorbs the
  // writes and queries never block (DESIGN.md §12).
  // ------------------------------------------------------------------
  const std::uint64_t size_before = backend->size();
  std::thread ingest_thread;
  if (use_ingest) {
    ingest_thread = std::thread([&] {
      const auto igen = data::make_generator("cosmo", /*seed=*/4242);
      // ~50 ingest calls per second keeps batches small enough that
      // pacing tracks the target rate.
      const std::uint64_t chunk =
          std::max<std::uint64_t>(1, ingest_rate / 50);
      std::uint64_t next_id = n + 1000000;  // clear of the base ids
      std::uint64_t sent = 0;
      std::uint64_t batch_no = 0;
      const auto t0 = std::chrono::steady_clock::now();
      while (!stop.load(std::memory_order_relaxed)) {
        data::PointSet fresh(igen->dims());
        igen->generate(next_id, next_id + chunk, fresh);
        service.ingest(fresh);
        sent += chunk;
        // Every 8th batch, erase the first half of the batch just
        // ingested — the erase path runs behind traffic too.
        if (++batch_no % 8 == 0) {
          std::vector<std::uint64_t> doomed;
          for (std::uint64_t id = next_id; id < next_id + chunk / 2; ++id)
            doomed.push_back(id);
          if (!doomed.empty()) service.erase_ids(doomed);
        }
        next_id += chunk;
        std::this_thread::sleep_until(
            t0 + std::chrono::nanoseconds(sent * 1000000000ull /
                                          ingest_rate));
      }
    });
  }

  // ------------------------------------------------------------------
  // Rebuild behind traffic: drift every particle (next timestep) and
  // swap the fresh index in while the clients keep hammering. In mmap
  // mode the on-disk index *is* the subject under test, and in ingest
  // mode live updates replace the rebuild, so traffic just runs
  // against the one index for the whole window.
  // ------------------------------------------------------------------
  std::this_thread::sleep_for(std::chrono::milliseconds(500 * seconds));
  double rebuild_seconds = 0.0;
  std::uint64_t answered_at_swap = 0;
  if (!use_mmap && !use_ingest) {
    data::PointSet drifted = points;
    for (std::uint64_t i = 0; i < drifted.size(); ++i) {
      Rng rng(derive_seed(0x5EED5, drifted.id(i)));
      for (std::size_t d = 0; d < drifted.dims(); ++d) {
        double x = drifted.at(i, d) + rng.normal(0.0, 0.005);
        x = x - std::floor(x);
        drifted.set(i, d, static_cast<float>(x));
      }
    }
    WallTimer rebuild_watch;
    service.swap_backend(std::make_shared<serve::IndexBackend>(
        Index::build(drifted, index_options)));
    rebuild_seconds = rebuild_watch.seconds();
    answered_at_swap = answered.load();
  }

  std::this_thread::sleep_for(std::chrono::milliseconds(500 * seconds));
  stop.store(true);
  for (auto& t : threads) t.join();
  if (ingest_thread.joinable()) ingest_thread.join();
  service.shutdown();

  // ------------------------------------------------------------------
  // The operator's panel.
  // ------------------------------------------------------------------
  const serve::ServeStats stats = service.stats();
  if (use_mmap) {
    std::printf("\nmmap: served the whole window off %s (resident set "
                "now %" PRIu64 " KiB), %" PRIu64 " errors\n",
                mmap_path.c_str(), vm_rss_kib(), stats.failed);
  } else if (use_ingest) {
    std::printf("\ningest: %" PRIu64 " points in %" PRIu64 " batches "
                "(%" PRIu64 " ids erased) streamed behind live traffic — "
                "index grew %" PRIu64 " -> %" PRIu64 " points, "
                "%" PRIu64 " errors, zero rebuilds, zero swaps\n",
                stats.ingested_points, stats.ingest_batches,
                stats.erased_ids, size_before, backend->size(),
                stats.failed);
  } else {
    std::printf("\nswap: index v2 (drifted positions) built + swapped in "
                "%.3fs behind live traffic\n",
                rebuild_seconds);
    std::printf("  requests before swap: %" PRIu64 ", after: %" PRIu64
                " — zero failed (%" PRIu64 " errors)\n",
                answered_at_swap, answered.load() - answered_at_swap,
                stats.failed);
  }
  std::printf("\nServeStats\n");
  std::printf("  throughput: %.0f qps sustained (%" PRIu64
              " requests, %" PRIu64 " neighbors returned)\n",
              stats.qps, stats.completed, neighbors_returned.load());
  std::printf("  latency:    p50 %.0f us, p95 %.0f us, p99 %.0f us, "
              "p999 %.0f us, max %.0f us\n",
              stats.latency.p50_us, stats.latency.p95_us,
              stats.latency.p99_us, stats.latency.p999_us,
              stats.latency.max_us);
  std::printf("  batching:   %" PRIu64 " batches, mean size %.1f "
              "(%" PRIu64 " size-flush, %" PRIu64 " window-flush)\n",
              stats.batches, stats.mean_batch_size, stats.flushes_on_size,
              stats.flushes_on_window);
  std::printf("  queue:      depth high-water %" PRIu64 " (capacity %zu), "
              "rejected %" PRIu64 "\n",
              stats.max_queue_depth, config.queue_capacity, stats.rejected);
  std::printf("  shards:     %" PRIu64 " — per-shard depth high-water [",
              stats.shards);
  for (std::size_t s = 0; s < stats.shard_max_queue_depth.size(); ++s) {
    std::printf("%s%" PRIu64, s == 0 ? "" : " ",
                stats.shard_max_queue_depth[s]);
  }
  std::printf("]\n");
  std::printf("  batch-size histogram (log2 buckets):");
  for (std::size_t b = 0; b < stats.batch_size_log2.size(); ++b) {
    if (stats.batch_size_log2[b] != 0) {
      std::printf("  [%llu..%llu]: %" PRIu64,
                  1ull << b, (2ull << b) - 1, stats.batch_size_log2[b]);
    }
  }
  std::printf("\n  index swaps: %" PRIu64 "\n", stats.swaps);
  return 0;
}
