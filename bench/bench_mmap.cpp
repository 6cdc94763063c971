// bench_mmap: the checksummed zero-copy open path vs the owned loader.
//
// PANDA's reuse story (DESIGN.md §11) hinges on Index::open being
// O(1) in index size: open_mmap maps the file and validates the
// 256-byte header (CRC included), while KdTree::load copies every
// section into owned memory after verifying the section checksums
// (DESIGN.md §13). `verified open ms` is open_mmap with the section
// checksums on — one streaming pass over the file, the durability
// knob's cost — while the unverified open stays O(1). This harness
// measures all three on the same file across a size sweep, then
// digest-gates queries through the mapped tree against the in-RAM
// build and reports cold (first pass after open, pages faulting in)
// and warm query throughput.
//
// Emits BENCH_mmap.json next to the binary. Exit status is the gate:
// 0 iff mapped-tree digests equal the owned build's AND the
// unverified open stays faster than the owned load at the largest
// size.
//
// Usage: bench_mmap [--smoke] [points] [queries]
//   default 1,000,000 points / 50,000 queries; --smoke 20,000 / 2,000
//   (the mode ci.sh bench-smoke runs from build/).
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "common/timer.hpp"
#include "core/kdtree.hpp"
#include "data/generators.hpp"
#include "parallel/thread_pool.hpp"

namespace {

using namespace panda;
using core::Neighbor;

std::uint64_t fold_row(std::uint64_t qid, std::span<const Neighbor> row) {
  std::uint64_t h = 1469598103934665603ull ^ qid;
  for (const Neighbor& nb : row) {
    h = (h ^ nb.id) * 1099511628211ull;
    std::uint32_t bits;
    std::memcpy(&bits, &nb.dist2, sizeof(bits));
    h = (h ^ bits) * 1099511628211ull;
  }
  return h;
}

std::uint64_t digest_table(const core::NeighborTable& table) {
  std::uint64_t digest = 0;
  for (std::size_t i = 0; i < table.size(); ++i) {
    digest += fold_row(i, table[i]);
  }
  return digest;
}

struct SizePoint {
  std::uint64_t points = 0;
  std::uint64_t index_bytes = 0;
  double open_ms = 0.0;          // unverified: header CRC only, O(1)
  double verified_open_ms = 0.0; // + one streaming pass of section CRCs
  double load_ms = 0.0;          // verified open + copy to owned memory
};

/// "<cpu model>, <n> hardware threads" — recorded with the numbers
/// so a checked-in JSON names the machine it was measured on.
std::string host_description() {
  std::string model = "unknown cpu";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos && colon + 2 <= line.size()) {
        model = line.substr(colon + 2);
      }
      break;
    }
  }
  return model + ", " + std::to_string(std::thread::hardware_concurrency()) +
         " hardware threads";
}

double best_of_ms(int passes, auto&& fn) {
  double best = 1e300;
  for (int p = 0; p < passes; ++p) {
    WallTimer watch;
    fn();
    best = std::min(best, watch.seconds() * 1e3);
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t n = 1000000;
  std::uint64_t n_queries = 50000;
  bool sized = false;
  for (int a = 1; a < argc; ++a) {
    if (std::strcmp(argv[a], "--smoke") == 0) {
      n = 20000;
      n_queries = 2000;
    } else if (!sized) {
      n = std::strtoull(argv[a], nullptr, 10);
      sized = true;
    } else {
      n_queries = std::strtoull(argv[a], nullptr, 10);
    }
  }
  const std::size_t k = 5;
  parallel::ThreadPool pool(8);
  const auto gen = data::make_generator("cosmo", bench::kDataSeed);
  const data::PointSet queries = bench::make_queries(*gen, n, n_queries);
  const std::string scratch =
      (std::filesystem::temp_directory_path() / "panda_bench_mmap").string();

  bench::print_header(
      "bench_mmap: zero-copy open vs owned load, mapped-query throughput",
      "DESIGN.md §11 (mapped index format)");
  std::printf("open cost sweep (best of 5 opens / 3 loads):\n");
  std::printf("%12s %14s %14s %14s %14s %10s\n", "points", "index bytes",
              "open ms", "verified ms", "load ms", "ratio");

  // ------------------------------------------------------------------
  // Size sweep: open latency must stay flat while the owned load
  // grows with the index.
  // ------------------------------------------------------------------
  const std::string path = scratch + ".kdt";
  std::vector<SizePoint> sweep;
  for (const std::uint64_t size : {n / 4, n / 2, n}) {
    const data::PointSet points = gen->generate_all(size);
    const core::KdTree tree =
        core::KdTree::build(points, core::BuildConfig{}, pool);
    tree.save(path);

    SizePoint sp;
    sp.points = size;
    sp.index_bytes = std::filesystem::file_size(path);
    sp.open_ms = best_of_ms(5, [&] {
      const core::KdTree mapped =
          core::KdTree::open_mmap(path, /*verify_sections=*/false);
      if (mapped.size() != size) std::abort();
    });
    sp.verified_open_ms = best_of_ms(5, [&] {
      const core::KdTree mapped = core::KdTree::open_mmap(path);
      if (mapped.size() != size) std::abort();
    });
    sp.load_ms = best_of_ms(3, [&] {
      const core::KdTree loaded = core::KdTree::load(path);
      if (loaded.size() != size) std::abort();
    });
    sweep.push_back(sp);
    std::printf("%12s %14" PRIu64 " %14.4f %14.4f %14.3f %9.0fx\n",
                bench::human_count(size).c_str(), sp.index_bytes,
                sp.open_ms, sp.verified_open_ms, sp.load_ms,
                sp.load_ms / sp.open_ms);
  }

  // ------------------------------------------------------------------
  // Query throughput through the map, digest-gated against the owned
  // build. "Cold" is the first batch after a fresh open (map pages
  // fault in under the queries — soft faults here, the file was just
  // written); "warm" is the best of three repeats.
  // ------------------------------------------------------------------
  const data::PointSet points = gen->generate_all(n);
  const core::KdTree owned =
      core::KdTree::build(points, core::BuildConfig{}, pool);
  owned.save(path);

  core::NeighborTable table;
  core::BatchWorkspace ws;
  owned.query_batch(queries, k, pool, table, ws);
  const std::uint64_t owned_digest = digest_table(table);

  const core::KdTree mapped = core::KdTree::open_mmap(path);
  WallTimer cold_watch;
  mapped.query_batch(queries, k, pool, table, ws);
  const double cold_seconds = cold_watch.seconds();
  const std::uint64_t mapped_digest = digest_table(table);
  const double cold_qps = static_cast<double>(n_queries) / cold_seconds;

  double warm_qps = 0.0;
  for (int p = 0; p < 3; ++p) {
    WallTimer watch;
    mapped.query_batch(queries, k, pool, table, ws);
    warm_qps = std::max(
        warm_qps, static_cast<double>(n_queries) / watch.seconds());
  }
  const bool digests_match = mapped_digest == owned_digest;

  bench::print_rule();
  std::printf("query throughput via the map (%s queries, k=%zu):\n",
              bench::human_count(n_queries).c_str(), k);
  std::printf("  cold %10.0f qps   warm %10.0f qps   digests %s\n",
              cold_qps, warm_qps,
              digests_match ? "identical" : "MISMATCH");

  const SizePoint& largest = sweep.back();
  const bool open_gate = largest.open_ms < largest.load_ms;
  if (!open_gate) {
    std::printf("GATE FAILED: open (%.4f ms) not faster than owned load "
                "(%.3f ms) at %" PRIu64 " points\n",
                largest.open_ms, largest.load_ms, largest.points);
  }

  FILE* json = std::fopen("BENCH_mmap.json", "w");
  if (json != nullptr) {
    std::fprintf(json, "{\n  \"bench\": \"mmap_open\",\n");
    std::fprintf(json, "  \"host\": \"%s\",\n", host_description().c_str());
    std::fprintf(json, "  \"k\": %zu,\n  \"queries\": %" PRIu64 ",\n", k,
                 n_queries);
    std::fprintf(json, "  \"open_sweep\": [\n");
    for (std::size_t s = 0; s < sweep.size(); ++s) {
      std::fprintf(json,
                   "    {\"points\": %" PRIu64 ", \"index_bytes\": %" PRIu64
                   ", \"open_ms\": %.5f, \"verified_open_ms\": %.5f"
                   ", \"load_ms\": %.4f}%s\n",
                   sweep[s].points, sweep[s].index_bytes, sweep[s].open_ms,
                   sweep[s].verified_open_ms, sweep[s].load_ms,
                   s + 1 < sweep.size() ? "," : "");
    }
    std::fprintf(json, "  ],\n");
    std::fprintf(json, "  \"cold_qps\": %.0f,\n  \"warm_qps\": %.0f,\n",
                 cold_qps, warm_qps);
    std::fprintf(json, "  \"digests_match\": %s,\n",
                 digests_match ? "true" : "false");
    std::fprintf(json, "  \"open_faster_than_load\": %s\n",
                 open_gate ? "true" : "false");
    std::fprintf(json, "}\n");
    std::fclose(json);
    std::printf("wrote BENCH_mmap.json\n");
  }

  std::remove(path.c_str());
  return digests_match && open_gate ? 0 : 1;
}
