// Shared helpers for the table/figure reproduction harnesses.
//
// Every bench binary prints (1) the paper's reported numbers for the
// experiment it reproduces and (2) the numbers measured on this
// machine's scaled-down substitute workload, so EXPERIMENTS.md can be
// regenerated by running build/bench/*. Sizes are scaled: the paper
// ran 10^9..10^11 points on up to 49,152 Edison cores; this harness
// runs 10^5..10^6 points on an in-process simulated cluster (see
// DESIGN.md section 2).
#pragma once

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common/timer.hpp"
#include "data/generators.hpp"

namespace panda::bench {

/// Scaled stand-ins for the paper's datasets (Table I / Table II).
struct DatasetSpec {
  std::string name;        // generator name
  std::string paper_name;  // the paper's dataset label
  std::uint64_t points;
  std::uint64_t queries;
  std::size_t k = 5;
};

inline DatasetSpec thin_spec(const std::string& generator) {
  // *_thin: the paper's single-node datasets (27M-50M) scaled ~1:40,
  // with the paper's query fractions (10 %, 10 %, 0.5 %).
  if (generator == "cosmo") {
    return {"cosmo", "cosmo_thin", 1250000, 125000, 5};
  }
  if (generator == "plasma") {
    return {"plasma", "plasma_thin", 925000, 92500, 5};
  }
  return {"dayabay", "dayabay_thin", 675000, 3375, 5};
}

inline DatasetSpec large_spec(const std::string& generator) {
  // *_large: the paper's cluster datasets (2.7B-189B) scaled for the
  // in-process cluster; query fractions match the paper (10 %, 10 %,
  // 0.5 %).
  if (generator == "cosmo") {
    return {"cosmo", "cosmo_large", 2000000, 200000, 5};
  }
  if (generator == "plasma") {
    return {"plasma", "plasma_large", 3000000, 300000, 5};
  }
  return {"dayabay", "dayabay_large", 1000000, 5000, 5};
}

/// Fixed seeds so that every bench sees the same data.
inline constexpr std::uint64_t kDataSeed = 20160527;   // IPDPS'16 date
inline constexpr std::uint64_t kQuerySeed = 16072220;  // arXiv id-ish

/// Query set drawn from the same distribution, id-disjoint from the
/// indexed points.
inline data::PointSet make_queries(const data::Generator& generator,
                                   std::uint64_t n_points,
                                   std::uint64_t n_queries) {
  data::PointSet queries(generator.dims());
  queries.reserve(n_queries);
  generator.generate(n_points, n_points + n_queries, queries);
  return queries;
}

/// Rank r's slice of the query set above.
inline data::PointSet make_query_slice(const data::Generator& generator,
                                       std::uint64_t n_points,
                                       std::uint64_t n_queries, int rank,
                                       int ranks) {
  const std::uint64_t begin =
      n_points + static_cast<std::uint64_t>(rank) * n_queries /
                     static_cast<std::uint64_t>(ranks);
  const std::uint64_t end =
      n_points + static_cast<std::uint64_t>(rank + 1) * n_queries /
                     static_cast<std::uint64_t>(ranks);
  data::PointSet queries(generator.dims());
  queries.reserve(end - begin);
  generator.generate(begin, end, queries);
  return queries;
}

inline void print_header(const std::string& title,
                         const std::string& paper_ref) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("reproduces: %s\n", paper_ref.c_str());
  std::printf("================================================================\n");
}

inline void print_rule() {
  std::printf("----------------------------------------------------------------\n");
}

/// Formats a count like "2.0M" / "500k".
inline std::string human_count(std::uint64_t n) {
  char buffer[32];
  if (n >= 1000000000ull) {
    std::snprintf(buffer, sizeof(buffer), "%.1fB",
                  static_cast<double>(n) / 1e9);
  } else if (n >= 1000000ull) {
    std::snprintf(buffer, sizeof(buffer), "%.1fM",
                  static_cast<double>(n) / 1e6);
  } else if (n >= 1000ull) {
    std::snprintf(buffer, sizeof(buffer), "%.0fk",
                  static_cast<double>(n) / 1e3);
  } else {
    std::snprintf(buffer, sizeof(buffer), "%llu",
                  static_cast<unsigned long long>(n));
  }
  return buffer;
}

/// "<cpu model>, <n> hardware threads" — recorded with the numbers
/// so a checked-in JSON names the machine it was measured on.
inline std::string host_description() {
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

}  // namespace panda::bench
