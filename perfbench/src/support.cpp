#include "support.hpp"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <random>
#include <thread>
#include <unordered_set>

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

std::vector<double> repeat_for(double budget_s, int min_reps,
                               const std::function<double()>& body) {
  std::vector<double> samples;
  const double start = now_s();
  while (static_cast<int>(samples.size()) < min_reps ||
         now_s() - start < budget_s) {
    samples.push_back(body());
  }
  return samples;
}

std::vector<std::vector<double>> rounds(
    double budget_s, int min_rounds,
    const std::vector<std::function<double()>>& steps) {
  std::vector<std::vector<double>> samples(steps.size());
  const double start = now_s();
  for (int r = 0; r < min_rounds || now_s() - start < budget_s; ++r) {
    for (std::size_t i = 0; i < steps.size(); ++i) {
      samples[i].push_back(steps[i]());
    }
  }
  return samples;
}

std::string samples(const char* name, const std::vector<double>& values) {
  std::string out = std::string(name) + " by round:";
  for (double v : values) out += format(" %.4g", v);
  return out;
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

void Digest::add(std::uint64_t word) {
  // FNV-1a over 64-bit words (not bytes): cheap enough to digest every
  // answer on a serving client's thread.
  h_ ^= word;
  h_ *= 1099511628211ull;
  h_ ^= h_ >> 32;
}

void Digest::add(std::span<const Neighbor> row) {
  add(row.size());
  for (const Neighbor& n : row) {
    std::uint32_t bits = 0;
    static_assert(sizeof(bits) == sizeof(n.dist2));
    std::memcpy(&bits, &n.dist2, sizeof(bits));
    add(bits);
    add(n.id);
  }
}

std::string Digest::hex() const {
  return format("%016llx", static_cast<unsigned long long>(h_));
}

std::uint64_t digest_of(std::span<const Neighbor> row) {
  Digest d;
  d.add(row);
  return d.value();
}

std::uint64_t digest_table(const panda::core::NeighborTable& table) {
  Digest d;
  for (std::size_t i = 0; i < table.size(); ++i) d.add(table.row(i));
  return d.value();
}

void Oracle::distances(const float* query) const {
  const std::size_t n = points_.size();
  dist_.assign(n, 0.0f);
  for (std::size_t d = 0; d < points_.dims(); ++d) {
    const float q = query[d];
    const float* x = points_.coordinate(d).data();
    for (std::size_t i = 0; i < n; ++i) {
      const float diff = q - x[i];
      dist_[i] += diff * diff;
    }
  }
}

std::vector<Neighbor> Oracle::knn(const float* query, std::size_t k) const {
  distances(query);
  std::vector<Neighbor> best;
  best.reserve(k + 1);
  for (std::size_t i = 0; i < dist_.size(); ++i) {
    const Neighbor cand{dist_[i], points_.id(i)};
    if (best.size() == k && !(cand < best.back())) continue;
    best.insert(std::upper_bound(best.begin(), best.end(), cand), cand);
    if (best.size() > k) best.pop_back();
  }
  return best;
}

std::vector<Neighbor> Oracle::radius(const float* query, float radius) const {
  distances(query);
  const float r2 = radius * radius;
  std::vector<Neighbor> out;
  for (std::size_t i = 0; i < dist_.size(); ++i) {
    if (dist_[i] < r2) out.push_back({dist_[i], points_.id(i)});
  }
  std::sort(out.begin(), out.end());
  return out;
}

panda::data::PointSet generate(const panda::data::Generator& gen,
                               std::uint64_t begin, std::uint64_t end) {
  const unsigned parts = std::max(1u, std::thread::hardware_concurrency());
  std::vector<panda::data::PointSet> slices(parts,
                                            panda::data::PointSet(gen.dims()));
  std::vector<std::thread> threads;
  for (unsigned p = 0; p < parts; ++p) {
    threads.emplace_back([&, p] {
      const std::uint64_t n = end - begin;
      gen.generate(begin + n * p / parts, begin + n * (p + 1) / parts,
                   slices[p]);
    });
  }
  for (auto& t : threads) t.join();
  panda::data::PointSet out(gen.dims());
  out.reserve(end - begin);
  for (const auto& slice : slices) out.append(slice);
  return out;
}

std::vector<std::uint64_t> sample_indices(std::uint64_t n, std::size_t count,
                                          std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::unordered_set<std::uint64_t> seen;
  std::vector<std::uint64_t> out;
  count = std::min<std::uint64_t>(count, n);
  while (out.size() < count) {
    const std::uint64_t i = rng() % n;
    if (seen.insert(i).second) out.push_back(i);
  }
  return out;
}

// ----------------------------------------------------------------------
// Tracer
// ----------------------------------------------------------------------

namespace {
thread_local std::vector<std::int32_t> open_spans;

std::int64_t ns(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             t.time_since_epoch())
      .count();
}
}  // namespace

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

void Tracer::enable(std::size_t capacity) {
  spans_.assign(capacity, Span{});
  next_ = 0;
  dropped_ = 0;
  enabled_ = true;
}

std::int32_t Tracer::claim() {
  const std::size_t slot = next_.fetch_add(1, std::memory_order_relaxed);
  if (slot >= spans_.size()) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return -1;
  }
  return static_cast<std::int32_t>(slot);
}

std::int32_t Tracer::begin(const char* name, std::uint64_t request) {
  const std::int32_t slot = claim();
  if (slot < 0) return -1;
  Span& s = spans_[static_cast<std::size_t>(slot)];
  s.name = name;
  s.parent = open_spans.empty() ? -1 : open_spans.back();
  s.request = request;
  open_spans.push_back(slot);
  s.start_ns = ns(Clock::now());
  return slot;
}

void Tracer::end(std::int32_t slot) {
  spans_[static_cast<std::size_t>(slot)].end_ns = ns(Clock::now());
  if (!open_spans.empty() && open_spans.back() == slot) open_spans.pop_back();
}

std::int32_t Tracer::begin_at(const char* name, std::uint64_t request,
                              Clock::time_point start) {
  const std::int32_t slot = begin(name, request);
  if (slot >= 0) spans_[static_cast<std::size_t>(slot)].start_ns = ns(start);
  return slot;
}

void Tracer::detach(std::int32_t slot) {
  if (!open_spans.empty() && open_spans.back() == slot) open_spans.pop_back();
}

void Tracer::finish(std::int32_t slot, Clock::time_point end) {
  if (slot >= 0) spans_[static_cast<std::size_t>(slot)].end_ns = ns(end);
}

void Tracer::record(const char* name, Clock::time_point start,
                    Clock::time_point end, std::uint64_t request) {
  if (!enabled_) return;
  const std::int32_t slot = claim();
  if (slot < 0) return;
  spans_[static_cast<std::size_t>(slot)] =
      Span{name, ns(start), ns(end), -1, request};
}

std::size_t Tracer::size() const {
  return std::min(next_.load(), spans_.size());
}

std::map<std::string, Tracer::Totals> Tracer::totals() const {
  const std::size_t n = size();
  // Children of each span, as [start, end) intervals.
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(n);
  for (std::size_t i = 0; i < n; ++i) {
    const Span& s = spans_[i];
    if (s.parent >= 0 && static_cast<std::size_t>(s.parent) < n) {
      children[static_cast<std::size_t>(s.parent)].push_back(
          {s.start_ns, s.end_ns});
    }
  }
  std::map<std::string, Totals> out;
  for (std::size_t i = 0; i < n; ++i) {
    const Span& s = spans_[i];
    if (s.name == nullptr || s.end_ns < s.start_ns) continue;
    // Self time: the span minus the union of its children's intervals.
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0;
    std::int64_t cursor = s.start_ns;
    for (const auto& [b, e] : kids) {
      const std::int64_t lo = std::max(b, cursor);
      const std::int64_t hi = std::min(e, s.end_ns);
      if (hi > lo) {
        covered += hi - lo;
        cursor = hi;
      }
    }
    Totals& t = out[s.name];
    t.count += 1;
    t.total_s += static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    t.self_s += static_cast<double>(s.end_ns - s.start_ns - covered) * 1e-9;
  }
  return out;
}

void Tracer::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  std::fprintf(f, "name,start_ns,end_ns,parent,request\n");
  for (std::size_t i = 0; i < size(); ++i) {
    const Span& s = spans_[i];
    if (s.name == nullptr) continue;
    std::fprintf(f, "%s,%lld,%lld,%d,%llu\n", s.name,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent,
                 static_cast<unsigned long long>(s.request));
  }
  std::fclose(f);
}

// ----------------------------------------------------------------------
// Report
// ----------------------------------------------------------------------

bool Report::check(std::span<const Neighbor> got,
                   std::span<const Neighbor> want, const std::string& what) {
  const bool ok = std::equal(got.begin(), got.end(), want.begin(), want.end());
  if (!ok) {
    ++mismatches;
    if (mismatches <= 5) {
      note(format("MISMATCH %s: got %zu neighbors, oracle %zu", what.c_str(),
                  got.size(), want.size()));
    }
  }
  return ok;
}

std::string format(const char* fmt, ...) {
  char buf[1024];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  return buf;
}

}  // namespace perfbench
