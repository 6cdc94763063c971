// Shared machinery of the repository benchmark: run arguments, timing
// and statistics, the brute-force oracle, result digests, the span
// tracer of the traced run, and the report that prints every metric.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/knn_heap.hpp"
#include "core/neighbor_table.hpp"
#include "data/generators.hpp"
#include "data/point_set.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;
using panda::core::Neighbor;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory inside the checkout (durable index, WAL probe).
  std::string work_dir = ".bench_build/perfbench-work";
};

/// Seconds since an arbitrary fixed origin.
inline double now_s() {
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

/// Linear-interpolated quantile (q in [0, 1]) of unsorted samples.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// Runs `body` (which returns one sample) at least `min_reps` times and
/// until `budget_s` seconds have passed; returns the samples.
std::vector<double> repeat_for(double budget_s, int min_reps,
                               const std::function<double()>& body);

/// Interleaved repetitions: runs every step once per round, at least
/// `min_rounds` rounds and until `budget_s` seconds have passed.
/// Returns one sample vector per step. Interleaving spreads every
/// metric's samples over the whole run, so a slow spell of a shared
/// host hits all metrics alike instead of one phase.
std::vector<std::vector<double>> rounds(
    double budget_s, int min_rounds,
    const std::vector<std::function<double()>>& steps);

/// "<name> by round: v1 v2 ...", for notes that show every round's
/// value behind a median.
std::string samples(const char* name, const std::vector<double>& values);

/// Peak resident set size of this process (VmHWM), in MiB.
double peak_rss_mb();

/// Hash of (dist² bits, id) of every neighbor fed to it: two runs
/// whose results are bit-identical print the same digest.
class Digest {
 public:
  void add(std::span<const Neighbor> row);
  void add(std::uint64_t word);
  std::uint64_t value() const { return h_; }
  std::string hex() const;

 private:
  std::uint64_t h_ = 1469598103934665603ull;
};
std::uint64_t digest_of(std::span<const Neighbor> row);
std::uint64_t digest_table(const panda::core::NeighborTable& table);

/// Exhaustive oracle over a point set. It computes dist² with the same
/// float operation order as the library's leaf kernel and orders ties
/// by id, so correct engine answers match it bit for bit.
class Oracle {
 public:
  explicit Oracle(const panda::data::PointSet& points) : points_(points) {}
  std::vector<Neighbor> knn(const float* query, std::size_t k) const;
  /// Every point with dist² < radius² (radius² computed in float).
  std::vector<Neighbor> radius(const float* query, float radius) const;

 private:
  void distances(const float* query) const;
  const panda::data::PointSet& points_;
  mutable std::vector<float> dist_;
};

/// Points with ids [begin, end) of `gen`, generated on all cores (the
/// generators are id-addressable, so the result does not depend on the
/// thread count).
panda::data::PointSet generate(const panda::data::Generator& gen,
                               std::uint64_t begin, std::uint64_t end);

/// Deterministic sample of `count` distinct indices in [0, n).
std::vector<std::uint64_t> sample_indices(std::uint64_t n, std::size_t count,
                                          std::uint64_t seed);

/// One recorded span: a layer call made from the benchmark's files.
struct Span {
  const char* name = nullptr;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;
  std::uint64_t request = 0;
};

/// In-memory span recorder of the traced run. Disabled (every call a
/// no-op) unless enable() was called. Spans are claimed from a fixed
/// array with one atomic increment; a full array drops spans and
/// counts them. The parent of a span is the innermost open span of
/// the same thread.
class Tracer {
 public:
  static Tracer& instance();
  void enable(std::size_t capacity);
  void disable() { enabled_ = false; }
  bool enabled() const { return enabled_; }
  /// Opens a span; returns its slot or -1.
  std::int32_t begin(const char* name, std::uint64_t request);
  void end(std::int32_t slot);
  /// Opens a span that started at `start` and will be closed on
  /// another thread: it is the parent of spans this thread opens until
  /// detach(); finish() closes it from any thread.
  std::int32_t begin_at(const char* name, std::uint64_t request,
                        Clock::time_point start);
  void detach(std::int32_t slot);
  void finish(std::int32_t slot, Clock::time_point end);
  /// Records a finished span with explicit times and no parent.
  void record(const char* name, Clock::time_point start, Clock::time_point end,
              std::uint64_t request);
  /// Per span name: {count, total seconds, self seconds}.
  struct Totals {
    std::uint64_t count = 0;
    double total_s = 0.0;
    double self_s = 0.0;
  };
  std::map<std::string, Totals> totals() const;
  std::size_t size() const;
  std::uint64_t dropped() const { return dropped_.load(); }
  /// Writes every span as CSV (name,start_ns,end_ns,parent,request).
  void write(const std::string& path) const;

 private:
  std::int32_t claim();
  std::atomic<bool> enabled_{false};
  std::vector<Span> spans_;
  std::atomic<std::size_t> next_{0};
  std::atomic<std::uint64_t> dropped_{0};
};

/// RAII span around one layer call.
class Scoped {
 public:
  explicit Scoped(const char* name, std::uint64_t request = 0)
      : slot_(Tracer::instance().enabled()
                  ? Tracer::instance().begin(name, request)
                  : -1) {}
  ~Scoped() {
    if (slot_ >= 0) Tracer::instance().end(slot_);
  }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  std::int32_t slot_;
};

/// Everything one invocation reports. Workloads fill it; main prints
/// it: human-readable lines, then the one-line JSON result.
struct Report {
  struct Metric {
    std::string name;
    std::string unit;
    double value = 0.0;
  };
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  /// Layer figures of the traced run that only this workload has (see
  /// layers.hpp); printed above the result line, not in it.
  std::vector<Metric> figures;
  std::vector<std::string> notes;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t mismatches = 0;
  std::string digest;

  void e2e(const std::string& name, const std::string& unit, double value) {
    end_to_end.push_back({name, unit, value});
  }
  void layer(const std::string& name, const std::string& unit, double value) {
    per_layer.push_back({name, unit, value});
  }
  void figure(const std::string& name, const std::string& unit,
              double value) {
    figures.push_back({name, unit, value});
  }
  void note(const std::string& line) { notes.push_back(line); }
  /// Records an oracle comparison; returns true on a match.
  bool check(std::span<const Neighbor> got, std::span<const Neighbor> want,
             const std::string& what);
};

/// Formats with printf semantics into a std::string.
std::string format(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// One named workload. main() drives it: prepare() once, then
/// measure() (once untraced; in the traced run once more with spans
/// on), layers() in the traced run only, and verify() last.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Generates the inputs from the seed. Untimed.
  virtual void prepare() = 0;
  /// Runs the set-up repetitions and the timed phases within about
  /// `budget_s` seconds and returns the end-to-end metrics, the same
  /// names on every workload: setup_s, read_qps, read_p50_us and
  /// read_p90_us (peak_rss_mb is added by main()). Adds
  /// attempted/failed operations to `report`.
  virtual std::vector<Report::Metric> measure(double budget_s,
                                              Report& report) = 0;
  /// Per-layer probes of the traced run, within about `budget_s`:
  /// common_layers() (the per-layer metrics) on the workload's inputs,
  /// plus figures of the layers only this workload has.
  virtual void layers(double budget_s, Report& report) = 0;
  /// Oracle checks of sampled answers and the results digest.
  virtual void verify(Report& report) = 0;
};

std::unique_ptr<Workload> make_batch_local(const Args& args);
std::unique_ptr<Workload> make_serve_read(const Args& args);
std::unique_ptr<Workload> make_serve_ingest(const Args& args);

}  // namespace perfbench
