// batch_local: the paper's two headline results, tree construction and
// bulk KNN throughput, plus the latency of one query per call.
//
// It indexes 2 M `cosmo` points (3-d, clustered — the paper's
// astrophysics set) on the Local engine over a pool of nproc threads
// and queries a fixed 1 M-point query set. Its traced run also builds
// the Dist engine (2 ranks x 1 thread) over the same points, so the
// distributed engine's tax is a direct ratio on the same queries. A
// Dist workload of its own was dropped: its latencies followed the
// host's thread wake-up times (see README.md).
#include <algorithm>
#include <chrono>
#include <thread>

#include "api/index.hpp"
#include "data/cosmology.hpp"
#include "parallel/thread_pool.hpp"
#include "layers.hpp"
#include "support.hpp"

namespace perfbench {
namespace {

using panda::Index;
using panda::IndexOptions;
using panda::SearchParams;
using panda::SearchStats;
using panda::SearchWorkspace;
using panda::core::NeighborTable;

constexpr std::uint64_t kPoints = 2'000'000;
constexpr std::uint64_t kQueries = 1'000'000;
constexpr std::size_t kK = 5;       // the paper's k
constexpr std::size_t kSelfK = 6;   // 5 neighbours plus the point itself
constexpr std::size_t kOracleSample = 64;
// Single-query calls per round (the first queries of the query set).
constexpr std::uint64_t kSingleQueries = 4096;

constexpr int kDistRanks = 2;

int hardware_threads() {
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}

class BatchLocal final : public Workload {
 public:
  explicit BatchLocal(const Args& args) : args_(args) {}

  void prepare() override {
    const panda::data::CosmologyGenerator gen({}, args_.seed);
    points_ = generate(gen, 0, kPoints);
    queries_ = generate(gen, kPoints, kPoints + kQueries);
    opts_.engine = IndexOptions::Engine::Local;
    opts_.pool =
        std::make_shared<panda::parallel::ThreadPool>(hardware_threads());
    for (std::uint64_t i = 0; i < kSingleQueries; ++i) {
      singles_.push_back(queries_.extract(std::vector<std::uint64_t>{i}));
    }
  }

  std::vector<Report::Metric> measure(double budget_s,
                                      Report& report) override {
    // One untimed warm-up (which also answers the self-KNN the oracle
    // checks), then interleaved rounds of set-up (points in memory ->
    // index ready to answer), bulk knn_into and single-query knn_into
    // calls. The index of the last round is kept.
    SearchParams knn;
    knn.k = kK;
    SearchParams self;
    self.k = kSelfK;
    index_.reset();
    index_ = Index::build(points_, opts_);
    index_->knn_into(queries_, knn, knn_table_, ws_);
    knn_digest_ = digest_table(knn_table_);
    index_->self_knn_into(self, self_table_, ws_);
    self_digest_ = digest_table(self_table_);

    const auto build = [&] {
      index_.reset();
      const double t0 = now_s();
      Scoped span("api.build");
      index_ = Index::build(points_, opts_);
      return now_s() - t0;
    };
    const auto knn_rep = [&] {
      const double t0 = now_s();
      {
        Scoped span("api.knn_into");
        index_->knn_into(queries_, knn, knn_table_, ws_);
      }
      const double rate = static_cast<double>(kQueries) / (now_s() - t0);
      report.attempted += kQueries;
      if (digest_table(knn_table_) != knn_digest_) {
        report.failed += kQueries;
        report.note("knn_into results differ between repetitions");
      }
      return rate;
    };
    // One query per call, one caller: the latency a user of the index
    // sees. Each answer must equal its row of the bulk answer.
    std::vector<double> p90;
    const auto latency_rep = [&] {
      std::vector<double> call_us(singles_.size());
      NeighborTable one;
      for (std::size_t i = 0; i < singles_.size(); ++i) {
        const auto t0 = Clock::now();
        {
          Scoped span("api.knn_into(1)", i + 1);
          index_->knn_into(singles_[i], knn, one, ws_);
        }
        call_us[i] = std::chrono::duration<double, std::micro>(
                         Clock::now() - t0).count();
        const auto want = knn_table_.row(i);
        const auto got = one.row(0);
        if (!std::equal(got.begin(), got.end(), want.begin(), want.end(),
                        [](const Neighbor& a, const Neighbor& b) {
                          return a.dist2 == b.dist2 && a.id == b.id;
                        })) {
          ++report.failed;
        }
      }
      report.attempted += singles_.size();
      p90.push_back(quantile(call_us, 0.90));
      return quantile(call_us, 0.50);
    };
    const auto samples = rounds(budget_s, 3, {build, knn_rep, latency_rep});
    report.note(format("%zu rounds of build + knn_into + %zu single-query "
                       "knn_into calls", samples[0].size(), singles_.size()));
    report.note(perfbench::samples("read_qps", samples[1]));
    report.note(perfbench::samples("read_p90_us", p90));
    return {{"setup_s", "s", median(samples[0])},
            {"read_qps", "1/s", median(samples[1])},
            {"read_p50_us", "us", median(samples[2])},
            {"read_p90_us", "us", median(p90)}};
  }

  void layers(double budget_s, Report& report) override {
    const auto requests = knn_requests(queries_, 1 << 16);
    LayerInputs in;
    in.points = &points_;
    in.queries = &queries_;
    in.pool = opts_.pool;
    in.index = index_;
    in.requests = &requests;
    common_layers(in, 0.6 * budget_s, report);
    dist_figures(0.4 * budget_s, report);
  }

  void verify(Report& report) override {
    const Oracle oracle(points_);
    for (const std::uint64_t i :
         sample_indices(kQueries, kOracleSample, args_.seed ^ 0x5eedull)) {
      std::vector<float> q(points_.dims());
      queries_.copy_point(i, q.data());
      report.check(knn_table_.row(i), oracle.knn(q.data(), kK),
                   format("knn query %llu", static_cast<unsigned long long>(i)));
    }
    for (const std::uint64_t i :
         sample_indices(kPoints, kOracleSample, args_.seed ^ 0xa11ull)) {
      std::vector<float> q(points_.dims());
      points_.copy_point(i, q.data());
      report.check(self_table_.row(i), oracle.knn(q.data(), kSelfK),
                   format("self-knn point %llu", static_cast<unsigned long long>(i)));
    }
    Digest d;
    d.add(knn_digest_);
    d.add(self_digest_);
    report.digest = d.hex();
  }

 private:
  /// The Dist engine (2 ranks x 1 thread) over the same points: its
  /// all-KNN message counts, and its knn_into throughput against the
  /// Local engine's on the same queries. Its answers must equal the
  /// Local engine's.
  void dist_figures(double budget_s, Report& report) {
    IndexOptions opts;
    opts.engine = IndexOptions::Engine::Dist;
    opts.cluster.ranks = kDistRanks;
    opts.cluster.threads_per_rank = 1;
    std::unique_ptr<Index> dist;
    {
      Scoped span("api.build(dist)");
      dist = Index::build(points_, opts);
    }
    SearchParams self;
    self.k = kSelfK;
    NeighborTable table;
    SearchWorkspace ws;
    SearchStats stats;
    {
      Scoped span("api.self_knn_into(dist)");
      dist->self_knn_into(self, table, ws, &stats);
    }
    if (digest_table(table) != self_digest_) {
      report.note("Local and Dist engines disagree on the self-knn results");
      ++report.mismatches;
    }
    const double queries = static_cast<double>(stats.queries);
    report.figure("dist.remote_frac", "ratio",
                  static_cast<double>(stats.remote_queries) / queries);
    report.figure("dist.request_msgs", "count",
                  static_cast<double>(stats.request_messages));
    report.figure("dist.request_bytes", "bytes",
                  static_cast<double>(stats.request_bytes));
    report.figure("dist.model_comm_s", "s", stats.model_comm_seconds);

    SearchParams knn;
    knn.k = kK;
    dist->knn_into(queries_, knn, table, ws);
    if (digest_table(table) != knn_digest_) {
      report.note("Local and Dist engines disagree on the knn results");
      ++report.mismatches;
    }
    const auto dist_rates = repeat_for(0.5 * budget_s, 2, [&] {
      const double t0 = now_s();
      Scoped span("api.knn_into(dist)");
      dist->knn_into(queries_, knn, table, ws);
      return static_cast<double>(kQueries) / (now_s() - t0);
    });
    const auto local_rates = repeat_for(0.3 * budget_s, 3, [&] {
      const double t0 = now_s();
      Scoped span("api.knn_into");
      index_->knn_into(queries_, knn, knn_table_, ws_);
      return static_cast<double>(kQueries) / (now_s() - t0);
    });
    report.figure("dist.knn_qps", "1/s", median(dist_rates));
    report.figure("dist.tax_x", "ratio",
                  median(local_rates) / median(dist_rates));
  }

  Args args_;
  IndexOptions opts_;
  panda::data::PointSet points_;
  panda::data::PointSet queries_;
  std::vector<panda::data::PointSet> singles_;
  std::shared_ptr<Index> index_;
  NeighborTable knn_table_;
  NeighborTable self_table_;
  SearchWorkspace ws_;
  std::uint64_t knn_digest_ = 0;
  std::uint64_t self_digest_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_batch_local(const Args& args) {
  return std::make_unique<BatchLocal>(args);
}

}  // namespace perfbench
