// perfbench: the repository benchmark's measuring program.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--work-dir <dir>]
//
// Workloads: batch_local, serve_read, serve_ingest (see
// README.md for why each exists). The untraced run (--trace 0) reports
// the end-to-end metrics; the traced run (--trace 1) measures the
// workload once untraced and once with spans on (their difference is
// the tracing overhead), then runs the per-layer probes and reports
// the per-layer metrics (the same names on every workload) and the
// figures of layers only that workload has. Either way the last line of standard output
// is one JSON object: {"correct", "attempted", "failed", "metrics"}.
// The exit code is 0 only when every checked answer was correct.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "support.hpp"

namespace perfbench {
namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<batch_local|serve_read|serve_ingest> --seed <n> "
               "--seconds <s> --trace <0|1> [--work-dir <dir>]\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value");
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') usage("bad --seed");
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args.seconds > 0.0)) usage("bad --seconds");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("bad --trace");
      args.trace = value == "1";
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else {
      usage("unknown flag");
    }
  }
  if (args.workload.empty()) usage("missing --workload");
  return args;
}

std::unique_ptr<Workload> make(const Args& args) {
  if (args.workload == "batch_local") return make_batch_local(args);
  if (args.workload == "serve_read") return make_serve_read(args);
  if (args.workload == "serve_ingest") return make_serve_ingest(args);
  usage("unknown workload");
}

void print_metrics(const char* title, const std::vector<Report::Metric>& ms) {
  std::printf("%s\n", title);
  for (const auto& m : ms) {
    std::printf("  %-28s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

void print_json(bool correct, const Report& report,
                const std::vector<Report::Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

int run(const Args& args) {
  std::filesystem::create_directories(args.work_dir);
  Report report;
  auto workload = make(args);
  const double t_prepare = now_s();
  workload->prepare();
  report.note(format("inputs generated in %.2f s (untimed)",
                     now_s() - t_prepare));

  Tracer& tracer = Tracer::instance();
  if (!args.trace) {
    report.end_to_end = workload->measure(args.seconds, report);
    report.e2e("peak_rss_mb", "MB", peak_rss_mb());
  } else {
    // Same workload, half the time each: untraced, then traced. The
    // end-to-end metrics of record always come from untraced runs;
    // here the pair only prices the tracing itself.
    const auto plain = workload->measure(0.5 * args.seconds, report);
    tracer.enable(std::size_t{1} << 21);
    const auto traced = workload->measure(0.5 * args.seconds, report);
    std::printf("tracing overhead (traced - untraced, same invocation):\n");
    for (std::size_t i = 0; i < plain.size() && i < traced.size(); ++i) {
      std::printf("  %-28s %14.6g -> %14.6g %s (%+.2f%%)\n",
                  plain[i].name.c_str(), plain[i].value, traced[i].value,
                  plain[i].unit.c_str(),
                  (traced[i].value / plain[i].value - 1.0) * 100.0);
    }
    workload->layers(0.5 * args.seconds, report);
    tracer.disable();
    std::printf("span self time by layer (%zu spans, %llu dropped):\n",
                tracer.size(),
                static_cast<unsigned long long>(tracer.dropped()));
    for (const auto& [name, t] : tracer.totals()) {
      std::printf("  %-34s %9llu calls %12.6f s total %12.6f s self\n",
                  name.c_str(), static_cast<unsigned long long>(t.count),
                  t.total_s, t.self_s);
    }
    const std::string path = args.work_dir + "/spans-" + args.workload + "-" +
                             std::to_string(args.seed) + ".csv";
    tracer.write(path);
    std::printf("spans written to %s\n", path.c_str());
  }

  workload->verify(report);
  report.failed += report.mismatches;
  const bool correct = report.mismatches == 0 && report.failed == 0;

  for (const auto& line : report.notes) std::printf("note: %s\n", line.c_str());
  std::printf("workload %s seed %llu: digest %s, failed_frac %.6g "
              "(%llu failed of %llu attempted, %llu oracle mismatches)\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              report.digest.c_str(),
              report.attempted == 0
                  ? 0.0
                  : double(report.failed) / double(report.attempted),
              static_cast<unsigned long long>(report.failed),
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.mismatches));
  if (args.trace) {
    print_metrics("per-layer metrics:", report.per_layer);
    std::printf("layer figures of this workload only (not in the result "
                "line):\n");
    for (const auto& m : report.figures) {
      std::printf("figure %s %.17g %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
    if (report.figures.empty()) std::printf("  (none)\n");
  } else {
    print_metrics("end-to-end metrics:", report.end_to_end);
  }
  if (report.attempted == 0) report.attempted = 1;
  print_json(correct, report,
             args.trace ? report.per_layer : report.end_to_end);
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
