// perfbench: one end-to-end benchmark of ShamFinder.
//
//   perfbench --workload zone_scan|paper_join|serve_open --seed N
//             --seconds S --trace 0|1 [--out-dir DIR]
//
// Untraced runs print the end-to-end metrics; traced runs time every
// layer from outside (spans around each call the benchmark makes into a
// layer's public function) and print the per-layer metrics. The last
// stdout line is the JSON result; the exit code is 0 only when every
// output check passed. perfbench/README.md lists the metrics.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <string_view>
#include <vector>

#include "common.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

// Must match BENCHMARK.json.
const std::vector<std::string> kEndToEnd = {
    "setup_s", "peak_rss_mib", "latency_ms", "rate_per_s",
};

struct LayerMetric {
  const char* name;
  const char* unit;
};

const std::vector<LayerMetric> kPerLayer = {
    {"host.effective_parallelism", "x"},
    {"host.steal_share", "ratio"},
    {"trace.overhead_ratio", "ratio"},
    {"font.render_s", "s"},
    {"simchar.mine_s", "s"},
    {"simchar.delta_evals", "count"},
    {"homoglyph.build_s", "s"},
    {"db.write_s", "s"},
    {"db.load_s", "s"},
    {"db.artifact_bytes", "bytes"},
    {"internet.gen_s", "s"},
    {"internet.bytes", "bytes"},
    {"pipeline.gen_blocked_s", "s"},
    {"pipeline.parse_starved_s", "s"},
    {"dns.parse_s", "s"},
    {"dns.records", "count"},
    {"core.extract_s", "s"},
    {"core.domains", "count"},
    {"core.idns", "count"},
    {"measure.merge_s", "s"},
    {"measure.batches", "count"},
    {"detect.calls", "count"},
    {"detect.skeleton_build_s", "s"},
    {"detect.match_s", "s"},
    {"detect.merge_s", "s"},
    {"detect.candidates", "count"},
    {"detect.rejection_rate", "ratio"},
    {"detect.inverted_join", "ratio"},
    {"detect.index_lookups", "count"},
    {"detect.index_cache_hit_ratio", "ratio"},
    {"detect.result_cache_hit_ratio", "ratio"},
    {"serve.requests", "count"},
    {"serve.queue_wait_p50_ms", "ms"},
    {"serve.queue_wait_p99_ms", "ms"},
    {"serve.detect_p50_ms", "ms"},
    {"serve.detect_p99_ms", "ms"},
    {"serve.batches", "count"},
    {"serve.coalescing_ratio", "ratio"},
    {"serve.slot_busy_share", "ratio"},
    {"serve.peak_queue_depth", "count"},
    {"serve.generator_lag_ms", "ms"},
    {"serve.backlog_growth", "count"},
};

/// Layers a workload does not exercise report 0: ingestion runs only on
/// zone_scan, the server only on serve_open.
bool layer_absent(std::string_view workload, std::string_view metric) {
  const auto has = [&](std::string_view prefix) { return metric.rfind(prefix, 0) == 0; };
  const bool ingestion = has("internet.") || has("pipeline.") || has("dns.") ||
                         has("core.") || has("measure.");
  if (ingestion) return workload != "zone_scan";
  if (has("serve.")) return workload != "serve_open";
  return false;
}

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload zone_scan|paper_join|"
               "serve_open --seed N --seconds S --trace 0|1 [--out-dir DIR]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else {
      return usage("unknown flag");
    }
  }
  if (argc % 2 == 0) return usage("flags take one value each");
  if (args.seconds <= 0.0) return usage("--seconds must be positive");
  if (args.out_dir.empty()) args.out_dir = ".";
  std::filesystem::create_directories(args.out_dir);

  void (*run)(const Args&, Report&) = nullptr;
  if (args.workload == "zone_scan") run = run_zone_scan;
  if (args.workload == "paper_join") run = run_paper_join;
  if (args.workload == "serve_open") run = run_serve_open;
  if (run == nullptr) return usage("unknown workload");

  try {
    Report report{args};
    std::printf("perfbench %s seed=%llu seconds=%g trace=%d\n", args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), args.seconds,
                args.trace ? 1 : 0);
    run(args, report);
    report.parallelism("after the window", effective_parallelism(host_threads()));
    const double steal = steal_share_of_window();
    report.note("host: " + std::to_string(steal * 100.0) +
                "% of CPU time stolen by the hypervisor from the window start on");
    if (!args.trace) return report.finish(kEndToEnd);

    // The reading taken as the measured window began (after warm_up).
    report.metric("host.effective_parallelism", "x", report.parallelism_readings().front(),
                  report.parallelism_readings().size());
    report.metric("host.steal_share", "ratio", steal, 1);
    std::vector<std::string> names;
    for (const auto& m : kPerLayer) {
      if (layer_absent(args.workload, m.name)) report.metric(m.name, m.unit, 0.0, 0);
      names.emplace_back(m.name);
    }
    return report.finish(names);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
