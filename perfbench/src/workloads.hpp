// The benchmark's workloads. Each one sets up the system (setup.hpp),
// measures its load for Args::seconds, checks every output against a
// serial oracle, and records its metrics in the Report: the end-to-end
// set when untraced, the per-layer set when traced.
#pragma once

#include <cstdint>
#include <vector>

#include "common.hpp"
#include "detect/detector.hpp"

namespace perfbench {

void run_zone_scan(const Args& args, Report& report);
void run_paper_join(const Args& args, Report& report);
void run_serve_open(const Args& args, Report& report);

/// Hardware threads of the host (the benchmark never runs more).
[[nodiscard]] std::size_t host_threads();

inline constexpr double kWarmUpSeconds = 1.5;

/// Warm the host up (see warm_up) and record its effective parallelism;
/// every workload calls this right before its measured window.
void start_window(Report& report);

/// Share of host CPU time the hypervisor stole since start_window.
[[nodiscard]] double steal_share_of_window();

/// Record the end-to-end metrics every workload shares besides setup_s:
/// peak_rss_mib, latency_ms (p50 of `op_ms`, the latencies of the
/// workload's operation) and rate_per_s (`rate`, the workload's work
/// rate); p90_ms is printed beside them.
void record_end_to_end(Report& report, const std::vector<double>& op_ms, double rate,
                       std::size_t rate_samples);

/// FNV-1a over a match list in order: equal lists, equal fingerprints.
[[nodiscard]] std::uint64_t matches_fingerprint(
    const std::vector<sham::detect::Match>& matches);

/// Sums of the DetectionStats returned by Engine::detect calls.
struct DetectTotals {
  std::uint64_t calls = 0;
  double skeleton_build_s = 0.0;
  double match_s = 0.0;
  double merge_s = 0.0;
  std::uint64_t candidates = 0;
  std::uint64_t rejected = 0;
  std::uint64_t inverted = 0;
  std::uint64_t index_hits = 0;
  std::uint64_t index_lookups = 0;  // hits + rebuilds + incremental updates
  std::uint64_t result_hits = 0;

  void add(const sham::detect::DetectionStats& s);
  /// Record the detect.* metrics; times and counts divided by `per`
  /// (passes or joins), ratios over their own bases.
  void report_to(Report& report, double per, std::size_t samples) const;
};

}  // namespace perfbench
