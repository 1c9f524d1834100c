#include "workloads.hpp"

#include <algorithm>
#include <string>
#include <thread>

namespace perfbench {

std::size_t host_threads() { return std::max(1u, std::thread::hardware_concurrency()); }

namespace {

CpuTicks window_start;

void fnv_mix(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 1099511628211ULL;
  }
}

}  // namespace

void start_window(Report& report) {
  const double speedup = warm_up(host_threads(), kWarmUpSeconds);
  window_start = cpu_ticks();  // after the warm-up: the steal share is the window's
  report.parallelism("as the window starts (" + std::to_string(host_threads()) +
                         " threads, after a " + std::to_string(kWarmUpSeconds) +
                         " s warm-up)",
                     speedup);
}

double steal_share_of_window() {
  const auto now = cpu_ticks();
  const auto total = static_cast<double>(now.total - window_start.total);
  return total > 0.0 ? static_cast<double>(now.steal - window_start.steal) / total : 0.0;
}

void record_end_to_end(Report& report, const std::vector<double>& op_ms, double rate,
                       std::size_t rate_samples) {
  report.metric("peak_rss_mib", "MiB", peak_rss_mib(), 1);
  report.metric("latency_ms", "ms", median(op_ms), op_ms.size());
  report.metric("p90_ms", "ms", quantile(op_ms, 0.9), op_ms.size());
  report.metric("rate_per_s", "1/s", rate, rate_samples);
}

std::uint64_t matches_fingerprint(const std::vector<sham::detect::Match>& matches) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const auto& m : matches) {
    fnv_mix(h, m.reference_index);
    fnv_mix(h, m.idn_index);
    for (const auto& d : m.diffs) {
      fnv_mix(h, d.index);
      fnv_mix(h, d.idn_char);
      fnv_mix(h, d.ref_char);
      fnv_mix(h, static_cast<std::uint64_t>(d.source));
    }
  }
  return h;
}

void DetectTotals::add(const sham::detect::DetectionStats& s) {
  ++calls;
  skeleton_build_s += s.skeleton_build_seconds;
  match_s += s.match_seconds;
  merge_s += s.merge_seconds;
  candidates += s.skeleton_candidates;
  rejected += s.skeleton_rejected;
  inverted += s.inverted_join ? 1 : 0;
  index_hits += s.index_cache_hits;
  index_lookups += s.index_cache_hits + s.index_cache_rebuilds + s.index_cache_updates;
  result_hits += s.result_cache_hits;
}

void DetectTotals::report_to(Report& report, double per, std::size_t samples) const {
  const auto ratio = [](double num, double den) { return den == 0.0 ? 0.0 : num / den; };
  const auto c = static_cast<double>(calls);
  report.metric("detect.calls", "count", c / per, samples);
  report.metric("detect.skeleton_build_s", "s", skeleton_build_s / per, samples);
  report.metric("detect.match_s", "s", match_s / per, samples);
  report.metric("detect.merge_s", "s", merge_s / per, samples);
  report.metric("detect.candidates", "count", static_cast<double>(candidates) / per,
                samples);
  report.metric("detect.rejection_rate", "ratio",
                ratio(static_cast<double>(rejected), static_cast<double>(candidates)),
                samples);
  report.metric("detect.inverted_join", "ratio", ratio(static_cast<double>(inverted), c),
                samples);
  report.metric("detect.index_lookups", "count", static_cast<double>(index_lookups) / per,
                samples);
  report.metric("detect.index_cache_hit_ratio", "ratio",
                ratio(static_cast<double>(index_hits), static_cast<double>(index_lookups)),
                samples);
  report.metric("detect.result_cache_hit_ratio", "ratio",
                ratio(static_cast<double>(result_hits), c), samples);
}

}  // namespace perfbench
