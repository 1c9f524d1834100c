// Shared scaffolding of the end-to-end benchmark: command-line arguments,
// order statistics, the host-parallelism probe, the span tracer that
// times each layer from outside, and the report that prints every metric
// with its unit and sample count and ends with the one-line JSON result.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds elapsed since `start`.
[[nodiscard]] double seconds_since(Clock::time_point start);

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  // measured window of one run
  bool trace = false;
  std::string out_dir;    // spans, results and scratch artifacts go here
};

/// Linear-interpolated quantile (q in [0, 1]) of `values`; 0 when empty.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}
/// Mean of the values between the first and the third quartile; 0 when
/// empty. Unlike the median it moves smoothly when the shares of a
/// multi-modal distribution move, and unlike the mean it ignores the
/// slowest quarter, where the host's stalls land.
[[nodiscard]] double interquartile_mean(std::vector<double> values);

/// Peak resident set (VmHWM) of this process in MiB.
[[nodiscard]] double peak_rss_mib();

/// Speedup `threads` spinning threads achieved over one spinning thread on
/// identical fixed work, measured now. The host is shared, so this is
/// what it actually delivered during the run, not its core count.
[[nodiscard]] double effective_parallelism(std::size_t threads);

/// This host grants parallel capacity only under sustained load (idle
/// virtual CPUs are parked and come back after about a second of demand),
/// so every workload calls this right before its measured window: spin
/// `threads` threads for `seconds`, then return effective_parallelism.
[[nodiscard]] double warm_up(std::size_t threads, double seconds);

/// Host-wide CPU time from /proc/stat, in clock ticks: the share the
/// hypervisor stole from the virtual CPUs of the machine it runs on, and the total.
struct CpuTicks {
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
};
[[nodiscard]] CpuTicks cpu_ticks();

/// Stable 64-bit mix of a seed and a stream index (distinct inputs per
/// pass, request or slice, all derived from --seed).
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream);

/// In-memory span recorder. A span is (name, start, end, parent); the
/// parent is the innermost open span of the same thread. Counters sit at
/// the same boundaries. Spans are written out once, when the run ends.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start = 0.0;  // seconds since the tracer was created
    double end = 0.0;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;  // 0 = root
    std::uint32_t thread = 0;
  };

  /// RAII span. A null tracer makes it a no-op, so untraced runs execute
  /// the same code with nothing recorded.
  class Scope {
   public:
    Scope(Tracer* tracer, std::string_view name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    Span span_;
  };

  Tracer();

  void add(std::string_view counter, double delta);
  [[nodiscard]] double counter(std::string_view name) const;

  /// Summed duration of every span called `name`.
  [[nodiscard]] double total_seconds(std::string_view name) const;
  /// Summed self time of every span called `name`: its duration minus the
  /// durations of its direct children.
  [[nodiscard]] double self_seconds(std::string_view name) const;

  /// Write every span and counter as one JSON document.
  void write_json(const std::string& path) const;

 private:
  [[nodiscard]] double now() const;
  void close(Span span);

  Clock::time_point epoch_;
  std::atomic<std::uint64_t> next_id_{1};
  std::atomic<std::uint32_t> next_thread_{1};
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::map<std::string, double, std::less<>> counters_;
};

/// Metrics, counts and checks of one run. Every metric is printed as it
/// is recorded ("name = value unit (n = samples)"); finish() prints the
/// final JSON line the benchmark contract asks for.
class Report {
 public:
  struct Metric {
    std::string name;
    std::string unit;
    double value = 0.0;
    std::size_t samples = 0;
  };

  explicit Report(const Args& args);

  void metric(std::string_view name, std::string_view unit, double value,
              std::size_t samples);
  /// Free-form context line (shape, thread counts, probe results).
  void note(const std::string& text);
  /// One output check: a failed check marks the run incorrect.
  void check(std::string_view what, bool pass);
  /// Record an effective_parallelism reading taken at `when`.
  void parallelism(std::string_view when, double speedup);
  [[nodiscard]] const std::vector<double>& parallelism_readings() const {
    return parallelism_;
  }
  /// Operations attempted / failed (mismatches, shed, expired, errors).
  void operations(std::uint64_t attempted, std::uint64_t failed);

  /// Verify the run produced exactly `required` metric names, print the
  /// final JSON line, write the results file, and return the exit code.
  int finish(const std::vector<std::string>& required);

 private:
  const Args& args_;
  std::vector<Metric> metrics_;
  std::vector<std::string> notes_;
  std::vector<double> parallelism_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  bool correct_ = true;
};

}  // namespace perfbench
