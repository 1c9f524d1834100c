#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "util/rng.hpp"

namespace perfbench {

namespace {

thread_local std::uint64_t tls_open_span = 0;
thread_local std::uint32_t tls_thread = 0;

std::string number(double v) {
  if (!std::isfinite(v)) throw std::runtime_error{"perfbench: non-finite metric value"};
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string quoted(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

/// Fixed integer work for the parallelism probe (no memory traffic).
std::uint64_t spin(std::uint64_t iterations) {
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  for (std::uint64_t i = 0; i < iterations; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  return x;
}

}  // namespace

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double interquartile_mean(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t lo = values.size() / 4;
  const std::size_t hi = std::max(lo + 1, values.size() - values.size() / 4);
  double sum = 0.0;
  for (std::size_t i = lo; i < hi; ++i) sum += values[i];
  return sum / static_cast<double>(hi - lo);
}

double peak_rss_mib() {
  std::ifstream status{"/proc/self/status"};
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  throw std::runtime_error{"perfbench: VmHWM not found in /proc/self/status"};
}

double effective_parallelism(std::size_t threads) {
  constexpr std::uint64_t kIterations = 20'000'000;  // ~20 ms per thread
  std::atomic<std::uint64_t> sink{0};
  const auto one = Clock::now();
  sink += spin(kIterations);
  const double single = seconds_since(one);

  const auto many = Clock::now();
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&] { sink += spin(kIterations); });
  }
  for (auto& w : workers) w.join();
  const double parallel = seconds_since(many);
  return static_cast<double>(threads) * single / parallel;
}

double warm_up(std::size_t threads, double seconds) {
  const auto start = Clock::now();
  std::atomic<std::uint64_t> sink{0};
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&] {
      while (seconds_since(start) < seconds) sink += spin(100'000);
    });
  }
  for (auto& w : workers) w.join();
  return effective_parallelism(threads);
}

CpuTicks cpu_ticks() {
  std::ifstream stat{"/proc/stat"};
  std::string label;
  stat >> label;
  CpuTicks out;
  for (int field = 0; field < 10; ++field) {
    std::uint64_t v = 0;
    if (!(stat >> v)) break;
    // user nice system idle iowait irq softirq steal guest guest_nice;
    // guest time is already counted in user and nice.
    if (field < 8) out.total += v;
    if (field == 7) out.steal = v;
  }
  return out;
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  // Mix the seed before adding the stream, so (seed, stream) and
  // (seed + 1, stream - 1) do not collide.
  std::uint64_t state = seed;
  state = sham::util::splitmix64(state) + stream;
  return sham::util::splitmix64(state);
}

// --- Tracer ----------------------------------------------------------------

Tracer::Tracer() : epoch_{Clock::now()} {}

double Tracer::now() const { return seconds_since(epoch_); }

Tracer::Scope::Scope(Tracer* tracer, std::string_view name) : tracer_{tracer} {
  if (tracer_ == nullptr) return;
  if (tls_thread == 0) tls_thread = tracer_->next_thread_++;
  span_.name = name;
  span_.id = tracer_->next_id_++;
  span_.parent = tls_open_span;
  span_.thread = tls_thread;
  tls_open_span = span_.id;
  span_.start = tracer_->now();
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  span_.end = tracer_->now();
  tls_open_span = span_.parent;
  tracer_->close(std::move(span_));
}

void Tracer::close(Span span) {
  std::lock_guard lock{mutex_};
  spans_.push_back(std::move(span));
}

void Tracer::add(std::string_view counter, double delta) {
  std::lock_guard lock{mutex_};
  auto it = counters_.find(counter);
  if (it == counters_.end()) it = counters_.emplace(std::string{counter}, 0.0).first;
  it->second += delta;
}

double Tracer::counter(std::string_view name) const {
  std::lock_guard lock{mutex_};
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0.0 : it->second;
}

double Tracer::total_seconds(std::string_view name) const {
  std::lock_guard lock{mutex_};
  double sum = 0.0;
  for (const auto& s : spans_) {
    if (s.name == name) sum += s.end - s.start;
  }
  return sum;
}

double Tracer::self_seconds(std::string_view name) const {
  std::lock_guard lock{mutex_};
  std::map<std::uint64_t, double> child_time;
  for (const auto& s : spans_) {
    if (s.parent != 0) child_time[s.parent] += s.end - s.start;
  }
  double sum = 0.0;
  for (const auto& s : spans_) {
    if (s.name != name) continue;
    const auto it = child_time.find(s.id);
    sum += (s.end - s.start) - (it == child_time.end() ? 0.0 : it->second);
  }
  return sum;
}

void Tracer::write_json(const std::string& path) const {
  std::lock_guard lock{mutex_};
  std::ofstream out{path};
  if (!out) throw std::runtime_error{"perfbench: cannot write " + path};
  out << "{\"spans\": [";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& s = spans_[i];
    out << (i == 0 ? "\n" : ",\n") << "{\"name\": " << quoted(s.name)
        << ", \"start\": " << number(s.start) << ", \"end\": " << number(s.end)
        << ", \"id\": " << s.id << ", \"parent\": " << s.parent
        << ", \"thread\": " << s.thread << "}";
  }
  out << "],\n\"counters\": {";
  bool first = true;
  for (const auto& [name, value] : counters_) {
    out << (first ? "" : ", ") << quoted(name) << ": " << number(value);
    first = false;
  }
  out << "}}\n";
}

// --- Report ----------------------------------------------------------------

Report::Report(const Args& args) : args_{args} {}

void Report::metric(std::string_view name, std::string_view unit, double value,
                    std::size_t samples) {
  for (auto& m : metrics_) {
    if (m.name == name) {
      m = {std::string{name}, std::string{unit}, value, samples};
      return;
    }
  }
  metrics_.push_back({std::string{name}, std::string{unit}, value, samples});
  std::printf("  %-34s = %14.6g %-6s (n = %zu)\n", std::string{name}.c_str(), value,
              std::string{unit}.c_str(), samples);
  std::fflush(stdout);
}

void Report::note(const std::string& text) {
  notes_.push_back(text);
  std::printf("%s\n", text.c_str());
  std::fflush(stdout);
}

void Report::check(std::string_view what, bool pass) {
  std::printf("  check: %-58s [%s]\n", std::string{what}.c_str(), pass ? "OK" : "FAIL");
  std::fflush(stdout);
  correct_ = correct_ && pass;
}

void Report::parallelism(std::string_view when, double speedup) {
  parallelism_.push_back(speedup);
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.2f", speedup);
  note("host: effective_parallelism " + std::string{buf} + "x " + std::string{when});
}

void Report::operations(std::uint64_t attempted, std::uint64_t failed) {
  attempted_ = attempted;
  failed_ = failed;
}

int Report::finish(const std::vector<std::string>& required) {
  std::vector<const Metric*> chosen;
  for (const auto& name : required) {
    const auto it = std::find_if(metrics_.begin(), metrics_.end(),
                                 [&](const Metric& m) { return m.name == name; });
    if (it == metrics_.end()) {
      throw std::logic_error{"perfbench: workload did not report metric " + name};
    }
    chosen.push_back(&*it);
  }
  if (attempted_ == 0) correct_ = false;
  if (failed_ != 0) correct_ = false;

  if (!args_.out_dir.empty()) {
    const std::string path = args_.out_dir + "/" + args_.workload +
                             (args_.trace ? "-trace.json" : "-result.json");
    std::ofstream out{path};
    out << "{\"workload\": " << quoted(args_.workload) << ", \"seed\": " << args_.seed
        << ", \"trace\": " << (args_.trace ? "true" : "false")
        << ", \"correct\": " << (correct_ ? "true" : "false")
        << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
        << ",\n \"notes\": [";
    for (std::size_t i = 0; i < notes_.size(); ++i) {
      out << (i == 0 ? "" : ", ") << quoted(notes_[i]);
    }
    out << "],\n \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      const auto& m = metrics_[i];
      out << (i == 0 ? "\n  " : ",\n  ") << quoted(m.name) << ": {\"value\": "
          << number(m.value) << ", \"unit\": " << quoted(m.unit)
          << ", \"samples\": " << m.samples << "}";
    }
    out << "}}\n";
  }

  std::string line = "{\"correct\": ";
  line += correct_ ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted_);
  line += ", \"failed\": " + std::to_string(failed_);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < chosen.size(); ++i) {
    if (i != 0) line += ", ";
    line += quoted(chosen[i]->name) + ": {\"value\": " + number(chosen[i]->value) +
            ", \"unit\": " + quoted(chosen[i]->unit) + "}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return correct_ ? 0 : 1;
}

}  // namespace perfbench
