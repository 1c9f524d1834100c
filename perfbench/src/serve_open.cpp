// serve_open: a resident serve::DetectionServer (2 slots) driven by an
// open-loop Poisson arrival schedule at a nominal rate, by bursts of
// requests submitted at once, and by a ladder of rising rates that climbs
// until it misses. Requests pair small client
// reference lists with zone snapshots (serve::make_replay_workload) in the
// shape the repo's own replay callers use; every kRotateEvery requests the
// pair of active snapshots moves on by one, so cold index builds happen
// alongside warm index hits and response-memo hits. This is the only
// workload where admission, coalescing and the engine caches decide
// latency.
//
// Threads: the calling thread generates arrivals, submits and stamps
// completions, and the two slots detect — three in all.
// Latency is timed from when each request was due, so a late generator
// or a stalled server shows; the generator's own lateness is reported.
// The gated figures are the ones this shared host lets repeat: the
// engine time per request at the nominal rate (its interquartile mean)
// and the bursts' requests per second of the slots' CPU time; the
// due-time percentiles and the ladder's knee are printed beside them
// (perfbench/README.md gives the measurements behind this choice).
//
// Check: every kOk response equals the serial, cache-free engine's answer
// for its (reference list, snapshot); any other status fails the run.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <unistd.h>

#include "serve/replay.hpp"
#include "serve/server.hpp"
#include "setup.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

using namespace sham;

namespace perfbench {

namespace {

// Traffic of bench/serve_replay.cpp and the CLI's `replay`: 16 reference
// lists x 12 names against 2 zone snapshots of 2,000 IDNs. Added here is
// only the rotation: the 2 active snapshots are a window over a pool of
// kZones that moves on by one every kRotateEvery requests. The pool size,
// the rotation period and the rates below are this benchmark's choice,
// not measured traffic.
constexpr std::size_t kLists = 16;
constexpr std::size_t kRefsPerList = 12;
constexpr std::size_t kIdnsPerZone = 2000;
constexpr std::size_t kActiveZones = 2;
constexpr std::size_t kZones = 64;
constexpr std::size_t kRotateEvery = 200;
constexpr std::size_t kSlots = 2;
/// Large enough that submit() never blocks at the ladder's rates: a
/// backlog shows as queue depth and latency, not as a stalled generator.
constexpr std::size_t kQueueCapacity = 1 << 20;
/// The nominal rate, well below the knee (about 6 % of it on a quiet
/// 4-vCPU host), so its latency is service time and wake-ups, not queueing.
constexpr double kNominalRps = 400;
/// The ladder climbs from kLadderStartRps in coarse steps until
/// kMissesToStop rungs in a row miss, then again in fine steps from the
/// highest sustained rung, so the knee it finds is the program's, not the
/// ladder's top, and is not rounded to a coarse step. kMaxLadderRungs
/// only bounds the run time; a ladder that ends without a missed rung
/// above its highest sustained one fails the run.
constexpr double kLadderStartRps = 2000;
constexpr double kCoarseStep = 1.15;
constexpr double kFineStep = 1.03;
constexpr std::size_t kMissesToStop = 2;
constexpr std::size_t kMaxLadderRungs = 40;
/// Length of each ladder rung as a share of --seconds.
constexpr double kLadderRungShare = 0.025;
/// Share of the window the nominal rung gets (it carries the latencies).
/// It runs in two halves, one first and one last, and so does the
/// saturation phase: the host's per-core speed drifts by 20 % within tens
/// of seconds, and two readings apart average over two of its states.
constexpr double kNominalShare = 0.5;
/// The saturation phase, for kSaturationShare of the window: bursts of
/// kBurst requests submitted at once, each answered in full before the
/// next. A burst's queue, and so the batches the slots coalesce from it,
/// do not depend on when the generator thread gets a CPU, as a refilled
/// closed loop's do.
constexpr std::size_t kBurst = 1024;
constexpr double kSaturationShare = 0.3;
/// Arrivals per percentile segment: p90 keeps fifty samples beyond it,
/// and a steal burst of a few seconds spoils a minority of segments.
constexpr std::size_t kSegmentRequests = 500;
/// p99 limit a rung must meet to count as sustained. Host stalls add a
/// few to ~20 ms; past the knee p99 reaches 60-500 ms within one step.
constexpr double kLimitMs = 50.0;

struct Arrival {
  double due = 0.0;  // seconds after the rung starts
  std::uint32_t list = 0;
  std::uint32_t zone = 0;
};

struct Result {
  double latency_ms = 0.0;  // due -> response stamped
  double lag_ms = 0.0;      // due -> submitted
  serve::ServeStatus status = serve::ServeStatus::kShutdown;
  double queue_ms = 0.0;
  double detect_ms = 0.0;
  std::uint64_t fingerprint = 0;
  detect::DetectionStats stats;
};

struct Percentiles {
  std::size_t segments = 0;
  double p50 = 0.0;  // medians over segments
  double p90 = 0.0;
  double p99 = 0.0;
};

/// Percentiles per consecutive segment of kSegmentRequests arrivals, then
/// the median across segments: a host stall that lasts part of the window
/// moves one segment's p99, not the window's.
Percentiles segment_percentiles(const std::vector<double>& latency) {
  const std::size_t segments = std::max<std::size_t>(1, latency.size() / kSegmentRequests);
  std::vector<double> p50s;
  std::vector<double> p90s;
  std::vector<double> p99s;
  for (std::size_t s = 0; s < segments; ++s) {
    const std::vector<double> part(
        latency.begin() + static_cast<std::ptrdiff_t>(latency.size() * s / segments),
        latency.begin() + static_cast<std::ptrdiff_t>(latency.size() * (s + 1) / segments));
    p50s.push_back(quantile(part, 0.5));
    p90s.push_back(quantile(part, 0.9));
    p99s.push_back(quantile(part, 0.99));
  }
  return {segments, median(p50s), median(p90s), median(p99s)};
}

struct Rung {
  double rate = 0.0;
  std::vector<Arrival> plan;
  std::vector<Result> results;
  std::size_t depth_start = 0;
  std::size_t depth_end = 0;
  std::size_t backlog_end = 0;  // submitted, not yet answered (each rung starts at 0)
  double wall_s = 0.0;
  double busy_s = 0.0;    // summed slot busy time during the rung
  std::uint64_t served = 0;
  std::uint64_t batches = 0;
  Percentiles percentiles;
  bool passed = false;
};

/// The `g`-th request of the run (counted across rungs), due at `due`: a
/// random reference list against one of the snapshots active then, which
/// move on every kRotateEvery requests.
Arrival arrival(util::Rng& rng, double due, std::size_t g) {
  const std::size_t window = g / kRotateEvery;
  return {due, static_cast<std::uint32_t>(rng.below(kLists)),
          static_cast<std::uint32_t>((window + rng.below(kActiveZones)) % kZones)};
}

/// Poisson arrivals at `rate` for `seconds`, the first being request
/// `first_index` of the run.
std::vector<Arrival> plan_rung(std::uint64_t seed, double rate, double seconds,
                               std::size_t first_index) {
  util::Rng rng{seed};
  std::vector<Arrival> plan;
  double t = 0.0;
  for (;;) {
    t += -std::log(1.0 - rng.uniform()) / rate;
    if (t >= seconds) break;
    plan.push_back(arrival(rng, t, first_index + plan.size()));
  }
  return plan;
}

serve::ServeRequest make_request(const serve::ReplayWorkload& workload, const Arrival& a) {
  serve::ServeRequest request;
  request.references = workload.reference_lists[a.list];
  request.idns = workload.zones[a.zone];
  request.strategy = detect::Strategy::kSkeleton;
  return request;
}

/// A submitted request whose response has not been stamped yet.
struct InFlight {
  serve::ResponseFuture future;
  Clock::time_point due;
  Result* result;
};

/// Wait for the response of `in` and record it, timed from its due time.
void stamp(InFlight& in) {
  auto response = in.future.get();
  const auto done = Clock::now();
  auto& r = *in.result;
  r.latency_ms = std::chrono::duration<double, std::milli>(done - in.due).count();
  r.status = response.status;
  r.queue_ms = response.queue_seconds * 1e3;
  r.detect_ms = response.stats.seconds * 1e3;
  r.fingerprint = matches_fingerprint(response.matches);
  r.stats = std::move(response.stats);
}

/// Stamp every ready response (in completion order, not submission order,
/// so a slow request does not inflate the latency of later ones) and drop
/// it from `in_flight`.
void collect(std::vector<InFlight>& in_flight) {
  for (std::size_t i = 0; i < in_flight.size();) {
    if (!in_flight[i].future.ready()) {
      ++i;
      continue;
    }
    stamp(in_flight[i]);
    in_flight[i] = std::move(in_flight.back());
    in_flight.pop_back();
  }
}

double slot_busy(const serve::ServerStats& stats) {
  double busy = 0.0;
  for (const auto& slot : stats.slots) busy += slot.busy_seconds;
  return busy;
}

/// Drive one rung open-loop and wait for it to drain. One thread submits
/// and stamps: between arrivals it spins, collecting responses, because on
/// a virtual host a sleeping thread wakes up milliseconds late and that
/// lateness would count as server latency, and a second polling thread
/// would take a CPU from the slots.
void run_rung(serve::DetectionServer& server, const serve::ReplayWorkload& workload,
              Rung& rung, Tracer* tracer) {
  rung.results.assign(rung.plan.size(), {});
  const auto before = server.stats();
  rung.depth_start = before.queue_depth;
  std::vector<InFlight> in_flight;
  const auto t0 = Clock::now() + std::chrono::milliseconds{2};
  for (std::size_t i = 0; i < rung.plan.size(); ++i) {
    const auto& a = rung.plan[i];
    auto request = make_request(workload, a);
    const auto due = t0 + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(a.due));
    do collect(in_flight);
    while (Clock::now() < due);
    rung.results[i].lag_ms =
        std::chrono::duration<double, std::milli>(Clock::now() - due).count();
    std::optional<serve::ResponseFuture> future;
    {
      Tracer::Scope span{tracer, "serve.submit"};
      future.emplace(server.submit(std::move(request)));
    }
    in_flight.push_back({std::move(*future), due, &rung.results[i]});
  }
  rung.depth_end = server.stats().queue_depth;
  rung.backlog_end = in_flight.size();
  while (!in_flight.empty()) collect(in_flight);
  const auto after = server.stats();
  rung.wall_s = seconds_since(t0);
  rung.busy_s = slot_busy(after) - slot_busy(before);
  rung.served = after.served - before.served;
  rung.batches = after.batches - before.batches;

  bool all_ok = true;
  std::vector<double> latency;
  for (const auto& r : rung.results) {
    all_ok = all_ok && r.status == serve::ServeStatus::kOk;
    latency.push_back(r.latency_ms);
  }
  rung.percentiles = segment_percentiles(latency);
  // The backlog may not grow by more than the noise of Poisson arrivals
  // and batching; past the knee it grows by hundreds within one rung.
  const auto slack = std::max<std::int64_t>(
      32, static_cast<std::int64_t>(rung.plan.size() / 20));
  rung.passed = all_ok && !rung.plan.empty() && rung.percentiles.p99 <= kLimitMs &&
                static_cast<std::int64_t>(rung.backlog_end) <= slack;
}

/// Bursts of kBurst requests for `seconds`, each submitted at once and
/// answered in full before the next. The requests and their responses go
/// to `phase` for the output check.
void run_saturation(serve::DetectionServer& server, const serve::ReplayWorkload& workload,
                    std::uint64_t seed, double seconds, std::size_t& index, Rung& phase) {
  util::Rng rng{seed};
  std::vector<InFlight> burst;
  const auto t0 = Clock::now();
  while (seconds_since(t0) < seconds) {
    const std::size_t first = phase.plan.size();
    for (std::size_t i = 0; i < kBurst; ++i) phase.plan.push_back(arrival(rng, 0.0, index++));
    phase.results.resize(phase.plan.size());  // earlier bursts are stamped already
    const auto due = Clock::now();
    for (std::size_t i = first; i < phase.plan.size(); ++i) {
      burst.push_back({server.submit(make_request(workload, phase.plan[i])), due,
                       &phase.results[i]});
    }
    for (auto& in : burst) stamp(in);
    burst.clear();
  }
  phase.wall_s += seconds_since(t0);
}

/// CPU time every thread of this process but the calling one has run, from
/// /proc/self/task/*/schedstat; with the hypervisor's steal time accounted
/// (as on a KVM guest), time a vCPU stood stolen is not in it.
double other_threads_cpu_seconds() {
  const auto self = std::to_string(::gettid());
  double total = 0.0;
  for (const auto& task : std::filesystem::directory_iterator{"/proc/self/task"}) {
    if (task.path().filename() == self) continue;
    std::ifstream schedstat{task.path() / "schedstat"};
    double ns = 0.0;
    if (!(schedstat >> ns)) {
      throw std::runtime_error{"perfbench: cannot read " + task.path().string()};
    }
    total += ns * 1e-9;
  }
  return total;
}

std::string rung_line(const Rung& r) {
  std::vector<double> lag;
  for (const auto& x : r.results) lag.push_back(x.lag_ms);
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "  rung %7.1f rps: %5zu requests (%zu segments), p50 %8.3f ms, p90 %8.3f ms, p99 %8.3f ms, queue "
                "depth %zu -> %zu, backlog 0 -> %zu, generator lag p99 %.3f ms [%s]",
                r.rate, r.plan.size(), r.percentiles.segments, r.percentiles.p50, r.percentiles.p90,
                r.percentiles.p99, r.depth_start, r.depth_end,
                r.backlog_end, quantile(lag, 0.99),
                r.passed ? "sustained" : "missed");
  return buf;
}

/// The sustained rung with the highest rate, or null.
const Rung* highest_sustained(const std::vector<Rung>& rungs) {
  const Rung* best = nullptr;
  for (const auto& r : rungs) {
    if (r.passed && (best == nullptr || r.rate > best->rate)) best = &r;
  }
  return best;
}

/// The lowest-rate rung above `rate`, or null.
const Rung* next_above(const std::vector<Rung>& rungs, double rate) {
  const Rung* next = nullptr;
  for (const auto& r : rungs) {
    if (r.rate > rate && (next == nullptr || r.rate < next->rate)) next = &r;
  }
  return next;
}

/// Highest sustained rate over the nominal rung and the ladder: the
/// highest sustained rung (a transient miss below it does not count),
/// moved toward the next rung above it by where the limit falls between
/// their p99s (a rung missed on backlog alone adds nothing). If no rung is
/// sustained, the nominal rate scaled by how far its p99 overshoots the
/// limit.
double max_sustained_rate(const std::vector<Rung>& rungs) {
  const Rung* lo = highest_sustained(rungs);
  if (lo == nullptr) {
    return rungs.front().rate * std::min(1.0, kLimitMs / rungs.front().percentiles.p99);
  }
  const Rung* hi = next_above(rungs, lo->rate);
  const double lo_p99 = lo->percentiles.p99;
  const double hi_p99 = hi == nullptr ? 0.0 : hi->percentiles.p99;
  if (hi == nullptr || hi_p99 <= kLimitMs || hi_p99 <= lo_p99) return lo->rate;
  const double frac = std::clamp((kLimitMs - lo_p99) / (hi_p99 - lo_p99), 0.0, 1.0);
  return lo->rate + (hi->rate - lo->rate) * frac;
}

}  // namespace

void run_serve_open(const Args& args, Report& report) {
  Tracer tracer;
  Tracer* t = args.trace ? &tracer : nullptr;
  const detect::EngineOptions engine_options{.strategy = detect::Strategy::kSkeleton,
                                             .threads = 1};
  serve::ServerOptions server_options;
  server_options.slots = kSlots;
  server_options.queue_capacity = kQueueCapacity;
  server_options.overload = serve::OverloadPolicy::kBlock;

  std::unique_ptr<serve::DetectionServer> server;
  const auto loaded =
      set_up_repeated(args, report, engine_options, t, [&](Loaded& l) {
        server = std::make_unique<serve::DetectionServer>(l.engine->db(), engine_options,
                                                          server_options);
      });
  const auto& db = loaded.engine->db();

  const auto workload = serve::make_replay_workload(
      db, kLists, kRefsPerList, kZones, kIdnsPerZone, derive_seed(args.seed, 0x5e27e));
  report.note("serve_open: " + std::to_string(kSlots) + " slots, " +
              std::to_string(kLists) + " reference lists x " +
              std::to_string(kRefsPerList) + " refs, " + std::to_string(kActiveZones) +
              " active snapshots x " + std::to_string(kIdnsPerZone) + " IDNs from a pool of " +
              std::to_string(kZones) + ", moved on every " + std::to_string(kRotateEvery) +
              " requests; Poisson arrivals, nominal " + std::to_string(kNominalRps) +
              " rps; saturation in bursts of " + std::to_string(kBurst) +
              " requests; ladder from " + std::to_string(kLadderStartRps) + " rps x " +
              std::to_string(kCoarseStep) + " then x " + std::to_string(kFineStep) +
              " per rung, p99 limit " + std::to_string(kLimitMs) +
              " ms; threads: 3 (generator and collector, 2 slots)");

  // Untraced: half the nominal rung, half the saturation phase, the coarse
  // and the fine climb, each until kMissesToStop rungs in a row miss, then
  // the other halves (each phase drains before the next starts). Traced:
  // the nominal rung twice, untraced then traced.
  std::vector<Rung> rungs;
  Rung saturation;
  double slot_cpu_s = 0.0;  // the slots' CPU time during the saturation phase
  const double nominal_s = args.trace ? args.seconds / 2.0 : args.seconds * kNominalShare;
  const double rung_s = args.seconds * kLadderRungShare;
  std::size_t index = 0;
  const auto add_rung = [&](double rate, double seconds) {
    Rung r;
    r.rate = rate;
    r.plan = plan_rung(derive_seed(args.seed, 100 + rungs.size()), r.rate, seconds, index);
    index += r.plan.size();
    return r;
  };

  double rss = 0.0;
  start_window(report);
  const auto climb = [&](double rate, double step) {
    for (std::size_t misses = 0; misses < kMissesToStop && rungs.size() <= kMaxLadderRungs;
         rate *= step) {
      rungs.push_back(add_rung(rate, rung_s));
      run_rung(*server, workload, rungs.back(), nullptr);
      report.note(rung_line(rungs.back()));
      misses = rungs.back().passed ? 0 : misses + 1;
    }
  };
  if (!args.trace) {
    const auto nominal_half = [&] {
      rungs.push_back(add_rung(kNominalRps, nominal_s / 2.0));
      run_rung(*server, workload, rungs.back(), nullptr);
      report.note(rung_line(rungs.back()));
    };
    std::uint64_t saturation_stream = 90;
    const auto saturation_half = [&] {
      // The slots are the only threads besides this one.
      const double cpu_before = other_threads_cpu_seconds();
      run_saturation(*server, workload, derive_seed(args.seed, saturation_stream++),
                     args.seconds * kSaturationShare / 2.0, index, saturation);
      slot_cpu_s += other_threads_cpu_seconds() - cpu_before;
    };
    nominal_half();
    // Memory at the nominal rate; the climb past the knee queues
    // thousands of requests and would measure the backlog instead.
    rss = peak_rss_mib();
    saturation_half();
    climb(kLadderStartRps, kCoarseStep);
    const Rung* sustained = highest_sustained(rungs);
    climb((sustained != nullptr ? sustained->rate : kNominalRps) * kFineStep, kFineStep);
    saturation_half();
    nominal_half();
    report.note("  saturation: " + std::to_string(saturation.plan.size()) + " requests in " +
                std::to_string(saturation.wall_s) + " s, slots on CPU for " +
                std::to_string(slot_cpu_s) + " s");
  } else {
    rungs.push_back(add_rung(kNominalRps, nominal_s));
    rungs.push_back(rungs.back());
    run_rung(*server, workload, rungs[0], nullptr);
    report.note(rung_line(rungs[0]));
    run_rung(*server, workload, rungs[1], t);
    report.note(rung_line(rungs[1]) + " (traced)");
  }
  const auto final_stats = server->stats();
  server.reset();  // stops and joins the slots while `loaded` still owns the db

  // Ground truth per (list, snapshot) from a serial, cache-free engine.
  const detect::Engine serial{db, {.strategy = detect::Strategy::kSerial, .cache = false}};
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::uint64_t> truth;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<const Rung*> phases{&saturation};
  for (const auto& rung : rungs) phases.push_back(&rung);
  for (const Rung* phase : phases) {
    const Rung& rung = *phase;
    for (std::size_t i = 0; i < rung.plan.size(); ++i) {
      const auto key = std::pair{rung.plan[i].list, rung.plan[i].zone};
      auto it = truth.find(key);
      if (it == truth.end()) {
        const auto r = serial.detect({.references = workload.reference_lists[key.first],
                                      .idns = *workload.zones[key.second]});
        it = truth.emplace(key, matches_fingerprint(r.matches)).first;
      }
      const auto& res = rung.results[i];
      ++attempted;
      const bool equal =
          res.status == serve::ServeStatus::kOk && res.fingerprint == it->second;
      failed += equal ? 0 : 1;
    }
  }
  report.check("every response is kOk and equals the serial engine's (" +
                   std::to_string(truth.size()) + " list x snapshot pairs)",
               failed == 0);
  if (args.trace) {
    bool same = true;
    for (std::size_t i = 0; i < rungs[0].results.size(); ++i) {
      same = same && rungs[0].results[i].fingerprint == rungs[1].results[i].fingerprint;
    }
    report.check("traced rung reproduces the untraced rung's responses", same);
    if (!same) ++failed;
  }
  if (!args.trace) {
    const Rung* sustained = highest_sustained(rungs);
    const bool knee_found =
        sustained == nullptr || next_above(rungs, sustained->rate) != nullptr;
    report.check("the ladder found the knee (a rung above the highest sustained one missed)",
                 knee_found);
    if (!knee_found) ++failed;
  }
  report.operations(attempted, failed);
  report.metric("failed_ratio", "ratio",
                static_cast<double>(failed) / static_cast<double>(attempted), attempted);

  if (!args.trace) {
    // The nominal rung's two halves, the first rung and the last.
    std::vector<double> engine_ms;
    std::vector<double> latency_ms;
    for (const Rung* half : {&rungs.front(), &rungs.back()}) {
      for (const auto& r : half->results) {
        engine_ms.push_back(r.detect_ms);
        latency_ms.push_back(r.latency_ms);
      }
    }
    const auto n = latency_ms.size();
    const auto nominal = segment_percentiles(latency_ms);
    const auto served = static_cast<double>(saturation.plan.size());
    report.metric("peak_rss_mib", "MiB", rss, 1);
    report.metric("latency_ms", "ms", interquartile_mean(engine_ms), n);
    report.metric("rate_per_s", "1/s", served / slot_cpu_s * static_cast<double>(kSlots),
                  saturation.plan.size());
    report.metric("due_latency_iqm_ms", "ms", interquartile_mean(latency_ms), n);
    report.metric("p50_ms", "ms", nominal.p50, n);
    report.metric("p90_ms", "ms", nominal.p90, n);
    report.metric("p99_ms", "ms", nominal.p99, n);
    report.metric("saturated_rps", "1/s", served / saturation.wall_s, saturation.plan.size());
    report.metric("max_rate_rps", "1/s", max_sustained_rate(rungs), rungs.size());
    return;
  }

  const auto& traced = rungs[1];
  std::vector<double> queue_ms;
  std::vector<double> detect_ms;
  std::vector<double> lag_ms;
  DetectTotals totals;
  for (const auto& r : traced.results) {
    queue_ms.push_back(r.queue_ms);
    detect_ms.push_back(r.detect_ms);
    lag_ms.push_back(r.lag_ms);
    totals.add(r.stats);
  }
  const auto n = traced.results.size();
  const auto due_latency_iqm = [](const Rung& rung) {
    std::vector<double> latency;
    for (const auto& r : rung.results) latency.push_back(r.latency_ms);
    return interquartile_mean(latency);
  };
  report.metric("trace.overhead_ratio", "ratio",
                due_latency_iqm(traced) / due_latency_iqm(rungs[0]) - 1.0, n);
  report.metric("serve.requests", "count", static_cast<double>(n), n);
  report.metric("serve.queue_wait_p50_ms", "ms", quantile(queue_ms, 0.5), n);
  report.metric("serve.queue_wait_p99_ms", "ms", quantile(queue_ms, 0.99), n);
  report.metric("serve.detect_p50_ms", "ms", quantile(detect_ms, 0.5), n);
  report.metric("serve.detect_p99_ms", "ms", quantile(detect_ms, 0.99), n);
  report.metric("serve.batches", "count", static_cast<double>(traced.batches), 1);
  report.metric("serve.coalescing_ratio", "ratio",
                traced.batches == 0 ? 0.0
                                    : static_cast<double>(traced.served) /
                                          static_cast<double>(traced.batches),
                traced.batches);
  report.metric("serve.slot_busy_share", "ratio",
                traced.busy_s / (static_cast<double>(kSlots) * traced.wall_s), kSlots);
  report.metric("serve.peak_queue_depth", "count",
                static_cast<double>(final_stats.peak_queue_depth), 1);
  report.metric("serve.generator_lag_ms", "ms", quantile(lag_ms, 0.99), n);
  report.metric("serve.backlog_growth", "count",
                static_cast<double>(traced.backlog_end), 1);
  totals.report_to(report, static_cast<double>(n), n);
  tracer.write_json(args.out_dir + "/serve_open-spans.json");
}

}  // namespace perfbench
