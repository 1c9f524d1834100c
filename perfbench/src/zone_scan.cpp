// zone_scan: the paper's real workload at reduced size. A synthetic .com
// registry zone (0.67% IDNs, 1,000 references, 3,280 planted homographs)
// is generated on the fly and streamed from zone bytes to canonical
// verdicts through measure::detect_generated with one shard: a generator
// thread, and the calling thread parsing, extracting and detecting.
// Every pass scans a fresh zone (its scenario seed derives from --seed
// and the pass number), so no pass replays an earlier one's batches.
//
// Traced passes rebuild the same pipeline here from the layers' public
// calls (ZoneTextStream::next_chunk, ZoneStreamReader::feed,
// ShamFinder::extract_idns, Engine::detect, canonicalize_matches and
// merge_outcomes) with a span around each, and must reproduce the
// untraced fingerprints.
#include <condition_variable>
#include <deque>
#include <exception>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/shamfinder.hpp"
#include "dns/zone_stream.hpp"
#include "internet/scenario_core.hpp"
#include "internet/zone_gen.hpp"
#include "measure/scale_run.hpp"
#include "setup.hpp"
#include "workloads.hpp"

using namespace sham;

namespace perfbench {

namespace {

constexpr std::size_t kDomains = 1'000'000;
constexpr double kIdnFraction = 0.0067;
constexpr std::size_t kReferences = 1'000;
constexpr std::size_t kBatch = 4096;
constexpr std::size_t kChunkBytes = 256 * 1024;
constexpr std::size_t kRingChunks = 8;
constexpr std::size_t kMinPasses = 3;

/// Bounded blocking hand-off between two pipeline threads.
template <typename T>
class Ring {
 public:
  explicit Ring(std::size_t capacity) : capacity_{capacity} {}

  /// False once the consumer aborted.
  bool push(T item) {
    std::unique_lock lock{mutex_};
    not_full_.wait(lock, [&] { return items_.size() < capacity_ || aborted_; });
    if (aborted_) return false;
    items_.push_back(std::move(item));
    not_empty_.notify_one();
    return true;
  }

  /// False once closed and drained, or aborted.
  bool pop(T& out) {
    std::unique_lock lock{mutex_};
    not_empty_.wait(lock, [&] { return !items_.empty() || closed_ || aborted_; });
    if (aborted_ || items_.empty()) return false;
    out = std::move(items_.front());
    items_.pop_front();
    not_full_.notify_one();
    return true;
  }

  void close() {
    std::lock_guard lock{mutex_};
    closed_ = true;
    not_empty_.notify_all();
  }

  void abort() {
    std::lock_guard lock{mutex_};
    aborted_ = true;
    not_empty_.notify_all();
    not_full_.notify_all();
  }

 private:
  std::size_t capacity_;
  std::mutex mutex_;
  std::deque<T> items_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  bool closed_ = false;
  bool aborted_ = false;
};

measure::StreamOptions stream_options() {
  measure::StreamOptions options;
  options.batch_size = kBatch;
  return options;
}

measure::GenStream zone_for(std::uint64_t seed, std::size_t pass) {
  measure::GenStream gen;
  gen.scenario.seed = derive_seed(seed, pass);
  gen.scenario.total_domains = kDomains;
  gen.scenario.idn_fraction = kIdnFraction;
  gen.scenario.reference_count = kReferences;
  gen.scenario.attack_scale = 1.0;
  gen.zone.which = 0;  // the registry zone file
  gen.zone.tld = "com";
  gen.zone.chunk_bytes = kChunkBytes;
  gen.ring_chunks = kRingChunks;
  return gen;
}

struct Pass {
  double seconds = 0.0;
  std::uint64_t fingerprint = 0;
  std::size_t domains = 0;
  std::size_t idns = 0;
  std::size_t verdicts = 0;
};

Pass scan(const detect::Engine& engine, const measure::GenStream& gen,
          const std::vector<std::string>& refs) {
  const auto start = Clock::now();
  const auto out = measure::detect_generated(
      engine, refs, engine.db(), gen, stream_options(), {.shards = 1},
      detect::Strategy::kSkeleton);
  return {seconds_since(start), out.fingerprint, out.stream.domains, out.stream.idns,
          out.verdicts.size()};
}

Pass scan_traced(const detect::Engine& engine, const measure::GenStream& gen,
                 const std::vector<std::string>& refs, Tracer& tracer,
                 DetectTotals& detect_totals) {
  Tracer* t = &tracer;
  const auto start = Clock::now();
  Ring<std::string> ring{gen.ring_chunks};
  std::exception_ptr generator_error;
  std::thread generator{[&] {
    try {
      std::optional<internet::ZoneTextStream> stream;
      {
        Tracer::Scope span{t, "internet.ZoneTextStream"};
        stream.emplace(engine.db(), gen.scenario, gen.zone);
      }
      for (;;) {
        std::string chunk;
        bool more = false;
        {
          Tracer::Scope span{t, "internet.next_chunk"};
          more = stream->next_chunk(chunk);
        }
        if (!more) break;
        t->add("internet.bytes", static_cast<double>(chunk.size()));
        bool pushed = false;
        {
          Tracer::Scope span{t, "pipeline.ring_push"};
          pushed = ring.push(std::move(chunk));
        }
        if (!pushed) return;
      }
      ring.close();
    } catch (...) {
      generator_error = std::current_exception();
      ring.abort();
    }
  }};

  Pass pass;
  std::vector<measure::DetectionOutcome> parts;
  std::vector<std::string> pending;  // owner names awaiting extraction
  std::vector<detect::IdnEntry> batch;
  std::string last_owner;

  const auto deliver = [&] {
    if (batch.empty()) return;
    detect::DetectResponse response;
    {
      Tracer::Scope span{t, "detect.detect"};
      response = engine.detect(
          {.references = refs, .idns = batch, .strategy = detect::Strategy::kSkeleton});
    }
    detect_totals.add(response.stats);
    {
      Tracer::Scope span{t, "measure.canonicalize_matches"};
      parts.push_back(measure::canonicalize_matches(response.matches, batch));
    }
    pass.idns += batch.size();
    t->add("measure.batches", 1.0);
    batch.clear();
  };
  const auto extract = [&] {
    std::vector<detect::IdnEntry> idns;
    {
      Tracer::Scope span{t, "core.extract_idns"};
      idns = core::ShamFinder::extract_idns(pending, gen.zone.tld);
    }
    t->add("core.domains", static_cast<double>(pending.size()));
    t->add("core.idns", static_cast<double>(idns.size()));
    pending.clear();
    for (auto& entry : idns) {
      batch.push_back(std::move(entry));
      if (batch.size() >= kBatch) deliver();
    }
  };

  std::exception_ptr consumer_error;
  try {
    // Same consecutive-owner dedup and batching as measure's IdnBatcher.
    dns::ZoneStreamReader reader{[&](const dns::ResourceRecord& r) {
      auto owner = r.owner.str();
      if (owner == last_owner) return;
      last_owner = std::move(owner);
      ++pass.domains;
      pending.push_back(last_owner);
      if (pending.size() >= kBatch) extract();
    }};
    std::string chunk;
    for (;;) {
      bool got = false;
      {
        Tracer::Scope span{t, "pipeline.ring_pop"};
        got = ring.pop(chunk);
      }
      if (!got) break;
      Tracer::Scope span{t, "dns.feed"};
      reader.feed(chunk);
    }
    {
      Tracer::Scope span{t, "dns.finish"};
      reader.finish();
    }
    extract();
    deliver();
    t->add("dns.records", static_cast<double>(reader.records()));
  } catch (...) {
    consumer_error = std::current_exception();
    ring.abort();
  }
  generator.join();
  if (generator_error) std::rethrow_exception(generator_error);
  if (consumer_error) std::rethrow_exception(consumer_error);

  measure::DetectionOutcome out;
  {
    Tracer::Scope span{t, "measure.merge_outcomes"};
    out = measure::merge_outcomes(std::move(parts));
  }
  pass.seconds = seconds_since(start);
  pass.fingerprint = out.fingerprint;
  pass.verdicts = out.verdicts.size();
  return pass;
}

/// Serial oracle over the pass's IDN set: collect every IDN of the same
/// zone, run Strategy::kSerial, canonicalise.
std::uint64_t oracle_fingerprint(const detect::Engine& engine,
                                 const measure::GenStream& gen,
                                 const std::vector<std::string>& refs) {
  std::vector<detect::IdnEntry> idns;
  measure::stream_generated_idns(engine.db(), gen, stream_options(),
                                 [&](std::span<const detect::IdnEntry> b) {
                                   idns.insert(idns.end(), b.begin(), b.end());
                                 });
  const auto serial = engine.detect(
      {.references = refs, .idns = idns, .strategy = detect::Strategy::kSerial});
  return measure::canonicalize_matches(serial.matches, idns).fingerprint;
}

}  // namespace

void run_zone_scan(const Args& args, Report& report) {
  Tracer tracer;
  Tracer* t = args.trace ? &tracer : nullptr;
  // No response memo: the traced passes replay the untraced passes' zones
  // and must pay for detection as they did, not read memoised responses.
  // The index cache stays on.
  const detect::EngineOptions options{.strategy = detect::Strategy::kSkeleton,
                                      .threads = 1,
                                      .result_cache_capacity = 0};
  const auto loaded = set_up_repeated(args, report, options, t, [](Loaded&) {});
  const auto& engine = *loaded.engine;
  report.note("zone_scan: " + std::to_string(kDomains) +
              "-domain .com zone per pass, idn_fraction 0.0067, 1000 references, "
              "3280 planted homographs, batch 4096, 256 KiB chunks; threads: 2 "
              "(generator; parser + detector), 1 shard");

  // Each pass's references come from its scenario, built untimed.
  const auto refs_for = [&](const measure::GenStream& gen) {
    return internet::build_scenario_core(engine.db(), gen.scenario).references;
  };

  // Untraced passes fill the window (half of it in traced runs).
  const double window = args.trace ? args.seconds / 2.0 : args.seconds;
  std::vector<Pass> passes;
  start_window(report);
  const auto begin = Clock::now();
  while (passes.size() < kMinPasses || seconds_since(begin) < window) {
    const auto gen = zone_for(args.seed, passes.size());
    const auto refs = refs_for(gen);
    passes.push_back(scan(engine, gen, refs));
  }

  std::vector<double> pass_ms;
  std::vector<double> rates;
  for (const auto& p : passes) {
    pass_ms.push_back(p.seconds * 1e3);
    rates.push_back(static_cast<double>(p.domains) / p.seconds);
  }
  if (!args.trace) {
    record_end_to_end(report, pass_ms, median(rates), rates.size());
    report.metric("domains_per_s", "1/s", median(rates), rates.size());
  }

  // Traced passes replay the same zones.
  std::vector<Pass> traced;
  DetectTotals detect_totals;
  if (args.trace) {
    for (std::size_t i = 0; i < passes.size(); ++i) {
      const auto gen = zone_for(args.seed, i);
      const auto refs = refs_for(gen);
      traced.push_back(scan_traced(engine, gen, refs, tracer, detect_totals));
    }
  }

  std::uint64_t failed = 0;
  std::uint64_t oracle_failed = 0;
  std::uint64_t trace_failed = 0;
  for (std::size_t i = 0; i < passes.size(); ++i) {
    const auto gen = zone_for(args.seed, i);
    const bool ok = passes[i].verdicts > 0 &&
                    passes[i].fingerprint == oracle_fingerprint(engine, gen, refs_for(gen));
    const bool traced_ok = traced.empty() || (traced[i].fingerprint == passes[i].fingerprint &&
                                              traced[i].domains == passes[i].domains &&
                                              traced[i].idns == passes[i].idns);
    oracle_failed += ok ? 0 : 1;
    trace_failed += traced_ok ? 0 : 1;
    failed += ok && traced_ok ? 0 : 1;
  }
  report.check("every pass's verdict fingerprint equals the kSerial oracle's",
               oracle_failed == 0);
  if (!traced.empty()) {
    report.check("traced passes reproduce the untraced fingerprints and counts",
                 trace_failed == 0);
  }
  report.operations(passes.size(), failed);
  report.metric("failed_ratio", "ratio",
                static_cast<double>(failed) / static_cast<double>(passes.size()),
                passes.size());
  report.note("zone_scan: " + std::to_string(passes.size()) + " passes, " +
              std::to_string(passes.front().domains) + " domains, " +
              std::to_string(passes.front().idns) + " IDNs, " +
              std::to_string(passes.front().verdicts) + " verdicts in pass 0");
  if (!args.trace) return;

  const double n = static_cast<double>(traced.size());
  std::vector<double> traced_ms;
  for (const auto& p : traced) traced_ms.push_back(p.seconds * 1e3);
  report.metric("trace.overhead_ratio", "ratio", median(traced_ms) / median(pass_ms) - 1.0,
                traced.size());
  const double gen_s = (tracer.total_seconds("internet.ZoneTextStream") +
                        tracer.total_seconds("internet.next_chunk")) /
                       n;
  const double parse_s =
      (tracer.self_seconds("dns.feed") + tracer.self_seconds("dns.finish")) / n;
  const double extract_s = tracer.total_seconds("core.extract_idns") / n;
  const double merge_s = (tracer.total_seconds("measure.canonicalize_matches") +
                          tracer.total_seconds("measure.merge_outcomes")) /
                         n;
  const double detect_s = tracer.total_seconds("detect.detect") / n;
  const auto k = traced.size();
  report.metric("internet.gen_s", "s", gen_s, k);
  report.metric("internet.bytes", "bytes", tracer.counter("internet.bytes") / n, k);
  report.metric("pipeline.gen_blocked_s", "s",
                tracer.total_seconds("pipeline.ring_push") / n, k);
  report.metric("pipeline.parse_starved_s", "s",
                tracer.total_seconds("pipeline.ring_pop") / n, k);
  report.metric("dns.parse_s", "s", parse_s, k);
  report.metric("dns.records", "count", tracer.counter("dns.records") / n, k);
  report.metric("core.extract_s", "s", extract_s, k);
  report.metric("core.domains", "count", tracer.counter("core.domains") / n, k);
  report.metric("core.idns", "count", tracer.counter("core.idns") / n, k);
  report.metric("measure.merge_s", "s", merge_s, k);
  report.metric("measure.batches", "count", tracer.counter("measure.batches") / n, k);
  detect_totals.report_to(report, n, k);

  const double busy = gen_s + parse_s + extract_s + merge_s + detect_s;
  report.note("zone_scan busy-time shares per pass: generate " +
              std::to_string(gen_s / busy) + ", parse " + std::to_string(parse_s / busy) +
              ", extract " + std::to_string(extract_s / busy) + ", detect " +
              std::to_string(detect_s / busy) + ", merge " +
              std::to_string(merge_s / busy) + " (of " + std::to_string(busy) +
              " s busy over 2 threads; pass wall " +
              std::to_string(median(traced_ms) / 1e3) + " s)");
  tracer.write_json(args.out_dir + "/zone_scan-spans.json");
}

}  // namespace perfbench
