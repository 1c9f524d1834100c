// paper_join: Section 4.2's detection step at the paper's size. 10,000
// references are joined against ~958 K IDNs (0.67% of a 143 M-domain
// population, 3,280 of them planted homographs) in one cold
// Engine::detect (Strategy::kSkeleton, engine cache off), repeated for
// the whole window. The IDNs are materialised through
// ShamFinder::extract_idns before timing starts, so ingestion is absent.
//
// Check: every join returns the same match list, and the first join's
// matches over a seeded slice of IDNs equal Strategy::kSerial's over that
// slice (computed outside the timed window).
#include <algorithm>
#include <string>
#include <vector>

#include "core/shamfinder.hpp"
#include "internet/scenario_core.hpp"
#include "setup.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

using namespace sham;

namespace perfbench {

namespace {

constexpr std::size_t kReferences = 10'000;
constexpr std::size_t kPopulation = 143'000'000;
constexpr double kIdnFraction = 0.0067;
constexpr std::size_t kThreads = 2;
constexpr std::size_t kSliceAttacks = 1'000;
constexpr std::size_t kSliceBenign = 4'000;
constexpr std::size_t kMinJoins = 5;

/// The first join's matches restricted to `slice` (sorted IDN indexes)
/// must equal the serial engine's matches over just those IDNs.
bool slice_matches_serial(const detect::Engine& engine,
                          const std::vector<std::string>& refs,
                          const std::vector<detect::IdnEntry>& idns,
                          const std::vector<detect::Match>& joined,
                          const std::vector<std::size_t>& slice) {
  std::vector<detect::IdnEntry> slice_idns;
  for (const auto i : slice) slice_idns.push_back(idns[i]);
  const auto serial = engine.detect(
      {.references = refs, .idns = slice_idns, .strategy = detect::Strategy::kSerial});

  std::vector<detect::Match> restricted;
  for (const auto& m : joined) {
    const auto it = std::lower_bound(slice.begin(), slice.end(), m.idn_index);
    if (it == slice.end() || *it != m.idn_index) continue;
    auto copy = m;
    copy.idn_index = static_cast<std::size_t>(it - slice.begin());
    restricted.push_back(std::move(copy));
  }
  const auto key = [](const detect::Match& m) {
    return std::pair{m.reference_index, m.idn_index};
  };
  const auto by_key = [&](const detect::Match& a, const detect::Match& b) {
    return key(a) < key(b);
  };
  std::sort(restricted.begin(), restricted.end(), by_key);
  auto expected = serial.matches;
  std::sort(expected.begin(), expected.end(), by_key);
  if (expected.empty() || restricted.size() != expected.size()) return false;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    if (key(expected[i]) != key(restricted[i]) || expected[i].diffs != restricted[i].diffs) {
      return false;
    }
  }
  return true;
}

}  // namespace

void run_paper_join(const Args& args, Report& report) {
  Tracer tracer;
  Tracer* t = args.trace ? &tracer : nullptr;
  const detect::EngineOptions options{.strategy = detect::Strategy::kSkeleton,
                                      .threads = kThreads,
                                      .cache = false};
  const auto loaded = set_up_repeated(args, report, options, t, [](Loaded&) {});
  const auto& engine = *loaded.engine;

  // Inputs, untimed: the scenario's references and its whole IDN
  // population (planted attacks first, then the benign tail).
  internet::ScenarioConfig config;
  config.seed = args.seed;
  config.total_domains = kPopulation;
  config.idn_fraction = kIdnFraction;
  config.reference_count = kReferences;
  config.attack_scale = 1.0;
  config.build_world = false;
  const auto scenario = internet::build_scenario_core(engine.db(), config);
  const auto& refs = scenario.references;
  std::vector<std::string> domains;
  domains.reserve(scenario.attacks.size() + scenario.benign_count);
  for (const auto& a : scenario.attacks) domains.push_back(a.ace + ".com");
  for (std::size_t i = 0; i < scenario.benign_count; ++i) {
    domains.push_back(internet::benign_idn_at(scenario, i).ace + ".com");
  }
  const auto idns = core::ShamFinder::extract_idns(domains, "com");
  domains = {};
  report.note("paper_join: " + std::to_string(refs.size()) + " references x " +
              std::to_string(idns.size()) + " IDNs (" +
              std::to_string(scenario.attacks.size()) +
              " planted), kSkeleton, cache off; threads: " + std::to_string(kThreads));

  const double window = args.trace ? args.seconds / 2.0 : args.seconds;
  const detect::DetectRequest request{.references = refs, .idns = idns};
  std::vector<double> join_ms;
  std::vector<detect::Match> first;
  std::uint64_t first_fp = 0;
  std::uint64_t failed = 0;
  std::size_t joins = 0;
  start_window(report);
  const auto begin = Clock::now();
  while (joins < kMinJoins || seconds_since(begin) < window) {
    const auto start = Clock::now();
    auto response = engine.detect(request);
    join_ms.push_back(seconds_since(start) * 1e3);
    const auto fp = matches_fingerprint(response.matches);
    if (joins == 0) {
      first = std::move(response.matches);
      first_fp = fp;
    } else if (fp != first_fp) {
      ++failed;
    }
    ++joins;
  }
  const double join_s = median(join_ms) / 1e3;
  if (!args.trace) {
    record_end_to_end(report, join_ms, static_cast<double>(idns.size()) / join_s,
                      join_ms.size());
    report.metric("join_s", "s", join_s, join_ms.size());
  }

  // Traced joins: one span per Engine::detect, layer times from its stats.
  std::vector<double> traced_ms;
  DetectTotals totals;
  if (args.trace) {
    for (std::size_t i = 0; i < join_ms.size(); ++i) {
      const auto start = Clock::now();
      detect::DetectResponse response;
      {
        Tracer::Scope span{t, "detect.detect"};
        response = engine.detect(request);
      }
      traced_ms.push_back(seconds_since(start) * 1e3);
      totals.add(response.stats);
      if (matches_fingerprint(response.matches) != first_fp) ++failed;
      ++joins;
    }
  }

  util::Rng rng{derive_seed(args.seed, 0x511ce)};
  std::vector<std::size_t> slice;
  for (std::size_t i = 0; i < kSliceAttacks; ++i) {
    slice.push_back(rng.below(scenario.attacks.size()));
  }
  for (std::size_t i = 0; i < kSliceBenign; ++i) slice.push_back(rng.below(idns.size()));
  std::sort(slice.begin(), slice.end());
  slice.erase(std::unique(slice.begin(), slice.end()), slice.end());
  const bool slice_ok = slice_matches_serial(engine, refs, idns, first, slice);
  if (!slice_ok) ++failed;
  report.check("every join returns the first join's match list", failed == (slice_ok ? 0 : 1));
  report.check("join matches over a seeded " + std::to_string(slice.size()) +
                   "-IDN slice equal kSerial's",
               slice_ok);
  report.operations(joins, failed);
  report.metric("failed_ratio", "ratio",
                static_cast<double>(failed) / static_cast<double>(joins), joins);
  report.note("paper_join: " + std::to_string(first.size()) + " matches per join");
  if (!args.trace) return;

  report.metric("trace.overhead_ratio", "ratio", median(traced_ms) / median(join_ms) - 1.0,
                traced_ms.size());
  const double n = static_cast<double>(traced_ms.size());
  totals.report_to(report, n, traced_ms.size());
  report.note("paper_join: detect.match_s is " +
              std::to_string(totals.match_s / n / (median(traced_ms) / 1e3)) +
              " of the median traced join");
  tracer.write_json(args.out_dir + "/paper_join-spans.json");
}

}  // namespace perfbench
