// Set-up as a user runs it: build-db over the synthetic paper font, then
// map the artifact into a detection engine —
//   font::make_paper_font -> core::ShamFinder::build_from_font
//   -> db::write_db_file -> detect::Engine::from_db_file.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "detect/engine.hpp"

namespace perfbench {

/// Threads the SimChar build may use during set-up.
inline constexpr std::size_t kSetupThreads = 1;
/// Set-ups per run; setup_s is their median.
inline constexpr std::size_t kSetupRepeats = 5;

struct SetupLayers {
  double render_s = 0.0;     // Step I glyph rendering (BuildStats)
  double mine_s = 0.0;       // Step II pair mining + Step III sparse filter
  double homoglyph_s = 0.0;  // rest of build_from_font: HomoglyphDb composition
  double write_s = 0.0;      // db::write_db_file
  double load_s = 0.0;       // detect::Engine::from_db_file
  std::uint64_t delta_evals = 0;
  std::uint64_t artifact_bytes = 0;
};

struct Loaded {
  std::unique_ptr<sham::detect::Engine> engine;
  SetupLayers layers;
};

/// One full set-up into `artifact_path` (removed again on return; the
/// engine keeps its mapping). Spans go to `tracer` when non-null.
[[nodiscard]] Loaded set_up(const std::string& artifact_path,
                            const sham::detect::EngineOptions& options, Tracer* tracer);

/// Set up kSetupRepeats times, each timed from the start of set_up to the
/// end of `ready` (which finishes making the system ready to serve), and
/// report setup_s as their median plus, in traced runs, the medians of
/// the set-up layers. Returns the last set-up.
template <typename Ready>
Loaded set_up_repeated(const Args& args, Report& report,
                       const sham::detect::EngineOptions& options, Tracer* tracer,
                       Ready&& ready) {
  const std::string path = args.out_dir + "/" + args.workload + ".artifact";
  std::vector<double> totals;
  std::vector<SetupLayers> layers;
  // Every set-up stays alive until the loop ends, so whatever `ready`
  // built over an earlier one can be replaced before that one goes.
  std::vector<Loaded> all;
  for (std::size_t i = 0; i < kSetupRepeats; ++i) {
    const auto start = Clock::now();
    all.push_back(set_up(path, options, tracer));
    ready(all.back());
    totals.push_back(seconds_since(start));
    layers.push_back(all.back().layers);
  }
  report.metric("setup_s", "s", median(totals), totals.size());
  if (tracer != nullptr) {
    const auto med = [&](auto field) {
      std::vector<double> v;
      for (const auto& l : layers) v.push_back(static_cast<double>(l.*field));
      return median(v);
    };
    const auto n = layers.size();
    report.metric("font.render_s", "s", med(&SetupLayers::render_s), n);
    report.metric("simchar.mine_s", "s", med(&SetupLayers::mine_s), n);
    report.metric("simchar.delta_evals", "count", med(&SetupLayers::delta_evals), n);
    report.metric("homoglyph.build_s", "s", med(&SetupLayers::homoglyph_s), n);
    report.metric("db.write_s", "s", med(&SetupLayers::write_s), n);
    report.metric("db.load_s", "s", med(&SetupLayers::load_s), n);
    report.metric("db.artifact_bytes", "bytes", med(&SetupLayers::artifact_bytes), n);
  }
  return std::move(all.back());
}

}  // namespace perfbench
