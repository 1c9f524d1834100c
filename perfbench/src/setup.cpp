#include "setup.hpp"

#include <cstdio>
#include <filesystem>

#include "core/shamfinder.hpp"
#include "db/artifact.hpp"
#include "font/paper_font.hpp"

using namespace sham;

namespace perfbench {

Loaded set_up(const std::string& artifact_path, const detect::EngineOptions& options,
              Tracer* tracer) {
  Tracer::Scope root{tracer, "setup"};
  Loaded out;
  auto& l = out.layers;

  auto start = Clock::now();
  font::PaperFont paper;
  {
    Tracer::Scope span{tracer, "font.make_paper_font"};
    paper = font::make_paper_font({});
  }
  const double make_font_s = seconds_since(start);

  start = Clock::now();
  simchar::BuildStats stats;
  core::ShamFinderConfig config;
  config.build.threads = kSetupThreads;
  std::optional<core::ShamFinder> finder;
  {
    Tracer::Scope span{tracer, "core.build_from_font"};
    finder.emplace(core::ShamFinder::build_from_font(*paper.font, config, &stats));
  }
  const double build_s = seconds_since(start);
  l.render_s = make_font_s + stats.render_seconds;
  l.mine_s = stats.compare_seconds + stats.sparse_seconds;
  l.homoglyph_s =
      build_s - stats.render_seconds - stats.compare_seconds - stats.sparse_seconds;
  l.delta_evals = stats.mining.delta_evaluations;

  start = Clock::now();
  {
    Tracer::Scope span{tracer, "db.write_db_file"};
    db::WriteRequest request;
    request.simchar = &finder->simchar();
    request.homoglyph = &finder->db();
    db::write_db_file(artifact_path, request);
  }
  l.write_s = seconds_since(start);
  l.artifact_bytes = std::filesystem::file_size(artifact_path);

  start = Clock::now();
  {
    Tracer::Scope span{tracer, "detect.from_db_file"};
    out.engine = std::make_unique<detect::Engine>(
        detect::Engine::from_db_file(artifact_path, options));
  }
  l.load_s = seconds_since(start);
  // The mapping stays valid after the name is gone.
  std::filesystem::remove(artifact_path);
  return out;
}

}  // namespace perfbench
