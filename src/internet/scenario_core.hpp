// The streamable core of scenario generation. `build_scenario_core`
// materializes only what is bounded by the config (references, planted
// attacks, the attack-funnel world) and freezes per-stream seeds for
// everything whose size scales with total_domains. Each population index
// is then a pure function of (core, index):
//
//   index in [0, R)            -> reference label
//   index in [R, R+A)          -> planted-attack ACE
//   index in [R+A, R+A+B)      -> benign IDN (benign_idn_at)
//   index in [R+A+B, N)        -> ASCII filler (filler_label_at)
//
// with source-list membership (membership_at) and benign host state
// (benign_host_for) drawn from per-index forks of the frozen seeds. This
// lets generate_scenario (materializing) and ZoneTextStream (streaming)
// enumerate the identical population without sharing any O(N) state — the
// byte-identity contract tests/test_zone_gen.cpp proves.
//
// Filler labels are unique by construction: synthetic_label() and the
// reference corpus are hyphen-free, ACE labels contain "xn--", and every
// filler label is "<syllables>-<population index>" — exactly one hyphen
// followed by the decimal index — so no cross-class or intra-class
// collision is possible and no uniqueness set is needed.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "dns/records.hpp"
#include "homoglyph/homoglyph_db.hpp"
#include "internet/scenario.hpp"
#include "internet/world.hpp"

namespace sham::internet {

struct ScenarioCore {
  ScenarioConfig config;

  std::vector<std::string> references;
  std::vector<PlantedAttack> attacks;

  /// Host state for the bounded head: attack funnel, redirect landings,
  /// case-study overwrites, reference sites. Empty when !config.build_world.
  /// Benign-IDN host state is NOT here — it is a pure function of the ACE
  /// (benign_host_for), registered keep-first behind any attack collision.
  SimulatedInternet head_world;

  /// Benign IDN count filling the IDN budget left by the attacks.
  std::size_t benign_count = 0;

  // Frozen per-stream seeds for the index-addressed tails.
  std::uint64_t benign_seed = 0;       // benign_idn_at
  std::uint64_t filler_seed = 0;       // filler_label_at
  std::uint64_t membership_seed = 0;   // membership_at
  std::uint64_t benign_host_seed = 0;  // benign_host_for

  [[nodiscard]] std::size_t head_count() const noexcept {
    return references.size() + attacks.size() + benign_count;
  }
  /// Population size: the configured total, or the head if it overflows
  /// the total (mirrors the legacy filler loop, which only topped up).
  [[nodiscard]] std::size_t population() const noexcept {
    return head_count() > config.total_domains ? head_count()
                                               : config.total_domains;
  }
};

[[nodiscard]] ScenarioCore build_scenario_core(const homoglyph::HomoglyphDb& db,
                                               const ScenarioConfig& config);

/// Benign IDN sample `index` in [0, core.benign_count).
[[nodiscard]] IdnSample benign_idn_at(const ScenarioCore& core, std::size_t index);

/// Host state of a benign IDN registration, keyed by its ACE label so
/// duplicate benign samples (possible — the tail is not deduplicated)
/// resolve to one consistent state in both generation paths.
[[nodiscard]] HostState benign_host_for(const ScenarioCore& core,
                                        std::string_view ace);

/// ASCII filler label for population index `index` (>= head_count()),
/// appended to `out` (no allocation once `out` has the capacity).
void append_filler_label(const ScenarioCore& core, std::size_t index,
                         std::string& out);

/// append_filler_label into a fresh string.
[[nodiscard]] std::string filler_label_at(const ScenarioCore& core,
                                          std::size_t index);

struct SourceMembership {
  bool zone = false;
  bool domainlists = false;
};

/// Source-list membership of population index `index`: independent
/// coverage draws, forced into at least one list so the union equals the
/// population (Table 6).
[[nodiscard]] SourceMembership membership_at(const ScenarioCore& core,
                                             std::size_t index);

/// `domain`, a world-keyed ".com" name, relabelled under `tld` into
/// `owner`: its ".com" suffix swapped for ".<tld>" (joined in `scratch`).
/// Both buffers keep their capacity. Throws std::invalid_argument if the
/// result is not a valid name.
void relabel_owner(const dns::DomainName& domain, std::string_view tld,
                   std::string& scratch, dns::DomainName& owner);

/// The registry records of one delegation, in zone order: at most NS, A
/// and MX.
struct DelegationRecords {
  std::array<dns::RecordView, 3> records;
  std::size_t count = 0;
  [[nodiscard]] std::span<const dns::RecordView> view() const noexcept {
    return {records.data(), count};
  }
};

/// Decide the records a registered name gets — the one place that does,
/// shared by the materializing (scenario_to_zone) and streaming
/// (ZoneTextStream) zone writers. `com_name` is the world-keyed ".com"
/// name, `host` its world state (null = bare delegation), `owner` the
/// emitted owner (relabel_owner). The MX target "mx.<owner>" is written
/// into `mx_target`, which the returned views reference.
[[nodiscard]] DelegationRecords delegation_records(std::string_view com_name,
                                                   const HostState* host,
                                                   std::string_view owner,
                                                   std::string& mx_target);

}  // namespace sham::internet
