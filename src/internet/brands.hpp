// Reference-domain corpus: well-known .com second-level names (the role
// Alexa Top Sites plays in the paper, Section 5.1) plus a deterministic
// pronounceable-name generator to extend the list to any size.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace sham::internet {

/// Curated well-known names, ordered roughly by popularity. Includes every
/// name the paper's tables mention (google, amazon, facebook,
/// myetherwallet, allstate, gmail, yahoo, youtube, binance, ...).
[[nodiscard]] const std::vector<std::string>& well_known_brands();

/// Deterministic pronounceable label (syllable-based), 4-16 chars,
/// appended to `out` (no allocation once `out` has the capacity).
void append_synthetic_label(util::Rng& rng, std::string& out);

/// append_synthetic_label into a fresh string.
[[nodiscard]] std::string synthetic_label(util::Rng& rng);

/// Build a ranked reference list of `count` names: the curated brands
/// first (in order), then synthetic names. All names are unique.
[[nodiscard]] std::vector<std::string> make_reference_list(std::size_t count,
                                                           std::uint64_t seed);

}  // namespace sham::internet
