// The homoglyph database used by the detector: the union of UC
// (confusables.txt) and SimChar, with per-pair provenance (Figure 2 of the
// paper shows both sub-databases feeding the matcher). Also implements the
// "reverting to original domains" analysis of Section 6.4.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "simchar/simchar.hpp"
#include "unicode/confusables.hpp"

namespace sham::homoglyph {

enum class Source : std::uint8_t {
  kUc = 1,
  kSimChar = 2,
  kBoth = 3,
};

/// Which sub-databases to consult — the measurement study compares UC-only
/// (the prior approach of Quinkert et al.), SimChar-only, and the union
/// (Tables 8 and 14).
struct DbConfig {
  bool use_uc = true;
  bool use_simchar = true;
  /// Keep only pairs whose characters are all IDNA-PVALID (UC lists many
  /// characters that cannot appear in registered IDNs).
  bool idna_only = true;
};

class HomoglyphDb {
 public:
  HomoglyphDb();

  /// Compose from a SimChar database and a confusables database.
  HomoglyphDb(const simchar::SimCharDb& simchar_db,
              const unicode::ConfusablesDb& uc_db, const DbConfig& config = {});

  /// True if {a, b} are listed as homoglyphs (symmetric, irreflexive).
  [[nodiscard]] bool are_homoglyphs(unicode::CodePoint a, unicode::CodePoint b) const;

  /// Provenance of the pair, if listed.
  [[nodiscard]] std::optional<Source> source_of(unicode::CodePoint a,
                                                unicode::CodePoint b) const;

  [[nodiscard]] std::vector<unicode::CodePoint> homoglyphs_of(unicode::CodePoint cp) const;

  /// Confusable-closure canonical map: the representative (smallest code
  /// point) of the connected component containing `cp` in the pair graph,
  /// or `cp` itself when it participates in no pair. The closure is the
  /// transitive hull of the (non-transitive) homoglyph relation, so
  /// canonical(a) == canonical(b) is a necessary — NOT sufficient —
  /// condition for {a, b} being a listed pair; candidate sets built on it
  /// over-approximate and must be re-verified with source_of()/
  /// are_homoglyphs(). One two-level table lookup in both storage modes
  /// (see canon_dir_); any 32-bit value is a valid argument.
  [[nodiscard]] unicode::CodePoint canonical(unicode::CodePoint cp) const noexcept {
    const std::size_t block = cp >> 8;
    if (block >= canon_dir_.size()) return cp;
    return cp ^ canon_pages_[(std::size_t{canon_dir_[block]} << 8) | (cp & 0xFF)];
  }

  /// Number of non-singleton confusable-closure components.
  [[nodiscard]] std::size_t canonical_class_count() const noexcept {
    return canonical_classes_;
  }

  /// Pair counts by provenance (for Table 1-style set arithmetic).
  [[nodiscard]] std::size_t pair_count() const noexcept {
    return view_ ? v_pair_keys_.size() : pair_source_.size();
  }
  [[nodiscard]] std::size_t pair_count(Source source) const;
  [[nodiscard]] std::size_t character_count() const noexcept {
    return view_ ? v_adj_cps_.size() : adjacency_.size();
  }

  // --- Incremental maintenance (Section 4.2: the DB evolves as Unicode
  // adds glyphs) -------------------------------------------------------
  //
  // The database carries a monotonically increasing *generation* counter.
  // Every mutating update bumps it and records which code points changed
  // their confusable-closure canonical representative, so index structures
  // built over canonical() (detect::SkeletonIndex) can rehash exactly the
  // affected union-find components instead of rebuilding from scratch.

  /// Outcome of one apply_update()/update_with_new_characters() call.
  struct UpdateResult {
    std::size_t pairs_added = 0;      // brand-new pairs inserted
    std::size_t sources_widened = 0;  // existing pairs that gained a provenance bit
    /// Code points whose canonical() representative moved (sorted, unique).
    /// Empty when every new pair landed inside an existing component.
    std::vector<unicode::CodePoint> canonical_changed;
  };

  /// Add pairs in place (pair graph, adjacency, and the canonical map are
  /// maintained incrementally — no full finalize()). Bumps generation()
  /// iff the update changed anything (new pair or widened provenance).
  UpdateResult apply_update(std::span<const simchar::HomoglyphPair> pairs,
                            Source source = Source::kSimChar);

  /// Incorporate SimChar growth: add every pair of `updated` not already
  /// listed here (the shape produced by simchar::update_with_new_characters
  /// when the Unicode standard adds characters). Honors the idna_only
  /// filter this database was constructed with.
  UpdateResult update_with_new_characters(const simchar::SimCharDb& updated);

  /// Mutation counter: 0 for a freshly constructed/parsed database, +1 per
  /// effective apply_update()/update_with_new_characters() call.
  [[nodiscard]] std::uint64_t generation() const noexcept { return generation_; }

  /// Code points whose canonical() representative changed after generation
  /// `since` (exclusive), sorted and unique. Returns std::nullopt when the
  /// change log cannot answer (unknown generation), in which case callers
  /// must fall back to a full rebuild of whatever they derived.
  [[nodiscard]] std::optional<std::vector<unicode::CodePoint>> canonical_changes_since(
      std::uint64_t since) const;

  /// Replace every non-ASCII character that has a Basic Latin (LDH)
  /// homoglyph with that homoglyph. Returns std::nullopt if any non-ASCII
  /// character has no LDH homoglyph — i.e. the string cannot be an IDN
  /// homograph of an ASCII domain under this database.
  [[nodiscard]] std::optional<unicode::U32String> revert_to_ascii(
      const unicode::U32String& text) const;

  /// Text serialization with provenance ("U+XXXX U+YYYY UC|SimChar|both"
  /// per line) — the portable artifact Section 7.2 proposes embedding in
  /// clients (browser extensions, mail filters). Round-trips with parse().
  [[nodiscard]] std::string serialize() const;
  static HomoglyphDb parse(std::string_view text);

  // --- Flat (DB-artifact) form -----------------------------------------
  //
  // The hash-map representation flattened into sorted arrays: pair keys
  // ((a << 32) | b, a < b) with per-pair provenance, the adjacency lists
  // as a CSR over ascending characters, and the union-find canonical map
  // as parallel key/representative arrays. An adopted view answers pair
  // and adjacency queries by binary search over these spans (zero
  // parsing); canonical() reads the page table that adoption derives from
  // the canonical arrays. The first mutating call (apply_update /
  // update_with_new_characters) materializes a private owned copy first
  // (copy-on-write).

  struct DbConfigFlags {
    static constexpr std::uint32_t kUseUc = 1u << 0;
    static constexpr std::uint32_t kUseSimChar = 1u << 1;
    static constexpr std::uint32_t kIdnaOnly = 1u << 2;
  };

  struct Flat {
    std::vector<std::uint64_t> pair_keys;    // ascending
    std::vector<std::uint8_t> pair_sources;  // parallel to pair_keys
    std::vector<std::uint32_t> adj_cps;      // ascending, unique
    std::vector<std::uint32_t> adj_offsets;  // size adj_cps.size() + 1
    std::vector<std::uint32_t> adj_data;     // sorted within each list
    std::vector<std::uint32_t> canon_keys;   // ascending
    std::vector<std::uint32_t> canon_reps;   // parallel to canon_keys
    std::uint64_t generation = 0;
    std::uint32_t canonical_classes = 0;
    std::uint32_t config_flags = 0;
  };

  struct FlatView {
    std::span<const std::uint64_t> pair_keys;
    std::span<const std::uint8_t> pair_sources;
    std::span<const std::uint32_t> adj_cps;
    std::span<const std::uint32_t> adj_offsets;
    std::span<const std::uint32_t> adj_data;
    std::span<const std::uint32_t> canon_keys;
    std::span<const std::uint32_t> canon_reps;
    std::uint64_t generation = 0;
    std::uint32_t canonical_classes = 0;
    std::uint32_t config_flags = 0;
  };

  /// Flatten the current state (either mode) for serialization.
  [[nodiscard]] Flat to_flat() const;

  /// Adopt immutable flat storage in place. The spans must stay valid for
  /// as long as `backing` is held. Throws std::runtime_error on shape
  /// mismatch or a canonical key or adjacency code point above U+10FFFF
  /// (the artifact loader validates both first).
  static HomoglyphDb adopt_view(const FlatView& flat,
                                std::shared_ptr<const void> backing);

  /// True when the db reads adopted (e.g. memory-mapped) storage; the
  /// next mutating call flips it back to owned via materialize().
  [[nodiscard]] bool is_view() const noexcept { return view_; }

 private:
  static std::uint64_t key(unicode::CodePoint a, unicode::CodePoint b) noexcept;
  void add_pair(unicode::CodePoint a, unicode::CodePoint b, Source source);
  /// Sort adjacency lists and rebuild the canonical map; every constructor
  /// and parse() must call this once after the last add_pair().
  void finalize();
  /// Merge the components of `a` and `b`, recording every code point whose
  /// representative moved into `changed` (members of the losing component).
  void merge_components(unicode::CodePoint a, unicode::CodePoint b,
                        std::vector<unicode::CodePoint>& changed);
  /// Rebuild canon_dir_/canon_pages_ from (key, representative) pairs in
  /// any order, sizing both once. Throws std::runtime_error on a key above
  /// U+10FFFF.
  void build_canonical_table(std::span<const unicode::CodePoint> keys,
                             std::span<const unicode::CodePoint> reps);
  /// Point canonical(cp) at `rep`, adding a page for cp's block if needed.
  void set_canonical(unicode::CodePoint cp, unicode::CodePoint rep);
  /// Copy-on-write: rebuild the owned hash-map representation from the
  /// flat view and drop the backing reference. Preserves generation();
  /// resets the change log (exactly like a fresh finalize()).
  void materialize();

  std::unordered_map<std::uint64_t, Source> pair_source_;
  std::unordered_map<unicode::CodePoint, std::vector<unicode::CodePoint>> adjacency_;
  /// canonical() table, derived (never stored in the artifact): block
  /// directory indexed by cp >> 8 -> page number; page p is
  /// canon_pages_[p * 256, p * 256 + 256) and holds cp ^ canonical(cp) per
  /// code point of the block. Page 0 is all zeros (identity) and serves
  /// every block without a key; blocks past the directory are identity too.
  std::vector<std::uint16_t> canon_dir_;
  std::vector<unicode::CodePoint> canon_pages_;
  std::size_t canonical_classes_ = 0;
  /// Representative -> every member of its component (the representative
  /// included), for each component of >= 2 members: the owned-mode
  /// canonical map. Merges touch only the losing component.
  std::unordered_map<unicode::CodePoint, std::vector<unicode::CodePoint>> component_members_;
  DbConfig config_;
  std::uint64_t generation_ = 0;
  /// canonical_change_log_[i] lists the code points whose representative
  /// moved in generation change_log_base_ + i + 1; finalize() resets the
  /// log (a full rebuild invalidates incremental bookkeeping).
  std::uint64_t change_log_base_ = 0;
  std::vector<std::vector<unicode::CodePoint>> canonical_change_log_;

  /// View mode: pair and adjacency queries binary-search these spans
  /// instead of the hash maps (which stay empty until materialize()). `backing_` owns the
  /// storage — typically the mmap'd DB artifact.
  bool view_ = false;
  std::shared_ptr<const void> backing_;
  std::span<const std::uint64_t> v_pair_keys_;
  std::span<const std::uint8_t> v_pair_sources_;
  std::span<const std::uint32_t> v_adj_cps_;
  std::span<const std::uint32_t> v_adj_offsets_;
  std::span<const std::uint32_t> v_adj_data_;
  std::span<const std::uint32_t> v_canon_keys_;
  std::span<const std::uint32_t> v_canon_reps_;
};

}  // namespace sham::homoglyph
