#include "homoglyph/homoglyph_db.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "unicode/idna_properties.hpp"
#include "util/strings.hpp"

namespace sham::homoglyph {

namespace {

/// Minimal union-find over code points, path-halving, union by smaller
/// representative so the final canonical form of a component is its
/// smallest member (deterministic regardless of insertion order).
class UnionFind {
 public:
  unicode::CodePoint find(unicode::CodePoint cp) {
    auto it = parent_.find(cp);
    if (it == parent_.end()) {
      parent_.emplace(cp, cp);
      return cp;
    }
    while (it->second != cp) {
      const auto up = parent_.find(it->second);
      it->second = up->second;  // path halving: point at grandparent
      cp = it->second;
      it = parent_.find(cp);    // continue from the new position, not the old parent
    }
    return cp;
  }

  void unite(unicode::CodePoint a, unicode::CodePoint b) {
    const auto ra = find(a);
    const auto rb = find(b);
    if (ra == rb) return;
    const auto [lo, hi] = std::minmax(ra, rb);
    parent_[hi] = lo;
  }

  const std::unordered_map<unicode::CodePoint, unicode::CodePoint>& nodes() const {
    return parent_;
  }

 private:
  std::unordered_map<unicode::CodePoint, unicode::CodePoint> parent_;
};

bool all_code_points(std::span<const unicode::CodePoint> values) {
  return std::all_of(values.begin(), values.end(),
                     [](unicode::CodePoint cp) { return cp <= unicode::kMaxCodePoint; });
}

}  // namespace

HomoglyphDb::HomoglyphDb() { finalize(); }

void HomoglyphDb::build_canonical_table(std::span<const unicode::CodePoint> keys,
                                        std::span<const unicode::CodePoint> reps) {
  // Keys bound the directory (cp >> 8) and the uint16_t page count: at
  // most 0x1100 blocks below U+10FFFF.
  if (!all_code_points(keys)) {
    throw std::runtime_error{"HomoglyphDb: canonical key above U+10FFFF"};
  }
  // Two passes so each table is allocated exactly once: number the blocks
  // that hold a key (directory entry 0 = the shared identity page), then
  // fill the pages.
  std::size_t blocks = 0;
  for (const auto cp : keys) blocks = std::max<std::size_t>(blocks, (cp >> 8) + 1);
  canon_dir_.assign(blocks, 0);
  std::uint16_t pages = 1;
  for (const auto cp : keys) {
    if (canon_dir_[cp >> 8] == 0) canon_dir_[cp >> 8] = pages++;
  }
  canon_pages_.assign(std::size_t{pages} << 8, 0);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    canon_pages_[(std::size_t{canon_dir_[keys[i] >> 8]} << 8) | (keys[i] & 0xFF)] =
        keys[i] ^ reps[i];
  }
}

void HomoglyphDb::set_canonical(unicode::CodePoint cp, unicode::CodePoint rep) {
  const std::size_t block = cp >> 8;
  if (block >= canon_dir_.size()) canon_dir_.resize(block + 1, 0);
  if (canon_dir_[block] == 0) {
    canon_dir_[block] = static_cast<std::uint16_t>(canon_pages_.size() >> 8);
    canon_pages_.resize(canon_pages_.size() + 256, 0);
  }
  canon_pages_[(std::size_t{canon_dir_[block]} << 8) | (cp & 0xFF)] = cp ^ rep;
}

void HomoglyphDb::finalize() {
  for (auto& [cp, neighbours] : adjacency_) {
    std::sort(neighbours.begin(), neighbours.end());
  }

  UnionFind uf;
  for (const auto& [cp, neighbours] : adjacency_) {
    for (const auto n : neighbours) uf.unite(cp, n);
  }
  std::vector<unicode::CodePoint> keys;
  std::vector<unicode::CodePoint> reps;
  keys.reserve(uf.nodes().size());
  reps.reserve(uf.nodes().size());
  for (const auto& node : uf.nodes()) keys.push_back(node.first);
  for (const auto cp : keys) reps.push_back(uf.find(cp));
  build_canonical_table(keys, reps);

  // Rebuild the rep -> members map (every graph node, reps included, so
  // every tracked component here has >= 2 members; singletons are
  // represented by absence).
  component_members_.clear();
  for (std::size_t i = 0; i < keys.size(); ++i) {
    component_members_[reps[i]].push_back(keys[i]);
  }
  for (auto& [rep, members] : component_members_) {
    std::sort(members.begin(), members.end());
  }
  canonical_classes_ = component_members_.size();
  // A full rebuild invalidates incremental bookkeeping: restart the change
  // log at the current generation.
  change_log_base_ = generation_;
  canonical_change_log_.clear();
}

void HomoglyphDb::merge_components(unicode::CodePoint a, unicode::CodePoint b,
                                   std::vector<unicode::CodePoint>& changed) {
  const auto ra = canonical(a);
  const auto rb = canonical(b);
  if (ra == rb) return;  // within-component pair: no representative moves
  const auto [lo, hi] = std::minmax(ra, rb);

  // Move the losing component's member list out before touching the winner:
  // unordered_map insertion below may rehash and invalidate references.
  std::vector<unicode::CodePoint> losers;
  if (auto it = component_members_.find(hi); it != component_members_.end()) {
    losers = std::move(it->second);
    component_members_.erase(it);
  } else {
    losers.push_back(hi);  // hi was a singleton being pulled into the graph
  }

  std::size_t winner_size = 1;
  auto wit = component_members_.find(lo);
  if (wit == component_members_.end()) {
    // lo is a singleton entering the graph: it becomes a member of its own
    // component (canonical(lo) stays lo, so the table needs no entry), as
    // finalize() records every graph node.
    wit = component_members_.emplace(lo, std::vector<unicode::CodePoint>{lo}).first;
  } else {
    winner_size = wit->second.size();
  }

  // The merged component is always non-singleton; each input counted toward
  // canonical_classes_ iff it already had >= 2 members.
  canonical_classes_ += 1;
  if (winner_size >= 2) --canonical_classes_;
  if (losers.size() >= 2) --canonical_classes_;

  auto& winners = wit->second;
  winners.reserve(winners.size() + losers.size());
  for (const auto cp : losers) {
    set_canonical(cp, lo);
    winners.push_back(cp);
    changed.push_back(cp);
  }
}

void HomoglyphDb::materialize() {
  if (!view_) return;
  // Rebuild the owned hash-map representation from the flat arrays, then
  // finalize() — which recomputes the identical canonical map (union by
  // smallest representative is deterministic) and restarts the change log
  // at the current generation, exactly like a freshly parsed database.
  pair_source_.clear();
  pair_source_.reserve(v_pair_keys_.size());
  for (std::size_t i = 0; i < v_pair_keys_.size(); ++i) {
    pair_source_.emplace(v_pair_keys_[i], static_cast<Source>(v_pair_sources_[i]));
  }
  adjacency_.clear();
  adjacency_.reserve(v_adj_cps_.size());
  for (std::size_t i = 0; i < v_adj_cps_.size(); ++i) {
    adjacency_.emplace(v_adj_cps_[i],
                       std::vector<unicode::CodePoint>{
                           v_adj_data_.begin() + v_adj_offsets_[i],
                           v_adj_data_.begin() + v_adj_offsets_[i + 1]});
  }
  view_ = false;
  backing_.reset();
  v_pair_keys_ = {};
  v_pair_sources_ = {};
  v_adj_cps_ = {};
  v_adj_offsets_ = {};
  v_adj_data_ = {};
  v_canon_keys_ = {};
  v_canon_reps_ = {};
  finalize();
}

HomoglyphDb::Flat HomoglyphDb::to_flat() const {
  Flat flat;
  flat.generation = generation_;
  flat.canonical_classes = static_cast<std::uint32_t>(canonical_classes_);
  flat.config_flags = (config_.use_uc ? DbConfigFlags::kUseUc : 0) |
                      (config_.use_simchar ? DbConfigFlags::kUseSimChar : 0) |
                      (config_.idna_only ? DbConfigFlags::kIdnaOnly : 0);
  if (view_) {
    flat.pair_keys.assign(v_pair_keys_.begin(), v_pair_keys_.end());
    flat.pair_sources.assign(v_pair_sources_.begin(), v_pair_sources_.end());
    flat.adj_cps.assign(v_adj_cps_.begin(), v_adj_cps_.end());
    flat.adj_offsets.assign(v_adj_offsets_.begin(), v_adj_offsets_.end());
    flat.adj_data.assign(v_adj_data_.begin(), v_adj_data_.end());
    flat.canon_keys.assign(v_canon_keys_.begin(), v_canon_keys_.end());
    flat.canon_reps.assign(v_canon_reps_.begin(), v_canon_reps_.end());
    return flat;
  }

  std::vector<std::pair<std::uint64_t, Source>> pairs{pair_source_.begin(),
                                                      pair_source_.end()};
  std::sort(pairs.begin(), pairs.end());
  flat.pair_keys.reserve(pairs.size());
  flat.pair_sources.reserve(pairs.size());
  for (const auto& [k, s] : pairs) {
    flat.pair_keys.push_back(k);
    flat.pair_sources.push_back(static_cast<std::uint8_t>(s));
  }

  std::vector<unicode::CodePoint> cps;
  cps.reserve(adjacency_.size());
  for (const auto& [cp, neighbours] : adjacency_) cps.push_back(cp);
  std::sort(cps.begin(), cps.end());
  flat.adj_cps.reserve(cps.size());
  flat.adj_offsets.reserve(cps.size() + 1);
  for (const auto cp : cps) {
    flat.adj_cps.push_back(cp);
    flat.adj_offsets.push_back(static_cast<std::uint32_t>(flat.adj_data.size()));
    const auto& neighbours = adjacency_.at(cp);
    flat.adj_data.insert(flat.adj_data.end(), neighbours.begin(), neighbours.end());
  }
  flat.adj_offsets.push_back(static_cast<std::uint32_t>(flat.adj_data.size()));

  std::vector<std::pair<unicode::CodePoint, unicode::CodePoint>> canon;
  for (const auto& [rep, members] : component_members_) {
    for (const auto cp : members) canon.emplace_back(cp, rep);
  }
  std::sort(canon.begin(), canon.end());
  flat.canon_keys.reserve(canon.size());
  flat.canon_reps.reserve(canon.size());
  for (const auto& [cp, rep] : canon) {
    flat.canon_keys.push_back(cp);
    flat.canon_reps.push_back(rep);
  }
  return flat;
}

HomoglyphDb HomoglyphDb::adopt_view(const FlatView& flat,
                                    std::shared_ptr<const void> backing) {
  if (flat.pair_sources.size() != flat.pair_keys.size() ||
      flat.adj_offsets.size() != flat.adj_cps.size() + 1 ||
      (!flat.adj_offsets.empty() && flat.adj_offsets.back() != flat.adj_data.size()) ||
      flat.canon_reps.size() != flat.canon_keys.size()) {
    throw std::runtime_error{"HomoglyphDb: flat view shape mismatch"};
  }
  HomoglyphDb db;
  db.view_ = true;
  db.backing_ = std::move(backing);
  db.v_pair_keys_ = flat.pair_keys;
  db.v_pair_sources_ = flat.pair_sources;
  db.v_adj_cps_ = flat.adj_cps;
  db.v_adj_offsets_ = flat.adj_offsets;
  db.v_adj_data_ = flat.adj_data;
  db.v_canon_keys_ = flat.canon_keys;
  db.v_canon_reps_ = flat.canon_reps;
  db.generation_ = flat.generation;
  db.canonical_classes_ = flat.canonical_classes;
  db.config_.use_uc = (flat.config_flags & DbConfigFlags::kUseUc) != 0;
  db.config_.use_simchar = (flat.config_flags & DbConfigFlags::kUseSimChar) != 0;
  db.config_.idna_only = (flat.config_flags & DbConfigFlags::kIdnaOnly) != 0;
  // The change log restarts at adoption (same contract as finalize()):
  // canonical_changes_since(generation()) answers with "nothing changed";
  // anything older forces the caller's full rebuild.
  db.change_log_base_ = flat.generation;
  // Adjacency characters become canonical keys when an update
  // materializes the view; reject them here, before any mutation starts.
  if (!all_code_points(flat.adj_cps) || !all_code_points(flat.adj_data)) {
    throw std::runtime_error{"HomoglyphDb: flat view code point above U+10FFFF"};
  }
  db.build_canonical_table(flat.canon_keys, flat.canon_reps);
  return db;
}

HomoglyphDb::UpdateResult HomoglyphDb::apply_update(
    std::span<const simchar::HomoglyphPair> pairs, Source source) {
  materialize();  // copy-on-write: views go owned on the first mutation
  const auto permitted = [&](unicode::CodePoint cp) {
    return cp <= unicode::kMaxCodePoint &&
           (!config_.idna_only || unicode::is_idna_permitted(cp));
  };
  const auto insert_sorted = [](std::vector<unicode::CodePoint>& v,
                                unicode::CodePoint cp) {
    v.insert(std::upper_bound(v.begin(), v.end(), cp), cp);
  };

  UpdateResult result;
  std::vector<unicode::CodePoint> changed;
  for (const auto& p : pairs) {
    if (p.a == p.b) continue;
    if (!permitted(p.a) || !permitted(p.b)) continue;
    auto [it, inserted] = pair_source_.try_emplace(key(p.a, p.b), source);
    if (!inserted) {
      const auto widened = static_cast<Source>(static_cast<std::uint8_t>(it->second) |
                                               static_cast<std::uint8_t>(source));
      if (widened != it->second) {
        it->second = widened;
        ++result.sources_widened;
      }
      continue;
    }
    ++result.pairs_added;
    // Adjacency lists stay sorted (revert_to_ascii's smallest-LDH scan and
    // serialize determinism depend on it).
    insert_sorted(adjacency_[p.a], p.b);
    insert_sorted(adjacency_[p.b], p.a);
    merge_components(p.a, p.b, changed);
  }

  if (result.pairs_added == 0 && result.sources_widened == 0) return result;
  std::sort(changed.begin(), changed.end());
  changed.erase(std::unique(changed.begin(), changed.end()), changed.end());
  result.canonical_changed = changed;
  ++generation_;
  canonical_change_log_.push_back(std::move(changed));
  return result;
}

HomoglyphDb::UpdateResult HomoglyphDb::update_with_new_characters(
    const simchar::SimCharDb& updated) {
  return apply_update(updated.pairs(), Source::kSimChar);
}

std::optional<std::vector<unicode::CodePoint>> HomoglyphDb::canonical_changes_since(
    std::uint64_t since) const {
  if (since == generation_) return std::vector<unicode::CodePoint>{};
  if (since < change_log_base_ || since > generation_) return std::nullopt;
  std::vector<unicode::CodePoint> out;
  for (std::uint64_t g = since; g < generation_; ++g) {
    const auto& step = canonical_change_log_[g - change_log_base_];
    out.insert(out.end(), step.begin(), step.end());
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::uint64_t HomoglyphDb::key(unicode::CodePoint a, unicode::CodePoint b) noexcept {
  if (a > b) std::swap(a, b);
  return (static_cast<std::uint64_t>(a) << 32) | b;
}

void HomoglyphDb::add_pair(unicode::CodePoint a, unicode::CodePoint b, Source source) {
  if (a == b) return;
  auto [it, inserted] = pair_source_.try_emplace(key(a, b), source);
  if (!inserted) {
    it->second = static_cast<Source>(static_cast<std::uint8_t>(it->second) |
                                     static_cast<std::uint8_t>(source));
    return;
  }
  adjacency_[a].push_back(b);
  adjacency_[b].push_back(a);
}

HomoglyphDb::HomoglyphDb(const simchar::SimCharDb& simchar_db,
                         const unicode::ConfusablesDb& uc_db, const DbConfig& config)
    : config_(config) {
  const auto permitted = [&](unicode::CodePoint cp) {
    return cp <= unicode::kMaxCodePoint &&
           (!config.idna_only || unicode::is_idna_permitted(cp));
  };
  if (config.use_uc) {
    for (const auto& [source, proto] : uc_db.single_char_pairs()) {
      if (permitted(source) && permitted(proto)) add_pair(source, proto, Source::kUc);
    }
  }
  if (config.use_simchar) {
    for (const auto& p : simchar_db.pairs()) {
      // SimChar is built from the PVALID repertoire already; the check is
      // kept for externally loaded databases.
      if (permitted(p.a) && permitted(p.b)) add_pair(p.a, p.b, Source::kSimChar);
    }
  }
  finalize();
}

bool HomoglyphDb::are_homoglyphs(unicode::CodePoint a, unicode::CodePoint b) const {
  return a != b && source_of(a, b).has_value();
}

std::optional<Source> HomoglyphDb::source_of(unicode::CodePoint a,
                                             unicode::CodePoint b) const {
  if (a == b) return std::nullopt;
  const auto k = key(a, b);
  if (view_) {
    const auto it = std::lower_bound(v_pair_keys_.begin(), v_pair_keys_.end(), k);
    if (it == v_pair_keys_.end() || *it != k) return std::nullopt;
    return static_cast<Source>(
        v_pair_sources_[static_cast<std::size_t>(it - v_pair_keys_.begin())]);
  }
  const auto it = pair_source_.find(k);
  if (it == pair_source_.end()) return std::nullopt;
  return it->second;
}

std::vector<unicode::CodePoint> HomoglyphDb::homoglyphs_of(unicode::CodePoint cp) const {
  if (view_) {
    const auto it = std::lower_bound(v_adj_cps_.begin(), v_adj_cps_.end(), cp);
    if (it == v_adj_cps_.end() || *it != cp) return {};
    const auto i = static_cast<std::size_t>(it - v_adj_cps_.begin());
    return {v_adj_data_.begin() + v_adj_offsets_[i],
            v_adj_data_.begin() + v_adj_offsets_[i + 1]};
  }
  const auto it = adjacency_.find(cp);
  if (it == adjacency_.end()) return {};
  return it->second;
}

std::size_t HomoglyphDb::pair_count(Source source) const {
  // A pair counts toward `source` when its provenance includes every bit of
  // `source`: kUc/kSimChar mean "listed in that database (possibly both)",
  // kBoth means "listed in both".
  const auto want = static_cast<std::uint8_t>(source);
  std::size_t n = 0;
  if (view_) {
    for (const auto s : v_pair_sources_) {
      if ((s & want) == want) ++n;
    }
    return n;
  }
  for (const auto& [k, s] : pair_source_) {
    if ((static_cast<std::uint8_t>(s) & want) == want) ++n;
  }
  return n;
}

std::string HomoglyphDb::serialize() const {
  // Deterministic order: sort by key (views are key-sorted already).
  std::vector<std::pair<std::uint64_t, Source>> items;
  if (view_) {
    items.reserve(v_pair_keys_.size());
    for (std::size_t i = 0; i < v_pair_keys_.size(); ++i) {
      items.emplace_back(v_pair_keys_[i], static_cast<Source>(v_pair_sources_[i]));
    }
  } else {
    items.assign(pair_source_.begin(), pair_source_.end());
    std::sort(items.begin(), items.end());
  }
  std::string out;
  out.reserve(items.size() * 24);
  for (const auto& [k, source] : items) {
    out += util::format_codepoint(static_cast<unicode::CodePoint>(k >> 32));
    out += ' ';
    out += util::format_codepoint(static_cast<unicode::CodePoint>(k & 0xFFFFFFFF));
    out += ' ';
    switch (source) {
      case Source::kUc: out += "UC"; break;
      case Source::kSimChar: out += "SimChar"; break;
      case Source::kBoth: out += "both"; break;
    }
    out += '\n';
  }
  return out;
}

HomoglyphDb HomoglyphDb::parse(std::string_view text) {
  HomoglyphDb db;
  std::size_t line_no = 0;
  for (const auto line : util::split(text, '\n')) {
    ++line_no;
    const auto body = util::trim(line);
    if (body.empty() || body.front() == '#') continue;
    const auto fields = util::split_ws(body);
    if (fields.size() != 3) {
      throw std::invalid_argument{"HomoglyphDb::parse: line " +
                                  std::to_string(line_no) + ": expected 3 fields"};
    }
    const auto a = util::parse_hex_codepoint(fields[0]);
    const auto b = util::parse_hex_codepoint(fields[1]);
    if (a > unicode::kMaxCodePoint || b > unicode::kMaxCodePoint) {
      throw std::invalid_argument{"HomoglyphDb::parse: line " +
                                  std::to_string(line_no) +
                                  ": code point above U+10FFFF"};
    }
    Source source;
    if (fields[2] == "UC") {
      source = Source::kUc;
    } else if (fields[2] == "SimChar") {
      source = Source::kSimChar;
    } else if (fields[2] == "both") {
      source = Source::kBoth;
    } else {
      throw std::invalid_argument{"HomoglyphDb::parse: line " +
                                  std::to_string(line_no) + ": bad source tag"};
    }
    db.add_pair(a, b, source);
  }
  db.finalize();
  return db;
}

std::optional<unicode::U32String> HomoglyphDb::revert_to_ascii(
    const unicode::U32String& text) const {
  unicode::U32String out;
  out.reserve(text.size());
  for (const auto cp : text) {
    if (unicode::is_ascii(cp)) {
      out.push_back(cp);
      continue;
    }
    unicode::CodePoint best = 0;
    for (const auto h : homoglyphs_of(cp)) {
      if (unicode::is_ldh(h)) {
        best = h;
        break;  // adjacency is sorted: first LDH hit is the smallest
      }
    }
    if (best == 0) return std::nullopt;
    out.push_back(best);
  }
  return out;
}

}  // namespace sham::homoglyph
