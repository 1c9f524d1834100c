#include "internet/scenario.hpp"

#include <algorithm>
#include <charconv>
#include <iterator>
#include <stdexcept>
#include <string_view>
#include <unordered_map>
#include <unordered_set>

#include "idna/idna.hpp"
#include "internet/brands.hpp"
#include "internet/scenario_core.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"

namespace sham::internet {

namespace {

using homoglyph::Source;
using unicode::CodePoint;
using unicode::U32String;

constexpr std::uint8_t kHpHosts = static_cast<std::uint8_t>(BlacklistFeed::kHpHosts);
constexpr std::uint8_t kGsb = static_cast<std::uint8_t>(BlacklistFeed::kGsb);
constexpr std::uint8_t kSymantec = static_cast<std::uint8_t>(BlacklistFeed::kSymantec);

/// Scaled count helper: paper_value × attack_scale, rounded.
std::size_t scaled(double paper_value, double scale) {
  return static_cast<std::size_t>(paper_value * scale + 0.5);
}

/// Independent generator for one index of a frozen stream: every
/// index-addressed quantity (filler label, membership bits, benign
/// sample, benign host) is drawn from its own Rng so the population can
/// be enumerated in any order, or not at all, without state.
util::Rng index_rng(std::uint64_t stream_seed, std::uint64_t index) noexcept {
  std::uint64_t s = index;
  return util::Rng{stream_seed ^ util::splitmix64(s)};
}

std::uint64_t fnv1a64(std::string_view text) noexcept {
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

/// Provenance classes an attack substitution can be drawn from.
enum class Provenance { kUcOnly, kSimOnly, kBoth };

/// Pick a homoglyph of `base` with the wanted provenance, if one exists.
std::optional<CodePoint> pick_homoglyph(const homoglyph::HomoglyphDb& db,
                                        util::Rng& rng, CodePoint base,
                                        Provenance wanted) {
  std::vector<CodePoint> options;
  for (const auto h : db.homoglyphs_of(base)) {
    if (unicode::is_ascii(h)) continue;  // substitutions must make an IDN
    const auto source = db.source_of(base, h);
    if (!source) continue;
    const bool ok = (wanted == Provenance::kUcOnly && *source == Source::kUc) ||
                    (wanted == Provenance::kSimOnly && *source == Source::kSimChar) ||
                    (wanted == Provenance::kBoth && *source == Source::kBoth);
    if (ok) options.push_back(h);
  }
  if (options.empty()) return std::nullopt;
  return options[rng.below(options.size())];
}

/// Construct one homograph of `target` with the wanted provenance; the
/// actual achieved provenance (union over substituted positions) is
/// written to `achieved`.
std::optional<U32String> make_homograph(const homoglyph::HomoglyphDb& db,
                                        util::Rng& rng, const std::string& target,
                                        Provenance wanted, std::size_t substitutions,
                                        Source* achieved) {
  U32String label;
  label.reserve(target.size());
  for (const char c : target) label.push_back(static_cast<unsigned char>(c));

  std::vector<std::size_t> positions(target.size());
  for (std::size_t i = 0; i < positions.size(); ++i) positions[i] = i;
  rng.shuffle(positions);

  std::uint8_t provenance_bits = 0;
  std::size_t done = 0;
  for (const auto pos : positions) {
    if (done == substitutions) break;
    const auto replacement = pick_homoglyph(db, rng, label[pos], wanted);
    if (!replacement) continue;
    const auto source = db.source_of(label[pos], *replacement);
    provenance_bits |= static_cast<std::uint8_t>(*source);
    label[pos] = *replacement;
    ++done;
  }
  if (done == 0) return std::nullopt;
  *achieved = static_cast<Source>(provenance_bits);
  return label;
}

HostState benign_host_state(util::Rng& rng, bool popular, std::size_t rank) {
  HostState s;
  s.has_ns = rng.bernoulli(popular ? 1.0 : 0.92);
  s.has_a = s.has_ns && rng.bernoulli(popular ? 1.0 : 0.85);
  s.port80_open = s.has_a && rng.bernoulli(popular ? 1.0 : 0.8);
  s.port443_open = s.port80_open && rng.bernoulli(popular ? 1.0 : 0.7);
  s.has_mx = rng.bernoulli(popular ? 0.9 : 0.3);
  s.web_link = popular || rng.bernoulli(0.2);
  s.sns_link = popular ? rng.bernoulli(0.8) : rng.bernoulli(0.05);
  s.ns_host = "ns1.hosting-" + std::to_string(rng.below(5000)) + ".net";
  s.website = s.port80_open ? WebsiteKind::kNormal : WebsiteKind::kEmpty;
  if (popular) {
    // Zipf-ish popularity: top rank gets ~1e9 resolutions.
    s.dns_resolutions = static_cast<std::uint64_t>(1.0e9 / static_cast<double>(rank + 1));
  } else {
    s.dns_resolutions = rng.below(2000);
  }
  return s;
}

}  // namespace

const std::vector<CaseStudySpec>& table11_case_studies() {
  // Table 11 of the paper: top-10 active IDN homographs by passive-DNS
  // resolutions. Substitution characters chosen so the homograph is a
  // single accented/lookalike substitution of the reference name.
  static const std::vector<CaseStudySpec> specs{
      {"gmail", 'i', 0x0131, 3, "Phishing", 615447, false, true, false, false},
      {"doviz", 'o', 0x00F6, 1, "Portal", 127417, true, false, true, false},
      {"gmail", 'g', 0x0261, 0, "Parked", 74699, false, true, false, false},
      {"gmail", 'a', 0x00E0, 2, "Parked", 63233, true, false, true, false},
      {"expansion", 'o', 0x00F3, 7, "Parked", 56918, false, true, true, false},
      {"gmail", 'l', 0x013A, 4, "Parked", 49248, true, false, false, false},
      {"yahoo", 'a', 0x00E0, 1, "Parked", 44368, false, true, false, false},
      {"shadbase", 'a', 0x00E4, 2, "Parked", 38556, true, false, false, true},
      {"youtube", 'e', 0x00EA, 6, "Sale", 37713, true, false, false, true},
      {"peru", 'u', 0x00FA, 3, "Parked", 36405, true, false, false, true},
  };
  return specs;
}

ScenarioCore build_scenario_core(const homoglyph::HomoglyphDb& db,
                                 const ScenarioConfig& config) {
  if (config.total_domains == 0) {
    throw std::invalid_argument{"generate_scenario: total_domains == 0"};
  }
  ScenarioCore core;
  core.config = config;
  util::Rng rng{config.seed};

  // --- Reference list (Alexa stand-in).
  core.references = make_reference_list(config.reference_count, rng.next());

  // ---------------------------------------------------------------------
  // Planted attacks. Counts follow the paper's absolute numbers scaled by
  // attack_scale. Provenance plan from Table 8: UC 436 / SimChar 3,110 /
  // union 3,280 => UC-only 170, both 266, SimChar-only 2,844.
  const double as = config.attack_scale;
  const std::size_t want_uc_only = scaled(170, as);
  const std::size_t want_both = scaled(266, as);
  const std::size_t want_sim_only = scaled(2844, as);
  const std::size_t want_total = want_uc_only + want_both + want_sim_only;

  // Table 9 top-target plan (counts per reference), remainder Zipf-spread.
  struct TargetPlan {
    std::string name;
    std::size_t count;
  };
  std::vector<TargetPlan> plan{
      {"myetherwallet", scaled(170, as)}, {"google", scaled(114, as)},
      {"amazon", scaled(75, as)},         {"facebook", scaled(72, as)},
      {"allstate", scaled(68, as)},
  };
  std::size_t planned = 0;
  for (const auto& p : plan) planned += p.count;

  // Case studies take a slot each (they are attacks too).
  const auto& cases = table11_case_studies();

  // Remaining attacks target references by a popularity-skewed draw.
  util::ZipfSampler ref_zipf{core.references.size(), 0.9};

  // Provenance queue: shuffled multiset of planned provenances.
  std::vector<Provenance> provenance_queue;
  provenance_queue.insert(provenance_queue.end(), want_uc_only, Provenance::kUcOnly);
  provenance_queue.insert(provenance_queue.end(), want_both, Provenance::kBoth);
  provenance_queue.insert(provenance_queue.end(), want_sim_only, Provenance::kSimOnly);
  rng.shuffle(provenance_queue);

  std::unordered_set<std::string> attack_aces;
  auto plant_attack = [&](const std::string& target, Provenance wanted)
      -> std::optional<PlantedAttack> {
    // Mostly single substitutions; occasionally two (both drawn from the
    // same provenance class so the pair's class is preserved).
    const std::size_t subs = rng.bernoulli(0.12) ? 2 : 1;
    for (int attempt = 0; attempt < 6; ++attempt) {
      Source achieved{};
      const auto label = make_homograph(db, rng, target, wanted, subs, &achieved);
      if (!label) return std::nullopt;  // no homoglyphs with this provenance
      PlantedAttack attack;
      attack.unicode = *label;
      try {
        attack.ace = idna::to_a_label(*label);
      } catch (const std::invalid_argument&) {
        continue;
      }
      if (!attack_aces.insert(attack.ace).second) continue;  // duplicate
      attack.target = target;
      attack.provenance = achieved;
      attack.substitutions = subs;
      return attack;
    }
    return std::nullopt;
  };

  // 1) Case studies (fixed substitutions).
  for (const auto& cs : cases) {
    U32String label;
    for (const char c : cs.target) label.push_back(static_cast<unsigned char>(c));
    if (cs.position >= label.size() || label[cs.position] != cs.from) {
      util::log_warn("scenario: case study target mismatch for " + cs.target);
      continue;
    }
    if (!db.are_homoglyphs(cs.from, cs.to)) {
      util::log_warn("scenario: homoglyph pair missing for case study " + cs.target);
      continue;
    }
    label[cs.position] = cs.to;
    PlantedAttack attack;
    attack.unicode = label;
    attack.ace = idna::to_a_label(label);
    attack.target = cs.target;
    attack.provenance = *db.source_of(cs.from, cs.to);
    attack.substitutions = 1;
    if (attack_aces.insert(attack.ace).second) {
      core.attacks.push_back(std::move(attack));
    }
  }

  // 2) Table 9 top targets, then Zipf-spread remainder.
  std::size_t provenance_cursor = 0;
  auto next_provenance = [&] {
    if (provenance_cursor < provenance_queue.size()) {
      return provenance_queue[provenance_cursor++];
    }
    return Provenance::kSimOnly;
  };
  for (const auto& p : plan) {
    for (std::size_t i = 0; i < p.count && core.attacks.size() < want_total; ++i) {
      auto attack = plant_attack(p.name, next_provenance());
      if (attack) core.attacks.push_back(*std::move(attack));
    }
  }
  std::unordered_set<std::string> planned_targets;
  for (const auto& p : plan) planned_targets.insert(p.name);
  // The Table 9 top targets got their exact quota above; the remainder
  // spreads over other references, capped below the smallest planned quota
  // (allstate's 68) so the paper's target ordering is preserved.
  const std::size_t per_target_cap = std::max<std::size_t>(1, scaled(60, as));
  std::unordered_map<std::string, std::size_t> per_target;
  std::size_t stall_guard = 0;
  while (core.attacks.size() < want_total && stall_guard < want_total * 8 + 64) {
    ++stall_guard;
    const auto& target = core.references[ref_zipf.sample(rng)];
    if (target.size() < 4) continue;
    if (planned_targets.contains(target)) continue;
    if (per_target[target] >= per_target_cap) continue;
    auto attack = plant_attack(target, next_provenance());
    if (attack) {
      ++per_target[target];
      core.attacks.push_back(*std::move(attack));
    }
  }
  if (core.attacks.size() < want_total) {
    util::log_warn("scenario: planted " + std::to_string(core.attacks.size()) +
                   " of " + std::to_string(want_total) + " planned attacks");
  }

  // ---------------------------------------------------------------------
  // Benign IDNs fill the IDN budget; the samples themselves are
  // index-addressed (benign_idn_at), only the count and seeds live here.
  const auto idn_budget =
      static_cast<std::size_t>(config.idn_fraction * static_cast<double>(config.total_domains));
  core.benign_count =
      idn_budget > core.attacks.size() ? idn_budget - core.attacks.size() : 0;

  // Freeze the per-stream seeds for every index-addressed tail. Drawn
  // before the (conditional) world build so build_world does not shift
  // the population content.
  core.benign_seed = rng.next();
  core.filler_seed = rng.next();
  core.membership_seed = rng.next();
  core.benign_host_seed = rng.next();

  if (!config.build_world) return core;

  // ---------------------------------------------------------------------
  // World state. Attack funnel follows Tables 10-14:
  //   3,280 detected; 2,294 with NS; 1,909 with A; port scan: 1,642 on 80,
  //   700 on 443, 695 on both (1,647 live); live classification 348/345/
  //   338/281/222/113; redirects 178/125/35; blacklists per provenance.
  const std::size_t n_attacks = core.attacks.size();
  std::vector<std::size_t> order(n_attacks);
  for (std::size_t i = 0; i < n_attacks; ++i) order[i] = i;
  util::Rng funnel_rng = rng.fork(0xF00D);
  funnel_rng.shuffle(order);

  const double ratio = n_attacks / 3280.0;  // adapts paper counts to actual
  const auto r = [&](double paper_count) {
    return static_cast<std::size_t>(paper_count * ratio + 0.5);
  };

  const std::size_t n_no_ns = r(3280 - 2294);
  const std::size_t n_no_a = r(385);
  const std::size_t n_80_only = r(1642 - 695);
  const std::size_t n_both_ports = r(695);
  const std::size_t n_443_only = r(700 - 695);

  // Classification plan for live hosts, in paper proportions.
  std::vector<WebsiteKind> live_kinds;
  const auto push_kinds = [&](WebsiteKind kind, double count) {
    for (std::size_t i = 0; i < r(count); ++i) live_kinds.push_back(kind);
  };
  push_kinds(WebsiteKind::kParking, 348);
  push_kinds(WebsiteKind::kForSale, 345);
  push_kinds(WebsiteKind::kRedirect, 338);
  push_kinds(WebsiteKind::kNormal, 281);
  push_kinds(WebsiteKind::kEmpty, 222);
  push_kinds(WebsiteKind::kError, 113);
  funnel_rng.shuffle(live_kinds);

  std::vector<RedirectKind> redirect_kinds;
  for (std::size_t i = 0; i < r(178); ++i) redirect_kinds.push_back(RedirectKind::kBrandProtection);
  for (std::size_t i = 0; i < r(125); ++i) redirect_kinds.push_back(RedirectKind::kLegitimate);
  for (std::size_t i = 0; i < r(35); ++i) redirect_kinds.push_back(RedirectKind::kMalicious);
  funnel_rng.shuffle(redirect_kinds);

  // Blacklist plans per provenance class (Table 14 decomposition:
  // UC-only 20/1/1, both 8/1/0, SimChar-only 214/11/7).
  struct BlacklistPlan {
    std::size_t hphosts, gsb, symantec;
  };
  const BlacklistPlan plan_uc{r(20), r(1), r(1)};
  const BlacklistPlan plan_both{r(8), r(1), 0};
  const BlacklistPlan plan_sim{r(214), r(11), r(7)};

  std::size_t cursor = 0;
  std::size_t live_cursor = 0;
  std::size_t redirect_cursor = 0;
  std::unordered_map<int, std::size_t> bl_given_h, bl_given_g, bl_given_s;
  // Redirect targets to register afterwards so the classifier can judge
  // them from evidence (malicious targets are blacklisted; Table 13).
  std::vector<std::pair<std::string, RedirectKind>> redirect_targets;

  for (const auto idx : order) {
    const auto& attack = core.attacks[idx];
    HostState s;
    s.ns_host = "ns1.hosting-" + std::to_string(funnel_rng.below(5000)) + ".net";
    const std::size_t position = cursor++;
    if (position < n_no_ns) {
      s.has_ns = false;
    } else if (position < n_no_ns + n_no_a) {
      s.has_ns = true;
      s.has_a = false;
    } else {
      s.has_ns = true;
      s.has_a = true;
      const std::size_t scan_pos = position - n_no_ns - n_no_a;
      if (scan_pos < n_80_only) {
        s.port80_open = true;
      } else if (scan_pos < n_80_only + n_both_ports) {
        s.port80_open = s.port443_open = true;
      } else if (scan_pos < n_80_only + n_both_ports + n_443_only) {
        s.port443_open = true;
      }
    }

    const bool live = s.port80_open || s.port443_open;
    if (live && live_cursor < live_kinds.size()) {
      s.website = live_kinds[live_cursor++];
      if (s.website == WebsiteKind::kParking) {
        const auto& parking = WebClassifier::parking_nameservers();
        s.ns_host = parking[funnel_rng.below(parking.size())];
      }
      if (s.website == WebsiteKind::kRedirect) {
        s.redirect = redirect_cursor < redirect_kinds.size()
                         ? redirect_kinds[redirect_cursor++]
                         : RedirectKind::kLegitimate;
        s.redirect_target = s.redirect == RedirectKind::kBrandProtection
                                ? attack.target + ".com"
                                : synthetic_label(funnel_rng) + "-landing.com";
        if (s.redirect != RedirectKind::kBrandProtection) {
          redirect_targets.emplace_back(s.redirect_target, s.redirect);
        }
      }
    }

    // Blacklists by provenance class.
    const int pclass = attack.provenance == Source::kUc     ? 0
                       : attack.provenance == Source::kBoth ? 1
                                                            : 2;
    const BlacklistPlan& bl =
        pclass == 0 ? plan_uc : (pclass == 1 ? plan_both : plan_sim);
    // Nested feeds: Symantec ⊂ GSB ⊂ hpHosts approximately — assign in
    // order so the per-feed counts hit the plan.
    if (s.website != WebsiteKind::kRedirect) {  // Table 14 excludes redirects
      if (bl_given_h[pclass] < bl.hphosts) {
        s.blacklists |= kHpHosts;
        ++bl_given_h[pclass];
        if (bl_given_g[pclass] < bl.gsb) {
          s.blacklists |= kGsb;
          ++bl_given_g[pclass];
        }
        if (bl_given_s[pclass] < bl.symantec && (s.blacklists & kGsb) == 0) {
          s.blacklists |= kSymantec;
          ++bl_given_s[pclass];
        }
      }
    }

    s.dns_resolutions = funnel_rng.below(5000);
    s.web_link = funnel_rng.bernoulli(0.08);
    s.sns_link = funnel_rng.bernoulli(0.04);
    core.head_world.add_domain(dns::DomainName::parse_or_throw(attack.ace + ".com"), s);
  }

  // Register the redirect landing hosts; malicious landings are on the
  // community blacklist so evidence-based Table 13 inference can find them.
  for (const auto& [target, kind] : redirect_targets) {
    const auto domain = dns::DomainName::parse(target);
    if (!domain || core.head_world.is_registered(*domain)) continue;
    HostState s;
    s.has_ns = true;
    s.has_a = true;
    s.port80_open = true;
    s.ns_host = "ns1.hosting-" + std::to_string(funnel_rng.below(5000)) + ".net";
    s.website = WebsiteKind::kNormal;
    if (kind == RedirectKind::kMalicious) s.blacklists |= kHpHosts;
    core.head_world.add_domain(*domain, s);
  }

  // Overwrite case-study host state with the Table 11 rows.
  for (const auto& cs : cases) {
    U32String label;
    for (const char c : cs.target) label.push_back(static_cast<unsigned char>(c));
    if (cs.position >= label.size()) continue;
    label[cs.position] = cs.to;
    std::string ace;
    try {
      ace = idna::to_a_label(label);
    } catch (const std::invalid_argument&) {
      continue;
    }
    const auto domain = dns::DomainName::parse(ace + ".com");
    if (!domain || !core.head_world.is_registered(*domain)) continue;
    auto& s = core.head_world.state_for_update(*domain);
    s.has_ns = true;
    s.has_a = true;
    s.port80_open = true;
    s.port443_open = true;
    s.site_label = cs.category;
    s.dns_resolutions = cs.resolutions;
    s.has_mx = cs.mx_now;
    s.had_mx = cs.mx_past;
    s.web_link = cs.web_link;
    s.sns_link = cs.sns_link;
    if (cs.category == "Parked") {
      const auto& parking = WebClassifier::parking_nameservers();
      s.ns_host = parking[cs.resolutions % parking.size()];
      s.website = WebsiteKind::kParking;
    } else if (cs.category == "Sale") {
      s.website = WebsiteKind::kForSale;
      s.ns_host = "ns1.premium-names.net";
    } else {
      s.website = WebsiteKind::kNormal;
      s.ns_host = "ns1.hosting-" + std::to_string(cs.resolutions % 5000) + ".net";
    }
    if (cs.category == "Phishing") {
      s.blacklists |= kHpHosts;
    }
  }

  // Reference sites are popular benign hosts.
  util::Rng benign_rng = rng.fork(0xBE9);
  for (std::size_t i = 0; i < core.references.size(); ++i) {
    core.head_world.add_domain(
        dns::DomainName::parse_or_throw(core.references[i] + ".com"),
        benign_host_state(benign_rng, true, i));
  }
  return core;
}

IdnSample benign_idn_at(const ScenarioCore& core, std::size_t index) {
  auto rng = index_rng(core.benign_seed, index);
  return make_idn_sample(rng);
}

HostState benign_host_for(const ScenarioCore& core, std::string_view ace) {
  util::Rng rng{core.benign_host_seed ^ fnv1a64(ace)};
  return benign_host_state(rng, false, 0);
}

void append_filler_label(const ScenarioCore& core, std::size_t index,
                         std::string& out) {
  auto rng = index_rng(core.filler_seed, index);
  append_synthetic_label(rng, out);
  // The decimal index suffix makes filler labels unique by construction
  // (see the header); no cross-path uniqueness set is required.
  out += '-';
  char digits[20];
  const auto end = std::to_chars(std::begin(digits), std::end(digits), index).ptr;
  out.append(digits, end);
}

std::string filler_label_at(const ScenarioCore& core, std::size_t index) {
  std::string label;
  append_filler_label(core, index, label);
  return label;
}

SourceMembership membership_at(const ScenarioCore& core, std::size_t index) {
  auto rng = index_rng(core.membership_seed, index);
  const bool in_zone = rng.bernoulli(core.config.zone_coverage);
  const bool in_dl = rng.bernoulli(core.config.domainlists_coverage);
  return {.zone = in_zone || !in_dl, .domainlists = in_dl || !in_zone};
}

void relabel_owner(const dns::DomainName& domain, std::string_view tld,
                   std::string& scratch, dns::DomainName& owner) {
  // World state is keyed by the generated .com names; the relabel swaps
  // the TLD on the emitted owner (and so the in-zone MX target) only.
  if (tld == "com") {
    owner = domain;
    return;
  }
  scratch.assign(domain.without_tld());
  scratch += '.';
  scratch += tld;
  if (!owner.assign(scratch)) {
    throw std::invalid_argument{"DomainName: invalid name: '" + scratch + "'"};
  }
}

DelegationRecords delegation_records(std::string_view com_name, const HostState* host,
                                     std::string_view owner, std::string& mx_target) {
  DelegationRecords out;
  const auto add = [&](dns::RecordType type) -> dns::RecordView& {
    auto& record = out.records[out.count++];
    record.owner = owner;
    record.type = type;
    return record;
  };
  if (host == nullptr || host->has_ns) {
    add(dns::RecordType::kNs).target = host != nullptr && !host->ns_host.empty()
                                           ? std::string_view{host->ns_host}
                                           : "ns1.registrar-default.net";
  }
  if (host != nullptr && host->has_a) {
    // Deterministic documentation-range address derived from the name.
    const auto h = std::hash<std::string_view>{}(com_name);
    add(dns::RecordType::kA).address =
        dns::Ipv4{0xCB007100u | static_cast<std::uint32_t>(h % 250)};
  }
  if (host != nullptr && host->has_mx) {
    mx_target.assign("mx.");
    mx_target += owner;
    auto& mx = add(dns::RecordType::kMx);
    mx.priority = 10;
    mx.target = mx_target;
  }
  return out;
}

Scenario generate_scenario(const homoglyph::HomoglyphDb& db,
                           const ScenarioConfig& config) {
  auto core = build_scenario_core(db, config);

  Scenario scenario;
  scenario.config = core.config;
  scenario.benign_idns.reserve(core.benign_count);
  for (std::size_t i = 0; i < core.benign_count; ++i) {
    scenario.benign_idns.push_back(benign_idn_at(core, i));
  }

  // ---------------------------------------------------------------------
  // Assemble the union population: references, attacks, benign IDNs, and
  // index-addressed ASCII backdrop filler.
  const std::size_t population = core.population();
  scenario.domains.reserve(population);
  auto add_domain = [&](const std::string& sld) {
    scenario.domains.push_back(sld + ".com");
  };
  for (const auto& ref : core.references) add_domain(ref);
  for (const auto& attack : core.attacks) add_domain(attack.ace);
  for (const auto& idn : scenario.benign_idns) add_domain(idn.ace);
  for (std::size_t i = scenario.domains.size(); i < population; ++i) {
    add_domain(filler_label_at(core, i));
  }

  // Source lists: independent coverage draws; every domain lands in at
  // least one source so the union equals the population (Table 6).
  for (std::uint32_t i = 0; i < scenario.domains.size(); ++i) {
    const auto m = membership_at(core, i);
    if (m.zone) scenario.zone_index.push_back(i);
    if (m.domainlists) scenario.domainlists_index.push_back(i);
  }

  if (config.build_world) {
    // Benign IDN registrations ride on the head world keep-first: an ACE
    // already registered (an attack or an earlier duplicate benign
    // sample) keeps its state, so world content is order-independent —
    // the property the streaming generator relies on.
    scenario.world = std::move(core.head_world);
    for (const auto& idn : scenario.benign_idns) {
      const auto domain = dns::DomainName::parse_or_throw(idn.ace + ".com");
      if (scenario.world.is_registered(domain)) continue;
      scenario.world.add_domain(domain, benign_host_for(core, idn.ace));
    }
  }

  scenario.references = std::move(core.references);
  scenario.attacks = std::move(core.attacks);
  return scenario;
}

dns::Zone scenario_to_zone(const Scenario& scenario, int which,
                           std::string_view tld) {
  if (which < 0 || which > 2) {
    throw std::invalid_argument{"scenario_to_zone: which must be 0, 1, or 2"};
  }
  dns::Zone zone;
  zone.origin = dns::DomainName::parse_or_throw(tld);
  zone.default_ttl = 172800;  // registry zones commonly use 2 days

  std::string scratch;
  std::string mx_target;
  dns::DomainName owner;
  const auto emit = [&](std::uint32_t index) {
    const auto domain = dns::DomainName::parse(scenario.domains[index]);
    if (!domain) return;
    relabel_owner(*domain, tld, scratch, owner);
    const auto records = delegation_records(domain->str(), scenario.world.lookup(*domain),
                                            owner.str(), mx_target);
    for (const auto& r : records.view()) {
      zone.records.push_back({.owner = owner,
                              .type = r.type,
                              .ttl = r.ttl,
                              .target = std::string{r.target},
                              .address = r.address,
                              .priority = r.priority});
    }
  };

  if (which == 0) {
    for (const auto i : scenario.zone_index) emit(i);
  } else if (which == 1) {
    for (const auto i : scenario.domainlists_index) emit(i);
  } else {
    for (std::uint32_t i = 0; i < scenario.domains.size(); ++i) emit(i);
  }
  return zone;
}

}  // namespace sham::internet
