// The simulated internet: ground-truth state for every registered domain
// (DNS delegation, liveness, website behaviour, mail, popularity,
// blacklist membership) plus the query services the measurement pipeline
// uses — a port scanner, a passive-DNS feed, a headless-browser-style
// website classifier, a search engine, and blacklist lookups. Real
// implementations of these services would perform network I/O; here they
// read the world state through the same narrow interfaces (DESIGN.md §2).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "dns/domain.hpp"
#include "internet/website.hpp"

namespace sham::internet {

struct HostState {
  bool has_ns = false;
  bool has_a = false;
  bool port80_open = false;
  bool port443_open = false;
  bool has_mx = false;        // active MX record
  bool had_mx = false;        // MX existed historically
  bool web_link = false;      // linked from the public web
  bool sns_link = false;      // linked from social networks
  std::string ns_host;        // delegated nameserver
  WebsiteKind website = WebsiteKind::kEmpty;
  RedirectKind redirect = RedirectKind::kLegitimate;  // when website == kRedirect
  std::string redirect_target;                        // when website == kRedirect
  std::uint8_t blacklists = 0;       // BlacklistFeed bitmask
  std::uint64_t dns_resolutions = 0; // cumulative passive-DNS lookups
  std::string site_label;            // manual-inspection label (Table 11)
};

class SimulatedInternet {
 public:
  void add_domain(const dns::DomainName& domain, HostState state);

  [[nodiscard]] bool is_registered(const dns::DomainName& domain) const;
  [[nodiscard]] const HostState* lookup(const dns::DomainName& domain) const;
  /// Lookup by the name's text (lowercase, no trailing dot), with no
  /// DomainName built.
  [[nodiscard]] const HostState* lookup(std::string_view name) const;
  [[nodiscard]] std::size_t domain_count() const noexcept { return hosts_.size(); }

  /// Registered domains, ascending.
  [[nodiscard]] std::vector<dns::DomainName> domains() const;

  HostState& state_for_update(const dns::DomainName& domain);

 private:
  /// Hashes and compares a DomainName as its text, so string_view keys
  /// find entries too (the same hash values as std::hash<DomainName>).
  struct NameKey {
    using is_transparent = void;
    static std::string_view text(const dns::DomainName& d) noexcept { return d.str(); }
    static std::string_view text(std::string_view s) noexcept { return s; }
    std::size_t operator()(const auto& key) const noexcept {
      return std::hash<std::string_view>{}(text(key));
    }
    bool operator()(const auto& a, const auto& b) const noexcept {
      return text(a) == text(b);
    }
  };
  std::unordered_map<dns::DomainName, HostState, NameKey, NameKey> hosts_;
};

/// --- Query services (the measurement pipeline's view of the world) ---

struct PortScanResult {
  bool tcp80 = false;
  bool tcp443 = false;
  [[nodiscard]] bool any() const noexcept { return tcp80 || tcp443; }
};

class PortScanner {
 public:
  explicit PortScanner(const SimulatedInternet& world) : world_{&world} {}

  /// Scans succeed only for resolvable hosts (NS + A present), mirroring
  /// the paper's NS -> A -> scan funnel (Section 6.1).
  [[nodiscard]] PortScanResult scan(const dns::DomainName& domain) const;

 private:
  const SimulatedInternet* world_;
};

class PassiveDns {
 public:
  explicit PassiveDns(const SimulatedInternet& world) : world_{&world} {}

  /// Cumulative name-resolution count observed by the sensor network;
  /// zero for unknown domains.
  [[nodiscard]] std::uint64_t resolutions(const dns::DomainName& domain) const;

 private:
  const SimulatedInternet* world_;
};

struct ClassifiedSite {
  WebsiteKind kind = WebsiteKind::kError;
  std::string redirect_target;  // set when kind == kRedirect (from Location)
};

/// Headless-browser-style classifier: parking detection by NS (the 17
/// parking nameservers), then classification of the *fetched evidence*
/// (pages synthesized by internet::WebServer) — not of the ground truth.
class WebClassifier {
 public:
  explicit WebClassifier(const SimulatedInternet& world) : world_{&world} {}

  /// Classify an *active* site (caller established liveness via scan).
  [[nodiscard]] ClassifiedSite classify(const dns::DomainName& domain) const;

  /// The parking-company nameserver list used for NS-based detection.
  [[nodiscard]] static const std::vector<std::string>& parking_nameservers();

 private:
  const SimulatedInternet* world_;
};

class BlacklistService {
 public:
  explicit BlacklistService(const SimulatedInternet& world) : world_{&world} {}

  [[nodiscard]] bool listed(const dns::DomainName& domain, BlacklistFeed feed) const;
  [[nodiscard]] std::uint8_t feeds(const dns::DomainName& domain) const;

 private:
  const SimulatedInternet* world_;
};

/// Search-engine presence checks used by Table 11 ("Web link" / "SNS").
class SearchEngine {
 public:
  explicit SearchEngine(const SimulatedInternet& world) : world_{&world} {}

  [[nodiscard]] bool has_web_link(const dns::DomainName& domain) const;
  [[nodiscard]] bool has_sns_link(const dns::DomainName& domain) const;

 private:
  const SimulatedInternet* world_;
};

}  // namespace sham::internet
