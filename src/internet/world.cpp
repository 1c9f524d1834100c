#include "internet/world.hpp"

#include <algorithm>
#include <stdexcept>

#include "internet/webpage.hpp"

namespace sham::internet {

std::string_view website_kind_name(WebsiteKind kind) noexcept {
  switch (kind) {
    case WebsiteKind::kParking: return "Domain parking";
    case WebsiteKind::kForSale: return "For sale";
    case WebsiteKind::kRedirect: return "Redirect";
    case WebsiteKind::kNormal: return "Normal";
    case WebsiteKind::kEmpty: return "Empty";
    case WebsiteKind::kError: return "Error";
  }
  return "??";
}

std::string_view redirect_kind_name(RedirectKind kind) noexcept {
  switch (kind) {
    case RedirectKind::kBrandProtection: return "Brand protection";
    case RedirectKind::kLegitimate: return "Legitimate website";
    case RedirectKind::kMalicious: return "Malicious website";
  }
  return "??";
}

std::string_view blacklist_feed_name(BlacklistFeed feed) noexcept {
  switch (feed) {
    case BlacklistFeed::kHpHosts: return "hpHosts";
    case BlacklistFeed::kGsb: return "GSB";
    case BlacklistFeed::kSymantec: return "Symantec";
  }
  return "??";
}

void SimulatedInternet::add_domain(const dns::DomainName& domain, HostState state) {
  hosts_[domain] = std::move(state);
}

bool SimulatedInternet::is_registered(const dns::DomainName& domain) const {
  return hosts_.contains(domain);
}

const HostState* SimulatedInternet::lookup(const dns::DomainName& domain) const {
  return lookup(std::string_view{domain.str()});
}

const HostState* SimulatedInternet::lookup(std::string_view name) const {
  const auto it = hosts_.find(name);
  return it == hosts_.end() ? nullptr : &it->second;
}

HostState& SimulatedInternet::state_for_update(const dns::DomainName& domain) {
  const auto it = hosts_.find(domain);
  if (it == hosts_.end()) {
    throw std::invalid_argument{"SimulatedInternet: unknown domain " + domain.str()};
  }
  return it->second;
}

std::vector<dns::DomainName> SimulatedInternet::domains() const {
  std::vector<dns::DomainName> out;
  out.reserve(hosts_.size());
  for (const auto& [d, s] : hosts_) out.push_back(d);
  std::sort(out.begin(), out.end());
  return out;
}

PortScanResult PortScanner::scan(const dns::DomainName& domain) const {
  const auto* host = world_->lookup(domain);
  if (host == nullptr || !host->has_ns || !host->has_a) return {};
  return {host->port80_open, host->port443_open};
}

std::uint64_t PassiveDns::resolutions(const dns::DomainName& domain) const {
  const auto* host = world_->lookup(domain);
  return host == nullptr ? 0 : host->dns_resolutions;
}

const std::vector<std::string>& WebClassifier::parking_nameservers() {
  // 17 parking-operator nameservers (Section 6.2; list shape follows
  // Vissers et al. / DomainChroma).
  static const std::vector<std::string> list{
      "ns1.sedoparking.net",    "ns2.sedoparking.net",
      "ns1.parkingcrew.net",    "ns2.parkingcrew.net",
      "ns1.bodis.net",          "ns2.bodis.net",
      "ns1.above.net",          "ns2.above.net",
      "ns1.parklogic.net",      "ns2.parklogic.net",
      "ns1.voodoo-parking.net", "ns1.domainapps.net",
      "ns1.cashparking.net",    "ns2.cashparking.net",
      "ns1.smartname.net",      "ns1.rookmedia.net",
      "ns1.dnparking.net",
  };
  return list;
}

ClassifiedSite WebClassifier::classify(const dns::DomainName& domain) const {
  const auto* host = world_->lookup(domain);
  if (host == nullptr) return {};
  const WebServer server{*world_};
  return classify_from_evidence(host->ns_host, server.fetch(domain, false),
                                server.fetch(domain, true));
}

bool BlacklistService::listed(const dns::DomainName& domain, BlacklistFeed feed) const {
  const auto* host = world_->lookup(domain);
  return host != nullptr &&
         (host->blacklists & static_cast<std::uint8_t>(feed)) != 0;
}

std::uint8_t BlacklistService::feeds(const dns::DomainName& domain) const {
  const auto* host = world_->lookup(domain);
  return host == nullptr ? 0 : host->blacklists;
}

bool SearchEngine::has_web_link(const dns::DomainName& domain) const {
  const auto* host = world_->lookup(domain);
  return host != nullptr && host->web_link;
}

bool SearchEngine::has_sns_link(const dns::DomainName& domain) const {
  const auto* host = world_->lookup(domain);
  return host != nullptr && host->sns_link;
}

}  // namespace sham::internet
