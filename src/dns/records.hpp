// DNS resource records and record sets — the subset a registry zone file
// and this paper's measurement pipeline use (NS for delegation, A for
// liveness, MX for mail capability; Section 6.1-6.2).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "dns/domain.hpp"

namespace sham::dns {

enum class RecordType : std::uint8_t { kNs, kA, kAaaa, kMx, kCname, kTxt };

[[nodiscard]] std::string_view record_type_name(RecordType type) noexcept;
[[nodiscard]] std::optional<RecordType> parse_record_type(std::string_view text) noexcept;

/// IPv4 address, host byte order.
struct Ipv4 {
  std::uint32_t value = 0;

  static std::optional<Ipv4> parse(std::string_view text);
  [[nodiscard]] std::string str() const;
  [[nodiscard]] bool operator==(const Ipv4&) const = default;
};

/// A record's fields as views: what the master-file formatter
/// (append_record in zone_file.hpp) reads. Writers that hold the fields in
/// their own buffers build one directly, without a ResourceRecord.
struct RecordView {
  std::string_view owner;  // absolute, without the trailing dot
  RecordType type = RecordType::kA;
  std::uint32_t ttl = 86400;
  std::string_view target;     // NS/CNAME/MX host, TXT payload
  Ipv4 address;                // A
  std::uint16_t priority = 0;  // MX
};

struct ResourceRecord {
  DomainName owner;
  RecordType type = RecordType::kA;
  std::uint32_t ttl = 86400;
  // rdata (union-by-convention; the fields used depend on `type`)
  std::string target;     // NS/CNAME/MX host, TXT payload
  Ipv4 address;           // A
  std::uint16_t priority = 0;  // MX

  [[nodiscard]] std::string rdata_str() const;
  [[nodiscard]] RecordView view() const noexcept {
    return {owner.str(), type, ttl, target, address, priority};
  }

  [[nodiscard]] bool operator==(const ResourceRecord&) const = default;
};

}  // namespace sham::dns
