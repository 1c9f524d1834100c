// The naive master-file line parser, kept as the test oracle for
// dns::ZoneStreamReader: every line is split into a vector of tokens
// (util::split_ws), names are lowercased into fresh strings, and domain
// names and IPv4 addresses are checked label by label through util::split.
// It reads the whole text at once and shares no parsing code with the
// reader beyond the record types and ZoneParseError, so the two can be
// compared mutant by mutant.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>

#include "dns/records.hpp"
#include "dns/zone_file.hpp"
#include "util/strings.hpp"

namespace sham::test {

class ZoneOracle {
 public:
  using Sink = std::function<void(const dns::ResourceRecord&)>;

  /// Parse `text` (LF or CRLF lines, the last one may be unterminated),
  /// calling `sink` per record; throws dns::ZoneParseError like the reader.
  static void parse(std::string_view text, const Sink& sink, std::string* origin = nullptr,
                    std::uint32_t* default_ttl = nullptr) {
    ZoneOracle oracle{sink};
    while (!text.empty()) {
      const auto newline = text.find('\n');
      oracle.line(text.substr(0, newline));
      if (newline == std::string_view::npos) break;
      text.remove_prefix(newline + 1);
    }
    if (origin != nullptr) *origin = oracle.origin_;
    if (default_ttl != nullptr) *default_ttl = oracle.default_ttl_;
  }

 private:
  explicit ZoneOracle(const Sink& sink) : sink_{&sink} {}

  /// DomainName::parse, the slow way: a lowered copy, split on '.'.
  static bool valid_name(std::string_view text) {
    if (!text.empty() && text.back() == '.') text.remove_suffix(1);
    if (text.empty() || text.size() > 253) return false;
    const std::string lowered = util::to_lower_ascii(text);
    for (const auto label : util::split(lowered, '.')) {
      if (label.empty() || label.size() > 63) return false;
      for (const char c : label) {
        const bool ok = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                        c == '-' || c == '_';
        if (!ok) return false;
      }
      if (label.front() == '-' || label.back() == '-') return false;
    }
    return true;
  }

  static bool parse_ipv4(std::string_view text, std::uint32_t& value) {
    const auto parts = util::split(text, '.');
    if (parts.size() != 4) return false;
    value = 0;
    for (const auto part : parts) {
      if (part.empty() || part.size() > 3) return false;
      std::uint32_t octet = 0;
      for (const char c : part) {
        if (c < '0' || c > '9') return false;
        octet = octet * 10 + static_cast<std::uint32_t>(c - '0');
      }
      if (octet > 255) return false;
      value = (value << 8) | octet;
    }
    return true;
  }

  std::uint64_t bounded(std::string_view token, std::uint64_t max) const {
    std::uint64_t value = 0;
    try {
      value = util::parse_u64(token);
    } catch (const std::invalid_argument&) {
      throw dns::ZoneParseError{line_no_, "bad number"};
    }
    if (value > max) throw dns::ZoneParseError{line_no_, "out of range"};
    return value;
  }

  std::string resolve(std::string_view token) const {
    if (token == "@") {
      if (!origin_seen_ || origin_.empty()) throw dns::ZoneParseError{line_no_, "bad '@'"};
      return origin_;
    }
    if (token == ".") throw dns::ZoneParseError{line_no_, "root"};
    std::string name{token};
    const bool absolute = name.back() == '.';
    if (absolute) name.pop_back();
    for (const auto label : util::split(name, '.')) {
      if (label.empty()) throw dns::ZoneParseError{line_no_, "empty label"};
    }
    if (!absolute && origin_seen_ && !origin_.empty()) name += "." + origin_;
    return util::to_lower_ascii(name);
  }

  void line(std::string_view line) {
    ++line_no_;
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    if (const auto semi = line.find(';'); semi != std::string_view::npos) {
      line = line.substr(0, semi);
    }
    const bool continuation = !line.empty() && (line[0] == ' ' || line[0] == '\t');
    const auto tokens = util::split_ws(line);
    if (tokens.empty()) return;

    if (tokens[0] == "$ORIGIN") {
      if (tokens.size() != 2) throw dns::ZoneParseError{line_no_, "$ORIGIN"};
      if (tokens[1] == ".") {
        origin_.clear();
      } else {
        if (!valid_name(tokens[1])) throw dns::ZoneParseError{line_no_, "bad $ORIGIN"};
        std::string name{tokens[1]};
        if (name.back() == '.') name.pop_back();
        origin_ = util::to_lower_ascii(name);
      }
      origin_seen_ = true;
      return;
    }
    if (tokens[0] == "$TTL") {
      if (tokens.size() != 2) throw dns::ZoneParseError{line_no_, "$TTL"};
      default_ttl_ = static_cast<std::uint32_t>(
          bounded(tokens[1], std::numeric_limits<std::uint32_t>::max()));
      return;
    }

    std::size_t i = 0;
    if (continuation) {
      if (last_owner_.empty()) throw dns::ZoneParseError{line_no_, "no owner"};
    } else {
      last_owner_ = resolve(tokens[i++]);
    }
    if (i >= tokens.size()) throw dns::ZoneParseError{line_no_, "missing type"};
    if (!valid_name(last_owner_)) throw dns::ZoneParseError{line_no_, "bad owner"};

    dns::ResourceRecord record;
    record.owner = dns::DomainName::parse_or_throw(last_owner_);
    record.ttl = default_ttl_;
    for (int guard = 0; guard < 2 && i < tokens.size(); ++guard) {
      if (tokens[i] == "IN") {
        ++i;
        continue;
      }
      if (tokens[i][0] >= '0' && tokens[i][0] <= '9' && !dns::parse_record_type(tokens[i])) {
        record.ttl = static_cast<std::uint32_t>(
            bounded(tokens[i], std::numeric_limits<std::uint32_t>::max()));
        ++i;
        continue;
      }
      break;
    }
    if (i >= tokens.size()) throw dns::ZoneParseError{line_no_, "missing type"};
    const auto type = dns::parse_record_type(tokens[i++]);
    if (!type) throw dns::ZoneParseError{line_no_, "unknown type"};
    record.type = *type;
    switch (record.type) {
      case dns::RecordType::kA:
        if (i >= tokens.size() || !parse_ipv4(tokens[i], record.address.value)) {
          throw dns::ZoneParseError{line_no_, "bad A"};
        }
        break;
      case dns::RecordType::kMx:
        if (i + 1 >= tokens.size()) throw dns::ZoneParseError{line_no_, "bad MX"};
        record.priority = static_cast<std::uint16_t>(
            bounded(tokens[i], std::numeric_limits<std::uint16_t>::max()));
        record.target = resolve(tokens[i + 1]);
        break;
      case dns::RecordType::kNs:
      case dns::RecordType::kCname:
        if (i >= tokens.size()) throw dns::ZoneParseError{line_no_, "no target"};
        record.target = resolve(tokens[i]);
        break;
      case dns::RecordType::kAaaa:
      case dns::RecordType::kTxt:
        if (i >= tokens.size()) throw dns::ZoneParseError{line_no_, "no rdata"};
        record.target = std::string{tokens[i]};
        break;
    }
    (*sink_)(record);
  }

  const Sink* sink_;
  std::string origin_;
  bool origin_seen_ = false;
  std::uint32_t default_ttl_ = 86400;
  std::string last_owner_;
  std::size_t line_no_ = 0;
};

}  // namespace sham::test
