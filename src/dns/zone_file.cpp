#include "dns/zone_file.hpp"

#include <algorithm>
#include <charconv>
#include <iterator>
#include <fstream>

#include "dns/zone_stream.hpp"

namespace sham::dns {

// All three entry points are thin shells over the incremental
// ZoneStreamReader core (zone_stream.hpp) — one parser, three feeding
// disciplines. parse_zone additionally materializes the record list and
// carries the directive state (the origin/TTL in effect at end of file)
// out of the reader.

void parse_zone_stream(std::string_view text,
                       const std::function<void(const ResourceRecord&)>& sink) {
  ZoneStreamReader reader{sink};
  reader.feed(text);
  reader.finish();
}

Zone parse_zone(std::string_view text) {
  Zone zone;
  ZoneStreamReader reader{
      [&](const ResourceRecord& r) { zone.records.push_back(r); }};
  reader.feed(text);
  reader.finish();
  // The origin/TTL in effect at end of file — a mid-file $ORIGIN change
  // must be reflected, not latched at the first directive (records are
  // stored fully qualified, so only the final state is meaningful).
  // "$ORIGIN ." (the root) leaves the origin empty.
  if (!reader.origin().empty()) {
    zone.origin = DomainName::parse_or_throw(reader.origin());
  }
  zone.default_ttl = reader.default_ttl();
  return zone;
}

std::size_t parse_zone_file(const std::string& path,
                            const std::function<void(const ResourceRecord&)>& sink) {
  std::ifstream in{path, std::ios::binary};
  if (!in) throw std::runtime_error{"parse_zone_file: cannot open " + path};
  ZoneStreamReader reader{sink};
  char buffer[64 * 1024];
  while (in.read(buffer, sizeof buffer) || in.gcount() > 0) {
    reader.feed(std::string_view{buffer, static_cast<std::size_t>(in.gcount())});
  }
  return reader.finish();
}

namespace {

void append_decimal(std::string& out, std::uint32_t value) {
  char digits[10];
  const auto end = std::to_chars(std::begin(digits), std::end(digits), value).ptr;
  out.append(digits, end);
}

}  // namespace

void append_record(std::string& out, const RecordView& r) {
  out += r.owner;
  out += ". ";
  append_decimal(out, r.ttl);
  out += " IN ";
  out += record_type_name(r.type);
  out += ' ';
  switch (r.type) {
    case RecordType::kA:
      for (int shift = 24; shift >= 0; shift -= 8) {
        append_decimal(out, (r.address.value >> shift) & 0xFF);
        if (shift != 0) out += '.';
      }
      break;
    case RecordType::kMx:
      append_decimal(out, r.priority);
      out += ' ';
      out += r.target;
      out += '.';  // absolute target
      break;
    case RecordType::kNs:
    case RecordType::kCname:
      out += r.target;
      out += '.';  // absolute target
      break;
    case RecordType::kAaaa:
    case RecordType::kTxt:
      out += r.target;
      break;
  }
  out += '\n';
}

std::string serialize_zone(const Zone& zone) {
  std::string out;
  if (!zone.origin.str().empty()) {
    out += "$ORIGIN " + zone.origin.str() + ".\n";
  }
  out += "$TTL " + std::to_string(zone.default_ttl) + "\n";
  for (const auto& r : zone.records) append_record(out, r.view());
  return out;
}

std::vector<DomainName> Zone::owners() const {
  std::vector<DomainName> out;
  out.reserve(records.size());
  for (const auto& r : records) out.push_back(r.owner);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace sham::dns
