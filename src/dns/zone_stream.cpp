#include "dns/zone_stream.hpp"

#include <array>
#include <charconv>
#include <limits>

namespace sham::dns {

namespace {

/// Whitespace as isspace() reads it in the C locale.
bool is_space(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' || c == '\r';
}

/// A record line reads at most six tokens (owner, TTL, class, type and two
/// rdata fields); any beyond kMaxTokens are never looked at.
constexpr std::size_t kMaxTokens = 8;
using Tokens = std::array<std::string_view, kMaxTokens>;

/// Split `line` on runs of whitespace into `tokens`, stopping once the
/// array is full. Returns the token count.
std::size_t tokenize(std::string_view line, Tokens& tokens) {
  std::size_t count = 0;
  std::size_t i = 0;
  while (count < kMaxTokens) {
    while (i < line.size() && is_space(line[i])) ++i;
    if (i == line.size()) break;
    const std::size_t start = i;
    while (i < line.size() && !is_space(line[i])) ++i;
    tokens[count++] = line.substr(start, i - start);
  }
  return count;
}

void fold_ascii(std::string& text) {
  for (auto& c : text) {
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
  }
}

/// Parse a non-negative decimal token, rejecting values above `max` with
/// a diagnostic naming `what` — registry feeds with corrupted TTL or
/// priority columns must fail loudly, not wrap modulo 2^32 / 2^16.
std::uint64_t parse_bounded(std::string_view token, std::uint64_t max,
                            const char* what, std::size_t line_no) {
  std::uint64_t value = 0;
  const auto* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, value);
  if (ec != std::errc{} || ptr != end) {
    throw ZoneParseError{line_no, std::string{"bad "} + what + " value: '" +
                                      std::string{token} + "'"};
  }
  if (value > max) {
    throw ZoneParseError{line_no, std::string{what} + " out of range: " +
                                      std::string{token} + " (max " +
                                      std::to_string(max) + ")"};
  }
  return value;
}

}  // namespace

ZoneStreamReader::ZoneStreamReader(Sink sink) : sink_{std::move(sink)} {}

// Resolve an owner/target token against $ORIGIN: "@" means the origin,
// names without a trailing dot are origin-relative, names with one are
// absolute. "$ORIGIN ." (the DNS root) makes relative names absolute
// as-is; the root itself ("@" under it, or a bare ".") is not a
// registrable name and is rejected with a diagnostic instead of being
// collapsed to an empty string. So is a name with an empty label
// ("a..b", ".a", or "a.." — one trailing dot marks the name absolute,
// a second would be an empty last label). The result views the token,
// the origin, or joined_; its case is left as written.
std::string_view ZoneStreamReader::resolve_name(std::string_view token) {
  if (token == "@") {
    if (!origin_seen_) throw ZoneParseError{line_no_, "'@' without $ORIGIN"};
    if (origin_.empty()) {
      throw ZoneParseError{line_no_, "'@' under '$ORIGIN .' names the DNS root"};
    }
    return origin_;
  }
  if (token == ".") {
    throw ZoneParseError{line_no_, "the DNS root '.' is not a valid name here"};
  }
  const bool absolute = token.back() == '.';
  const auto name = absolute ? token.substr(0, token.size() - 1) : token;
  if (name.front() == '.' || name.back() == '.' ||
      name.find("..") != std::string_view::npos) {
    throw ZoneParseError{line_no_, "empty label in name '" + std::string{token} + "'"};
  }
  if (absolute || !origin_seen_ || origin_.empty()) return name;
  joined_.assign(name);
  joined_ += '.';
  joined_ += origin_;
  return joined_;
}

void ZoneStreamReader::process_line(std::string_view raw_line) {
  ++line_no_;
  const std::size_t line_no = line_no_;

  // CRLF: the terminator was consumed by feed(); a trailing CR belongs to
  // the line ending, not the last token.
  auto line = raw_line;
  if (!line.empty() && line.back() == '\r') line.remove_suffix(1);

  // Strip comments (zone files quote TXT data; registry zones we model
  // don't contain quoted semicolons, so a plain scan suffices).
  if (const auto semi = line.find(';'); semi != std::string_view::npos) {
    line = line.substr(0, semi);
  }
  const bool owner_continuation = !line.empty() && (line[0] == ' ' || line[0] == '\t');
  Tokens tokens;
  const std::size_t count = tokenize(line, tokens);
  if (count == 0) return;

  if (tokens[0] == "$ORIGIN") {
    if (count != 2) throw ZoneParseError{line_no, "$ORIGIN needs a name"};
    if (tokens[1] == ".") {
      // The absolute root: relative names below are already fully
      // qualified. Tracked as the empty origin.
      origin_.clear();
      origin_seen_ = true;
      return;
    }
    const auto parsed = DomainName::parse(tokens[1]);
    if (!parsed) throw ZoneParseError{line_no, "bad $ORIGIN name"};
    origin_ = parsed->str();
    origin_seen_ = true;
    return;
  }
  if (tokens[0] == "$TTL") {
    if (count != 2) throw ZoneParseError{line_no, "$TTL needs a value"};
    default_ttl_ = static_cast<std::uint32_t>(parse_bounded(
        tokens[1], std::numeric_limits<std::uint32_t>::max(), "$TTL", line_no));
    return;
  }

  // A continuation line keeps record_.owner, the previous owner.
  std::size_t i = 0;
  std::string_view owner;
  if (owner_continuation) {
    if (!has_owner_) throw ZoneParseError{line_no, "record without owner"};
  } else {
    owner = resolve_name(tokens[i++]);
  }
  if (i >= count) throw ZoneParseError{line_no, "missing record type"};
  if (!owner_continuation) {
    has_owner_ = record_.owner.assign(owner);
    if (!has_owner_) throw ZoneParseError{line_no, "bad owner name: " + std::string{owner}};
  }
  record_.ttl = default_ttl_;
  record_.target.clear();
  record_.address = {};
  record_.priority = 0;

  // Optional TTL and/or class ("IN") in either order before the type.
  for (int guard = 0; guard < 2 && i < count; ++guard) {
    const auto token = tokens[i];
    if (token == "IN") {
      ++i;
      continue;
    }
    if (token[0] >= '0' && token[0] <= '9' && !parse_record_type(token)) {
      record_.ttl = static_cast<std::uint32_t>(parse_bounded(
          token, std::numeric_limits<std::uint32_t>::max(), "TTL", line_no));
      ++i;
      continue;
    }
    break;
  }

  if (i >= count) throw ZoneParseError{line_no, "missing record type"};
  const auto type = parse_record_type(tokens[i]);
  if (!type) throw ZoneParseError{line_no, "unknown record type: " + std::string{tokens[i]}};
  record_.type = *type;
  ++i;

  switch (record_.type) {
    case RecordType::kA: {
      if (i >= count) throw ZoneParseError{line_no, "A record needs an address"};
      const auto addr = Ipv4::parse(tokens[i]);
      if (!addr) throw ZoneParseError{line_no, "bad IPv4 address"};
      record_.address = *addr;
      break;
    }
    case RecordType::kMx: {
      if (i + 1 >= count) throw ZoneParseError{line_no, "MX needs priority + host"};
      record_.priority = static_cast<std::uint16_t>(parse_bounded(
          tokens[i], std::numeric_limits<std::uint16_t>::max(), "MX priority",
          line_no));
      record_.target.assign(resolve_name(tokens[i + 1]));
      fold_ascii(record_.target);
      break;
    }
    case RecordType::kNs:
    case RecordType::kCname: {
      if (i >= count) throw ZoneParseError{line_no, "record needs a target"};
      record_.target.assign(resolve_name(tokens[i]));
      fold_ascii(record_.target);
      break;
    }
    case RecordType::kAaaa:
    case RecordType::kTxt: {
      if (i >= count) throw ZoneParseError{line_no, "record needs rdata"};
      record_.target.assign(tokens[i]);
      break;
    }
  }
  ++records_;
  sink_(record_);
}

void ZoneStreamReader::feed(std::string_view chunk) {
  if (finished_) {
    throw std::logic_error{"ZoneStreamReader: feed() after finish()"};
  }
  while (!chunk.empty()) {
    const auto newline = chunk.find('\n');
    if (newline == std::string_view::npos) {
      pending_.append(chunk);
      return;
    }
    if (pending_.empty()) {
      // Complete line lives entirely inside this chunk — parse the view
      // in place, no copy.
      process_line(chunk.substr(0, newline));
    } else {
      pending_.append(chunk.substr(0, newline));
      process_line(pending_);
      pending_.clear();
    }
    chunk.remove_prefix(newline + 1);
  }
}

std::size_t ZoneStreamReader::finish() {
  if (finished_) {
    throw std::logic_error{"ZoneStreamReader: finish() called twice"};
  }
  finished_ = true;
  if (!pending_.empty()) {
    process_line(pending_);
    pending_.clear();
  }
  return records_;
}

}  // namespace sham::dns
