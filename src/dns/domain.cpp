#include "dns/domain.hpp"

#include <array>
#include <stdexcept>

#include "idna/idna.hpp"
#include "util/strings.hpp"

namespace sham::dns {

namespace {

/// One flat byte-class table: each byte allowed in a name maps to its
/// lowercase form (letters, digits, '-', '_' and the '.' separator), every
/// other byte to 0.
constexpr std::array<char, 256> kNameBytes = [] {
  std::array<char, 256> table{};
  for (char c = 'a'; c <= 'z'; ++c) table[static_cast<unsigned char>(c)] = c;
  for (char c = 'A'; c <= 'Z'; ++c) {
    table[static_cast<unsigned char>(c)] = static_cast<char>(c - 'A' + 'a');
  }
  for (char c = '0'; c <= '9'; ++c) table[static_cast<unsigned char>(c)] = c;
  table['-'] = '-';
  table['_'] = '_';
  table['.'] = '.';
  return table;
}();

/// Label [begin, end) of a lowered name: 1-63 octets, no hyphen at
/// either end.
bool valid_label(const std::string& name, std::size_t begin, std::size_t end) {
  const std::size_t size = end - begin;
  return size >= 1 && size <= 63 && name[begin] != '-' && name[end - 1] != '-';
}

}  // namespace

bool DomainName::assign(std::string_view text) {
  if (!text.empty() && text.back() == '.') text.remove_suffix(1);  // FQDN dot
  if (text.empty() || text.size() > 253) {
    name_.clear();
    return false;
  }
  // Shrinking or equal-size resize keeps the buffer, so a view of this
  // name's own characters stays valid while it is read.
  name_.resize(text.size());
  std::size_t label_begin = 0;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = kNameBytes[static_cast<unsigned char>(text[i])];
    name_[i] = c;
    if (c == 0 || (c == '.' && !valid_label(name_, label_begin, i))) {
      name_.clear();
      return false;
    }
    if (c == '.') label_begin = i + 1;
  }
  if (!valid_label(name_, label_begin, name_.size())) {
    name_.clear();
    return false;
  }
  return true;
}

std::optional<DomainName> DomainName::parse(std::string_view text) {
  DomainName name;
  if (!name.assign(text)) return std::nullopt;
  return name;
}

DomainName DomainName::parse_or_throw(std::string_view text) {
  auto d = parse(text);
  if (!d) throw std::invalid_argument{"DomainName: invalid name: '" + std::string{text} + "'"};
  return *std::move(d);
}

std::vector<std::string_view> DomainName::labels() const {
  return util::split(name_, '.');
}

std::string_view DomainName::tld() const {
  const auto dot = name_.rfind('.');
  if (dot == std::string::npos) return {};
  return std::string_view{name_}.substr(dot + 1);
}

std::string_view DomainName::sld() const {
  const auto parts = labels();
  if (parts.size() == 1) return parts[0];
  return parts[parts.size() - 2];
}

std::string_view DomainName::without_tld() const {
  const auto dot = name_.rfind('.');
  if (dot == std::string::npos) return std::string_view{name_};
  return std::string_view{name_}.substr(0, dot);
}

bool DomainName::is_idn() const { return idna::is_idn(name_); }

}  // namespace sham::dns
