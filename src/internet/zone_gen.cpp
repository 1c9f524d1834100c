#include "internet/zone_gen.hpp"

#include <algorithm>
#include <stdexcept>

#include "dns/zone_file.hpp"

namespace sham::internet {

ZoneTextStream::ZoneTextStream(const homoglyph::HomoglyphDb& db,
                               const ScenarioConfig& config, ZoneGenOptions options)
    : core_{build_scenario_core(db, config)}, options_{std::move(options)} {
  if (options_.which < 0 || options_.which > 2) {
    throw std::invalid_argument{"ZoneTextStream: which must be 0, 1, or 2"};
  }
  // The header is produced by the same serializer the materialized path
  // uses, over a record-less Zone — byte identity by construction.
  dns::Zone head;
  head.origin = dns::DomainName::parse_or_throw(options_.tld);
  head.default_ttl = 172800;  // matches scenario_to_zone
  header_ = dns::serialize_zone(head);
}

void ZoneTextStream::append_domain(std::size_t index, std::string& out) {
  const std::size_t n_refs = core_.references.size();
  const std::size_t n_attacks = core_.attacks.size();
  bool benign = false;
  if (index < n_refs) {
    com_text_.assign(core_.references[index]);
  } else if (index < n_refs + n_attacks) {
    com_text_.assign(core_.attacks[index - n_refs].ace);
  } else if (index < core_.head_count()) {
    com_text_.assign(benign_idn_at(core_, index - n_refs - n_attacks).ace);
    benign = true;
  } else {
    com_text_.clear();
    append_filler_label(core_, index, com_text_);
  }
  const std::size_t sld_size = com_text_.size();
  com_text_ += ".com";
  if (!com_name_.assign(com_text_)) return;  // mirrors scenario_to_zone's skip

  const HostState* host = nullptr;
  HostState benign_state;
  if (core_.config.build_world) {
    host = core_.head_world.lookup(std::string_view{com_name_.str()});
    if (host == nullptr && benign) {
      // Keep-first: an ACE colliding with an attack (or an earlier
      // duplicate benign sample, same pure-function state) resolved to
      // the head-world entry above; fresh benign names get their
      // ACE-keyed state here.
      benign_state =
          benign_host_for(core_, std::string_view{com_text_}.substr(0, sld_size));
      host = &benign_state;
    }
  }

  relabel_owner(com_name_, options_.tld, owner_text_, owner_);
  const auto records = delegation_records(com_name_.str(), host, owner_.str(), mx_target_);
  for (const auto& record : records.view()) dns::append_record(out, record);
  stats_.records += records.count;
  ++stats_.domains_emitted;
}

bool ZoneTextStream::next_chunk(std::string& out) {
  out.clear();
  const std::size_t target = std::max<std::size_t>(1, options_.chunk_bytes);
  // One domain's records overshoot the target by well under this.
  out.reserve(target + 4096);
  const std::size_t start_cursor = cursor_;
  const bool had_header = !header_.empty();
  if (had_header) {
    out += header_;
    header_.clear();
  }
  const std::size_t population = core_.population();
  while (out.size() < target && cursor_ < population) {
    const std::size_t index = cursor_++;
    ++stats_.domains_considered;
    if (options_.which != 2) {
      const auto m = membership_at(core_, index);
      if (!(options_.which == 0 ? m.zone : m.domainlists)) continue;
    }
    append_domain(index, out);
  }
  stats_.bytes += out.size();
  // Progress (indices consumed or the header), not bytes, signals "more":
  // a tail of non-members or record-less delegations can legally produce
  // an empty final chunk.
  return had_header || cursor_ != start_cursor;
}

std::string generate_zone_text(const homoglyph::HomoglyphDb& db,
                               const ScenarioConfig& config,
                               const ZoneGenOptions& options) {
  ZoneTextStream stream{db, config, options};
  std::string text;
  std::string chunk;
  while (stream.next_chunk(chunk)) text += chunk;
  return text;
}

}  // namespace sham::internet
