#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <string_view>
#include <vector>

#include "dns/domain.hpp"
#include "dns/langid.hpp"
#include "dns/records.hpp"
#include "dns/zone_file.hpp"
#include "dns/zone_stream.hpp"
#include "util/rng.hpp"
#include "zone_oracle.hpp"

namespace sham::dns {
namespace {

TEST(DomainName, ParseAndNormalize) {
  const auto d = DomainName::parse("WWW.Example.COM");
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->str(), "www.example.com");
}

TEST(DomainName, TrailingDotAccepted) {
  const auto d = DomainName::parse("example.com.");
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->str(), "example.com");
}

TEST(DomainName, RejectsInvalid) {
  EXPECT_FALSE(DomainName::parse("").has_value());
  EXPECT_FALSE(DomainName::parse(".").has_value());
  EXPECT_FALSE(DomainName::parse("a..b").has_value());
  EXPECT_FALSE(DomainName::parse("-leading.com").has_value());
  EXPECT_FALSE(DomainName::parse("trailing-.com").has_value());
  EXPECT_FALSE(DomainName::parse("has space.com").has_value());
  EXPECT_FALSE(DomainName::parse("exämple.com").has_value());  // raw non-ASCII
  EXPECT_FALSE(DomainName::parse(std::string(64, 'a') + ".com").has_value());
  EXPECT_FALSE(DomainName::parse(std::string(300, 'a')).has_value());
  EXPECT_THROW(DomainName::parse_or_throw("!bad!"), std::invalid_argument);
}

TEST(DomainName, Accessors) {
  const auto d = DomainName::parse_or_throw("www.google.com");
  EXPECT_EQ(d.tld(), "com");
  EXPECT_EQ(d.sld(), "google");
  EXPECT_EQ(d.without_tld(), "www.google");
  EXPECT_EQ(d.labels().size(), 3u);
  const auto single = DomainName::parse_or_throw("localhost");
  EXPECT_EQ(single.tld(), "");
  EXPECT_EQ(single.sld(), "localhost");
}

TEST(DomainName, IdnDetection) {
  EXPECT_TRUE(DomainName::parse_or_throw("xn--ggle-55da.com").is_idn());
  EXPECT_FALSE(DomainName::parse_or_throw("google.com").is_idn());
}

TEST(Ipv4, ParseAndFormat) {
  const auto a = Ipv4::parse("203.0.113.7");
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->str(), "203.0.113.7");
  EXPECT_EQ(a->value, 0xCB007107u);
  EXPECT_FALSE(Ipv4::parse("1.2.3").has_value());
  EXPECT_FALSE(Ipv4::parse("1.2.3.256").has_value());
  EXPECT_FALSE(Ipv4::parse("1.2.3.x").has_value());
  EXPECT_FALSE(Ipv4::parse("1.2.3.4.5").has_value());
}

TEST(Records, TypeNames) {
  EXPECT_EQ(record_type_name(RecordType::kNs), "NS");
  EXPECT_EQ(parse_record_type("MX"), RecordType::kMx);
  EXPECT_FALSE(parse_record_type("BOGUS").has_value());
}

TEST(ZoneFile, ParsesDirectivesAndRecords) {
  const auto zone = parse_zone(
      "$ORIGIN com.\n"
      "$TTL 3600\n"
      "google      IN NS ns1.google.com.\n"
      "google      IN A  142.250.1.1\n"
      "mailhost    IN MX 10 mx.mailhost.com.\n");
  EXPECT_EQ(zone.origin.str(), "com");
  EXPECT_EQ(zone.default_ttl, 3600u);
  ASSERT_EQ(zone.records.size(), 3u);
  EXPECT_EQ(zone.records[0].owner.str(), "google.com");
  EXPECT_EQ(zone.records[0].type, RecordType::kNs);
  EXPECT_EQ(zone.records[0].target, "ns1.google.com");
  EXPECT_EQ(zone.records[1].address.str(), "142.250.1.1");
  EXPECT_EQ(zone.records[2].priority, 10);
}

TEST(ZoneFile, RelativeAndAbsoluteNames) {
  const auto zone = parse_zone(
      "$ORIGIN com.\n"
      "relative IN NS ns.hoster.net.\n"
      "absolute.org. IN NS ns.other.net.\n"
      "@ IN NS ns.root.net.\n");
  EXPECT_EQ(zone.records[0].owner.str(), "relative.com");
  EXPECT_EQ(zone.records[1].owner.str(), "absolute.org");
  EXPECT_EQ(zone.records[2].owner.str(), "com");
}

TEST(ZoneFile, OwnerContinuation) {
  const auto zone = parse_zone(
      "$ORIGIN com.\n"
      "multi IN NS ns1.x.net.\n"
      "      IN NS ns2.x.net.\n");
  ASSERT_EQ(zone.records.size(), 2u);
  EXPECT_EQ(zone.records[1].owner.str(), "multi.com");
}

TEST(ZoneFile, CommentsAndBlankLines) {
  const auto zone = parse_zone(
      "; full comment\n"
      "$ORIGIN com.\n"
      "\n"
      "a IN A 1.2.3.4 ; trailing comment\n");
  EXPECT_EQ(zone.records.size(), 1u);
}

TEST(ZoneFile, PerRecordTtl) {
  const auto zone = parse_zone(
      "$ORIGIN com.\n"
      "$TTL 86400\n"
      "a 300 IN A 1.2.3.4\n"
      "b IN 600 A 1.2.3.4\n"
      "c IN A 1.2.3.4\n");
  EXPECT_EQ(zone.records[0].ttl, 300u);
  EXPECT_EQ(zone.records[1].ttl, 600u);
  EXPECT_EQ(zone.records[2].ttl, 86400u);
}

TEST(ZoneFile, ErrorsCarryLineNumbers) {
  try {
    static_cast<void>(
        parse_zone("$ORIGIN com.\nok IN A 1.2.3.4\nbad IN A not-an-ip\n"));
    FAIL() << "expected ZoneParseError";
  } catch (const ZoneParseError& e) {
    EXPECT_EQ(e.line(), 3u);
  }
}

TEST(ZoneFile, RejectsMalformed) {
  EXPECT_THROW(parse_zone("$ORIGIN\n"), ZoneParseError);
  EXPECT_THROW(parse_zone("$TTL abc\n"), ZoneParseError);
  EXPECT_THROW(parse_zone("name IN BOGUS x\n"), ZoneParseError);
  EXPECT_THROW(parse_zone("name IN NS\n"), ZoneParseError);
  EXPECT_THROW(parse_zone("name IN MX 10\n"), ZoneParseError);
  EXPECT_THROW(parse_zone("  IN A 1.2.3.4\n"), ZoneParseError);  // no owner yet
  // Empty labels, in owners and targets. One trailing dot marks a name
  // absolute; a second one is an empty last label.
  EXPECT_THROW(parse_zone("example.com.. 300 IN A 1.2.3.4\n"), ZoneParseError);
  EXPECT_THROW(parse_zone("$ORIGIN com.\nfoo IN NS ns1..bad..\n"), ZoneParseError);
  EXPECT_THROW(parse_zone("$ORIGIN com.\nfoo IN NS ns1.bad..\n"), ZoneParseError);
  EXPECT_THROW(parse_zone("$ORIGIN com.\nfoo IN CNAME .bad.\n"), ZoneParseError);
  EXPECT_THROW(parse_zone("$ORIGIN com.\nfoo IN MX 10 mx..foo.com.\n"), ZoneParseError);
  EXPECT_THROW(parse_zone("$ORIGIN com.\na..b IN A 1.2.3.4\n"), ZoneParseError);
  EXPECT_THROW(parse_zone("$ORIGIN com.\n.. IN A 1.2.3.4\n"), ZoneParseError);
  try {
    static_cast<void>(parse_zone("$ORIGIN com.\nok IN NS ns1.x.net.\nfoo IN NS ns1..bad..\n"));
    FAIL() << "expected ZoneParseError";
  } catch (const ZoneParseError& e) {
    EXPECT_EQ(e.line(), 3u);
    EXPECT_NE(std::string{e.what()}.find("empty label"), std::string::npos);
  }
  // The names themselves, written once, still parse.
  const auto zone = parse_zone("$ORIGIN com.\nfoo IN NS ns1.Bad. ; ok\nexample.com. IN A 1.2.3.4\n");
  ASSERT_EQ(zone.records.size(), 2u);
  EXPECT_EQ(zone.records[0].target, "ns1.bad");
  EXPECT_EQ(zone.records[1].owner.str(), "example.com");
}

TEST(ZoneFile, SerializeParseRoundtrip) {
  const auto zone = parse_zone(
      "$ORIGIN com.\n"
      "$TTL 7200\n"
      "google IN NS ns1.google.com.\n"
      "google IN A 142.250.1.1\n"
      "m IN MX 5 mx.m.com.\n");
  const auto text = serialize_zone(zone);
  const auto again = parse_zone(text);
  ASSERT_EQ(again.records.size(), zone.records.size());
  for (std::size_t i = 0; i < zone.records.size(); ++i) {
    EXPECT_EQ(again.records[i].owner, zone.records[i].owner);
    EXPECT_EQ(again.records[i].type, zone.records[i].type);
    EXPECT_EQ(again.records[i].rdata_str(), zone.records[i].rdata_str());
  }
}

TEST(ZoneFile, OwnersDeduplicated) {
  const auto zone = parse_zone(
      "$ORIGIN com.\n"
      "a IN NS ns1.x.net.\n"
      "a IN A 1.2.3.4\n"
      "b IN NS ns1.x.net.\n");
  const auto owners = zone.owners();
  ASSERT_EQ(owners.size(), 2u);
  EXPECT_EQ(owners[0].str(), "a.com");
}

TEST(ZoneFile, StreamingParser) {
  std::size_t count = 0;
  parse_zone_stream(
      "$ORIGIN com.\n"
      "a IN A 1.2.3.4\n"
      "b IN A 1.2.3.5\n",
      [&](const ResourceRecord&) { ++count; });
  EXPECT_EQ(count, 2u);
}

// --- Range validation (truncation regressions) ------------------------

TEST(ZoneFile, TtlOverflowRejected) {
  // 2^32 used to static_cast down to 0 silently; now it is a parse error.
  EXPECT_THROW(parse_zone("$TTL 4294967296\n"), ZoneParseError);
  EXPECT_EQ(parse_zone("$TTL 4294967295\n").default_ttl, 4294967295u);
  EXPECT_THROW(parse_zone("$ORIGIN com.\na 4294967296 IN A 1.2.3.4\n"),
               ZoneParseError);
  const auto zone = parse_zone("$ORIGIN com.\na 4294967295 IN A 1.2.3.4\n");
  EXPECT_EQ(zone.records[0].ttl, 4294967295u);
  try {
    static_cast<void>(
        parse_zone("$ORIGIN com.\nok IN A 1.2.3.4\n$TTL 99999999999\n"));
    FAIL() << "expected ZoneParseError";
  } catch (const ZoneParseError& e) {
    EXPECT_EQ(e.line(), 3u);
    EXPECT_NE(std::string{e.what()}.find("out of range"), std::string::npos);
  }
}

TEST(ZoneFile, MxPriorityOverflowRejected) {
  // 65536 used to wrap to priority 0 (best preference!) via static_cast.
  EXPECT_THROW(parse_zone("$ORIGIN com.\nm IN MX 65536 mx.m.com.\n"),
               ZoneParseError);
  const auto zone = parse_zone("$ORIGIN com.\nm IN MX 65535 mx.m.com.\n");
  EXPECT_EQ(zone.records[0].priority, 65535u);
}

// --- $ORIGIN semantics ------------------------------------------------

TEST(ZoneFile, MidFileOriginTracked) {
  const auto zone = parse_zone(
      "$ORIGIN com.\n"
      "a IN A 1.2.3.4\n"
      "$ORIGIN net.\n"
      "b IN A 1.2.3.5\n"
      "@ IN NS ns.b.net.\n");
  EXPECT_EQ(zone.records[0].owner.str(), "a.com");
  EXPECT_EQ(zone.records[1].owner.str(), "b.net");
  EXPECT_EQ(zone.records[2].owner.str(), "net");
  // Zone carries the origin in effect at end of file, not the first one.
  EXPECT_EQ(zone.origin.str(), "net");

  const auto again = parse_zone(serialize_zone(zone));
  ASSERT_EQ(again.records.size(), zone.records.size());
  for (std::size_t i = 0; i < zone.records.size(); ++i) {
    EXPECT_EQ(again.records[i], zone.records[i]) << "record " << i;
  }
}

TEST(ZoneFile, RootOriginSupported) {
  // "$ORIGIN ." means relative names are already fully qualified.
  const auto zone = parse_zone(
      "$ORIGIN .\n"
      "example.com IN A 1.2.3.4\n"
      "other.net. IN NS ns.other.net.\n");
  ASSERT_EQ(zone.records.size(), 2u);
  EXPECT_EQ(zone.records[0].owner.str(), "example.com");
  EXPECT_EQ(zone.records[1].owner.str(), "other.net");
  EXPECT_EQ(zone.origin.str(), "");  // root tracked as the empty origin

  // The root itself is not a registrable owner.
  EXPECT_THROW(parse_zone("$ORIGIN .\n@ IN A 1.2.3.4\n"), ZoneParseError);
  EXPECT_THROW(parse_zone("$ORIGIN .\n. IN A 1.2.3.4\n"), ZoneParseError);

  // Round trip: serialize omits the root $ORIGIN; absolute names survive.
  const auto again = parse_zone(serialize_zone(zone));
  ASSERT_EQ(again.records.size(), zone.records.size());
  for (std::size_t i = 0; i < zone.records.size(); ++i) {
    EXPECT_EQ(again.records[i], zone.records[i]) << "record " << i;
  }
}

// --- Incremental reader ------------------------------------------------

TEST(ZoneStream, BasicIncrementalUse) {
  std::vector<ResourceRecord> records;
  ZoneStreamReader reader{[&](const ResourceRecord& r) { records.push_back(r); }};
  reader.feed("$ORIGIN co");
  reader.feed("m.\n$TTL 360");
  reader.feed("0\na IN A 1.2.3.4\r\nb IN ");
  reader.feed("A 1.2.3.5");  // trailing line without newline
  EXPECT_EQ(reader.finish(), 2u);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].owner.str(), "a.com");
  EXPECT_EQ(records[1].owner.str(), "b.com");
  EXPECT_EQ(records[0].ttl, 3600u);
  EXPECT_EQ(reader.origin(), "com");
  EXPECT_TRUE(reader.origin_seen());
  EXPECT_EQ(reader.default_ttl(), 3600u);
  EXPECT_EQ(reader.lines(), 4u);
}

TEST(ZoneStream, LifecycleEnforced) {
  ZoneStreamReader reader{[](const ResourceRecord&) {}};
  reader.feed("$ORIGIN com.\n");
  reader.finish();
  EXPECT_THROW(reader.feed("a IN A 1.2.3.4\n"), std::logic_error);
  EXPECT_THROW(reader.finish(), std::logic_error);
}

TEST(ZoneStream, ErrorLineNumberSpansChunks) {
  ZoneStreamReader reader{[](const ResourceRecord&) {}};
  reader.feed("$ORIGIN com.\nok IN A 1.2.3.4\n");
  try {
    reader.feed("bad IN A not");
    reader.feed("-an-ip\n");
    FAIL() << "expected ZoneParseError";
  } catch (const ZoneParseError& e) {
    EXPECT_EQ(e.line(), 3u);  // absolute line number across feeds
  }
}

// Property: a stream cut into random chunks (1 byte up to the whole file)
// yields the exact record sequence of a one-shot parse. The input covers
// CRLF endings, comments, owner-continuation lines, mid-file directives,
// and a trailing unterminated line — everything that can straddle a
// chunk boundary.
class ZoneChunkProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ZoneChunkProperty, ChunkingInvariant) {
  const std::string text =
      "; registry feed header\r\n"
      "$ORIGIN com.\n"
      "$TTL 7200\r\n"
      "google IN NS ns1.google.com. ; delegations\r\n"
      "       IN NS ns2.google.com.\n"
      "xn--ggle-55da 300 IN A 142.250.1.1\r\n"
      "mail IN MX 10 mx.mail.com.\n"
      "$ORIGIN net.\r\n"
      "\r\n"
      "b IN A 1.2.3.5 ; comment\n"
      "  IN AAAA ::1\n"
      "@ IN NS ns.b.net.\r\n"
      "tail IN A 9.9.9.9";  // no trailing newline

  const auto expected = parse_zone(text);
  ASSERT_EQ(expected.records.size(), 8u);

  util::Rng rng{GetParam()};
  for (int round = 0; round < 64; ++round) {
    std::vector<ResourceRecord> records;
    ZoneStreamReader reader{
        [&](const ResourceRecord& r) { records.push_back(r); }};
    std::string_view rest = text;
    while (!rest.empty()) {
      const auto take =
          static_cast<std::size_t>(1 + rng.below(rest.size()));
      reader.feed(rest.substr(0, take));
      rest.remove_prefix(take);
    }
    reader.finish();

    ASSERT_EQ(records.size(), expected.records.size()) << "round " << round;
    for (std::size_t i = 0; i < records.size(); ++i) {
      EXPECT_EQ(records[i], expected.records[i])
          << "round " << round << " record " << i;
    }
    EXPECT_EQ(reader.origin(), expected.origin.str());
    EXPECT_EQ(reader.default_ttl(), expected.default_ttl);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ZoneChunkProperty,
                         ::testing::Values(1u, 77u, 515u, 8191u, 20260808u));

// --- Differential mutation loop -----------------------------------------
//
// The reader against the naive oracle (tests/zone_oracle.hpp) on mutants
// of a seeded zone: byte flips, inserted dots, spaces, ';' and CR, and
// truncations, each fed to the reader at random chunk boundaries. Every
// mutant must give the oracle's record sequence and final $ORIGIN/$TTL,
// or throw ZoneParseError on the oracle's line after the same records.

struct ParseOutcome {
  std::vector<ResourceRecord> records;
  std::size_t error_line = 0;  // 0 = parsed to the end
  std::string origin;
  std::uint32_t default_ttl = 0;
};

std::string random_zone(util::Rng& rng) {
  static constexpr std::string_view kNames[] = {
      "google", "xn--ggle-55da", "Mail", "a", "b-c", "x_y", "ns1.hoster.net.",
      "EXAMPLE.org.", "@", "sub.domain"};
  static constexpr std::string_view kTypes[] = {"NS", "A", "MX", "CNAME", "AAAA", "TXT"};
  const auto name = [&] { return std::string{kNames[rng.below(std::size(kNames))]}; };
  std::string text = "$ORIGIN com.\n$TTL 3600\n";
  const std::size_t lines = 20 + rng.below(30);
  for (std::size_t l = 0; l < lines; ++l) {
    const auto kind = rng.below(10);
    if (kind == 0) {
      text += rng.below(2) == 0 ? "$ORIGIN net." : "$TTL " + std::to_string(rng.below(100000));
    } else if (kind == 1) {
      text += rng.below(2) == 0 ? "; comment" : "";
    } else {
      text += kind == 2 ? std::string{"  "} : name() + (rng.below(2) == 0 ? " " : "\t");
      if (rng.below(3) == 0) text += std::to_string(rng.below(90000)) + " ";
      if (rng.below(2) == 0) text += "IN ";
      const auto type = kTypes[rng.below(std::size(kTypes))];
      text += type;
      text += ' ';
      if (type == "A") {
        text += std::to_string(rng.below(256)) + "." + std::to_string(rng.below(256)) +
                ".0." + std::to_string(rng.below(256));
      } else if (type == "MX") {
        text += std::to_string(rng.below(100)) + " " + name();
      } else if (type == "AAAA") {
        text += "2001:db8::1";
      } else if (type == "TXT") {
        text += "v=spf1";
      } else {
        text += name();
      }
      if (rng.below(4) == 0) text += " ; trailing";
    }
    text += rng.below(3) == 0 ? "\r\n" : "\n";
  }
  return text;
}

std::string mutate(std::string text, util::Rng& rng) {
  static constexpr char kInserts[] = {'.', ' ', ';', '\r'};
  const auto mutations = 1 + rng.below(3);
  for (std::uint64_t m = 0; m < mutations && !text.empty(); ++m) {
    const auto at = static_cast<std::size_t>(rng.below(text.size()));
    switch (rng.below(3)) {
      case 0:
        text[at] = static_cast<char>(rng.below(256));
        break;
      case 1:
        text.insert(text.begin() + static_cast<std::ptrdiff_t>(at),
                    kInserts[rng.below(std::size(kInserts))]);
        break;
      default:
        text.resize(at);
        break;
    }
  }
  return text;
}

ParseOutcome oracle_outcome(std::string_view text) {
  ParseOutcome out;
  try {
    test::ZoneOracle::parse(
        text, [&](const ResourceRecord& r) { out.records.push_back(r); }, &out.origin,
        &out.default_ttl);
  } catch (const ZoneParseError& e) {
    out.error_line = e.line();
  }
  return out;
}

ParseOutcome reader_outcome(std::string_view text, util::Rng& rng) {
  ParseOutcome out;
  ZoneStreamReader reader{[&](const ResourceRecord& r) { out.records.push_back(r); }};
  try {
    while (!text.empty()) {
      const auto take = static_cast<std::size_t>(1 + rng.below(std::min<std::size_t>(text.size(), 64)));
      reader.feed(text.substr(0, take));
      text.remove_prefix(take);
    }
    reader.finish();
    out.origin = reader.origin();
    out.default_ttl = reader.default_ttl();
  } catch (const ZoneParseError& e) {
    out.error_line = e.line();
  }
  return out;
}

class ZoneMutationProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ZoneMutationProperty, ReaderMatchesNaiveOracle) {
  util::Rng rng{GetParam()};
  std::size_t rejected = 0;
  constexpr int kMutants = 400;
  for (int round = 0; round < kMutants; ++round) {
    const auto text = round % 10 == 0 ? random_zone(rng) : mutate(random_zone(rng), rng);
    const auto expected = oracle_outcome(text);
    const auto actual = reader_outcome(text, rng);
    ASSERT_EQ(actual.error_line, expected.error_line) << "round " << round << ":\n" << text;
    ASSERT_EQ(actual.records, expected.records) << "round " << round << ":\n" << text;
    if (expected.error_line == 0) {
      EXPECT_EQ(actual.origin, expected.origin) << "round " << round;
      EXPECT_EQ(actual.default_ttl, expected.default_ttl) << "round " << round;
    } else {
      ++rejected;
    }
  }
  // The mutants exercise both outcomes.
  EXPECT_GT(rejected, 0u);
  EXPECT_LT(rejected, static_cast<std::size_t>(kMutants));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ZoneMutationProperty,
                         ::testing::Values(3u, 41u, 977u, 65537u, 20261017u));

// --- Language identification -----------------------------------------

TEST(LangId, ScriptBasedLanguages) {
  using unicode::U32String;
  EXPECT_EQ(classify_language(U32String{0x4E2D, 0x6587}), Language::kChinese);
  EXPECT_EQ(classify_language(U32String{0xD55C, 0xAD6D}), Language::kKorean);
  EXPECT_EQ(classify_language(U32String{0x3042, 0x308A}), Language::kJapanese);
  // Kanji + kana is Japanese even though kanji alone is Chinese.
  EXPECT_EQ(classify_language(U32String{0x65E5, 0x672C, 0x3054}), Language::kJapanese);
  EXPECT_EQ(classify_language(U32String{0x043C, 0x0438, 0x0440}), Language::kRussian);
  EXPECT_EQ(classify_language(U32String{0x0627, 0x0644}), Language::kArabic);
  EXPECT_EQ(classify_language(U32String{0x0E44, 0x0E17}), Language::kThai);
  EXPECT_EQ(classify_language(U32String{0x03B1, 0x03B2}), Language::kGreek);
  EXPECT_EQ(classify_language(U32String{0x05D0, 0x05D1}), Language::kHebrew);
}

TEST(LangId, LatinLanguagesByDiacritics) {
  using unicode::U32String;
  EXPECT_EQ(classify_language(U32String{'m', 0x00FC, 'n', 'c', 'h', 'e', 'n'}),
            Language::kGerman);
  EXPECT_EQ(classify_language(U32String{'d', 0x00F6, 'v', 'i', 'z'}),
            Language::kGerman);  // ö alone reads as German class
  EXPECT_EQ(classify_language(U32String{'y', 'a', 'z', 0x0131}), Language::kTurkish);
  EXPECT_EQ(classify_language(U32String{'c', 'a', 'f', 0x00E9}), Language::kFrench);
  EXPECT_EQ(classify_language(U32String{'e', 's', 'p', 'a', 0x00F1, 'a'}),
            Language::kSpanish);
  EXPECT_EQ(classify_language(U32String{'p', 'e', 'r', 0x00FA}), Language::kSpanish);
}

TEST(LangId, AsciiIsEnglish) {
  using unicode::U32String;
  EXPECT_EQ(classify_language(U32String{'p', 'l', 'a', 'i', 'n'}),
            Language::kEnglishAscii);
}

TEST(LangId, Names) {
  EXPECT_EQ(language_name(Language::kChinese), "Chinese");
  EXPECT_EQ(language_name(Language::kTurkish), "Turkish");
}

}  // namespace
}  // namespace sham::dns
