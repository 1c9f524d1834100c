#include "internet/brands.hpp"

#include <array>
#include <span>
#include <stdexcept>
#include <string_view>
#include <unordered_set>

namespace sham::internet {

const std::vector<std::string>& well_known_brands() {
  static const std::vector<std::string> brands{
      // Top-10-class names (Table 9 shows google/amazon/facebook there).
      "google", "youtube", "facebook", "baidu", "wikipedia", "yahoo", "amazon",
      "twitter", "instagram", "linkedin",
      // Mail / portal names from Table 11.
      "gmail", "outlook", "hotmail", "aol", "mail",
      // Cryptocurrency names (Binance incident; myetherwallet tops Table 9).
      "binance", "myetherwallet", "coinbase", "blockchain", "bitfinex", "kraken",
      // Targets of the Table 11 homographs.
      "doviz", "expansion", "shadbase", "peru",
      // Moderately popular names, incl. allstate (rank ~5,148 in .com).
      "allstate", "netflix", "paypal", "apple", "microsoft", "office", "live",
      "bing", "ebay", "reddit", "wordpress", "github", "stackoverflow", "imdb",
      "pinterest", "tumblr", "dropbox", "spotify", "whatsapp", "telegram",
      "adobe", "salesforce", "oracle", "intel", "nvidia", "samsung", "huawei",
      "alibaba", "aliexpress", "taobao", "tmall", "jd", "qq", "weibo", "sohu",
      "sina", "naver", "daum", "rakuten", "nicovideo", "dmm", "booking",
      "airbnb", "expedia", "tripadvisor", "uber", "lyft", "walmart", "target",
      "costco", "bestbuy", "homedepot", "nike", "adidas", "zara", "hm",
      "chase", "wellsfargo", "bankofamerica", "citibank", "hsbc", "visa",
      "mastercard", "americanexpress", "fidelity", "vanguard", "schwab",
      "etrade", "robinhood", "stripe", "square", "shopify", "godaddy",
      "cloudflare", "digitalocean", "heroku", "gitlab", "bitbucket", "slack",
      "zoom", "skype", "discord", "twitch", "steam", "epicgames", "roblox",
      "minecraft", "blizzard", "ea", "ubisoft", "sony", "playstation", "xbox",
      "nintendo", "cnn", "bbc", "nytimes", "reuters", "bloomberg", "forbes",
      "espn", "foxnews", "theguardian", "washingtonpost", "wsj", "usatoday",
      "weather", "accuweather", "yelp", "zillow", "realtor", "indeed",
      "glassdoor", "monster", "craigslist", "etsy", "wish", "wayfair",
      "overstock", "groupon", "doordash", "grubhub", "instacart", "fedex",
      "ups", "usps", "dhl", "delta", "united", "southwest", "americanair",
      "marriott", "hilton", "hyatt", "verizon", "att", "tmobile", "sprint",
      "comcast", "xfinity", "spectrum", "duckduckgo", "mozilla", "opera",
      "quora", "medium", "substack", "wikihow", "fandom", "archive",
      "soundcloud", "bandcamp", "vimeo", "dailymotion", "flickr", "imgur",
      "deviantart", "behance", "dribbble", "canva", "figma", "notion",
      "trello", "asana", "atlassian", "zendesk", "mailchimp", "hubspot",
      "surveymonkey", "eventbrite", "meetup", "patreon", "kickstarter",
      "gofundme", "indiegogo", "coursera", "udemy", "edx", "khanacademy",
      "duolingo",
  };
  return brands;
}

void append_synthetic_label(util::Rng& rng, std::string& out) {
  static constexpr std::array<std::string_view, 30> kOnsets{
      "b", "c", "d", "f", "g", "h", "j", "k", "l", "m", "n", "p", "r", "s",
      "t", "v", "w", "z", "br", "ch", "cl", "dr", "fl", "gr", "pl", "pr",
      "sh", "sl", "st", "tr",
  };
  static constexpr std::array<std::string_view, 10> kVowels{
      "a", "e", "i", "o", "u", "ai", "ea", "io", "oo", "ou"};
  static constexpr std::array<std::string_view, 12> kCodas{
      "", "", "", "n", "r", "s", "t", "l", "x", "ck", "nd", "st"};
  const auto pick = [&](std::span<const std::string_view> table) {
    out += rng.pick(table);
  };
  const int syllables = 2 + static_cast<int>(rng.below(3));
  for (int s = 0; s < syllables; ++s) {
    pick(kOnsets);
    pick(kVowels);
    if (s + 1 == syllables) pick(kCodas);
  }
}

std::string synthetic_label(util::Rng& rng) {
  std::string label;
  append_synthetic_label(rng, label);
  return label;
}

std::vector<std::string> make_reference_list(std::size_t count, std::uint64_t seed) {
  const auto& brands = well_known_brands();
  std::vector<std::string> out;
  out.reserve(count);
  std::unordered_set<std::string> seen;
  for (const auto& b : brands) {
    if (out.size() >= count) break;
    if (seen.insert(b).second) out.push_back(b);
  }
  util::Rng rng{seed};
  std::size_t guard = 0;
  while (out.size() < count) {
    auto label = synthetic_label(rng);
    if (seen.insert(label).second) {
      out.push_back(std::move(label));
    } else if (++guard > count * 100 + 1000) {
      throw std::runtime_error{"make_reference_list: name space exhausted"};
    }
  }
  return out;
}

}  // namespace sham::internet
