// Allocation regression tests. Zone ingestion: generating a registry
// zone and parsing it back must cost no heap allocation per domain, per
// record or per chunk once the buffers are warm: the generator writes
// record lines straight into a reused chunk, the reader tokenizes into
// views and refills one record, and the batcher queues only IDN owners.
// Skeleton join: a probe canonicalizes its label into a stack buffer, so
// streaming more IDNs through a join costs no more allocations.
// This TU replaces the global operator new to count allocations, so it is
// a test binary of its own.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <span>
#include <string>
#include <vector>

#include "detect/engine.hpp"
#include "internet/scenario.hpp"
#include "measure/environment.hpp"
#include "measure/scale_run.hpp"
#include "util/rng.hpp"

namespace {

std::atomic<std::size_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc{};
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(align);
  const std::size_t rounded = (size + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded == 0 ? a : rounded)) return p;
  throw std::bad_alloc{};
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace sham::measure {
namespace {

const Environment& env() {
  static const auto instance = [] {
    EnvironmentConfig config;
    config.font_scale = 0.1;
    return Environment::create(config);
  }();
  return instance;
}

constexpr std::size_t kRingChunks = 4;

/// Allocations made while generating a filler-only zone of `domains`
/// names (apart from one reference and the scenario's fixed case-study
/// homographs) and streaming it through the IdnBatcher path. Small
/// chunks, so a per-chunk allocation shows as hundreds.
std::size_t allocations_for(std::size_t domains) {
  GenStream gen;
  gen.scenario.seed = 7;
  gen.scenario.total_domains = domains;
  gen.scenario.reference_count = 1;
  gen.scenario.attack_scale = 0.0;
  gen.scenario.idn_fraction = 0.0;
  gen.zone.chunk_bytes = 4096;
  gen.ring_chunks = kRingChunks;
  StreamOptions options;
  options.batch_size = 256;

  const auto before = g_allocations.load();
  const auto stats = stream_generated_idns(env().db_union, gen, options,
                                           [](std::span<const detect::IdnEntry>) {});
  const auto after = g_allocations.load();
  EXPECT_GT(stats.domains, domains * 99 / 100);  // the registry zone lists ~99.8%
  return after - before;
}

TEST(ZoneIngestAllocations, DoNotGrowWithZoneSize) {
  static_cast<void>(allocations_for(2'000));  // warm function-local state
  constexpr std::size_t kDomains = 20'000;    // ~300 chunks of 4 KiB
  const auto small = allocations_for(kDomains);
  const auto large = allocations_for(2 * kDomains);
  // Allowed to differ: the number of chunk buffers, up to one per ring
  // slot plus one on each side, as the two threads' timing dictates, and
  // a few name buffers growing once more for a longer name in the larger
  // zone. One allocation per chunk would add ~300, one per domain ~20,000.
  constexpr std::size_t kSlack = kRingChunks + 2 + 4;
  EXPECT_LE(large, small + kSlack) << "N: " << small << " allocations, 2N: " << large;
  std::printf("zone ingest allocations: N=%zu -> %zu, 2N -> %zu\n", kDomains, small,
              large);
}

/// Allocations made by one cold inverted skeleton join (the references
/// indexed, each of the first `count` IDNs probing once) that yields no
/// match, so nothing but the probes scales with `count`.
std::size_t join_allocations(std::span<const detect::IdnEntry> idns, std::size_t count) {
  static const std::vector<std::string> refs{"google", "amazon", "facebook", "paypal"};
  const detect::Engine engine{env().db_union,
                              {.strategy = detect::Strategy::kSkeleton,
                               .threads = 1,
                               .cache = false,
                               .join = detect::SkeletonJoin::kReferenceIndex}};
  const auto before = g_allocations.load();
  const auto response = engine.detect({.references = refs, .idns = idns.first(count)});
  const auto after = g_allocations.load();
  EXPECT_TRUE(response.stats.inverted_join);
  EXPECT_TRUE(response.matches.empty());
  return after - before;
}

TEST(SkeletonJoinAllocations, DoNotGrowWithIdnCount) {
  // CJK labels of 1..63 code points (every 8th exactly 63, the most a
  // probe holds without touching the heap): no reference shares a
  // skeleton with any of them.
  constexpr std::size_t kIdns = 2'000;
  util::Rng rng{17};
  std::vector<detect::IdnEntry> idns(2 * kIdns);
  for (std::size_t i = 0; i < idns.size(); ++i) {
    const std::size_t n = i % 8 == 0 ? 63 : 1 + rng.below(63);
    for (std::size_t j = 0; j < n; ++j) {
      idns[i].unicode.push_back(static_cast<unicode::CodePoint>(0x4E00 + rng.below(0x5000)));
    }
  }
  static_cast<void>(join_allocations(idns, 16));  // warm function-local state
  const auto small = join_allocations(idns, kIdns);
  const auto large = join_allocations(idns, 2 * kIdns);
  EXPECT_EQ(large, small) << "N: " << small << " allocations, 2N: " << large;
  std::printf("skeleton join allocations: N=%zu -> %zu, 2N -> %zu\n", kIdns, small,
              large);
}

}  // namespace
}  // namespace sham::measure
