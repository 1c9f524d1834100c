#include "detect/skeleton_index.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>
#include <string>
#include <type_traits>

#include "kernels/kernels.hpp"

namespace sham::detect {

namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
/// Offset basis for the secondary (bucket-splitting) hash stream — any
/// value distinct from kFnvOffset gives an independent hash family.
constexpr std::uint64_t kFnv2Offset = 0x84222325cbf29ce4ULL;

/// Extra diffusion for the secondary stream: the primary already consumes
/// the raw canonical values, so the secondary consumes a mixed image of
/// them — labels colliding under the (possibly hash_bits-truncated)
/// primary separate here unless their canonical streams are identical.
constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

template <typename Char>
constexpr unicode::CodePoint to_cp(Char c) noexcept {
  return static_cast<unicode::CodePoint>(static_cast<std::make_unsigned_t<Char>>(c));
}

// Label projections: IdnEntry hashes its decoded Unicode form; reference
// label lists hash as-is.
const unicode::U32String& label_of(const IdnEntry& entry) { return entry.unicode; }
const std::string& label_of(const std::string& label) { return label; }
const unicode::U32String& label_of(const unicode::U32String& label) { return label; }

/// The secondary stream's two values for one canonical value v:
/// lo(mix64(v)), hi(mix64(v)).
void put_mixed(std::uint32_t v, std::uint32_t* out) noexcept {
  const auto mixed = mix64(v);
  out[0] = static_cast<std::uint32_t>(mixed);
  out[1] = static_cast<std::uint32_t>(mixed >> 32);
}

/// A label canonicalized once: the u32 stream [length, canonical(c)...]
/// that both skeleton hashes fold. The length prefix is just the first
/// stream value, so the primary hash is one fnv1a_span over it
/// (length-prefixed, so equal-hash buckets are (length, skeleton) buckets
/// up to genuine FNV collisions, which verification absorbs). The stream
/// lives in a stack buffer up to kInlineCodePoints code points — every
/// DNS label — and on the heap past that.
class CanonicalLabel {
 public:
  static constexpr std::size_t kInlineCodePoints = 63;

  CanonicalLabel() = default;
  CanonicalLabel(const CanonicalLabel&) = delete;
  CanonicalLabel& operator=(const CanonicalLabel&) = delete;

  template <typename String>
  void assign(const homoglyph::HomoglyphDb& db, const String& label) {
    size_ = label.size() + 1;
    std::uint32_t* out = inline_.data();
    if (size_ > inline_.size()) {
      heap_.resize(size_);
      out = heap_.data();
    }
    data_ = out;
    *out++ = static_cast<std::uint32_t>(label.size());
    for (const auto c : label) *out++ = db.canonical(to_cp(c));
  }

  [[nodiscard]] const std::uint32_t* data() const noexcept { return data_; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  /// Primary hash, before hash_bits masking.
  [[nodiscard]] std::uint64_t primary() const noexcept {
    return kernels::fnv1a_span(kFnvOffset, data_, size_);
  }

  /// Secondary hash: FNV-1a from kFnv2Offset over [length, put_mixed(v)
  /// for each canonical v], fed to the kernel in stack chunks (the chain
  /// resumes from the previous flush, so chunking is exact). Full width —
  /// never masked by hash_bits: it must keep separating labels precisely
  /// when the primary stopped doing so.
  [[nodiscard]] std::uint64_t secondary() const noexcept {
    std::array<std::uint32_t, 64> buf;
    std::size_t fill = 0;
    std::uint64_t h = kFnv2Offset;
    buf[fill++] = data_[0];
    for (std::size_t i = 1; i < size_; ++i) {
      if (fill + 2 > buf.size()) {
        h = kernels::fnv1a_span(h, buf.data(), fill);
        fill = 0;
      }
      put_mixed(data_[i], buf.data() + fill);
      fill += 2;
    }
    return kernels::fnv1a_span(h, buf.data(), fill);
  }

  /// The whole secondary stream, for build()'s four-chain kernel pass.
  void secondary_stream(std::vector<std::uint32_t>& out) const {
    out.resize(2 * size_ - 1);
    out[0] = data_[0];
    for (std::size_t i = 1; i < size_; ++i) put_mixed(data_[i], &out[2 * i - 1]);
  }

 private:
  std::array<std::uint32_t, kInlineCodePoints + 1> inline_;
  std::vector<std::uint32_t> heap_;
  const std::uint32_t* data_ = inline_.data();
  std::size_t size_ = 0;
};

template <typename String>
SkeletonHashes hashes_impl(const homoglyph::HomoglyphDb& db, const String& label,
                           std::uint64_t hash_mask, bool split) {
  CanonicalLabel canon;
  canon.assign(db, label);
  return {canon.primary() & hash_mask, split ? canon.secondary() : 0};
}

}  // namespace

template <typename String>
std::span<const std::uint32_t> SkeletonIndex::lookup_impl(const String& label) const {
  CanonicalLabel canon;
  canon.assign(*db_, label);
  return probe_split(canon.primary() & hash_mask_, [&] { return canon.secondary(); });
}

std::span<const std::uint32_t> SkeletonIndex::lookup(std::string_view label) const {
  return lookup_impl(label);
}

std::span<const std::uint32_t> SkeletonIndex::lookup(
    const unicode::U32String& label) const {
  return lookup_impl(label);
}

void SkeletonIndex::refresh_split(Bucket& bucket) {
  const bool was_split = bucket.split;
  bucket.split = max_bucket_occupancy_ > 0 &&
                 bucket.entries.size() > max_bucket_occupancy_;
  if (bucket.split != was_split) split_buckets_ += bucket.split ? 1 : -1;
  bucket.children.clear();
  if (!bucket.split) return;
  for (const auto x : bucket.entries) {
    bucket.children[entry_h2_[x]].push_back(x);  // ascending: entries are
  }
}

template <typename Label>
void SkeletonIndex::build(std::span<const Label> labels) {
  const std::size_t n = labels.size();
  entry_hashes_.resize(n);
  if (max_bucket_occupancy_ > 0) entry_h2_.resize(n);
  buckets_.reserve(n);

  // Pass 1: canonicalize each label once and hash four labels per kernel
  // call — four independent FNV chains, which the dispatch table runs in
  // SIMD lanes where available. Remainder entries (< 4) go through the
  // single-chain path; both produce the identical hash.
  std::array<CanonicalLabel, 4> lanes;
  std::array<std::vector<std::uint32_t>, 4> mixed;
  std::size_t x = 0;
  for (; x + 4 <= n; x += 4) {
    const std::uint32_t* ptrs[4];
    std::size_t lens[4];
    std::uint64_t seeds[4];
    std::uint64_t out[4];
    for (int c = 0; c < 4; ++c) {
      lanes[c].assign(*db_, label_of(labels[x + c]));
      ptrs[c] = lanes[c].data();
      lens[c] = lanes[c].size();
      seeds[c] = kFnvOffset;
    }
    kernels::fnv1a_batch4(ptrs, lens, seeds, out);
    for (int c = 0; c < 4; ++c) entry_hashes_[x + c] = out[c] & hash_mask_;
    if (max_bucket_occupancy_ > 0) {
      for (int c = 0; c < 4; ++c) {
        lanes[c].secondary_stream(mixed[c]);
        ptrs[c] = mixed[c].data();
        lens[c] = mixed[c].size();
        seeds[c] = kFnv2Offset;
      }
      kernels::fnv1a_batch4(ptrs, lens, seeds, out);
      for (int c = 0; c < 4; ++c) entry_h2_[x + c] = out[c];
    }
  }
  for (; x < n; ++x) {
    lanes[0].assign(*db_, label_of(labels[x]));
    entry_hashes_[x] = lanes[0].primary() & hash_mask_;
    if (max_bucket_occupancy_ > 0) entry_h2_[x] = lanes[0].secondary();
  }

  // Pass 2: bucket and posting insertion, ascending x (deterministic).
  std::vector<unicode::CodePoint> uniq;
  for (std::size_t y = 0; y < n; ++y) {
    const auto& label = label_of(labels[y]);
    auto& bucket = buckets_[entry_hashes_[y]];
    if (bucket.entries.empty()) ++non_empty_buckets_;
    bucket.entries.push_back(static_cast<std::uint32_t>(y));  // ascending

    uniq.clear();
    for (const auto c : label) uniq.push_back(to_cp(c));
    std::sort(uniq.begin(), uniq.end());
    uniq.erase(std::unique(uniq.begin(), uniq.end()), uniq.end());
    for (const auto cp : uniq) {
      entries_by_cp_[cp].push_back(static_cast<std::uint32_t>(y));
    }
  }
  if (max_bucket_occupancy_ > 0) {
    for (auto& [h, bucket] : buckets_) refresh_split(bucket);
  }
}

template <typename Label>
void SkeletonIndex::materialize(std::span<const Label> labels) {
  if (!view_) return;
  // Rebuild the owned representation from the stored hashes — build()'s
  // pass 2 without any rehashing. `labels` must be the list the flat index
  // was built over (the rehash_changed contract already requires this).
  const auto flat = flat_;
  view_ = false;
  const std::size_t n = flat.entry_hashes.size();
  entry_hashes_.assign(flat.entry_hashes.begin(), flat.entry_hashes.end());
  entry_h2_.assign(flat.entry_h2.begin(), flat.entry_h2.end());
  hash_mask_ = flat.hash_mask;
  max_bucket_occupancy_ = static_cast<std::size_t>(flat.max_bucket_occupancy);
  buckets_.clear();
  entries_by_cp_.clear();
  non_empty_buckets_ = 0;
  split_buckets_ = 0;
  buckets_.reserve(n);

  std::vector<unicode::CodePoint> uniq;
  for (std::size_t y = 0; y < n; ++y) {
    auto& bucket = buckets_[entry_hashes_[y]];
    if (bucket.entries.empty()) ++non_empty_buckets_;
    bucket.entries.push_back(static_cast<std::uint32_t>(y));

    const auto& label = label_of(labels[y]);
    uniq.clear();
    for (const auto c : label) uniq.push_back(to_cp(c));
    std::sort(uniq.begin(), uniq.end());
    uniq.erase(std::unique(uniq.begin(), uniq.end()), uniq.end());
    for (const auto cp : uniq) {
      entries_by_cp_[cp].push_back(static_cast<std::uint32_t>(y));
    }
  }
  if (max_bucket_occupancy_ > 0) {
    for (auto& [h, bucket] : buckets_) refresh_split(bucket);
  }
  flat_ = {};
  backing_.reset();
}

template <typename Label>
std::size_t SkeletonIndex::rehash_impl(std::span<const Label> labels,
                                       std::span<const unicode::CodePoint> changed) {
  if (view_) materialize(labels);  // copy-on-write before the first mutation
  std::vector<std::uint32_t> affected;
  for (const auto cp : changed) {
    const auto it = entries_by_cp_.find(cp);
    if (it == entries_by_cp_.end()) continue;
    affected.insert(affected.end(), it->second.begin(), it->second.end());
  }
  std::sort(affected.begin(), affected.end());
  affected.erase(std::unique(affected.begin(), affected.end()), affected.end());

  std::vector<std::uint64_t> touched;
  CanonicalLabel canon;
  for (const auto x : affected) {
    const auto old_hash = entry_hashes_[x];
    canon.assign(*db_, label_of(labels[x]));
    const auto new_hash = canon.primary() & hash_mask_;
    if (max_bucket_occupancy_ > 0) entry_h2_[x] = canon.secondary();
    if (new_hash == old_hash) {
      // Same primary bucket, but under a cap the secondary hash (hence the
      // child partition) may have moved.
      if (max_bucket_occupancy_ > 0) touched.push_back(old_hash);
      continue;
    }
    auto& old_bucket = buckets_[old_hash].entries;
    old_bucket.erase(std::find(old_bucket.begin(), old_bucket.end(), x));
    if (old_bucket.empty()) --non_empty_buckets_;  // stays in the table, empty
    auto& new_bucket = buckets_[new_hash].entries;
    if (new_bucket.empty()) ++non_empty_buckets_;
    new_bucket.insert(std::upper_bound(new_bucket.begin(), new_bucket.end(), x), x);
    entry_hashes_[x] = new_hash;
    if (max_bucket_occupancy_ > 0) {
      touched.push_back(old_hash);
      touched.push_back(new_hash);
    }
  }
  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
  for (const auto h : touched) refresh_split(buckets_[h]);
  return affected.size();
}

SkeletonIndex::SkeletonIndex(const homoglyph::HomoglyphDb& db,
                             std::span<const IdnEntry> idns,
                             SkeletonIndexOptions options)
    : db_{&db},
      hash_mask_{options.hash_bits >= 64 ? ~0ULL
                                         : (1ULL << options.hash_bits) - 1},
      max_bucket_occupancy_{options.max_bucket_occupancy} {
  build(idns);
}

SkeletonIndex::SkeletonIndex(const homoglyph::HomoglyphDb& db,
                             std::span<const std::string> labels,
                             SkeletonIndexOptions options)
    : db_{&db},
      hash_mask_{options.hash_bits >= 64 ? ~0ULL
                                         : (1ULL << options.hash_bits) - 1},
      max_bucket_occupancy_{options.max_bucket_occupancy} {
  build(labels);
}

SkeletonIndex::SkeletonIndex(const homoglyph::HomoglyphDb& db,
                             std::span<const unicode::U32String> labels,
                             SkeletonIndexOptions options)
    : db_{&db},
      hash_mask_{options.hash_bits >= 64 ? ~0ULL
                                         : (1ULL << options.hash_bits) - 1},
      max_bucket_occupancy_{options.max_bucket_occupancy} {
  build(labels);
}

std::uint64_t SkeletonIndex::hash_of(std::string_view reference) const {
  return hashes_impl(*db_, reference, hash_mask_, false).primary;
}

std::uint64_t SkeletonIndex::hash_of(const unicode::U32String& reference) const {
  return hashes_impl(*db_, reference, hash_mask_, false).primary;
}

SkeletonHashes SkeletonIndex::hashes_of(std::string_view reference) const {
  return hashes_impl(*db_, reference, hash_mask_, max_bucket_occupancy_ > 0);
}

SkeletonHashes SkeletonIndex::hashes_of(const unicode::U32String& reference) const {
  return hashes_impl(*db_, reference, hash_mask_, max_bucket_occupancy_ > 0);
}

std::size_t SkeletonIndex::rehash_changed(std::span<const IdnEntry> labels,
                                          std::span<const unicode::CodePoint> changed) {
  return rehash_impl(labels, changed);
}

std::size_t SkeletonIndex::rehash_changed(std::span<const std::string> labels,
                                          std::span<const unicode::CodePoint> changed) {
  return rehash_impl(labels, changed);
}

std::size_t SkeletonIndex::rehash_changed(std::span<const unicode::U32String> labels,
                                          std::span<const unicode::CodePoint> changed) {
  return rehash_impl(labels, changed);
}

db::SkeletonFlat SkeletonIndex::to_flat() const {
  db::SkeletonFlat flat;
  if (view_) {
    // Already flat: copy the mapped arrays verbatim.
    flat.hash_mask = flat_.hash_mask;
    flat.max_bucket_occupancy = flat_.max_bucket_occupancy;
    flat.non_empty_buckets = flat_.non_empty_buckets;
    flat.split_buckets = flat_.split_buckets;
    flat.entry_hashes.assign(flat_.entry_hashes.begin(), flat_.entry_hashes.end());
    flat.entry_h2.assign(flat_.entry_h2.begin(), flat_.entry_h2.end());
    flat.bucket_hashes.assign(flat_.bucket_hashes.begin(), flat_.bucket_hashes.end());
    flat.bucket_offsets.assign(flat_.bucket_offsets.begin(), flat_.bucket_offsets.end());
    flat.bucket_entries.assign(flat_.bucket_entries.begin(), flat_.bucket_entries.end());
    flat.bucket_child_start.assign(flat_.bucket_child_start.begin(),
                                   flat_.bucket_child_start.end());
    flat.child_h2.assign(flat_.child_h2.begin(), flat_.child_h2.end());
    flat.child_offsets.assign(flat_.child_offsets.begin(), flat_.child_offsets.end());
    flat.child_entries.assign(flat_.child_entries.begin(), flat_.child_entries.end());
    return flat;
  }

  flat.hash_mask = hash_mask_;
  flat.max_bucket_occupancy = static_cast<std::uint64_t>(max_bucket_occupancy_);
  flat.non_empty_buckets = static_cast<std::uint64_t>(non_empty_buckets_);
  flat.split_buckets = static_cast<std::uint64_t>(split_buckets_);
  flat.entry_hashes = entry_hashes_;
  flat.entry_h2 = entry_h2_;

  // Deterministic layout: buckets ascending by hash (empty buckets left by
  // rehash_changed are dropped — view_bucket treats absence as a miss),
  // split children ascending by secondary hash.
  std::vector<std::uint64_t> hashes;
  hashes.reserve(buckets_.size());
  for (const auto& [h, bucket] : buckets_) {
    if (!bucket.entries.empty()) hashes.push_back(h);
  }
  std::sort(hashes.begin(), hashes.end());

  flat.bucket_hashes = hashes;
  flat.bucket_offsets.reserve(hashes.size() + 1);
  flat.bucket_child_start.reserve(hashes.size() + 1);
  flat.bucket_offsets.push_back(0);
  flat.bucket_child_start.push_back(0);
  flat.child_offsets.push_back(0);
  std::vector<std::uint64_t> child_hashes;
  for (const auto h : hashes) {
    const auto& bucket = buckets_.at(h);
    flat.bucket_entries.insert(flat.bucket_entries.end(), bucket.entries.begin(),
                               bucket.entries.end());
    flat.bucket_offsets.push_back(static_cast<std::uint32_t>(flat.bucket_entries.size()));
    if (bucket.split) {
      child_hashes.clear();
      child_hashes.reserve(bucket.children.size());
      for (const auto& [h2, child] : bucket.children) child_hashes.push_back(h2);
      std::sort(child_hashes.begin(), child_hashes.end());
      for (const auto h2 : child_hashes) {
        const auto& child = bucket.children.at(h2);
        flat.child_h2.push_back(h2);
        flat.child_entries.insert(flat.child_entries.end(), child.begin(), child.end());
        flat.child_offsets.push_back(static_cast<std::uint32_t>(flat.child_entries.size()));
      }
    }
    flat.bucket_child_start.push_back(static_cast<std::uint32_t>(flat.child_h2.size()));
  }
  return flat;
}

SkeletonIndex SkeletonIndex::adopt_view(const homoglyph::HomoglyphDb& db,
                                        const db::SkeletonFlatView& flat,
                                        std::shared_ptr<const void> backing) {
  const auto bad = [](const char* what) {
    throw std::runtime_error(std::string{"SkeletonIndex: flat view "} + what);
  };
  const std::size_t n = flat.entry_hashes.size();
  const std::size_t buckets = flat.bucket_hashes.size();
  if (!flat.entry_h2.empty() && flat.entry_h2.size() != n) {
    bad("entry_h2 size mismatch");
  }
  if (flat.max_bucket_occupancy > 0 && n > 0 && flat.entry_h2.empty()) {
    bad("missing secondary hashes under an occupancy cap");
  }
  if (flat.bucket_offsets.size() != buckets + 1 ||
      flat.bucket_child_start.size() != buckets + 1) {
    bad("bucket offset table size mismatch");
  }
  if (!std::is_sorted(flat.bucket_hashes.begin(), flat.bucket_hashes.end()) ||
      std::adjacent_find(flat.bucket_hashes.begin(), flat.bucket_hashes.end()) !=
          flat.bucket_hashes.end()) {
    bad("bucket hashes not strictly ascending");
  }
  if (!std::is_sorted(flat.bucket_offsets.begin(), flat.bucket_offsets.end()) ||
      flat.bucket_offsets.front() != 0 ||
      flat.bucket_offsets.back() != flat.bucket_entries.size()) {
    bad("bucket offsets inconsistent");
  }
  if (!std::is_sorted(flat.bucket_child_start.begin(), flat.bucket_child_start.end()) ||
      flat.bucket_child_start.front() != 0 ||
      flat.bucket_child_start.back() != flat.child_h2.size()) {
    bad("bucket child table inconsistent");
  }
  if (flat.child_offsets.size() != flat.child_h2.size() + 1 ||
      !std::is_sorted(flat.child_offsets.begin(), flat.child_offsets.end()) ||
      flat.child_offsets.front() != 0 ||
      flat.child_offsets.back() != flat.child_entries.size()) {
    bad("child offsets inconsistent");
  }
  for (std::size_t b = 0; b < buckets; ++b) {
    const auto first = flat.child_h2.begin() + flat.bucket_child_start[b];
    const auto last = flat.child_h2.begin() + flat.bucket_child_start[b + 1];
    if (!std::is_sorted(first, last) || std::adjacent_find(first, last) != last) {
      bad("child hashes not ascending within a bucket");
    }
  }
  for (const auto x : flat.bucket_entries) {
    if (x >= n) bad("bucket entry out of range");
  }
  for (const auto x : flat.child_entries) {
    if (x >= n) bad("child entry out of range");
  }

  SkeletonIndex index;
  index.db_ = &db;
  index.hash_mask_ = flat.hash_mask;
  index.max_bucket_occupancy_ = static_cast<std::size_t>(flat.max_bucket_occupancy);
  index.non_empty_buckets_ = static_cast<std::size_t>(flat.non_empty_buckets);
  index.split_buckets_ = static_cast<std::size_t>(flat.split_buckets);
  index.view_ = true;
  index.flat_ = flat;
  index.backing_ = std::move(backing);
  return index;
}

std::vector<std::uint64_t> SkeletonIndex::occupancy_histogram(
    std::size_t max_slots) const {
  std::vector<std::uint64_t> histogram(max_slots, 0);
  if (max_slots == 0) return histogram;
  if (view_) {
    for (std::size_t b = 0; b < flat_.bucket_hashes.size(); ++b) {
      const std::size_t size = flat_.bucket_offsets[b + 1] - flat_.bucket_offsets[b];
      if (size == 0) continue;
      const auto child_begin = flat_.bucket_child_start[b];
      const auto child_end = flat_.bucket_child_start[b + 1];
      if (child_begin != child_end) {
        for (auto c = child_begin; c != child_end; ++c) {
          const std::size_t child_size = flat_.child_offsets[c + 1] - flat_.child_offsets[c];
          if (child_size == 0) continue;
          ++histogram[std::min(child_size - 1, max_slots - 1)];
        }
        continue;
      }
      ++histogram[std::min(size - 1, max_slots - 1)];
    }
    return histogram;
  }
  for (const auto& entry : buckets_) {
    // Vacated buckets (rehash_changed moved every entry out) stay in the
    // table; size() - 1 would underflow for them.
    if (entry.second.entries.empty()) continue;
    if (entry.second.split) {
      // A split bucket's probe-visible units are its children — counting
      // them (not the parent union) is what shows the long tail shrink.
      for (const auto& [h2, child] : entry.second.children) {
        if (child.empty()) continue;
        ++histogram[std::min(child.size() - 1, max_slots - 1)];
      }
      continue;
    }
    const auto slot = std::min(entry.second.entries.size() - 1, max_slots - 1);
    ++histogram[slot];
  }
  return histogram;
}

}  // namespace sham::detect
