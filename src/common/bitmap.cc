#include "common/bitmap.h"

#include <algorithm>
#include <cassert>

namespace fobs::util {

Bitmap::Bitmap(std::size_t size) : size_(size), words_((size + 63) / 64, 0) {}

bool Bitmap::set(std::size_t i) {
  assert(i < size_);
  std::uint64_t& w = words_[word_of(i)];
  const std::uint64_t m = mask_of(i);
  if (w & m) return false;
  w |= m;
  ++set_count_;
  return true;
}

bool Bitmap::clear(std::size_t i) {
  assert(i < size_);
  std::uint64_t& w = words_[word_of(i)];
  const std::uint64_t m = mask_of(i);
  if (!(w & m)) return false;
  w &= ~m;
  --set_count_;
  return true;
}

bool Bitmap::test(std::size_t i) const {
  assert(i < size_);
  return (words_[word_of(i)] & mask_of(i)) != 0;
}

std::optional<std::size_t> Bitmap::first_clear(std::size_t from) const {
  if (from >= size_) return std::nullopt;
  std::size_t w = word_of(from);
  // Mask off bits below `from` in the first word (treat them as set).
  std::uint64_t inv = ~words_[w] & (~std::uint64_t{0} << (from & 63));
  while (true) {
    if (inv != 0) {
      const std::size_t bit = w * 64 + static_cast<std::size_t>(std::countr_zero(inv));
      if (bit >= size_) return std::nullopt;
      return bit;
    }
    if (++w >= words_.size()) return std::nullopt;
    inv = ~words_[w];
  }
}

std::optional<std::size_t> Bitmap::first_set(std::size_t from) const {
  if (from >= size_) return std::nullopt;
  std::size_t w = word_of(from);
  std::uint64_t v = words_[w] & (~std::uint64_t{0} << (from & 63));
  while (true) {
    if (v != 0) {
      const std::size_t bit = w * 64 + static_cast<std::size_t>(std::countr_zero(v));
      if (bit >= size_) return std::nullopt;
      return bit;
    }
    if (++w >= words_.size()) return std::nullopt;
    v = words_[w];
  }
}

std::optional<std::size_t> Bitmap::first_clear_circular(std::size_t from) const {
  if (size_ == 0 || all_set()) return std::nullopt;
  from %= size_;
  if (auto hit = first_clear(from)) return hit;
  return first_clear(0);
}

std::size_t Bitmap::count_in_range(std::size_t begin, std::size_t end) const {
  assert(begin <= end && end <= size_);
  std::size_t total = 0;
  std::size_t i = begin;
  while (i < end) {
    const std::size_t w = word_of(i);
    const std::size_t word_end = std::min(end, (w + 1) * 64);
    std::uint64_t v = words_[w];
    // Keep only bits [i, word_end) within this word.
    v &= ~std::uint64_t{0} << (i & 63);
    const std::size_t top = word_end & 63;
    if (top != 0 && word_end == end) v &= (std::uint64_t{1} << top) - 1;
    total += static_cast<std::size_t>(std::popcount(v));
    i = word_end;
  }
  return total;
}

void Bitmap::clear_all() {
  std::fill(words_.begin(), words_.end(), 0);
  set_count_ = 0;
}

void Bitmap::set_all() {
  std::fill(words_.begin(), words_.end(), ~std::uint64_t{0});
  if (!words_.empty() && (size_ & 63) != 0) {
    words_.back() &= (std::uint64_t{1} << (size_ & 63)) - 1;
  }
  set_count_ = size_;
}

namespace {

/// Up to 8 bytes of `p` as a little-endian word (missing bytes are 0).
std::uint64_t load_le(const std::uint8_t* p, std::size_t n) {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < n; ++i) v |= std::uint64_t{p[i]} << (8 * i);
  return v;
}

void store_le(std::uint64_t v, std::uint8_t* p, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

/// The low `bits` bits set (bits in 1..64).
std::uint64_t low_mask(std::size_t bits) {
  return bits >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << bits) - 1;
}

}  // namespace

std::vector<std::uint8_t> Bitmap::extract_range(std::size_t begin, std::size_t end) const {
  assert(begin <= end && end <= size_);
  const std::size_t nbits = end - begin;
  std::vector<std::uint8_t> out((nbits + 7) / 8, 0);
  // One packed 64-bit chunk at a time: the source bits straddle at most
  // two words.
  for (std::size_t done = 0; done < nbits; done += 64) {
    const std::size_t at = begin + done;
    const std::size_t w = word_of(at);
    const std::size_t shift = at & 63;
    std::uint64_t v = words_[w] >> shift;
    if (shift != 0 && w + 1 < words_.size()) v |= words_[w + 1] << (64 - shift);
    v &= low_mask(nbits - done);
    store_le(v, out.data() + done / 8, std::min<std::size_t>(8, out.size() - done / 8));
  }
  return out;
}

std::size_t Bitmap::merge_range(std::size_t begin, std::size_t nbits,
                                const std::uint8_t* packed, std::size_t packed_len) {
  assert(begin + nbits <= size_);
  assert(packed_len * 8 >= nbits);
  std::size_t newly_set = 0;
  const auto or_into = [&](std::uint64_t& word, std::uint64_t bits) {
    newly_set += static_cast<std::size_t>(std::popcount(bits & ~word));
    word |= bits;
  };
  for (std::size_t done = 0; done < nbits; done += 64) {
    const std::uint64_t v =
        load_le(packed + done / 8, std::min<std::size_t>(8, packed_len - done / 8)) &
        low_mask(nbits - done);
    const std::size_t at = begin + done;
    const std::size_t w = word_of(at);
    const std::size_t shift = at & 63;
    or_into(words_[w], v << shift);
    if (shift != 0 && (v >> (64 - shift)) != 0) or_into(words_[w + 1], v >> (64 - shift));
  }
  set_count_ += newly_set;
  return newly_set;
}

bool Bitmap::operator==(const Bitmap& other) const {
  return size_ == other.size_ && words_ == other.words_;
}

}  // namespace fobs::util
