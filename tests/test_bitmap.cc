// Unit + property tests for the packet bitmap.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/bitmap.h"
#include "common/rng.h"

namespace fobs::util {
namespace {

TEST(Bitmap, SetTestClearCount) {
  Bitmap b(100);
  EXPECT_EQ(b.size(), 100u);
  EXPECT_TRUE(b.none_set());
  EXPECT_TRUE(b.set(5));
  EXPECT_FALSE(b.set(5));  // already set
  EXPECT_TRUE(b.test(5));
  EXPECT_EQ(b.count(), 1u);
  EXPECT_TRUE(b.clear(5));
  EXPECT_FALSE(b.clear(5));
  EXPECT_EQ(b.count(), 0u);
}

TEST(Bitmap, AllSetOnOddSize) {
  Bitmap b(67);  // crosses a word boundary, non-multiple of 64
  for (std::size_t i = 0; i < 67; ++i) b.set(i);
  EXPECT_TRUE(b.all_set());
  b.clear_all();
  EXPECT_TRUE(b.none_set());
  b.set_all();
  EXPECT_TRUE(b.all_set());
  EXPECT_EQ(b.count(), 67u);
}

TEST(Bitmap, FirstClearScansAcrossWords) {
  Bitmap b(200);
  b.set_all();
  b.clear(0);
  b.clear(63);
  b.clear(64);
  b.clear(199);
  EXPECT_EQ(b.first_clear(0).value(), 0u);
  EXPECT_EQ(b.first_clear(1).value(), 63u);
  EXPECT_EQ(b.first_clear(64).value(), 64u);
  EXPECT_EQ(b.first_clear(65).value(), 199u);
  b.set(199);
  EXPECT_FALSE(b.first_clear(65).has_value());
  EXPECT_FALSE(b.first_clear(500).has_value());
}

TEST(Bitmap, FirstSetScans) {
  Bitmap b(130);
  EXPECT_FALSE(b.first_set(0).has_value());
  b.set(129);
  EXPECT_EQ(b.first_set(0).value(), 129u);
  b.set(64);
  EXPECT_EQ(b.first_set(0).value(), 64u);
  EXPECT_EQ(b.first_set(65).value(), 129u);
}

TEST(Bitmap, FirstClearCircularWraps) {
  Bitmap b(10);
  for (std::size_t i = 0; i < 10; ++i) b.set(i);
  b.clear(2);
  EXPECT_EQ(b.first_clear_circular(5).value(), 2u);  // wraps past the end
  EXPECT_EQ(b.first_clear_circular(2).value(), 2u);
  EXPECT_EQ(b.first_clear_circular(12).value(), 2u);  // modulo start
  b.set(2);
  EXPECT_FALSE(b.first_clear_circular(0).has_value());
}

TEST(Bitmap, CountInRange) {
  Bitmap b(256);
  for (std::size_t i = 0; i < 256; i += 3) b.set(i);
  std::size_t expected = 0;
  for (std::size_t i = 10; i < 200; ++i) expected += b.test(i) ? 1 : 0;
  EXPECT_EQ(b.count_in_range(10, 200), expected);
  EXPECT_EQ(b.count_in_range(0, 0), 0u);
  EXPECT_EQ(b.count_in_range(0, 256), b.count());
  EXPECT_EQ(b.count_in_range(63, 65), b.test(63) + b.test(64));
}

TEST(Bitmap, ExtractMergeRoundTrip) {
  Bitmap src(300);
  Rng rng(3);
  for (std::size_t i = 0; i < 300; ++i) {
    if (rng.bernoulli(0.4)) src.set(i);
  }
  const auto packed = src.extract_range(37, 251);
  Bitmap dst(300);
  const std::size_t newly = dst.merge_range(37, 251 - 37, packed.data(), packed.size());
  EXPECT_EQ(newly, src.count_in_range(37, 251));
  for (std::size_t i = 37; i < 251; ++i) EXPECT_EQ(dst.test(i), src.test(i));
  for (std::size_t i = 0; i < 37; ++i) EXPECT_FALSE(dst.test(i));
  // Merging again adds nothing.
  EXPECT_EQ(dst.merge_range(37, 251 - 37, packed.data(), packed.size()), 0u);
}

// The word-level extract_range/merge_range against one-bit-at-a-time
// references, at random offsets and lengths: ranges that start and end
// mid-word, that end in the unaligned tail word, and that end at the
// bitmap's last bit.
TEST(Bitmap, ExtractAndMergeMatchBitwiseReferenceAtRandomRanges) {
  Rng rng(11);
  for (int trial = 0; trial < 2000; ++trial) {
    const auto size = static_cast<std::size_t>(rng.uniform_int(1, 700));
    Bitmap src(size);
    Bitmap dst(size);
    const double density = rng.uniform(0.0, 1.0);
    for (std::size_t i = 0; i < size; ++i) {
      if (rng.bernoulli(density)) src.set(i);
      if (rng.bernoulli(0.3)) dst.set(i);
    }
    const auto begin = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(size)));
    const auto end = trial % 4 == 0 ? size  // the last word, to the last bit
                                    : static_cast<std::size_t>(rng.uniform_int(
                                          static_cast<std::int64_t>(begin),
                                          static_cast<std::int64_t>(size)));
    SCOPED_TRACE("size " + std::to_string(size) + " [" + std::to_string(begin) + ", " +
                 std::to_string(end) + ")");

    std::vector<std::uint8_t> expected((end - begin + 7) / 8, 0);
    for (std::size_t i = begin; i < end; ++i) {
      const std::size_t bit = i - begin;
      if (src.test(i)) expected[bit / 8] |= static_cast<std::uint8_t>(1u << (bit % 8));
    }
    const auto packed = src.extract_range(begin, end);
    ASSERT_EQ(packed, expected);

    // Merge at an unrelated offset, with garbage past the last bit of the
    // packed bytes, which must be ignored.
    auto garbage = packed;
    const std::size_t tail_bits = (end - begin) % 8;
    if (tail_bits != 0) garbage.back() |= static_cast<std::uint8_t>(0xFFu << tail_bits);
    const auto at = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(size - (end - begin))));
    std::vector<bool> model(size);
    std::size_t expected_new = 0;
    for (std::size_t i = 0; i < size; ++i) model[i] = dst.test(i);
    for (std::size_t i = 0; i < end - begin; ++i) {
      if ((packed[i / 8] & (1u << (i % 8))) != 0 && !model[at + i]) {
        model[at + i] = true;
        ++expected_new;
      }
    }
    ASSERT_EQ(dst.merge_range(at, end - begin, garbage.data(), garbage.size()), expected_new);
    for (std::size_t i = 0; i < size; ++i) ASSERT_EQ(dst.test(i), model[i]) << "bit " << i;
    ASSERT_EQ(dst.count(),
              static_cast<std::size_t>(std::count(model.begin(), model.end(), true)));
  }
}

TEST(Bitmap, Equality) {
  Bitmap a(50), b(50), c(51);
  a.set(10);
  b.set(10);
  EXPECT_EQ(a, b);
  b.set(11);
  EXPECT_FALSE(a == b);
  EXPECT_FALSE(a == c);
}

// Property test: the bitmap agrees with a std::vector<bool> reference
// under a random operation mix, for several seeds and sizes.
class BitmapPropertyTest : public ::testing::TestWithParam<std::tuple<std::uint64_t, std::size_t>> {};

TEST_P(BitmapPropertyTest, MatchesReferenceModel) {
  const auto [seed, size] = GetParam();
  Rng rng(seed);
  Bitmap bitmap(size);
  std::vector<bool> model(size, false);

  for (int op = 0; op < 2000; ++op) {
    const auto i = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(size) - 1));
    switch (rng.uniform_int(0, 3)) {
      case 0: {
        const bool changed = bitmap.set(i);
        EXPECT_EQ(changed, !model[i]);
        model[i] = true;
        break;
      }
      case 1: {
        const bool changed = bitmap.clear(i);
        EXPECT_EQ(changed, model[i]);
        model[i] = false;
        break;
      }
      case 2: {
        EXPECT_EQ(bitmap.test(i), model[i]);
        break;
      }
      case 3: {
        // first_clear from i must match the model scan.
        auto expected = std::optional<std::size_t>{};
        for (std::size_t j = i; j < size; ++j) {
          if (!model[j]) {
            expected = j;
            break;
          }
        }
        EXPECT_EQ(bitmap.first_clear(i), expected);
        break;
      }
    }
    // Count invariant every few steps.
    if (op % 97 == 0) {
      const auto model_count =
          static_cast<std::size_t>(std::count(model.begin(), model.end(), true));
      EXPECT_EQ(bitmap.count(), model_count);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BitmapPropertyTest,
                         ::testing::Combine(::testing::Values(1ull, 2ull, 3ull, 4ull),
                                            ::testing::Values(std::size_t{63},
                                                              std::size_t{64},
                                                              std::size_t{65},
                                                              std::size_t{1000})));

}  // namespace
}  // namespace fobs::util
