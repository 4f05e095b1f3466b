// Unit tests for TransferObject (memory, pattern, mmap backings).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common/crc32.h"
#include "common/rng.h"
#include "fobs/object.h"

namespace fobs::core {
namespace {

std::string temp_path(const char* tag) {
  return std::string("/tmp/fobs_object_test_") + tag + "_" + std::to_string(::getpid());
}

TEST(TransferObject, AllocateIsZeroed) {
  auto object = TransferObject::allocate(1000);
  EXPECT_EQ(object.size(), 1000);
  for (auto byte : object.view()) EXPECT_EQ(byte, 0);
  EXPECT_FALSE(object.is_mapped());
}

TEST(TransferObject, PatternIsDeterministic) {
  auto a = TransferObject::pattern(4096, 7);
  auto b = TransferObject::pattern(4096, 7);
  auto c = TransferObject::pattern(4096, 8);
  EXPECT_EQ(a.checksum(), b.checksum());
  EXPECT_NE(a.checksum(), c.checksum());
  EXPECT_TRUE(std::equal(a.view().begin(), a.view().end(), b.view().begin()));
}

TEST(TransferObject, PatternTailBytesForOddSizes) {
  auto object = TransferObject::pattern(1001, 3);
  EXPECT_EQ(object.size(), 1001);
  // Not all zero at the tail (the final partial word is filled).
  bool tail_nonzero = false;
  for (std::size_t i = 996; i < 1001; ++i) tail_nonzero |= object.view()[i] != 0;
  EXPECT_TRUE(tail_nonzero);
}

TEST(TransferObject, PatternMatchesMakePatternForOddSizes) {
  for (const std::int64_t size : {0, 1, 7, 9, 13, 1001, 4099}) {
    const auto seed = static_cast<std::uint64_t>(0x0DD + size);
    const auto object = TransferObject::pattern(size, seed);
    const auto bytes = make_pattern(size, seed);
    ASSERT_EQ(object.size(), size);
    ASSERT_EQ(static_cast<std::int64_t>(bytes.size()), size);
    EXPECT_TRUE(std::equal(bytes.begin(), bytes.end(), object.view().begin())) << size;
  }
  // The layout both names promise: one draw per 8 bytes, and the first
  // bytes of one more draw for a shorter tail.
  util::Rng rng(0x0DD + 13);
  const std::uint64_t words[2] = {rng.next(), rng.next()};
  std::uint8_t expected[16];
  std::memcpy(expected, words, sizeof(words));
  const auto bytes = make_pattern(13, 0x0DD + 13);
  EXPECT_TRUE(std::equal(bytes.begin(), bytes.end(), expected));
}

TEST(TransferObject, FromVectorAdoptsContent) {
  std::vector<std::uint8_t> data{1, 2, 3, 4, 5};
  auto object = TransferObject::from_vector(data);
  EXPECT_EQ(object.size(), 5);
  EXPECT_EQ(object.view()[4], 5);
}

TEST(TransferObject, MoveTransfersOwnership) {
  auto a = TransferObject::pattern(128, 1);
  const auto sum = a.checksum();
  TransferObject b = std::move(a);
  EXPECT_EQ(b.size(), 128);
  EXPECT_EQ(b.checksum(), sum);
  EXPECT_EQ(a.size(), 0);  // NOLINT(bugprone-use-after-move): moved-from is empty
}

TEST(TransferObject, FileRoundTripThroughMmap) {
  const std::string path = temp_path("roundtrip");
  auto original = TransferObject::pattern(100'000, 99);
  ASSERT_TRUE(original.write_to_file(path));

  auto mapped = TransferObject::map_file(path);
  ASSERT_TRUE(mapped.has_value());
  EXPECT_TRUE(mapped->is_mapped());
  EXPECT_EQ(mapped->size(), 100'000);
  EXPECT_EQ(mapped->checksum(), original.checksum());
  std::remove(path.c_str());
}

TEST(TransferObject, MapMissingFileFails) {
  EXPECT_FALSE(TransferObject::map_file("/nonexistent/definitely/not/here").has_value());
}

TEST(TransferObject, MapEmptyFileFails) {
  const std::string path = temp_path("empty");
  { std::ofstream out(path); }
  EXPECT_FALSE(TransferObject::map_file(path).has_value());
  std::remove(path.c_str());
}

TEST(TransferObject, MapFileRwPersistsWritesAcrossMappings) {
  const std::string path = temp_path("rw");
  std::remove(path.c_str());
  {
    auto mapping = TransferObject::map_file_rw(path, 4096);
    ASSERT_TRUE(mapping.has_value());
    EXPECT_TRUE(mapping->is_mapped());
    EXPECT_TRUE(mapping->is_writable());
    EXPECT_EQ(mapping->size(), 4096);
    auto view = mapping->mutable_view();
    for (std::size_t i = 0; i < view.size(); ++i) {
      view[i] = static_cast<std::uint8_t>(i * 7);
    }
    EXPECT_TRUE(mapping->sync());
  }  // unmapped here, as after a process death
  auto reopened = TransferObject::map_file_rw(path, 4096);
  ASSERT_TRUE(reopened.has_value());
  for (std::size_t i = 0; i < 4096; ++i) {
    ASSERT_EQ(reopened->view()[i], static_cast<std::uint8_t>(i * 7)) << "byte " << i;
  }
  std::remove(path.c_str());
}

TEST(TransferObject, MapFileRwCreatesAndResizes) {
  const std::string path = temp_path("rw_resize");
  std::remove(path.c_str());
  // Creates a zero-filled file of the requested size.
  {
    auto mapping = TransferObject::map_file_rw(path, 100);
    ASSERT_TRUE(mapping.has_value());
    for (auto byte : mapping->view()) EXPECT_EQ(byte, 0);
    mapping->mutable_view()[0] = 0xAA;
  }
  // A size mismatch resizes; surviving bytes within range are kept.
  auto resized = TransferObject::map_file_rw(path, 200);
  ASSERT_TRUE(resized.has_value());
  EXPECT_EQ(resized->size(), 200);
  EXPECT_EQ(resized->view()[0], 0xAA);
  EXPECT_EQ(resized->view()[199], 0);
  EXPECT_FALSE(TransferObject::map_file_rw(path, 0).has_value());
  std::remove(path.c_str());
}

TEST(TransferObject, ChecksumIsCrc32cOfTheBytes) {
  // An odd size ends the mapping mid-word, so the last load is the tail.
  const std::string path = temp_path("crc");
  auto original = TransferObject::pattern(100'003, 17);
  ASSERT_TRUE(original.write_to_file(path));
  auto mapped = TransferObject::map_file(path);
  ASSERT_TRUE(mapped.has_value());
  for (const TransferObject* object : {&original, &*mapped}) {
    const auto bytes = object->view();
    EXPECT_EQ(object->checksum(), std::uint64_t{util::crc32(bytes.data(), bytes.size())});
  }
  EXPECT_EQ(TransferObject::allocate(0).checksum(), 0u);
  std::remove(path.c_str());
}

TEST(TransferObject, ChecksumDetectsCorruption) {
  auto object = TransferObject::pattern(1024, 5);
  const auto before = object.checksum();
  object.mutable_view()[512] ^= 0xFF;
  EXPECT_NE(object.checksum(), before);
}

TEST(TransferObject, StartWritebackNeedsNoFileAndFollowsAMove) {
  auto owned = TransferObject::pattern(2 * kPageBytes, 1);
  EXPECT_TRUE(owned.start_writeback(owned.view()));
  const std::string path = temp_path("writeback");
  std::remove(path.c_str());
  auto mapping = TransferObject::map_file_rw(path, 2 * kPageBytes);
  ASSERT_TRUE(mapping.has_value());
  std::memset(mapping->mutable_view().data(), 0x5A, 2 * kPageBytes);
  EXPECT_TRUE(mapping->start_writeback(mapping->view().first(kPageBytes)));
  TransferObject moved = std::move(*mapping);  // the file goes with the mapping
  EXPECT_TRUE(moved.start_writeback(moved.view().last(kPageBytes)));
  // The pages left the page tables, not the file: they read back intact.
  EXPECT_TRUE(std::all_of(moved.view().begin(), moved.view().end(),
                          [](std::uint8_t byte) { return byte == 0x5A; }));
  EXPECT_TRUE(moved.sync());
  std::remove(path.c_str());
}

// Four writer threads fill a file mapping page by page, interleaved, and
// hand each finished page to one WriteBehind, as a fetch's receive flows
// do. After join() and sync() the file holds every byte; a range handed
// after join() is dropped, and join() may run twice.
TEST(WriteBehind, TakesRangesFromConcurrentWritersAndJoins) {
  const std::string path = temp_path("write_behind");
  std::remove(path.c_str());
  const std::int64_t size = 64 * static_cast<std::int64_t>(kPageBytes) + 100;
  const auto source = make_pattern(size, 3);
  auto mapping = TransferObject::map_file_rw(path, size);
  ASSERT_TRUE(mapping.has_value());
  {
    WriteBehind write_behind(*mapping);
    const auto view = mapping->mutable_view();
    constexpr std::size_t kWriters = 4;
    std::vector<std::thread> writers;
    for (std::size_t t = 0; t < kWriters; ++t) {
      writers.emplace_back([&, t] {
        for (std::size_t at = t * kPageBytes; at < view.size(); at += kWriters * kPageBytes) {
          const auto page = view.subspan(at, std::min(kPageBytes, view.size() - at));
          std::memcpy(page.data(), source.data() + at, page.size());
          write_behind.written(page);
        }
      });
    }
    for (auto& writer : writers) writer.join();
    write_behind.join();
    write_behind.join();
    write_behind.written(mapping->view().first(kPageBytes));
  }  // the destructor joins again
  EXPECT_TRUE(mapping->sync());
  mapping.reset();
  const auto reread = TransferObject::map_file(path);
  ASSERT_TRUE(reread.has_value());
  EXPECT_TRUE(std::equal(source.begin(), source.end(), reread->view().begin()));
  std::remove(path.c_str());
}

TEST(WriteBehind, AcceptsRangesOfAnObjectWithoutAFile) {
  auto object = TransferObject::allocate(3 * kPageBytes);
  WriteBehind write_behind(object);
  write_behind.written(object.view().subspan(kPageBytes, kPageBytes));
  write_behind.join();
}

}  // namespace
}  // namespace fobs::core
