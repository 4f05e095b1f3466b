// Unit tests for TextTable and ThreadPool.
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <sstream>
#include <string>

#include "common/table.h"
#include "common/thread_pool.h"

namespace fobs::util {
namespace {

TEST(TextTable, AlignsColumns) {
  TextTable t({"name", "value"});
  t.add_row({"x", "1"});
  t.add_row({"longer-name", "22"});
  const std::string out = t.to_string();
  // Header and rows padded to the widest cell.
  EXPECT_NE(out.find("name         value"), std::string::npos);
  EXPECT_NE(out.find("longer-name  22"), std::string::npos);
  EXPECT_EQ(t.row_count(), 2u);
}

TEST(TextTable, CsvQuoting) {
  TextTable t({"a", "b"});
  t.add_row({"plain", "has,comma"});
  t.add_row({"has\"quote", "multi\nline"});
  std::ostringstream oss;
  t.print_csv(oss);
  const std::string csv = oss.str();
  EXPECT_NE(csv.find("plain,\"has,comma\""), std::string::npos);
  EXPECT_NE(csv.find("\"has\"\"quote\""), std::string::npos);
  EXPECT_NE(csv.find("\"multi\nline\""), std::string::npos);
}

TEST(TextTable, NumberFormatting) {
  EXPECT_EQ(TextTable::num(3.14159, 2), "3.14");
  EXPECT_EQ(TextTable::num(2.0, 0), "2");
  EXPECT_EQ(TextTable::pct(0.895, 1), "89.5%");
  EXPECT_EQ(TextTable::pct(1.0, 0), "100%");
}

TEST(ThreadPool, SubmitReturnsResults) {
  ThreadPool pool(2);
  auto f1 = pool.submit([] { return 41 + 1; });
  auto f2 = pool.submit([] { return std::string("ok"); });
  EXPECT_EQ(f1.get(), 42);
  EXPECT_EQ(f2.get(), "ok");
}

TEST(ThreadPool, ExceptionPropagatesThroughFuture) {
  ThreadPool pool(1);
  auto f = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ThreadPool, ManyTasksComplete) {
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 500; ++i) {
    futures.push_back(pool.submit([&counter] { counter.fetch_add(1); }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 500);
}

}  // namespace
}  // namespace fobs::util
