// Tests for the gnuplot report writer.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include <unistd.h>

#include "exp/report.h"

namespace fobs::exp {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream oss;
  oss << in.rdbuf();
  return oss.str();
}

// Designated initializers, not member-by-member string assignments:
// the latter trip a false -Wrestrict in GCC 12 at -O3.
PlotSpec sample_spec() {
  return PlotSpec{
      .name = "test_plot",
      .title = "A test",
      .xlabel = "x",
      .ylabel = "y",
      .xs = {1.0, 2.0, 4.0},
      .series = {{"alpha", {10.0, 20.0, 30.0}}, {"beta", {1.5, 2.5, 3.5}}},
  };
}

TEST(Report, WritesDatAndGnuplotFiles) {
  const std::string dir = "/tmp/fobs_report_test_" + std::to_string(::getpid());
  ASSERT_EQ(::system(("mkdir -p " + dir).c_str()), 0);
  ASSERT_TRUE(write_plot(dir, sample_spec()));

  const std::string dat = slurp(dir + "/test_plot.dat");
  EXPECT_NE(dat.find("# x alpha beta"), std::string::npos);
  EXPECT_NE(dat.find("1 10 1.5"), std::string::npos);
  EXPECT_NE(dat.find("4 30 3.5"), std::string::npos);

  const std::string gp = slurp(dir + "/test_plot.gp");
  EXPECT_NE(gp.find("set output 'test_plot.png'"), std::string::npos);
  EXPECT_NE(gp.find("using 1:2"), std::string::npos);
  EXPECT_NE(gp.find("using 1:3"), std::string::npos);
  EXPECT_NE(gp.find("title 'alpha'"), std::string::npos);
  EXPECT_EQ(gp.find("logscale"), std::string::npos);  // log_x off by default

  (void)::system(("rm -rf " + dir).c_str());
}

TEST(Report, LogScaleEmittedWhenRequested) {
  const std::string dir = "/tmp/fobs_report_test_log_" + std::to_string(::getpid());
  ASSERT_EQ(::system(("mkdir -p " + dir).c_str()), 0);
  auto spec = sample_spec();
  spec.log_x = true;
  ASSERT_TRUE(write_plot(dir, spec));
  EXPECT_NE(slurp(dir + "/test_plot.gp").find("set logscale x 2"), std::string::npos);
  (void)::system(("rm -rf " + dir).c_str());
}

TEST(Report, MissingDirectoryFails) {
  EXPECT_FALSE(write_plot("/nonexistent/fobs/dir", sample_spec()));
}

TEST(Report, PlotDirFromEnv) {
  ::unsetenv("FOBS_BENCH_PLOT");
  EXPECT_TRUE(plot_dir_from_env().empty());
  ::setenv("FOBS_BENCH_PLOT", "/tmp/somewhere", 1);
  EXPECT_EQ(plot_dir_from_env(), "/tmp/somewhere");
  ::unsetenv("FOBS_BENCH_PLOT");
}

}  // namespace
}  // namespace fobs::exp
