// Tests for Table, ThreadPool, Cli, logging and error plumbing, and the
// bench binaries' bar chart and stopwatch (bench/chart.hpp, bench/timer.hpp).
#include <gtest/gtest.h>

#include <atomic>
#include <sstream>

#include "analysis/util/thread_pool.hpp"
#include "chart.hpp"
#include "timer.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/log.hpp"
#include "util/table.hpp"

namespace confnet::util {
namespace {

TEST(Table, AlignedRendering) {
  Table t("demo", {"name", "value"});
  t.row().cell("alpha").cell(1);
  t.row().cell("b").cell(23456);
  std::ostringstream os;
  t.print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("demo"), std::string::npos);
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("23456"), std::string::npos);
  // Header separator lines present.
  EXPECT_NE(s.find("+--"), std::string::npos);
}

TEST(Table, CsvEscaping) {
  Table t("", {"a", "b"});
  t.row().cell("x,y").cell("say \"hi\"");
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_EQ(os.str(), "a,b\n\"x,y\",\"say \"\"hi\"\"\"\n");
}

TEST(Table, CellArityEnforced) {
  Table t("", {"one"});
  t.row().cell(1);
  EXPECT_THROW(t.cell(2), Error);
  Table t2("", {"one", "two"});
  t2.row().cell(1);
  EXPECT_THROW(t2.row(), Error);  // previous row incomplete
}

TEST(Table, DoubleFormatting) {
  Table t("", {"v"});
  t.row().cell(3.14159, 3);
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_NE(os.str().find("3.14"), std::string::npos);
}

TEST(ThreadPool, SubmitReturnsValue) {
  ThreadPool pool(2);
  auto f = pool.submit([] { return 41 + 1; });
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPool, SubmitPropagatesException) {
  ThreadPool pool(2);
  auto f = pool.submit([]() -> int { throw Error("boom"); });
  EXPECT_THROW(f.get(), Error);
}

TEST(ThreadPool, ParallelForCoversAll) {
  ThreadPool pool(4);
  constexpr std::size_t kCount = 10000;
  std::vector<std::atomic<int>> hits(kCount);
  pool.parallel_for(kCount, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForEmpty) {
  ThreadPool pool(2);
  pool.parallel_for(0, [](std::size_t) { FAIL(); });
}

TEST(ThreadPool, ParallelForRethrows) {
  ThreadPool pool(3);
  EXPECT_THROW(pool.parallel_for(100,
                                 [](std::size_t i) {
                                   if (i == 57) throw Error("bad index");
                                 }),
               Error);
}

TEST(ThreadPool, SingleWorkerStillWorks) {
  ThreadPool pool(1);
  std::atomic<int> sum{0};
  pool.parallel_for(100, [&](std::size_t i) { sum += static_cast<int>(i); });
  EXPECT_EQ(sum.load(), 4950);
}

TEST(Cli, ParsesTypedFlags) {
  Cli cli("prog", "test");
  cli.add_int("n", 8, "size");
  cli.add_double("rate", 1.0, "rate");
  cli.add_flag("verbose", false, "talk");
  cli.add_string("topo", "omega", "topology");
  const char* argv[] = {"prog", "--n=16", "--rate", "2.5", "--verbose",
                        "--topo=cube", "positional"};
  ASSERT_TRUE(cli.parse(7, argv));
  EXPECT_EQ(cli.get_int("n"), 16);
  EXPECT_DOUBLE_EQ(cli.get_double("rate"), 2.5);
  EXPECT_TRUE(cli.get_flag("verbose"));
  EXPECT_EQ(cli.get_string("topo"), "cube");
  ASSERT_EQ(cli.positional().size(), 1u);
  EXPECT_EQ(cli.positional()[0], "positional");
}

TEST(Cli, DefaultsHold) {
  Cli cli("prog", "test");
  cli.add_int("n", 8, "size");
  const char* argv[] = {"prog"};
  ASSERT_TRUE(cli.parse(1, argv));
  EXPECT_EQ(cli.get_int("n"), 8);
}

TEST(Cli, UnknownFlagThrows) {
  Cli cli("prog", "test");
  const char* argv[] = {"prog", "--nope"};
  EXPECT_THROW(cli.parse(2, argv), Error);
}

TEST(Cli, MalformedValueThrows) {
  Cli cli("prog", "test");
  cli.add_int("n", 8, "size");
  const char* argv[] = {"prog", "--n=abc"};
  ASSERT_TRUE(cli.parse(2, argv));
  EXPECT_THROW((void)cli.get_int("n"), Error);
}

TEST(Cli, HelpReturnsFalse) {
  Cli cli("prog", "test");
  const char* argv[] = {"prog", "--help"};
  EXPECT_FALSE(cli.parse(2, argv));
}

TEST(ErrorPlumbing, ExpectsThrowsWithLocation) {
  try {
    expects(false, "my condition");
    FAIL();
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("my condition"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("precondition"), std::string::npos);
  }
}

TEST(ErrorPlumbing, MacroCapturesExpression) {
  try {
    CONFNET_EXPECTS(1 == 2);
    FAIL();
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("1 == 2"), std::string::npos);
  }
}

TEST(Log, LevelFiltering) {
  const LogLevel before = log_level();
  set_log_level(LogLevel::kError);
  EXPECT_EQ(log_level(), LogLevel::kError);
  // Should be silently discarded (no crash, no way to observe stderr here).
  CONFNET_INFO << "hidden message";
  set_log_level(before);
}

TEST(BarChart, ScalesToWidth) {
  const std::string chart =
      bench::bar_chart({{"a", 1.0}, {"bb", 2.0}, {"ccc", 4.0}}, 8);
  // Longest value spans the full width; half value spans half.
  EXPECT_NE(chart.find("ccc |########"), std::string::npos);
  EXPECT_NE(chart.find("bb  |####"), std::string::npos);
  EXPECT_NE(chart.find("a   |##"), std::string::npos);
}

TEST(BarChart, HandlesZeroSeries) {
  const std::string chart = bench::bar_chart({{"x", 0.0}, {"y", 0.0}}, 10);
  EXPECT_EQ(chart.find('#'), std::string::npos);
}

TEST(BarChart, RejectsNegative) {
  EXPECT_THROW((void)bench::bar_chart({{"x", -1.0}}, 10), Error);
  EXPECT_THROW((void)bench::bar_chart({{"x", 1.0}}, 0), Error);
}

TEST(Timer, MeasuresForwardTime) {
  bench::Stopwatch sw;
  volatile double sink = 0;
  for (int i = 0; i < 100000; ++i) sink = sink + i * 0.5;
  EXPECT_GE(sw.elapsed_ns(), 0);
  EXPECT_GE(sw.elapsed_ms(), 0.0);
  const auto a = bench::now_ns();
  const auto b = bench::now_ns();
  EXPECT_GE(b, a);
}

}  // namespace
}  // namespace confnet::util
