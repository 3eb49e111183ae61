#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "src/util/cli.h"
#include "src/util/logging.h"
#include "src/util/rng.h"
#include "src/util/stopwatch.h"
#include "src/util/table.h"

namespace swdnn::util {
namespace {

TEST(TextTable, RendersAlignedColumns) {
  TextTable t;
  t.set_header({"a", "long-name", "c"});
  t.add_row({"1", "2", "3"});
  t.add_row({"1000", "x", "y"});
  const std::string out = t.render();
  EXPECT_NE(out.find("a     long-name  c"), std::string::npos);
  EXPECT_NE(out.find("1000"), std::string::npos);
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST(TextTable, RejectsWidthMismatch) {
  TextTable t;
  t.set_header({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(TextTable, HeaderlessTableRenders) {
  TextTable t;
  t.add_row({"x", "y"});
  EXPECT_NE(t.render().find("x  y"), std::string::npos);
}

TEST(Formatting, Doubles) {
  EXPECT_EQ(fmt_double(3.14159, 2), "3.14");
  EXPECT_EQ(fmt_double(742.4, 1), "742.4");
  EXPECT_EQ(fmt_speedup(1.913), "1.91x");
}

TEST(CliArgs, ParsesKeyValueAndFlags) {
  const char* argv[] = {"prog", "--batch=128", "--verbose", "positional"};
  CliArgs args(4, argv);
  EXPECT_EQ(args.get_int("batch", 0), 128);
  EXPECT_TRUE(args.has("verbose"));
  EXPECT_EQ(args.get("verbose", ""), "1");
  EXPECT_FALSE(args.has("positional"));
  EXPECT_EQ(args.get_int("missing", 7), 7);
  EXPECT_DOUBLE_EQ(args.get_double("missing", 2.5), 2.5);
}

TEST(CliArgs, StringAndDoubleValues) {
  const char* argv[] = {"prog", "--plan=batch", "--lr=0.05"};
  CliArgs args(3, argv);
  EXPECT_EQ(args.get("plan", "img"), "batch");
  EXPECT_DOUBLE_EQ(args.get_double("lr", 0.0), 0.05);
}

/// Expects parse(key) to throw std::invalid_argument naming --key.
template <typename Parse>
void expect_flag_error(Parse parse, const char* key) {
  try {
    parse(key);
    ADD_FAILURE() << key << " parsed";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(std::string("--") + key),
              std::string::npos)
        << e.what();
  }
}

TEST(CliArgs, MalformedIntegersThrowNamingTheFlag) {
  const char* argv[] = {"prog", "--mesh=abc", "--batch=4x", "--steps=",
                        "--n=99999999999999999999", "--k=-2"};
  CliArgs args(6, argv);
  for (const char* key : {"mesh", "batch", "steps", "n"}) {
    expect_flag_error([&](const char* k) { args.get_int(k, 0); }, key);
  }
  EXPECT_EQ(args.get_int("k", 0), -2);  // negative is a number
}

TEST(CliArgs, MalformedDoublesThrowNamingTheFlag) {
  const char* argv[] = {"prog", "--lr=0.5e", "--rate=abc", "--big=1e999",
                        "--mom=inf", "--ok=2.5e-1"};
  CliArgs args(6, argv);
  for (const char* key : {"lr", "rate", "big", "mom"}) {
    expect_flag_error([&](const char* k) { args.get_double(k, 0.0); }, key);
  }
  EXPECT_DOUBLE_EQ(args.get_double("ok", 0.0), 0.25);
}

TEST(Rng, DeterministicForFixedSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(0, 1), b.uniform(0, 1));
  }
}

TEST(Rng, UniformWithinBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(-2.0, 3.0);
    EXPECT_GE(v, -2.0);
    EXPECT_LT(v, 3.0);
  }
}

TEST(Rng, UniformIntInclusiveRange) {
  Rng rng(7);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_int(1, 4);
    EXPECT_GE(v, 1);
    EXPECT_LE(v, 4);
    saw_lo |= (v == 1);
    saw_hi |= (v == 4);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, FillNormalHasRoughlyRightMoments) {
  Rng rng(99);
  std::vector<double> buf(20000);
  rng.fill_normal(buf, 1.0, 2.0);
  double mean = 0;
  for (double v : buf) mean += v;
  mean /= static_cast<double>(buf.size());
  double var = 0;
  for (double v : buf) var += (v - mean) * (v - mean);
  var /= static_cast<double>(buf.size());
  EXPECT_NEAR(mean, 1.0, 0.1);
  EXPECT_NEAR(var, 4.0, 0.3);
}

// Stddev 0 is the point mass at the mean. It must advance the engine
// exactly as a positive stddev does, so every later draw is unmoved.
TEST(Rng, ZeroStddevNormalReturnsTheMeanAndKeepsTheStream) {
  Rng point(2024), unit(2024);
  EXPECT_EQ(point.normal(3.0, 0.0), 3.0);
  unit.normal(0.0, 1.0);
  EXPECT_EQ(point.uniform(0.0, 1.0), unit.uniform(0.0, 1.0));
}

TEST(Rng, ZeroStddevFillNormalReturnsTheMeanAndKeepsTheStream) {
  Rng point(2024), unit(2024);
  // An odd count leaves the polar method's spare sample unused.
  std::vector<double> flat(7), spread(7);
  point.fill_normal(flat, 3.0, 0.0);
  unit.fill_normal(spread, 0.0, 1.0);
  for (double v : flat) EXPECT_EQ(v, 3.0);
  EXPECT_EQ(point.uniform(0.0, 1.0), unit.uniform(0.0, 1.0));
}

TEST(Logging, LevelGateIsHonoured) {
  const LogLevel original = log_level();
  set_log_level(LogLevel::kError);
  EXPECT_EQ(log_level(), LogLevel::kError);
  // Suppressed levels must not crash and must not emit (observable only
  // as "does not blow up" here; the gate itself is the contract).
  SWDNN_LOG(kDebug) << "suppressed " << 42;
  SWDNN_LOG(kInfo) << "suppressed";
  SWDNN_LOG(kError) << "emitted to stderr during tests, by design";
  set_log_level(original);
}

TEST(Logging, StreamFormattingComposes) {
  const LogLevel original = log_level();
  set_log_level(LogLevel::kError);  // keep test output quiet
  SWDNN_LOG(kInfo) << "pi=" << 3.14 << " n=" << 7 << " s=" << std::string("x");
  set_log_level(original);
}

TEST(Stopwatch, MeasuresElapsedTime) {
  Stopwatch w;
  const double t0 = w.elapsed_seconds();
  EXPECT_GE(t0, 0.0);
  w.reset();
  EXPECT_GE(w.elapsed_ms(), 0.0);
}

}  // namespace
}  // namespace swdnn::util
