// Tests for util: tables, stats, rng, cli, csv.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace looplynx::util {
namespace {

TEST(TableTest, RendersAlignedAscii) {
  Table t("Demo");
  t.set_header({"Arch", "Latency"});
  t.add_row({"LoopLynx", "2.55"});
  t.add_row({"DFX", "5.37"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("== Demo =="), std::string::npos);
  EXPECT_NE(s.find("| Arch     |"), std::string::npos);
  EXPECT_NE(s.find("| LoopLynx |"), std::string::npos);
  EXPECT_NE(s.find("|    2.55 |"), std::string::npos);  // right aligned
}

TEST(TableTest, ShortRowsArePadded) {
  Table t;
  t.set_header({"a", "b", "c"});
  t.add_row({"only"});
  EXPECT_EQ(t.num_rows(), 1u);
  EXPECT_NO_THROW(t.to_string());
}

TEST(FormatTest, Fixed) { EXPECT_EQ(fmt_fixed(3.14159, 2), "3.14"); }
TEST(FormatTest, Speedup) { EXPECT_EQ(fmt_speedup(2.5248, 2), "2.52x"); }
TEST(FormatTest, Percent) { EXPECT_EQ(fmt_percent(0.481, 1), "48.1%"); }
TEST(FormatTest, Int) {
  EXPECT_EQ(fmt_int(12288), "12,288");
  EXPECT_EQ(fmt_int(-1234567), "-1,234,567");
  EXPECT_EQ(fmt_int(0), "0");
  EXPECT_EQ(fmt_int(999), "999");
}
TEST(FormatTest, Kilo) {
  EXPECT_EQ(fmt_kilo(312000), "312K");
  EXPECT_EQ(fmt_kilo(1234567), "1.2M");
  EXPECT_EQ(fmt_kilo(42), "42");
}
TEST(FormatTest, Rate) {
  EXPECT_EQ(fmt_rate(8.49e9), "8.49 GB/s");
  EXPECT_EQ(fmt_rate(25e9), "25.0 GB/s");
  EXPECT_EQ(fmt_rate(512), "512.0 B/s");
  EXPECT_EQ(fmt_rate(2e15), "2000.0 TB/s");
}

TEST(StatsTest, MeanAndGeomean) {
  const double vals[] = {1.0, 2.0, 4.0};
  EXPECT_NEAR(geomean(vals), 2.0, 1e-12);
}

TEST(StatsTest, EmptyInputsAreZero) {
  EXPECT_EQ(geomean({}), 0.0);
  EXPECT_EQ(percentile({}, 99), 0.0);
}

TEST(StatsTest, Percentile) {
  std::vector<double> v{1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50), 3.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 5.0);
  EXPECT_DOUBLE_EQ(percentile(v, 25), 2.0);
}

TEST(StatsTest, RadixSortMatchesStdSort) {
  // Sizes on both sides of the std::sort cut-over and one past 64Ki keys,
  // with keys past 2^32 so the high digits run too.
  Rng rng(11);
  for (const std::size_t n : {100u, 5000u, 70000u}) {
    std::vector<std::uint64_t> keys(n);
    for (std::uint64_t& k : keys) k = rng.next_u64() >> (rng.next_below(64));
    std::vector<std::uint64_t> expected = keys;
    std::sort(expected.begin(), expected.end());
    radix_sort(keys);
    EXPECT_EQ(keys, expected) << n;
  }
}

/// Cycles to milliseconds at 200 MHz, the shape of
/// core::ArchConfig::cycles_to_ms.
double to_ms(std::uint64_t c) { return static_cast<double>(c) / 200e6 * 1e3; }

/// The summary ValueCounts replaces: sort every sample, sum the converted
/// samples in ascending order, interpolate between converted neighbors.
PercentileSummary reference_summary(std::vector<std::uint64_t> samples) {
  PercentileSummary s;
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  double sum = 0.0;
  for (std::uint64_t c : samples) sum += to_ms(c);
  s.count = samples.size();
  s.mean = sum / static_cast<double>(samples.size());
  const auto interp = [&](double p) {
    const double rank = (p / 100.0) * static_cast<double>(samples.size() - 1);
    const auto lo = static_cast<std::size_t>(rank);
    const auto hi = std::min(lo + 1, samples.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return to_ms(samples[lo]) * (1.0 - frac) + to_ms(samples[hi]) * frac;
  };
  s.p50 = interp(50.0);
  s.p95 = interp(95.0);
  s.p99 = interp(99.0);
  return s;
}

void expect_same_summary(const PercentileSummary& got,
                         const PercentileSummary& want) {
  EXPECT_EQ(got.count, want.count);
  EXPECT_EQ(got.mean, want.mean);
  EXPECT_EQ(got.p50, want.p50);
  EXPECT_EQ(got.p95, want.p95);
  EXPECT_EQ(got.p99, want.p99);
}

PercentileSummary store_summary(const std::vector<std::uint64_t>& samples) {
  ValueCounts store;
  for (std::uint64_t c : samples) store.add(c);
  store.compact();
  return store.summary(to_ms);
}

TEST(ValueCountsTest, EmptyOneSampleAndTiesMatchReference) {
  for (const std::vector<std::uint64_t>& samples :
       {std::vector<std::uint64_t>{}, std::vector<std::uint64_t>{12345},
        std::vector<std::uint64_t>(20000, 777)}) {
    SCOPED_TRACE(samples.size());
    expect_same_summary(store_summary(samples), reference_summary(samples));
  }
}

TEST(ValueCountsTest, ManyCompactionsAndGrowingDistinctMatchReference) {
  // Each draw comes from a range that widens with the stream, so the
  // distinct count passes the 4096-sample buffer and the flush threshold
  // follows the runs held.
  Rng rng(3);
  ValueCounts store;
  std::vector<std::uint64_t> samples;
  std::size_t rounds = 0;
  for (std::uint64_t i = 0; i < 200000; ++i) {
    const std::uint64_t c = 1000 + rng.next_below(1 + i / 8);
    samples.push_back(c);
    store.add(c);
    if (store.held() == store.runs().size()) ++rounds;  // just flushed
  }
  EXPECT_GT(rounds, 10u);
  EXPECT_GT(store.runs().size(), 4096u);
  store.compact();
  expect_same_summary(store.summary(to_ms), reference_summary(samples));
}

TEST(ValueCountsTest, ValuesPastTwoToTheThirtyTwoMatchReference) {
  Rng rng(5);
  std::vector<std::uint64_t> samples;
  for (int i = 0; i < 50000; ++i) {
    samples.push_back((std::uint64_t{1} << 40) + rng.next_below(3000) *
                                                     (std::uint64_t{1} << 20));
  }
  samples.push_back(std::uint64_t{1} << 62);
  expect_same_summary(store_summary(samples), reference_summary(samples));
}

TEST(ValueCountsTest, BitCastDoublesMatchSortedReference) {
  // Non-negative finite doubles keyed by their bits (how per-token latency
  // is stored) against the sort-based summary: the mean sums the sorted
  // values in ascending order, the percentiles are util::percentile's.
  // +0.0, ties and values across many binary exponents, on both sides of
  // the 4096-sample flush.
  const auto to_double = [](std::uint64_t b) {
    return std::bit_cast<double>(b);
  };
  Rng rng(17);
  for (const std::size_t n : {0u, 1u, 1000u, 20000u}) {
    SCOPED_TRACE(n);
    std::vector<double> values;
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t kind = rng.next_below(8);
      if (i == 0 || kind == 0) {
        values.push_back(0.0);
      } else if (kind == 1) {
        values.push_back(values[rng.next_below(values.size())]);  // a tie
      } else {
        values.push_back(std::ldexp(
            1.0 + rng.next_double(),
            static_cast<int>(rng.next_below(80)) - 40));
      }
    }
    ValueCounts store;
    for (double v : values) store.add(std::bit_cast<std::uint64_t>(v));
    store.compact();
    const PercentileSummary got = store.summary(to_double);

    PercentileSummary want;
    if (!values.empty()) {
      std::vector<double> sorted = values;
      std::sort(sorted.begin(), sorted.end());
      double sum = 0.0;
      for (double v : sorted) sum += v;
      want.count = sorted.size();
      want.mean = sum / static_cast<double>(sorted.size());
      want.p50 = percentile(values, 50.0);
      want.p95 = percentile(values, 95.0);
      want.p99 = percentile(values, 99.0);
    }
    expect_same_summary(got, want);
    if (n == 1) {
      EXPECT_EQ(got.p99, 0.0);  // the lone sample is +0.0
    }
  }
}

TEST(ValueCountsTest, MergedPartsEqualTheWhole) {
  Rng rng(9);
  std::vector<std::uint64_t> samples;
  for (int i = 0; i < 30000; ++i) samples.push_back(rng.next_below(5000));
  ValueCounts whole, merged;
  ValueCounts parts[3];
  for (std::size_t i = 0; i < samples.size(); ++i) {
    whole.add(samples[i]);
    parts[i * 3 / samples.size()].add(samples[i]);
  }
  whole.compact();
  for (ValueCounts& part : parts) {
    part.compact();
    merged.merge(part);
  }
  ASSERT_EQ(merged.runs().size(), whole.runs().size());
  for (std::size_t i = 0; i < whole.runs().size(); ++i) {
    EXPECT_EQ(merged.runs()[i].value, whole.runs()[i].value);
    EXPECT_EQ(merged.runs()[i].count, whole.runs()[i].count);
  }
  expect_same_summary(merged.summary(to_ms), whole.summary(to_ms));
  expect_same_summary(merged.summary(to_ms), reference_summary(samples));
}

TEST(ValueCountsTest, MemoryFollowsDistinctValues) {
  Rng rng(13);
  ValueCounts store;
  std::size_t most_held = 0;
  for (int i = 0; i < 1000000; ++i) {
    store.add(50000 + 37 * rng.next_below(100));
    most_held = std::max(most_held, store.held());
  }
  EXPECT_LE(most_held, 4096u + 100u);
  store.compact();
  EXPECT_EQ(store.runs().size(), 100u);
  EXPECT_EQ(store.summary(to_ms).count, 1000000u);
}

TEST(ValueCountsTest, ReadingAnUncompactedStoreThrows) {
  ValueCounts store;
  store.add(1);
  EXPECT_THROW(store.summary(to_ms), std::logic_error);
  ValueCounts other;
  EXPECT_THROW(other.merge(store), std::logic_error);
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_LT(same, 2);
}

TEST(RngTest, UniformDoubleInRange) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    const double v = r.next_double();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, NormalHasRoughlyUnitMoments) {
  Rng r(123);
  constexpr int kSamples = 20000;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (int i = 0; i < kSamples; ++i) {
    const double v = r.normal();
    sum += v;
    sum_sq += v * v;
  }
  const double m = sum / kSamples;
  const double variance = sum_sq / kSamples - m * m;
  EXPECT_NEAR(m, 0.0, 0.05);
  EXPECT_NEAR(std::sqrt(variance), 1.0, 0.05);
}

TEST(RngTest, UniformIntCoversRangeInclusive) {
  Rng r(5);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 1000; ++i) {
    const auto v = r.uniform_int(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    saw_lo |= (v == -2);
    saw_hi |= (v == 2);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(CliTest, ParsesKeyValueForms) {
  const char* argv[] = {"prog", "positional", "--nodes=4", "--freq=285",
                        "--verbose"};
  Cli cli(5, argv);
  EXPECT_EQ(cli.get_int_or("nodes", 0), 4);
  EXPECT_EQ(cli.get_int_or("freq", 0), 285);
  EXPECT_TRUE(cli.has("verbose"));
  EXPECT_TRUE(cli.get_bool_or("verbose", false));
  ASSERT_EQ(cli.positional().size(), 1u);
  EXPECT_EQ(cli.positional()[0], "positional");
  EXPECT_EQ(cli.get_int_or("missing", -1), -1);
  EXPECT_EQ(cli.get_or("missing", "dflt"), "dflt");
}

TEST(CliTest, ParsesSpaceSeparatedValues) {
  // "--key value" is equivalent to "--key=value"; a bare flag is greedy,
  // so a non-option token right after it becomes its value (which is why
  // positionals may not directly follow a bare flag).
  const char* argv[] = {"prog", "--replicas", "4", "--balancer", "jsq",
                        "--verbose"};
  Cli cli(6, argv);
  EXPECT_EQ(cli.get_int_or("replicas", 0), 4);
  EXPECT_EQ(cli.get_or("balancer", ""), "jsq");
  EXPECT_TRUE(cli.has("verbose"));
  EXPECT_TRUE(cli.get_bool_or("verbose", false));
  EXPECT_TRUE(cli.positional().empty());
  // Mixed forms agree.
  const char* argv2[] = {"prog", "--replicas=4", "--balancer", "jsq"};
  Cli cli2(4, argv2);
  EXPECT_EQ(cli2.get_int_or("replicas", 0), 4);
  EXPECT_EQ(cli2.get_or("balancer", ""), "jsq");
}

TEST(CliTest, DoubleAndBool) {
  const char* argv[] = {"prog", "--alpha=0.5", "--flag=false"};
  Cli cli(3, argv);
  EXPECT_DOUBLE_EQ(cli.get_double_or("alpha", 0), 0.5);
  EXPECT_FALSE(cli.get_bool_or("flag", true));
}

TEST(CliTest, CountFlags) {
  const char* argv[] = {"prog",      "--zero=0", "--max=4294967295",
                        "--neg=-1",  "--word=abc", "--junk=4x",
                        "--wide=4294967296", "--plus=+4", "--bare"};
  Cli cli(9, argv);
  EXPECT_EQ(cli.get_count_or("zero", 7), 0u);
  EXPECT_EQ(cli.get_count_or("max", 0), 4294967295u);
  // Unset returns the fallback; everything else must be plain digits in
  // uint32 range instead of wrapping (-1 used to become 4294967295).
  EXPECT_EQ(cli.get_count_or("missing", 12), 12u);
  for (const char* name : {"neg", "word", "junk", "wide", "plus", "bare"}) {
    EXPECT_THROW(cli.get_count_or(name, 1), std::invalid_argument) << name;
  }
  EXPECT_EQ(parse_count("requests", "64"), 64u);
  EXPECT_THROW(parse_count("requests", ""), std::invalid_argument);
}

TEST(CliTest, IntFlagsMustBeWholeNumbers) {
  const char* argv[] = {"prog",      "--neg=-3",   "--plus=+4", "--word=abc",
                        "--junk=12x", "--frac=1.5", "--space= 7", "--bare",
                        "--wide=99999999999999999999"};
  Cli cli(9, argv);
  EXPECT_EQ(cli.get_int_or("neg", 0), -3);
  EXPECT_EQ(cli.get_int_or("missing", 5), 5);
  // The whole value must be the number: "12x" is not 12 and "abc" is not
  // 0. A plus sign is rejected, as count flags reject it.
  for (const char* name :
       {"plus", "word", "junk", "frac", "space", "bare", "wide"}) {
    EXPECT_THROW(cli.get_int_or(name, 1), std::invalid_argument) << name;
  }
}

TEST(CliTest, DoubleFlagsMustParseWhole) {
  const char* argv[] = {"prog",       "--rate=12",    "--exp=2.5e-1",
                        "--nan=nan",  "--junk=12abc", "--word=abc",
                        "--bare",     "--space= 1",   "--huge=1e999"};
  Cli cli(9, argv);
  EXPECT_DOUBLE_EQ(cli.get_double_or("rate", 0), 12.0);
  EXPECT_DOUBLE_EQ(cli.get_double_or("exp", 0), 0.25);
  // A whole-text NaN parses; config validation is what rejects it.
  EXPECT_TRUE(std::isnan(cli.get_double_or("nan", 0)));
  EXPECT_DOUBLE_EQ(cli.get_double_or("missing", 1.5), 1.5);
  for (const char* name : {"junk", "word", "bare", "space", "huge"}) {
    EXPECT_THROW(cli.get_double_or(name, 1), std::invalid_argument) << name;
  }
  try {
    cli.get_double_or("junk", 1);
    ADD_FAILURE() << "--junk=12abc accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()), "--junk expects a number, got \"12abc\"");
  }
}

TEST(CliTest, BoolFlagsTakeOnlyKnownSpellings) {
  const char* argv[] = {"prog",    "--bare",  "--a=1",   "--b=yes",
                        "--c=on",  "--d=0",   "--e=no",  "--f=off",
                        "--g=false", "--typo=of", "--word=maybe"};
  Cli cli(11, argv);
  for (const char* name : {"bare", "a", "b", "c"}) {
    EXPECT_TRUE(cli.get_bool_or(name, false)) << name;
  }
  for (const char* name : {"d", "e", "f", "g"}) {
    EXPECT_FALSE(cli.get_bool_or(name, true)) << name;
  }
  EXPECT_TRUE(cli.get_bool_or("missing", true));
  // A typo such as "of" must not read as off.
  for (const char* name : {"typo", "word"}) {
    EXPECT_THROW(cli.get_bool_or(name, true), std::invalid_argument) << name;
  }
}

TEST(CliTest, RunMainMapsRejectedFlagsToExitTwo) {
  const char* argv[] = {"prog", "--requests=-1"};
  EXPECT_EQ(run_main(2, argv,
                     [](const Cli& cli) {
                       return static_cast<int>(cli.get_count_or("x", 3));
                     }),
            3);
  testing::internal::CaptureStderr();
  EXPECT_EQ(run_main(2, argv,
                     [](const Cli& cli) {
                       return static_cast<int>(
                           cli.get_count_or("requests", 0));
                     }),
            2);
  EXPECT_EQ(testing::internal::GetCapturedStderr().rfind("error: --requests",
                                                         0),
            0u);
  // Only rejected flags are mapped: a broken invariant still propagates.
  EXPECT_THROW(run_main(2, argv,
                        [](const Cli&) -> int {
                          throw std::logic_error("invariant");
                        }),
               std::logic_error);
}

TEST(CsvTest, EscapesSpecials) {
  EXPECT_EQ(CsvWriter::escape("plain"), "plain");
  EXPECT_EQ(CsvWriter::escape("a,b"), "\"a,b\"");
  EXPECT_EQ(CsvWriter::escape("say \"hi\""), "\"say \"\"hi\"\"\"");
}

TEST(CsvTest, WritesRows) {
  std::ostringstream os;
  CsvWriter w(os);
  w.write_row({"a", "b,c"});
  w.write_row({"1", "2"});
  EXPECT_EQ(os.str(), "a,\"b,c\"\n1,2\n");
}

}  // namespace
}  // namespace looplynx::util
