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

/// One flag of every kind, the table the CliTest cases parse against.
FlagTable demo_table() {
  return {"demo: one flag of every kind.",
          {{"nodes", FlagKind::kCount, "2", "accelerator nodes"},
           {"seed", FlagKind::kInteger, "7", "traffic seed"},
           {"rate", FlagKind::kNumber, "1.5", "arrival rate"},
           {"csv", FlagKind::kSwitch, "off", "print CSV"},
           {"trace-out", FlagKind::kPath, "", "trace file"},
           {"balancer", FlagKind::kText, "rr", "routing policy"},
           {"model", FlagKind::kText, "gpt2-medium", "model",
            "gpt2-small|gpt2-medium"},
           {"autoscale", FlagKind::kText, "", "scale policy", "", "hybrid"},
           {"chunk-tokens", FlagKind::kCount, "", "token budget (computed)"}}};
}

Cli demo(std::vector<const char*> args) {
  args.insert(args.begin(), "prog");
  return Cli(static_cast<int>(args.size()), args.data(), demo_table());
}

/// The std::invalid_argument message building a demo Cli from `args`
/// throws, or "" when it builds.
std::string rejection(std::vector<const char*> args) {
  try {
    demo(std::move(args));
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(CliTest, ParsesKeyValueForms) {
  const Cli cli = demo({"--nodes=4", "--rate=285", "--csv"});
  EXPECT_EQ(cli.count("nodes"), 4u);
  EXPECT_DOUBLE_EQ(cli.number("rate"), 285.0);
  EXPECT_TRUE(cli.has("csv"));
  EXPECT_TRUE(cli.on("csv"));
  // Unset flags read their table default.
  EXPECT_FALSE(cli.has("seed"));
  EXPECT_EQ(cli.integer("seed"), 7);
  EXPECT_EQ(cli.text("balancer"), "rr");
  EXPECT_EQ(cli.text("trace-out"), "");
}

TEST(CliTest, ParsesSpaceSeparatedValues) {
  // "--key value" is equivalent to "--key=value"; a bare flag is greedy,
  // so a non-option token right after it becomes its value.
  const Cli cli = demo({"--nodes", "4", "--balancer", "jsq", "--csv"});
  EXPECT_EQ(cli.count("nodes"), 4u);
  EXPECT_EQ(cli.text("balancer"), "jsq");
  EXPECT_TRUE(cli.on("csv"));
  // Mixed forms agree, and the last of a repeated flag wins.
  const Cli mixed = demo({"--nodes=4", "--balancer", "jsq", "--nodes=16"});
  EXPECT_EQ(mixed.count("nodes"), 16u);
  EXPECT_EQ(mixed.text("balancer"), "jsq");
  // Only the last value is checked: an earlier malformed one is replaced.
  EXPECT_EQ(demo({"--nodes=abc", "--nodes=3"}).count("nodes"), 3u);
}

TEST(CliTest, RejectsUnknownFlagsAndPositionals) {
  EXPECT_EQ(rejection({"--requets=5"}), "unknown flag --requets");
  EXPECT_EQ(rejection({"--nodes=2", "--bogus"}), "unknown flag --bogus");
  EXPECT_NE(rejection({"17"}).find("\"17\""), std::string::npos);
  EXPECT_NE(rejection({"--csv=on", "extra"}).find("\"extra\""),
            std::string::npos);
  // The greedy space form makes a token after a bare flag its value, so a
  // stray word there is rejected as that flag's value instead.
  EXPECT_EQ(rejection({"--csv", "extra"}),
            "--csv expects 1/true/yes/on or 0/false/no/off, got \"extra\"");
}

TEST(CliTest, CountFlags) {
  EXPECT_EQ(demo({"--nodes=0"}).count("nodes"), 0u);
  EXPECT_EQ(demo({"--nodes=4294967295"}).count("nodes"), 4294967295u);
  // Plain digits in uint32 range only, instead of wrapping (-1 used to
  // become 4294967295).
  for (const char* bad : {"--nodes=-1", "--nodes=abc", "--nodes=4x",
                          "--nodes=4294967296", "--nodes=+4", "--nodes"}) {
    EXPECT_NE(rejection({bad}).rfind("--nodes expects a count", 0),
              std::string::npos)
        << bad;
  }
  EXPECT_EQ(parse_count("requests", "64"), 64u);
  EXPECT_THROW(parse_count("requests", ""), std::invalid_argument);
}

TEST(CliTest, IntFlagsMustBeWholeNumbers) {
  EXPECT_EQ(demo({"--seed=-3"}).integer("seed"), -3);
  // The whole value must be the number: "12x" is not 12 and "abc" is not
  // 0. A plus sign is rejected, as count flags reject it.
  for (const char* bad : {"--seed=+4", "--seed=abc", "--seed=12x",
                          "--seed=1.5", "--seed= 7", "--seed",
                          "--seed=99999999999999999999"}) {
    EXPECT_NE(rejection({bad}).rfind("--seed expects a whole number", 0),
              std::string::npos)
        << bad;
  }
}

TEST(CliTest, DoubleFlagsMustParseWhole) {
  EXPECT_DOUBLE_EQ(demo({"--rate=2.5e-1"}).number("rate"), 0.25);
  // A whole-text NaN parses; config validation is what rejects it.
  EXPECT_TRUE(std::isnan(demo({"--rate=nan"}).number("rate")));
  for (const char* bad :
       {"--rate=12abc", "--rate=abc", "--rate", "--rate= 1", "--rate=1e999"}) {
    EXPECT_NE(rejection({bad}).rfind("--rate expects a number", 0),
              std::string::npos)
        << bad;
  }
  EXPECT_EQ(rejection({"--rate=12abc"}),
            "--rate expects a number, got \"12abc\"");
}

TEST(CliTest, SwitchesTakeOnlyKnownSpellings) {
  for (const char* on : {"--csv", "--csv=1", "--csv=yes", "--csv=on",
                         "--csv=true"}) {
    EXPECT_TRUE(demo({on}).on("csv")) << on;
  }
  // =off spells the default explicitly and reads as off, not as "given".
  for (const char* off : {"--csv=off", "--csv=0", "--csv=no", "--csv=false"}) {
    EXPECT_FALSE(demo({off}).on("csv")) << off;
  }
  EXPECT_FALSE(demo({}).on("csv"));
  // A typo such as "of" must not read as off.
  for (const char* bad : {"--csv=of", "--csv=maybe", "--csv=on|off"}) {
    EXPECT_NE(rejection({bad}).rfind("--csv expects", 0), std::string::npos)
        << bad;
  }
}

TEST(CliTest, PathsAndChoicesAreCheckedWhenBuilt) {
  EXPECT_EQ(demo({"--trace-out=t.json"}).text("trace-out"), "t.json");
  EXPECT_EQ(rejection({"--trace-out"}),
            "--trace-out needs a file path (--trace-out=<path>)");
  EXPECT_EQ(rejection({"--trace-out="}),
            "--trace-out needs a file path (--trace-out=<path>)");
  EXPECT_EQ(demo({"--model=gpt2-small"}).text("model"), "gpt2-small");
  for (const char* bad : {"--model=gpt2-large", "--model=", "--model=gpt2",
                          "--model=12abc", "--model=gpt2-small|gpt2-medium"}) {
    EXPECT_NE(rejection({bad}).rfind(
                  "--model expects one of gpt2-small|gpt2-medium", 0),
              std::string::npos)
        << bad;
  }
  // A bare text flag takes its declared bare value.
  EXPECT_EQ(demo({"--autoscale"}).text("autoscale"), "hybrid");
  EXPECT_EQ(demo({"--autoscale=queue"}).text("autoscale"), "queue");
}

/// True when `read` throws a std::logic_error that is not the
/// std::invalid_argument (a logic_error subclass) run_main maps to exit 2.
template <typename Read>
bool programming_error(Read read) {
  try {
    read();
  } catch (const std::invalid_argument&) {
    return false;
  } catch (const std::logic_error&) {
    return true;
  }
  return false;
}

TEST(CliTest, ReadingAnUndeclaredNameIsAProgrammingError) {
  const Cli cli = demo({});
  EXPECT_TRUE(programming_error([&] { cli.count("requests"); }));
  EXPECT_TRUE(programming_error([&] { cli.has("requests"); }));
  // Reading a flag as another kind, or an unset computed default.
  EXPECT_TRUE(programming_error([&] { cli.number("nodes"); }));
  EXPECT_TRUE(programming_error([&] { cli.count("chunk-tokens"); }));
  EXPECT_EQ(demo({"--chunk-tokens=32"}).count("chunk-tokens"), 32u);
}

TEST(CliTest, HelpListsEveryFlagOnceWithItsDefault) {
  const std::string help = demo({}).help();
  EXPECT_EQ(help.rfind("demo: one flag of every kind.\n", 0), 0u);
  for (const Flag& flag : demo_table().flags) {
    const std::string line_start = "  --" + flag.name;
    std::size_t hits = 0;
    std::string line;
    std::istringstream lines(help);
    while (std::getline(lines, line)) {
      if (line.rfind(line_start, 0) != 0) continue;
      const char next = line[line_start.size()];
      if (next != '=' && next != '[' && next != ' ') continue;
      ++hits;
      if (!flag.fallback.empty()) {
        EXPECT_NE(line.find("(default " + flag.fallback + ")"),
                  std::string::npos)
            << line;
      }
    }
    EXPECT_EQ(hits, 1u) << flag.name;
  }
  EXPECT_NE(help.find("  --nodes=N "), std::string::npos);
  EXPECT_NE(help.find("  --csv[=on|off] "), std::string::npos);
  EXPECT_NE(help.find("  --model=gpt2-small|gpt2-medium "), std::string::npos);
  EXPECT_NE(help.find("  --help "), std::string::npos);
}

TEST(CliTest, UntabledGettersReadWithoutATable) {
  const char* argv[] = {"prog", "positional", "--seconds=2.5", "--seed",
                        "9", "--workload=chat", "--anything"};
  const Cli cli(7, argv);
  EXPECT_DOUBLE_EQ(cli.get_double_or("seconds", 10.0), 2.5);
  EXPECT_EQ(cli.get_int_or("seed", 1), 9);
  EXPECT_EQ(cli.get_or("workload", ""), "chat");
  EXPECT_TRUE(cli.has("anything"));
  EXPECT_EQ(cli.get_int_or("missing", -1), -1);
  EXPECT_THROW(cli.get_int_or("workload", 0), std::invalid_argument);
}

int count_body(const Cli& cli) { return static_cast<int>(cli.count("nodes")); }

TEST(CliTest, RunMainMapsRejectedFlagsToExitTwo) {
  const FlagTable table = demo_table();
  const char* ok[] = {"prog", "--nodes=3"};
  EXPECT_EQ(run_main(2, ok, table, count_body), 3);
  for (const char* bad : {"--nodes=-1", "--requets=5", "stray"}) {
    const char* argv[] = {"prog", bad};
    testing::internal::CaptureStderr();
    EXPECT_EQ(run_main(2, argv, table, count_body), 2) << bad;
    EXPECT_EQ(testing::internal::GetCapturedStderr().rfind("error: ", 0), 0u)
        << bad;
  }
  // --help prints the generated text and runs nothing.
  const char* help[] = {"prog", "--help"};
  testing::internal::CaptureStdout();
  EXPECT_EQ(run_main(2, help, table,
                     [](const Cli&) -> int { throw std::logic_error("ran"); }),
            0);
  EXPECT_EQ(testing::internal::GetCapturedStdout(), demo({}).help());
  // Only rejected flags are mapped: a broken invariant still propagates.
  EXPECT_THROW(run_main(2, ok, table,
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
