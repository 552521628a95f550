#include "src/perf/bench_harness.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "src/obs/json_check.h"
#include "src/perf/core_benches.h"

namespace nestsim {
namespace {

BenchRecord MakeRecord(const std::string& name, uint64_t ops, double median_s) {
  BenchRecord r;
  r.name = name;
  r.ops = ops;
  r.samples = 5;
  r.median_s = median_s;
  r.ns_per_op = median_s * 1e9 / static_cast<double>(ops);
  r.ops_per_sec = static_cast<double>(ops) / median_s;
  return r;
}

// Renders PrintTable through a temp file (it writes to a FILE*).
std::string RenderTable(const BenchReport& report) {
  std::FILE* f = std::tmpfile();
  EXPECT_NE(f, nullptr);
  report.PrintTable(f);
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  std::string out(static_cast<size_t>(size), '\0');
  EXPECT_EQ(std::fread(out.data(), 1, out.size(), f), out.size());
  std::fclose(f);
  return out;
}

std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  size_t start = 0;
  while (start < text.size()) {
    const size_t nl = text.find('\n', start);
    if (nl == std::string::npos) {
      lines.push_back(text.substr(start));
      break;
    }
    lines.push_back(text.substr(start, nl - start));
    start = nl + 1;
  }
  return lines;
}

TEST(BenchReportTest, EmptyReportPrintsHeaderOnly) {
  BenchReport report;
  const std::vector<std::string> lines = SplitLines(RenderTable(report));
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("benchmark"), std::string::npos);
  EXPECT_NE(lines[0].find("ops/sec"), std::string::npos);
}

TEST(BenchReportTest, TableColumnsStayAligned) {
  // Names of very different lengths must not shift the numeric columns: every
  // row is fixed-width, so each column starts at the same offset in each line.
  BenchReport report;
  report.Add(MakeRecord("a", 1000, 0.001));
  report.Add(MakeRecord("grid/a_rather_long_benchmark_name", 123456789, 12.5));
  const std::vector<std::string> lines = SplitLines(RenderTable(report));
  ASSERT_EQ(lines.size(), 3u);
  const size_t header_ops = lines[0].find("ops");
  ASSERT_NE(header_ops, std::string::npos);
  for (const std::string& line : lines) {
    // Fixed format "%-36s %14s ..." -> the name field ends at column 36.
    ASSERT_GE(line.size(), 37u);
  }
  // The right edge of the first numeric column is identical in every row.
  const size_t ops_end = 36 + 1 + 14;
  EXPECT_EQ(lines[1][ops_end - 1], '0');  // 1000 right-aligned
  EXPECT_EQ(lines[2][ops_end - 1], '9');  // 123456789 right-aligned
  EXPECT_EQ(lines[1][36], ' ');
  EXPECT_EQ(lines[2][36], ' ');
}

TEST(BenchReportTest, FindLocatesRecordsByName) {
  BenchReport report;
  report.Add(MakeRecord("x", 10, 0.1));
  report.Add(MakeRecord("y", 20, 0.1));
  ASSERT_NE(report.Find("y"), nullptr);
  EXPECT_EQ(report.Find("y")->ops, 20u);
  EXPECT_EQ(report.Find("missing"), nullptr);
}

TEST(BenchReportTest, JsonDoublesRoundTripExactly) {
  // %.17g is the shortest format guaranteed to round-trip any finite double.
  // Use an ops/sec value with no short decimal representation and require the
  // parsed JSON to give back the bit-identical value.
  BenchRecord r = MakeRecord("grid/x", 61820290, 22.43671234567891);
  BenchReport report;
  report.Add(r);
  const std::string json = report.ToJson("full", "");
  JsonValue parsed;
  std::string error;
  ASSERT_TRUE(JsonParse(json, &parsed, &error)) << error;
  const JsonValue* records = parsed.Find("records");
  ASSERT_NE(records, nullptr);
  ASSERT_EQ(records->items.size(), 1u);
  const JsonValue* ops_per_sec = records->items[0].Find("ops_per_sec");
  ASSERT_NE(ops_per_sec, nullptr);
  EXPECT_EQ(ops_per_sec->number, r.ops_per_sec);  // exact, not NEAR
  const JsonValue* median = records->items[0].Find("median_s");
  ASSERT_NE(median, nullptr);
  EXPECT_EQ(median->number, r.median_s);
}

// BENCH_core.json prints its doubles through JsonDouble; the seconds and
// rates it writes must read back to the same bits.
TEST(BenchReportTest, BenchFormatDoubleRoundTrips) {
  const double values[] = {0.1, 1.0 / 3.0, 22.43671234567891, 1406274.123, 1e-300};
  for (double v : values) {
    const std::string s = JsonDouble(v);
    EXPECT_EQ(std::strtod(s.c_str(), nullptr), v) << s;
  }
}

TEST(BenchReportTest, JsonEmbedsReferenceAndSpeedup) {
  BenchReport reference;
  reference.Add(MakeRecord("grid/x", 1000, 1.0));  // 1000 ops/sec
  const std::string reference_json = reference.ToJson("full", "");

  BenchReport current;
  current.Add(MakeRecord("grid/x", 2000, 1.0));  // 2000 ops/sec -> 2x
  const std::string json = current.ToJson("full", reference_json);

  JsonValue parsed;
  std::string error;
  ASSERT_TRUE(JsonParse(json, &parsed, &error)) << error;
  const JsonValue* records = parsed.Find("records");
  ASSERT_NE(records, nullptr);
  const JsonValue* speedup = records->items[0].Find("speedup_vs_reference");
  ASSERT_NE(speedup, nullptr);
  EXPECT_DOUBLE_EQ(speedup->number, 2.0);
  EXPECT_NE(parsed.Find("reference"), nullptr);
}

TEST(BenchReportTest, JsonCarriesPeakRssAndItsRatioToTheReference) {
  BenchReport reference;
  BenchRecord old_mem = MakeRecord("mem/x@4s", 1000, 1.0);
  old_mem.peak_rss_mb = 20.0;
  reference.Add(old_mem);
  reference.Add(MakeRecord("grid/x", 1000, 1.0));
  const std::string reference_json = reference.ToJson("full", "");

  BenchReport current;
  BenchRecord mem = MakeRecord("mem/x@4s", 1000, 1.0);
  mem.peak_rss_mb = 5.0;
  current.Add(mem);
  current.Add(MakeRecord("grid/x", 1000, 1.0));  // no peak: no fields
  const std::string json = current.ToJson("full", reference_json);

  JsonValue parsed;
  std::string error;
  ASSERT_TRUE(JsonParse(json, &parsed, &error)) << error;
  const JsonValue* records = parsed.Find("records");
  ASSERT_NE(records, nullptr);
  ASSERT_EQ(records->items.size(), 2u);
  const JsonValue* peak = records->items[0].Find("peak_rss_mb");
  ASSERT_NE(peak, nullptr);
  EXPECT_EQ(peak->number, 5.0);
  const JsonValue* ratio = records->items[0].Find("rss_vs_reference");
  ASSERT_NE(ratio, nullptr);
  EXPECT_DOUBLE_EQ(ratio->number, 0.25);
  EXPECT_EQ(records->items[1].Find("peak_rss_mb"), nullptr);
  EXPECT_EQ(records->items[1].Find("rss_vs_reference"), nullptr);
}

TEST(PerfFloorTest, PassesWithinBand) {
  BenchReport report;
  report.Add(MakeRecord("grid/table4:quick", 800, 1.0));  // 800 ops/sec
  std::string problems;
  // Floor 1000 with 25% band -> minimum 750; 800 passes.
  const std::string floor =
      R"({"schema":"nestsim-perf-floor-v1","max_regression_pct":25,"floors":{"grid/table4:quick":1000}})";
  EXPECT_TRUE(CheckPerfFloor(report, floor, &problems)) << problems;
  EXPECT_TRUE(problems.empty());
}

TEST(PerfFloorTest, FailsBelowBandAndNamesTheBenchmark) {
  BenchReport report;
  report.Add(MakeRecord("grid/table4:quick", 700, 1.0));  // below 750 minimum
  std::string problems;
  const std::string floor =
      R"({"schema":"nestsim-perf-floor-v1","max_regression_pct":25,"floors":{"grid/table4:quick":1000}})";
  EXPECT_FALSE(CheckPerfFloor(report, floor, &problems));
  EXPECT_NE(problems.find("grid/table4:quick"), std::string::npos);
  EXPECT_NE(problems.find("regressed"), std::string::npos);
}

TEST(PerfFloorTest, FailsWhenFlooredBenchmarkMissing) {
  BenchReport report;  // empty: the floored benchmark never ran
  std::string problems;
  const std::string floor = R"({"floors":{"grid/table4:quick":1000}})";
  EXPECT_FALSE(CheckPerfFloor(report, floor, &problems));
  EXPECT_NE(problems.find("was not run"), std::string::npos);
}

TEST(PerfFloorTest, RejectsMalformedFloorFile) {
  BenchReport report;
  std::string problems;
  EXPECT_FALSE(CheckPerfFloor(report, "not json", &problems));
  EXPECT_FALSE(problems.empty());
  problems.clear();
  EXPECT_FALSE(CheckPerfFloor(report, R"({"no_floors":true})", &problems));
  EXPECT_NE(problems.find("floors"), std::string::npos);
}

}  // namespace
}  // namespace nestsim
