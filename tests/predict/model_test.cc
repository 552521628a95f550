// Closed-form checks of the table model (src/predict/model.h): the counting
// fit on a hand-computable corpus, the lowest-CPU argmax tie-break, the
// ToJson -> ParseTableModel round-trip, the %.17g float round-trip the
// exporter relies on, and the decision CSV layout.

#include "src/predict/model.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "src/obs/json_check.h"
#include "src/predict/features.h"
#include "src/scenario/predict_io.h"

namespace nestsim {
namespace {

DecisionRow Row(bool is_fork, int prev_cpu, int runnable, int chosen_cpu) {
  DecisionRow row;
  row.is_fork = is_fork;
  row.prev_cpu = prev_cpu;
  row.runnable = runnable;
  row.chosen_cpu = chosen_cpu;
  return row;
}

TEST(TableModelTest, ThreeDecisionCorpusCountsExactly) {
  // Two wakes share the (wake, prev 3, runnable 2) bucket and one fork sits
  // alone: the fit must produce exactly these two buckets, fork first
  // (canonical (kind, prev_cpu, runnable) order), with exact counts.
  const std::vector<DecisionRow> rows = {
      Row(/*is_fork=*/false, /*prev_cpu=*/3, /*runnable=*/2, /*chosen_cpu=*/5),
      Row(/*is_fork=*/false, /*prev_cpu=*/3, /*runnable=*/2, /*chosen_cpu=*/5),
      Row(/*is_fork=*/true, /*prev_cpu=*/-1, /*runnable=*/1, /*chosen_cpu=*/0),
  };
  const TableModel model = TrainTableModel(rows);

  ASSERT_EQ(model.buckets().size(), 2u);
  const TableModelBucket& fork = model.buckets()[0];
  EXPECT_EQ(fork.kind, 0);
  EXPECT_EQ(fork.prev_cpu, -1);
  EXPECT_EQ(fork.runnable, 1);
  ASSERT_EQ(fork.counts.size(), 1u);
  EXPECT_EQ(fork.counts[0], (std::pair<int, uint64_t>(0, 1)));

  const TableModelBucket& wake = model.buckets()[1];
  EXPECT_EQ(wake.kind, 1);
  EXPECT_EQ(wake.prev_cpu, 3);
  EXPECT_EQ(wake.runnable, 2);
  ASSERT_EQ(wake.counts.size(), 1u);
  EXPECT_EQ(wake.counts[0], (std::pair<int, uint64_t>(5, 2)));

  EXPECT_EQ(model.Predict(/*is_fork=*/false, 3, 2), 5);
  EXPECT_EQ(model.Predict(/*is_fork=*/true, -1, 1), 0);
  EXPECT_EQ(model.Predict(/*is_fork=*/false, 4, 2), -1);  // unseen key
}

TEST(TableModelTest, RunnableSaturatesIntoOneBucket) {
  // runnable 8, 9, and 100 all land in the kRunnableBucketMax bucket, both
  // when training and when predicting.
  const std::vector<DecisionRow> rows = {
      Row(false, 1, 8, 2),
      Row(false, 1, 9, 2),
      Row(false, 1, 100, 2),
  };
  const TableModel model = TrainTableModel(rows);
  ASSERT_EQ(model.buckets().size(), 1u);
  EXPECT_EQ(model.buckets()[0].runnable, kRunnableBucketMax);
  ASSERT_EQ(model.buckets()[0].counts.size(), 1u);
  EXPECT_EQ(model.buckets()[0].counts[0].second, 3u);
  EXPECT_EQ(model.Predict(false, 1, 8), 2);
  EXPECT_EQ(model.Predict(false, 1, 12345), 2);
}

TEST(TableModelTest, ArgmaxTieBreaksToLowestCpu) {
  // CPUs 2 and 7 tie at two observations each; CPU 4 trails with one.
  // Predict must return 2 — the lowest CPU among the maxima.
  const std::vector<DecisionRow> rows = {
      Row(false, 0, 1, 7), Row(false, 0, 1, 2), Row(false, 0, 1, 7),
      Row(false, 0, 1, 2), Row(false, 0, 1, 4),
  };
  EXPECT_EQ(TrainTableModel(rows).Predict(false, 0, 1), 2);
}

TEST(TableModelTest, RowsWithoutChosenCpuAreSkipped) {
  const std::vector<DecisionRow> rows = {Row(false, 0, 1, -1)};
  const TableModel model = TrainTableModel(rows);
  EXPECT_TRUE(model.empty());
  EXPECT_EQ(model.Predict(false, 0, 1), -1);
}

TEST(TableModelTest, ToJsonParsesBackIdentically) {
  const std::vector<DecisionRow> rows = {
      Row(true, -1, 0, 3), Row(true, -1, 0, 3), Row(true, -1, 0, 1),
      Row(false, 3, 5, 3), Row(false, 11, 8, 0),
  };
  const TableModel model = TrainTableModel(rows);

  JsonValue root;
  std::string json_error;
  ASSERT_TRUE(JsonParse(model.ToJson(), &root, &json_error)) << json_error;
  TableModel parsed;
  ScenarioError err;
  ASSERT_TRUE(ParseTableModel(root, "round-trip", &parsed, &err)) << err.Join();

  ASSERT_EQ(parsed.buckets().size(), model.buckets().size());
  for (size_t i = 0; i < model.buckets().size(); ++i) {
    EXPECT_EQ(parsed.buckets()[i].kind, model.buckets()[i].kind);
    EXPECT_EQ(parsed.buckets()[i].prev_cpu, model.buckets()[i].prev_cpu);
    EXPECT_EQ(parsed.buckets()[i].runnable, model.buckets()[i].runnable);
    EXPECT_EQ(parsed.buckets()[i].counts, model.buckets()[i].counts);
  }
  // The canonical form survives a parse → serialize cycle byte-for-byte.
  EXPECT_EQ(parsed.ToJson(), model.ToJson());
}

TEST(TableModelTest, EmptyModelSerializesAndParses) {
  const TableModel model;
  JsonValue root;
  std::string json_error;
  ASSERT_TRUE(JsonParse(model.ToJson(), &root, &json_error)) << json_error;
  TableModel parsed;
  ScenarioError err;
  ASSERT_TRUE(ParseTableModel(root, "empty", &parsed, &err)) << err.Join();
  EXPECT_TRUE(parsed.empty());
}

TEST(PredictIoTest, RejectsMalformedModels) {
  const char* bad[] = {
      R"({"version": 1, "buckets": []})",                    // no model name
      R"({"model": "other", "version": 1, "buckets": []})",  // wrong name
      R"({"model": "nest-predict-table", "buckets": []})",   // no version
      R"({"model": "nest-predict-table", "version": 2, "buckets": []})",
      R"({"model": "nest-predict-table", "version": 1})",    // no buckets
      R"({"model": "nest-predict-table", "version": 1, "buckets": [{}]})",
      R"({"model": "nest-predict-table", "version": 1, "buckets": [
          {"kind": "fork", "prev_cpu": 0, "runnable": 0, "counts": []}]})",
      R"({"model": "nest-predict-table", "version": 1, "buckets": [
          {"kind": "fork", "prev_cpu": 0, "runnable": 0, "counts": [[1, 0]]}]})",
      R"({"model": "nest-predict-table", "version": 1, "buckets": [
          {"kind": "fork", "prev_cpu": 0, "runnable": 0,
           "counts": [[2, 1], [1, 1]]}]})",  // counts out of cpu order
      R"({"model": "nest-predict-table", "version": 1, "buckets": [
          {"kind": "wake", "prev_cpu": 0, "runnable": 0, "counts": [[0, 1]]},
          {"kind": "fork", "prev_cpu": 0, "runnable": 0, "counts": [[0, 1]]}
         ]})",                               // buckets out of canonical order
      R"({"model": "nest-predict-table", "version": 1, "buckets": [],
          "extra": true})",                  // unknown key
  };
  for (const char* json : bad) {
    JsonValue root;
    std::string json_error;
    ASSERT_TRUE(JsonParse(json, &root, &json_error)) << json << "\n" << json_error;
    TableModel model;
    ScenarioError err;
    EXPECT_FALSE(ParseTableModel(root, "bad", &model, &err)) << json;
    EXPECT_FALSE(err.ok()) << json;
  }
}

TEST(FeatureFormatTest, G17RoundTripsDoublesExactly) {
  // The exporter prints every double with JsonDouble's %.17g; strtod of that
  // text must recover identical bits, including values with no short decimal
  // form.
  const double values[] = {0.0,
                           1.0,
                           1.0 / 3.0,
                           0.1,
                           2.7062158723327507,
                           1e-300,
                           12345.678901234567,
                           5.0e15};
  for (const double v : values) {
    const std::string text = JsonDouble(v);
    const double back = std::strtod(text.c_str(), nullptr);
    EXPECT_EQ(back, v) << text;
  }
}

TEST(FeatureFormatTest, CsvHeaderMatchesColumnCounts) {
  const std::string header = DecisionCsvHeader(2);
  int commas = 0;
  for (const char c : header) {
    commas += c == ',';
  }
  EXPECT_EQ(commas + 1, kNumFeatureColumns + 2 * kNumPerCoreColumns);
  EXPECT_NE(header.find("cpu1_warmth"), std::string::npos);
}

TEST(FeatureFormatTest, CsvRowPadsToRequestedWidth) {
  // A one-core sample exported at a three-CPU width gains two zero blocks,
  // keeping multi-machine streams rectangular.
  DecisionRow row = Row(false, 1, 3, 2);
  row.seed = 9;
  row.cores.resize(1);
  row.cores[0].ghz = 2.5;
  const DecisionLabels labels{"m", "r", "v"};
  const std::string line = DecisionCsvRow(row, /*decision=*/7, labels, /*num_cpus=*/3);
  int commas = 0;
  for (const char c : line) {
    commas += c == ',';
  }
  EXPECT_EQ(commas + 1, kNumFeatureColumns + 3 * kNumPerCoreColumns);
  EXPECT_EQ(line.rfind("7,m,r,v,9,", 0), 0u) << line;
}

}  // namespace
}  // namespace nestsim
