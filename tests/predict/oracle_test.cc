// The oracle warm-pool protocol (src/predict/oracle.h, docs/PREDICTION.md):
// plan windowing, record → replay → re-replay bit-determinism, explicit-plan
// reuse, the nest_predict fallback guarantee (an empty model is
// bit-identical to plain Nest; the committed model actually predicts), and
// the headroom ordering the predict_headroom golden pins.

#include "src/predict/oracle.h"

#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <memory>
#include <string>

#include "src/core/experiment.h"
#include "src/obs/json_check.h"
#include "src/obs/sched_counters.h"
#include "src/scenario/predict_io.h"
#include "src/workloads/micro.h"

namespace nestsim {
namespace {

constexpr char kModelPath[] = NESTSIM_REPO_DIR "/scenarios/models/tiny-predict.json";

TEST(OraclePlanTest, PoolSizeAtWindowsAndClamps) {
  OraclePlan plan;
  plan.window_ns = 5 * kMillisecond;
  plan.pool_sizes = {2, 0, 7};
  EXPECT_EQ(plan.PoolSizeAt(0), 2);
  EXPECT_EQ(plan.PoolSizeAt(5 * kMillisecond - 1), 2);
  EXPECT_EQ(plan.PoolSizeAt(5 * kMillisecond), 0);
  EXPECT_EQ(plan.PoolSizeAt(12 * kMillisecond), 7);
  // Past the recording's end the last window holds: the replay run may drift
  // slightly past the recorded makespan.
  EXPECT_EQ(plan.PoolSizeAt(400 * kSecond), 7);
}

TEST(OraclePlanTest, EmptyOrUnwindowedPlansAreAllCold) {
  OraclePlan plan;
  EXPECT_EQ(plan.PoolSizeAt(0), 0);
  plan.window_ns = kMillisecond;
  EXPECT_EQ(plan.PoolSizeAt(123), 0);  // no recorded windows
  plan.window_ns = 0;
  plan.pool_sizes = {4};
  EXPECT_EQ(plan.PoolSizeAt(123), 0);  // no window size
}

// The bursty wakeup workload the predict stack was built for, CI-sized.
SchbenchWorkload SmallSchbench() {
  SchbenchSpec spec;
  spec.message_threads = 1;
  spec.workers_per_thread = 3;
  spec.rounds = 30;
  spec.work_ms = 0.5;
  return SchbenchWorkload(spec);
}

ExperimentConfig BaseConfig(SchedulerKind kind, uint64_t seed = 5) {
  ExperimentConfig config;
  config.machine = "amd-4650g-1s";
  config.scheduler = kind;
  config.governor = "schedutil";
  config.seed = seed;
  config.predict.oracle_window_ms = 10.0;
  config.predict.oracle_margin = 1;
  return config;
}

uint64_t Placements(const ExperimentResult& r, PlacementPath path) {
  return r.counters.placements[static_cast<size_t>(path)];
}

void ExpectBitIdentical(const ExperimentResult& a, const ExperimentResult& b) {
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.context_switches, b.context_switches);
  EXPECT_EQ(a.migrations, b.migrations);
  EXPECT_DOUBLE_EQ(a.energy_joules, b.energy_joules);
  EXPECT_EQ(SchedCountersJson(a.counters), SchedCountersJson(b.counters));
}

TEST(OracleExperimentTest, RecordReplayReplayIsByteIdentical) {
  // Each RunExperiment call performs record → replay internally; calling it
  // twice proves replay and re-replay agree bit-for-bit.
  const SchbenchWorkload workload = SmallSchbench();
  const ExperimentConfig config = BaseConfig(SchedulerKind::kNestOracle);
  const ExperimentResult first = RunExperiment(config, workload);
  const ExperimentResult second = RunExperiment(config, workload);
  ExpectBitIdentical(first, second);
  // The replay actually used the warm pool.
  EXPECT_GT(Placements(first, PlacementPath::kNestOracleWarm), 0u);
}

TEST(OracleExperimentTest, ExplicitPlanMatchesTheTwoPassProtocol) {
  // Record by hand (plain Nest + a recording sink), replay with the explicit
  // plan: the result must equal the automatic two-pass protocol's.
  const SchbenchWorkload workload = SmallSchbench();

  ExperimentConfig recording = BaseConfig(SchedulerKind::kNest);
  auto plan = std::make_shared<OraclePlan>();
  recording.predict.oracle_record_plan = plan;
  RunExperiment(recording, workload);
  EXPECT_GT(plan->window_ns, 0);
  EXPECT_FALSE(plan->pool_sizes.empty());

  ExperimentConfig replay = BaseConfig(SchedulerKind::kNestOracle);
  replay.predict.oracle_plan = plan;
  const ExperimentResult manual = RunExperiment(replay, workload);

  const ExperimentResult automatic =
      RunExperiment(BaseConfig(SchedulerKind::kNestOracle), workload);
  ExpectBitIdentical(manual, automatic);
}

TEST(OracleExperimentTest, RecordingSinkIsObservationallyPure) {
  // Attaching the OracleRecorder to a plain-Nest run must not change it.
  const SchbenchWorkload workload = SmallSchbench();
  const ExperimentResult bare = RunExperiment(BaseConfig(SchedulerKind::kNest), workload);
  ExperimentConfig recording = BaseConfig(SchedulerKind::kNest);
  recording.predict.oracle_record_plan = std::make_shared<OraclePlan>();
  const ExperimentResult recorded = RunExperiment(recording, workload);
  ExpectBitIdentical(bare, recorded);
}

TEST(OracleExperimentTest, DifferentSeedsProduceDifferentRuns) {
  const SchbenchWorkload workload = SmallSchbench();
  const ExperimentResult a =
      RunExperiment(BaseConfig(SchedulerKind::kNestOracle, /*seed=*/5), workload);
  const ExperimentResult b =
      RunExperiment(BaseConfig(SchedulerKind::kNestOracle, /*seed=*/6), workload);
  EXPECT_TRUE(a.makespan != b.makespan ||
              SchedCountersJson(a.counters) != SchedCountersJson(b.counters));
}

TEST(PredictPolicyTest, EmptyModelFallsBackBitIdenticallyToNest) {
  const SchbenchWorkload workload = SmallSchbench();
  const ExperimentResult nest = RunExperiment(BaseConfig(SchedulerKind::kNest), workload);

  // Null model.
  const ExperimentResult null_model =
      RunExperiment(BaseConfig(SchedulerKind::kNestPredict), workload);
  ExpectBitIdentical(nest, null_model);
  EXPECT_EQ(Placements(null_model, PlacementPath::kNestPredicted), 0u);

  // Present-but-empty model.
  ExperimentConfig empty_model = BaseConfig(SchedulerKind::kNestPredict);
  empty_model.predict.model = std::make_shared<TableModel>();
  ExpectBitIdentical(nest, RunExperiment(empty_model, workload));
}

TEST(PredictPolicyTest, CommittedModelTakesPredictedPlacements) {
  auto model = std::make_shared<TableModel>();
  ScenarioError err;
  ASSERT_TRUE(LoadTableModelFile(kModelPath, model.get(), &err)) << err.Join();
  ASSERT_FALSE(model->empty());

  ExperimentConfig config = BaseConfig(SchedulerKind::kNestPredict);
  config.predict.model = model;
  const SchbenchWorkload workload = SmallSchbench();
  const ExperimentResult first = RunExperiment(config, workload);
  EXPECT_GT(Placements(first, PlacementPath::kNestPredicted), 0u);
  // And the biased search is just as deterministic as everything else.
  ExpectBitIdentical(first, RunExperiment(config, workload));
}

// The committed headroom golden pins the paper-shaped ordering of tail
// wakeup latency: nest_oracle p99 <= nest p99 <= cfs p99, each averaged over
// the golden's repetitions.
TEST(PredictHeadroomGoldenTest, OracleBeatsNestBeatsCfsAtP99) {
  std::ifstream in(NESTSIM_REPO_DIR "/baselines/predict_headroom.jsonl");
  ASSERT_TRUE(in.good());
  std::map<std::string, double> p99;
  std::string line;
  while (std::getline(in, line)) {
    JsonValue record;
    std::string error;
    ASSERT_TRUE(JsonParse(line, &record, &error)) << error;
    const JsonValue* variant = record.Find("variant");
    const JsonValue* runs = record.Find("runs");
    if (variant == nullptr || runs == nullptr) {
      continue;  // the header line
    }
    ASSERT_FALSE(runs->items.empty());
    double sum = 0.0;
    for (const JsonValue& run : runs->items) {
      const JsonValue* v = run.Find("wakeup_p99_us");
      ASSERT_NE(v, nullptr) << line;
      sum += v->number;
    }
    p99[variant->string] = sum / static_cast<double>(runs->items.size());
  }
  ASSERT_EQ(p99.count("NestOracle sched"), 1u);
  ASSERT_EQ(p99.count("Nest sched"), 1u);
  ASSERT_EQ(p99.count("CFS sched"), 1u);
  EXPECT_LE(p99["NestOracle sched"], p99["Nest sched"]);
  EXPECT_LE(p99["Nest sched"], p99["CFS sched"]);
}

}  // namespace
}  // namespace nestsim
