// Expansion and execution invariants of the scenario runner: grid order is
// machine → row → variant, sweep points cross-product with stable labels,
// variant config lands on its own variant, pooled execution is deterministic
// (outcomes independent of worker count), and the figure table styles print
// their blocks.

#include "src/scenario/runner.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <string>

namespace nestsim {
namespace {

Scenario MustParse(const std::string& json) {
  JsonValue root;
  std::string json_error;
  EXPECT_TRUE(JsonParse(json, &root, &json_error)) << json_error;
  Scenario scenario;
  ScenarioError err;
  EXPECT_TRUE(ParseScenario(root, "runner_test", &scenario, &err)) << err.Join();
  return scenario;
}

Scenario SmokeScenario() {
  return MustParse(R"({
    "name": "runner_test",
    "machines": ["intel-5218-2s", "amd-4650g-1s"],
    "variants": [
      {"label": "CFS sched", "scheduler": "cfs", "governor": "schedutil"},
      {"label": "Nest sched", "scheduler": "nest", "governor": "schedutil"}
    ],
    "workload": {"family": "configure", "rows": [
      {"label": "tiny-gcc", "params": {"preset": "gcc", "num_tests": 8}},
      {"label": "tiny-php", "params": {"preset": "php", "num_tests": 8}}
    ]},
    "repetitions": 1,
    "base_seed": 3
  })");
}

ScenarioRunOptions QuietOptions(int jobs = 1) {
  ScenarioRunOptions options;
  options.campaign = CampaignOptions{};
  options.campaign.jobs = jobs;
  options.campaign.progress = false;
  options.campaign.jsonl_path.clear();
  return options;
}

TEST(ScenarioRunnerTest, ExpansionOrderIsMachineRowVariant) {
  const Scenario scenario = SmokeScenario();
  ScenarioRun run;
  ScenarioError err;
  ASSERT_TRUE(ExpandScenario(scenario, QuietOptions(), &run, &err)) << err.Join();

  ASSERT_EQ(run.jobs.size(), 8u);  // 2 machines x 2 rows x 2 variants
  EXPECT_EQ(run.num_machines(), 2u);
  EXPECT_EQ(run.num_rows(), 2u);
  EXPECT_EQ(run.num_variants(), 2u);
  EXPECT_EQ(run.num_sweeps(), 1u);
  EXPECT_EQ(run.sweep_labels[0], "");

  // Variant is the innermost non-sweep axis; machine the outermost.
  EXPECT_EQ(run.jobs[0].config.machine, "intel-5218-2s");
  EXPECT_EQ(run.jobs[0].workload, "tiny-gcc");
  EXPECT_EQ(run.jobs[0].variant, "CFS sched");
  EXPECT_EQ(run.jobs[1].variant, "Nest sched");
  EXPECT_EQ(run.jobs[2].workload, "tiny-php");
  EXPECT_EQ(run.jobs[4].config.machine, "amd-4650g-1s");

  // Index() agrees with the flat order.
  for (size_t m = 0; m < 2; ++m) {
    for (size_t r = 0; r < 2; ++r) {
      for (size_t v = 0; v < 2; ++v) {
        const size_t i = run.Index(m, r, v);
        EXPECT_EQ(&run.job(m, r, v), &run.jobs[i]);
      }
    }
  }

  // One model per (machine, row), shared across variants.
  EXPECT_EQ(run.job(0, 0, 0).model.get(), run.job(0, 0, 1).model.get());
  EXPECT_NE(run.job(0, 0, 0).model.get(), run.job(0, 1, 0).model.get());
  EXPECT_NE(run.job(0, 0, 0).model.get(), run.job(1, 0, 0).model.get());

  // Seeds and config flow into every job.
  for (const Job& job : run.jobs) {
    EXPECT_EQ(job.base_seed, 3u);
    EXPECT_EQ(job.repetitions, 1);
  }
  EXPECT_EQ(run.job(0, 0, 1).config.scheduler, SchedulerKind::kNest);
}

TEST(ScenarioRunnerTest, OptionOverridesWin) {
  const Scenario scenario = SmokeScenario();
  ScenarioRunOptions options = QuietOptions();
  options.repetitions_override = 4;
  options.has_base_seed = true;
  options.base_seed = 77;
  options.timeout_override_s = 9.5;
  ScenarioRun run;
  ScenarioError err;
  ASSERT_TRUE(ExpandScenario(scenario, options, &run, &err)) << err.Join();
  EXPECT_EQ(run.repetitions, 4);
  EXPECT_EQ(run.base_seed, 77u);
  EXPECT_DOUBLE_EQ(run.timeout_s, 9.5);
  for (const Job& job : run.jobs) {
    EXPECT_EQ(job.repetitions, 4);
    EXPECT_EQ(job.base_seed, 77u);
    EXPECT_DOUBLE_EQ(job.timeout_s, 9.5);
  }
}

TEST(ScenarioRunnerTest, SweepCrossProductAndLabels) {
  Scenario scenario = SmokeScenario();
  scenario.machines = {"intel-5218-2s"};
  scenario.rows.resize(1);
  scenario.variants.resize(1);
  {
    SweepAxis axis;
    axis.key = "nest.r_max";
    JsonValue v;
    v.type = JsonValue::Type::kNumber;
    v.number = 1;
    axis.values.push_back(v);
    v.number = 3;
    axis.values.push_back(v);
    scenario.sweep.push_back(axis);
  }
  {
    SweepAxis axis;
    axis.key = "nest.enable_spin";
    JsonValue v;
    v.type = JsonValue::Type::kBool;
    v.boolean = false;
    axis.values.push_back(v);
    v.boolean = true;
    axis.values.push_back(v);
    scenario.sweep.push_back(axis);
  }

  ScenarioRun run;
  ScenarioError err;
  ASSERT_TRUE(ExpandScenario(scenario, QuietOptions(), &run, &err)) << err.Join();
  ASSERT_EQ(run.num_sweeps(), 4u);
  ASSERT_EQ(run.jobs.size(), 4u);
  // Last axis is innermost.
  EXPECT_EQ(run.sweep_labels[0], "nest.r_max=1,nest.enable_spin=false");
  EXPECT_EQ(run.sweep_labels[1], "nest.r_max=1,nest.enable_spin=true");
  EXPECT_EQ(run.sweep_labels[2], "nest.r_max=3,nest.enable_spin=false");
  EXPECT_EQ(run.sweep_labels[3], "nest.r_max=3,nest.enable_spin=true");
  // Jobs carry the sweep label in the variant name and the override in config.
  EXPECT_EQ(run.job(0, 0, 0, 2).variant, "CFS sched [nest.r_max=3,nest.enable_spin=false]");
  EXPECT_EQ(run.job(0, 0, 0, 2).config.nest.r_max, 3);
  EXPECT_FALSE(run.job(0, 0, 0, 2).config.nest.enable_spin);
  EXPECT_TRUE(run.job(0, 0, 0, 3).config.nest.enable_spin);
}

TEST(ScenarioRunnerTest, VariantConfigAppliesToItsVariantAfterTheScenarioConfig) {
  const Scenario scenario = MustParse(R"({
    "name": "variant_config",
    "machines": ["amd-4650g-1s"],
    "variants": [
      {"label": "default", "scheduler": "nest", "governor": "schedutil"},
      {"label": "wide", "scheduler": "nest", "governor": "schedutil",
       "config": {"nest.r_max": 7, "nest.enable_spin": false}}
    ],
    "workload": {"family": "configure", "presets": ["gcc"]},
    "config": {"nest.r_max": 3},
    "sweep": {"nest.s_max_ticks": [1, 4]}
  })");
  ScenarioRun run;
  ScenarioError err;
  ASSERT_TRUE(ExpandScenario(scenario, QuietOptions(), &run, &err)) << err.Join();
  for (size_t s = 0; s < 2; ++s) {
    EXPECT_EQ(run.job(0, 0, 0, s).config.nest.r_max, 3);
    EXPECT_TRUE(run.job(0, 0, 0, s).config.nest.enable_spin);
    EXPECT_EQ(run.job(0, 0, 1, s).config.nest.r_max, 7);
    EXPECT_FALSE(run.job(0, 0, 1, s).config.nest.enable_spin);
  }
  // Sweep points still apply on top of the variant config.
  EXPECT_EQ(run.job(0, 0, 1, 0).config.nest.s_max_ticks, 1);
  EXPECT_EQ(run.job(0, 0, 1, 1).config.nest.s_max_ticks, 4);
}

// Executes `json` on one worker and returns what PrintScenarioTables prints.
std::string Tables(const std::string& json) {
  const Scenario scenario = MustParse(json);
  ScenarioRun run;
  ScenarioError err;
  EXPECT_TRUE(ExpandScenario(scenario, QuietOptions(), &run, &err)) << err.Join();
  ExecuteScenario(&run);
  ::testing::internal::CaptureStdout();
  PrintScenarioTables(run);
  return ::testing::internal::GetCapturedStdout();
}

size_t Count(const std::string& text, const std::string& needle) {
  size_t n = 0;
  for (size_t at = text.find(needle); at != std::string::npos; at = text.find(needle, at + 1)) {
    ++n;
  }
  return n;
}

TEST(ScenarioTableStyleTest, FreqPrintsOneResidencyLinePerVariant) {
  const std::string out = Tables(R"({
    "name": "freq", "machines": ["amd-4650g-1s"],
    "workload": {"family": "configure", "rows": [
      {"label": "tiny-gcc", "params": {"preset": "gcc", "num_tests": 8}}]},
    "repetitions": 1, "table": {"style": "freq"}
  })");
  EXPECT_EQ(Count(out, "tiny-gcc:\n"), 1u) << out;
  EXPECT_EQ(Count(out, " top2 "), 4u) << out;  // the four standard variants
  EXPECT_NE(out.find("  Nest perf   top2 "), std::string::npos) << out;
}

TEST(ScenarioTableStyleTest, TimelinePrintsEverySeedTraceAndUnderloadSeries) {
  const std::string out = Tables(R"({
    "name": "timeline", "machines": ["amd-4650g-1s"],
    "variants": [
      {"label": "CFS sched", "scheduler": "cfs", "governor": "schedutil"},
      {"label": "Nest sched", "scheduler": "nest", "governor": "schedutil"}],
    "workload": {"family": "configure", "rows": [
      {"label": "tiny-gcc", "params": {"preset": "gcc", "num_tests": 8}}]},
    "repetitions": 2, "base_seed": 3,
    "config": {"record_trace": true, "record_underload_series": true},
    "table": {"style": "timeline"}
  })");
  for (const char* needle : {"(CFS sched, seed 3) makespan", "(CFS sched, seed 4) makespan",
                             "(Nest sched, seed 3) makespan", "(Nest sched, seed 4) makespan",
                             "underload per 4 ms interval, first 300 ms (seed 3):",
                             "underload per 4 ms interval, first 300 ms (seed 4):",
                             "total underload in window: CFS sched "}) {
    EXPECT_NE(out.find(needle), std::string::npos) << needle << "\n" << out;
  }
  EXPECT_EQ(Count(out, "first 300 ms, per-core activity:"), 4u) << out;
  EXPECT_EQ(Count(out, "frequency residency while executing tasks:"), 4u) << out;
}

TEST(ScenarioTableStyleTest, CorunPrintsSoloAndCorunMakespansPerMember) {
  const std::string out = Tables(R"({
    "name": "corun", "machines": ["amd-4650g-1s"],
    "variants": [
      {"label": "CFS sched", "scheduler": "cfs", "governor": "schedutil", "column": "CFS"},
      {"label": "Nest sched", "scheduler": "nest", "governor": "schedutil", "column": "Nest"}],
    "workload": {"family": "multi", "rows": [
      {"label": "gcc", "params": {"members": [{"family": "configure", "preset": "gcc"}]}},
      {"label": "gcc+hb", "params": {"members": [
        {"family": "configure", "preset": "gcc"},
        {"family": "hackbench", "params": {"groups": 2, "fan": 2, "loops": 10}}]}}]},
    "repetitions": 1, "table": {"style": "corun"}
  })");
  EXPECT_EQ(Count(out, "co-run: "), 1u) << out;  // solo rows print no block of their own
  EXPECT_NE(out.find("co-run: gcc+hb"), std::string::npos) << out;
  EXPECT_NE(out.find("solo-CFS  solo-Nest  corun-CFS corun-Nest   Nest-vs-CFS(corun)"),
            std::string::npos)
      << out;
  // gcc has a solo row, hackbench does not.
  const size_t gcc = out.find("  configure-gcc ");
  const size_t hb = out.find("  hackbench");
  ASSERT_NE(gcc, std::string::npos) << out;
  ASSERT_NE(hb, std::string::npos) << out;
  EXPECT_EQ(out.substr(gcc, out.find('\n', gcc) - gcc).find(" - "), std::string::npos) << out;
  EXPECT_NE(out.substr(hb, out.find('\n', hb) - hb).find(" - "), std::string::npos) << out;
}

TEST(ScenarioRunnerTest, ExecutionIsDeterministicAcrossWorkerCounts) {
  const Scenario scenario = SmokeScenario();
  auto run_with = [&](int jobs) {
    ScenarioRun run;
    ScenarioError err;
    EXPECT_TRUE(ExpandScenario(scenario, QuietOptions(jobs), &run, &err)) << err.Join();
    ExecuteScenario(&run);
    return run;
  };
  const ScenarioRun serial = run_with(1);
  const ScenarioRun pooled = run_with(4);

  ASSERT_EQ(serial.outcomes.size(), pooled.outcomes.size());
  for (size_t i = 0; i < serial.outcomes.size(); ++i) {
    ASSERT_TRUE(serial.outcomes[i].ok());
    ASSERT_TRUE(pooled.outcomes[i].ok());
    const RepeatedResult& a = serial.outcomes[i].result;
    const RepeatedResult& b = pooled.outcomes[i].result;
    ASSERT_EQ(a.runs.size(), b.runs.size());
    for (size_t j = 0; j < a.runs.size(); ++j) {
      EXPECT_EQ(a.runs[j].makespan, b.runs[j].makespan) << i << "/" << j;
      EXPECT_EQ(a.runs[j].context_switches, b.runs[j].context_switches);
      EXPECT_DOUBLE_EQ(a.runs[j].energy_joules, b.runs[j].energy_joules);
    }
  }

  // result() hands back the aggregate; a failed job would throw instead.
  EXPECT_GT(serial.result(0, 0, 0).runs[0].makespan, 0);
}

TEST(ScenarioRunnerTest, ResultThrowsOnFailedJobs) {
  Scenario scenario = SmokeScenario();
  scenario.machines = {"intel-5218-2s"};
  scenario.rows.resize(1);
  scenario.variants.resize(1);
  ScenarioRun run;
  ScenarioError err;
  ASSERT_TRUE(ExpandScenario(scenario, QuietOptions(), &run, &err)) << err.Join();
  run.outcomes.resize(run.jobs.size());
  run.outcomes[0].status = JobStatus::kFailed;
  run.outcomes[0].message = "boom";
  EXPECT_THROW(run.result(0, 0, 0), std::runtime_error);
  EXPECT_EQ(run.outcome(0, 0, 0).message, "boom");
}

TEST(ScenarioRunnerTest, ResolveScenarioPathFindsTheScenarioDir) {
  const std::string dir = testing::TempDir() + "/scenario_dir_test";
  std::string mkdir_cmd = "mkdir -p " + dir;
  ASSERT_EQ(std::system(mkdir_cmd.c_str()), 0);
  const std::string path = dir + "/resolve_me.json";
  {
    std::ofstream out(path, std::ios::trunc);
    out << "{}";
  }

  // An existing path is returned as-is.
  EXPECT_EQ(ResolveScenarioPath(path), path);

  // Otherwise NESTSIM_SCENARIO_DIR is consulted.
  setenv("NESTSIM_SCENARIO_DIR", dir.c_str(), 1);
  EXPECT_EQ(ResolveScenarioPath("resolve_me.json"), path);
  unsetenv("NESTSIM_SCENARIO_DIR");

  // Nothing found: the name comes back unchanged so the open error names it.
  EXPECT_EQ(ResolveScenarioPath("no_such_scenario.json"), "no_such_scenario.json");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace nestsim
