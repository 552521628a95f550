#include "src/check/differential.h"

#include <gtest/gtest.h>

#include "src/obs/json_check.h"

namespace nestsim {
namespace {

JsonValue ParseSpec(const std::string& text) {
  JsonValue spec;
  std::string error;
  EXPECT_TRUE(JsonParse(text, &spec, &error)) << error;
  return spec;
}

// A small wakeup-heavy scenario: hackbench drives enough enqueues that a
// dispatch fault trips quickly, and the three variants exercise every policy.
JsonValue HackbenchSpecJson() {
  return ParseSpec(R"({
    "name": "diff-hackbench",
    "machines": ["amd-4650g-1s"],
    "variants": [
      {"label": "cfs", "scheduler": "cfs", "governor": "schedutil"},
      {"label": "nest", "scheduler": "nest", "governor": "schedutil"},
      {"label": "smove", "scheduler": "smove", "governor": "schedutil"}
    ],
    "workload": {"family": "hackbench", "params": {"groups": 2, "fan": 2, "loops": 8}},
    "repetitions": 1,
    "base_seed": 11,
    "config": {"time_limit_s": 20},
    "table": {"style": "none"}
  })");
}

TEST(DifferentialTest, CleanScenarioPassesAllCrossChecks) {
  const DifferentialReport report = RunDifferential(HackbenchSpecJson(), /*full_load=*/false);
  EXPECT_TRUE(report.ok()) << report.Join();
  EXPECT_EQ(report.jobs, 3u);
}

TEST(DifferentialTest, FullLoadNasIsCfsNestNeutral) {
  const JsonValue spec = ParseSpec(R"({
    "name": "diff-nas",
    "machines": ["intel-5220-1s"],
    "variants": [
      {"label": "cfs", "scheduler": "cfs", "governor": "performance"},
      {"label": "nest", "scheduler": "nest", "governor": "performance"}
    ],
    "workload": {"family": "nas",
                 "params": {"threads": 0, "iter_compute_ms": 1.0, "iterations": 10}},
    "repetitions": 1,
    "base_seed": 3,
    "config": {"time_limit_s": 20},
    "table": {"style": "none"}
  })");
  const DifferentialReport report = RunDifferential(spec, /*full_load=*/true);
  EXPECT_TRUE(report.ok()) << report.Join();
}

// Fault injection (docs/FAULTS.md) pre-draws its plan from the run seed, so
// the serial and pooled passes must stay digest-identical even while cores
// die and tasks evacuate. (Replica quorums are fleet-only; PdesDifferentialTest
// covers them across worker counts on corpus/fuzz-fault-min.)
TEST(DifferentialTest, FaultInjectionStaysDeterministicAcrossWorkerCounts) {
  const JsonValue spec = ParseSpec(R"({
    "name": "diff-faults",
    "machines": ["amd-4650g-1s"],
    "variants": [
      {"label": "cfs", "scheduler": "cfs", "governor": "schedutil"},
      {"label": "nest", "scheduler": "nest", "governor": "schedutil"},
      {"label": "nest_cache", "scheduler": "nest_cache", "governor": "schedutil"}
    ],
    "workload": {"family": "hackbench", "params": {"groups": 2, "fan": 2, "loops": 8}},
    "repetitions": 2,
    "base_seed": 17,
    "config": {
      "time_limit_s": 20,
      "fault.core_fail_rate_per_s": 40.0,
      "fault.core_downtime_ms": 10.0
    },
    "table": {"style": "none"}
  })");
  const DifferentialReport report = RunDifferential(spec, /*full_load=*/false);
  EXPECT_TRUE(report.ok()) << report.Join();
  EXPECT_EQ(report.jobs, 3u);
}

// Same property under a per-socket power cap: the budget governor's windowed
// power reading folds lazily per experiment, never across the worker pool.
TEST(DifferentialTest, PowerCapStaysDeterministicAcrossWorkerCounts) {
  const JsonValue spec = ParseSpec(R"({
    "name": "diff-budget",
    "machines": ["amd-4650g-1s"],
    "variants": [
      {"label": "cfs", "scheduler": "cfs", "governor": "budget"},
      {"label": "nest", "scheduler": "nest", "governor": "budget"},
      {"label": "nest_budget", "scheduler": "nest_budget", "governor": "budget"}
    ],
    "workload": {"family": "nas",
                 "params": {"threads": 8, "iter_compute_ms": 1.0, "iterations": 10}},
    "repetitions": 1,
    "base_seed": 5,
    "config": {"time_limit_s": 20, "power.budget_w": 25.0},
    "table": {"style": "none"}
  })");
  const DifferentialReport report = RunDifferential(spec, /*full_load=*/false);
  EXPECT_TRUE(report.ok()) << report.Join();
}

// Mutation self-test, differential flavour: inject the lost-wakeup fault into
// every job (balancers off so nothing rescues it) and the invariant checker
// must fail the runs, which the differential report surfaces.
TEST(DifferentialTest, InjectedLostWakeupFailsTheReport) {
  DifferentialOptions options;
  options.mutate_config = [](ExperimentConfig* config) {
    config->kernel.enable_newidle_balance = false;
    config->kernel.enable_periodic_balance = false;
    config->kernel.test_skip_enqueue_dispatch_every = 50;
  };
  const DifferentialReport report =
      RunDifferential(HackbenchSpecJson(), /*full_load=*/false, options);
  EXPECT_FALSE(report.ok());
  EXPECT_NE(report.Join().find("invariant"), std::string::npos) << report.Join();
}

TEST(DifferentialTest, InvalidSpecIsReportedNotCrashed) {
  const JsonValue spec = ParseSpec(R"({"name": "broken"})");
  const DifferentialReport report = RunDifferential(spec, false);
  EXPECT_FALSE(report.ok());
  EXPECT_NE(report.Join().find("does not parse"), std::string::npos);
}

}  // namespace
}  // namespace nestsim
