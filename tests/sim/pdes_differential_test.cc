// The serial-vs-parallel differential layer (docs/PARALLEL.md): every
// committed scenario golden replayed under the windowed PDES executor at
// 1/2/4/8 workers must produce bit-identical results to the serial
// reference loop, and randomized parallel.* knob draws (sync algorithm,
// lookahead caps) must never be observable either. The golden gate
// (golden.<stem> in ctest) pins the serial results to the committed goldens;
// this suite runs under TSan too, so it also watches the executor's
// cross-domain paths for races. The paper-figure scenarios stay off the list:
// they are too slow under TSan.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/obs/sched_counters.h"
#include "src/scenario/baseline.h"
#include "src/scenario/runner.h"
#include "src/scenario/scenario.h"
#include "src/sim/random.h"

namespace nestsim {
namespace {

// Everything a golden record pins, per repetition of per job.
struct RunFingerprint {
  SimDuration makespan = 0;
  int tasks_created = 0;
  uint64_t migrations = 0;
  std::string digest;

  bool operator==(const RunFingerprint& o) const {
    return makespan == o.makespan && tasks_created == o.tasks_created &&
           migrations == o.migrations && digest == o.digest;
  }
};

std::vector<std::vector<RunFingerprint>> ExecuteAt(const Scenario& scenario, int workers) {
  ScenarioRunOptions options;
  options.repetitions_override = 1;  // one seed per job keeps the suite fast
  options.parallel_workers = workers;
  options.campaign.jobs = 1;
  options.campaign.progress = false;
  options.campaign.jsonl_path.clear();
  ScenarioRun run;
  ScenarioError err;
  if (!ExpandScenario(scenario, options, &run, &err)) {
    ADD_FAILURE() << scenario.name << " does not expand: " << err.Join();
    return {};
  }
  ExecuteScenario(&run);

  std::vector<std::vector<RunFingerprint>> out;
  for (const JobOutcome& outcome : run.outcomes) {
    EXPECT_TRUE(outcome.ok()) << scenario.name << " at " << workers
                              << " workers: " << outcome.message;
    std::vector<RunFingerprint> reps;
    for (const ExperimentResult& r : outcome.result.runs) {
      RunFingerprint fp;
      fp.makespan = r.makespan;
      fp.tasks_created = r.tasks_created;
      fp.migrations = r.migrations;
      fp.digest = SchedCountersDigest(r.counters);
      reps.push_back(fp);
    }
    out.push_back(std::move(reps));
  }
  return out;
}

Scenario LoadCommitted(const std::string& stem) {
  const std::string path = std::string(NESTSIM_REPO_DIR) + "/scenarios/" + stem + ".json";
  Scenario scenario;
  ScenarioError err;
  EXPECT_TRUE(LoadScenario(path, &scenario, &err)) << err.Join();
  return scenario;
}

// Every non-paper scenario with a committed golden, plus the fuzz corpus.
const char* kGoldenScenarios[] = {
    "smoke",
    "cache_ablation",
    "cluster_smoke",
    "cluster_util_sweep",
    "energy_cap",
    "fault_blast_radius",
    "pdes_scaling",
    "predict_headroom",
    "corpus/fuzz-1",
    "corpus/fuzz-2",
    "corpus/fuzz-2-min",
    "corpus/fuzz-3",
    "corpus/fuzz-4",
    "corpus/fuzz-5",
    "corpus/fuzz-fault-min",
};

TEST(PdesDifferentialTest, CommittedGoldensAreByteIdenticalAtEveryWorkerCount) {
  for (const char* stem : kGoldenScenarios) {
    SCOPED_TRACE(stem);
    const Scenario scenario = LoadCommitted(stem);
    const auto reference = ExecuteAt(scenario, /*workers=*/0);
    ASSERT_FALSE(reference.empty());
    for (const int workers : {1, 2, 4, 8}) {
      const auto parallel = ExecuteAt(scenario, workers);
      EXPECT_TRUE(reference == parallel)
          << stem << " diverged from the serial reference at " << workers << " PDES workers";
    }
  }
}

// Randomized knob fuzz: sync mode and lookahead cap are pure execution
// policy, so random draws — including sub-window lookaheads that chop every
// arrival gap into heartbeats — must reproduce the serial history exactly.
TEST(PdesDifferentialTest, RandomParallelKnobDrawsNeverChangeResults) {
  const Scenario base = LoadCommitted("cluster_smoke");
  const auto reference = ExecuteAt(base, /*workers=*/0);
  ASSERT_FALSE(reference.empty());

  Rng rng(20260807);
  static const char* kSync[] = {"auto", "window", "lockstep"};
  for (int draw = 0; draw < 8; ++draw) {
    Scenario scenario = base;
    const int workers = 1 + static_cast<int>(rng.NextBounded(8));
    const char* sync = kSync[rng.NextBounded(3)];
    // Spans "tiny heartbeat" (10 us) to "wider than any arrival gap".
    const double lookahead_us = rng.NextBool(0.5) ? 0.0 : rng.NextDouble(10.0, 50000.0);

    ScenarioRunOptions options;
    options.repetitions_override = 1;
    options.parallel_workers = workers;
    options.campaign.jobs = 1;
    options.campaign.progress = false;
    options.campaign.jsonl_path.clear();
    ScenarioRun run;
    ScenarioError err;
    ASSERT_TRUE(ExpandScenario(scenario, options, &run, &err)) << err.Join();
    for (Job& job : run.jobs) {
      job.config.parallel.sync = sync;
      job.config.parallel.lookahead_us = lookahead_us;
    }
    ExecuteScenario(&run);

    ASSERT_EQ(run.outcomes.size(), reference.size());
    for (size_t j = 0; j < run.outcomes.size(); ++j) {
      const JobOutcome& outcome = run.outcomes[j];
      ASSERT_TRUE(outcome.ok()) << outcome.message;
      ASSERT_EQ(outcome.result.runs.size(), reference[j].size());
      for (size_t i = 0; i < outcome.result.runs.size(); ++i) {
        const ExperimentResult& r = outcome.result.runs[i];
        EXPECT_EQ(r.makespan, reference[j][i].makespan)
            << workers << " workers, sync " << sync << ", lookahead " << lookahead_us;
        EXPECT_EQ(SchedCountersDigest(r.counters), reference[j][i].digest)
            << workers << " workers, sync " << sync << ", lookahead " << lookahead_us;
      }
    }
  }
}

}  // namespace
}  // namespace nestsim
