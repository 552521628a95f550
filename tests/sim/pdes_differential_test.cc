// The serial-vs-parallel differential layer (docs/PARALLEL.md): every
// committed scenario golden replayed under the windowed PDES executor at
// 1/2/4/8 workers must produce bit-identical results to the serial
// reference loop. The golden gate (golden.<stem> in ctest) pins the serial
// results to the committed goldens; this suite runs under TSan too, so it
// also watches the executor's cross-domain paths for races. The paper-figure
// scenarios stay off the list: they are too slow under TSan.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/obs/sched_counters.h"
#include "src/scenario/baseline.h"
#include "src/scenario/runner.h"
#include "src/scenario/scenario.h"

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

}  // namespace
}  // namespace nestsim
