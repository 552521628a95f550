// The benchmark's workloads and one pass over a workload's fixed simulated
// work: load and expand its scenario files, then run every job through the
// program's own campaign runner (one worker), exactly as nestsim_run does.

#ifndef NESTBENCH_SRC_PASSES_H_
#define NESTBENCH_SRC_PASSES_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/scenario/runner.h"

namespace nestbench {

// One scenario file, optionally cut to some of its rows before expansion.
struct ScenarioSource {
  std::string file;               // relative to the checkout root
  std::vector<std::string> rows;  // keep only these row labels (empty = all)
  size_t row_stride = 1;          // then keep every row_stride-th row
};

struct BenchWorkload {
  std::string name;
  std::vector<ScenarioSource> sources;
};

// nullptr for an unknown name.
const BenchWorkload* FindWorkload(const std::string& name);
std::vector<std::string> WorkloadNames();

// The workload's scenarios, expanded into jobs with every job's base seed set
// to `seed`, one repetition and a serial campaign.
struct Pass {
  std::vector<nestsim::ScenarioRun> runs;
  uint64_t load_expand_ns = 0;
};

// Throws std::runtime_error when a scenario cannot be loaded or expanded.
Pass ExpandPass(const BenchWorkload& workload, const std::string& root, uint64_t seed);

// Runs every job of `pass` through ExecuteScenario; returns the host ns.
uint64_t ExecutePass(Pass* pass);

// Calls fn(label, job, outcome) for every job, in expansion order.
template <typename Fn>
void ForEachJob(const Pass& pass, Fn&& fn) {
  for (const nestsim::ScenarioRun& run : pass.runs) {
    for (size_t i = 0; i < run.jobs.size(); ++i) {
      const nestsim::Job& job = run.jobs[i];
      const std::string label =
          run.scenario.name + "/" + job.config.machine + "/" + job.workload + "/" + job.variant;
      fn(label, job, run.outcomes.at(i));
    }
  }
}

// The job's config with the seed its only repetition runs with.
nestsim::ExperimentConfig SeededConfig(const nestsim::Job& job);

// The program's own runner for the job: RunClusterExperiment for fleet jobs,
// RunExperiment otherwise.
nestsim::ExperimentResult RunJob(const nestsim::Job& job, const nestsim::ExperimentConfig& config);

// Why the job's outcome is not a clean, complete run; "" when it is.
std::string JobProblem(const nestsim::JobOutcome& outcome);

// The simulated outputs checked against the expected values: makespan,
// energy and the SchedCounters digest, plus fleet p50/p99 for cluster jobs.
std::string OutputSignature(const nestsim::ExperimentResult& result);

// Host ns from a cold start to the first fired event of the workload's first
// job: scenario load and expansion, stack construction, kernel start, and
// Workload::Setup (or, for a fleet, every machine's stack and the
// RequestWorkload::BuildPlan the cluster runner draws before its first event).
uint64_t MeasureSetup(const BenchWorkload& workload, const std::string& root, uint64_t seed);

}  // namespace nestbench

#endif  // NESTBENCH_SRC_PASSES_H_
