#include "nestbench/src/passes.h"

#include <cstdio>
#include <memory>
#include <stdexcept>

#include "nestbench/src/traced_stack.h"
#include "src/cluster/cluster.h"
#include "src/scenario/baseline.h"
#include "src/workloads/requests.h"

namespace nestbench {

namespace {

// Why these and not others is recorded in BENCHMARK.json. The paper grid
// keeps every paper machine and every variant of the committed fig12 and
// table4 scenarios but only some rows, so one pass takes about half a second
// and a run collects enough passes for a tail percentile: the three shortest
// NAS kernels (ep, ft, is) and every 22nd Phoronix row (11 rows).
const std::vector<BenchWorkload>& Workloads() {
  static const std::vector<BenchWorkload> workloads = {
      {"paper_grid",
       {{"scenarios/fig12.json", {"ep", "ft", "is"}, 1}, {"scenarios/table4.json", {}, 22}}},
      {"scale256", {{"nestbench/scenarios/scale256.json", {}, 1}}},
      {"rack8", {{"nestbench/scenarios/rack8.json", {}, 1}}},
  };
  return workloads;
}

std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

const BenchWorkload* FindWorkload(const std::string& name) {
  for (const BenchWorkload& w : Workloads()) {
    if (w.name == name) {
      return &w;
    }
  }
  return nullptr;
}

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> names;
  for (const BenchWorkload& w : Workloads()) {
    names.push_back(w.name);
  }
  return names;
}

Pass ExpandPass(const BenchWorkload& workload, const std::string& root, uint64_t seed) {
  Pass pass;
  const uint64_t t0 = NowNs();
  for (const ScenarioSource& source : workload.sources) {
    const std::string path = root + "/" + source.file;
    nestsim::Scenario scenario;
    nestsim::ScenarioError err;
    if (!nestsim::LoadScenario(path, &scenario, &err)) {
      throw std::runtime_error(err.Join());
    }
    std::vector<nestsim::ScenarioRow> rows;
    for (const nestsim::ScenarioRow& row : scenario.rows) {
      bool keep = source.rows.empty();
      for (const std::string& label : source.rows) {
        keep = keep || row.label == label;
      }
      if (keep) {
        rows.push_back(row);
      }
    }
    if (rows.size() < source.rows.size()) {
      throw std::runtime_error(path + ": a benchmark row is missing from the scenario");
    }
    scenario.rows.clear();
    for (size_t i = 0; i < rows.size(); i += source.row_stride) {
      scenario.rows.push_back(rows[i]);
    }

    nestsim::ScenarioRunOptions options;
    options.repetitions_override = 1;
    options.has_base_seed = true;
    options.base_seed = seed;
    options.timeout_override_s = 0.0;
    options.parallel_workers = 0;
    options.campaign.jobs = 1;
    options.campaign.progress = false;
    options.campaign.jsonl_path.clear();
    nestsim::ScenarioRun run;
    if (!nestsim::ExpandScenario(scenario, options, &run, &err)) {
      throw std::runtime_error(err.Join());
    }
    pass.runs.push_back(std::move(run));
  }
  pass.load_expand_ns = NowNs() - t0;
  return pass;
}

uint64_t ExecutePass(Pass* pass) {
  const uint64_t t0 = NowNs();
  for (nestsim::ScenarioRun& run : pass->runs) {
    nestsim::ExecuteScenario(&run);
  }
  return NowNs() - t0;
}

nestsim::ExperimentConfig SeededConfig(const nestsim::Job& job) {
  nestsim::ExperimentConfig config = job.config;
  config.seed = job.base_seed;
  return config;
}

nestsim::ExperimentResult RunJob(const nestsim::Job& job, const nestsim::ExperimentConfig& config) {
  return job.runner ? job.runner(config, *job.model) : nestsim::RunExperiment(config, *job.model);
}

std::string JobProblem(const nestsim::JobOutcome& outcome) {
  if (!outcome.ok()) {
    return std::string(nestsim::JobStatusName(outcome.status)) + ": " + outcome.message;
  }
  for (const nestsim::ExperimentResult& r : outcome.result.runs) {
    if (r.hit_time_limit) {
      return "hit the time limit";
    }
    if (r.aborted) {
      return "aborted";
    }
    if (r.cluster.num_machines > 0 && r.cluster.requests_completed != r.cluster.requests_offered) {
      return "requests left incomplete";
    }
  }
  return outcome.result.runs.size() == 1 ? "" : "expected exactly one repetition";
}

std::string OutputSignature(const nestsim::ExperimentResult& result) {
  std::string sig = "makespan_ns=" + std::to_string(result.makespan) +
                    " energy_j=" + FormatDouble(result.energy_joules) +
                    " counters=" + nestsim::SchedCountersDigest(result.counters);
  if (result.cluster.num_machines > 0) {
    sig += " p50_ms=" + FormatDouble(result.cluster.p50_ms) +
           " p99_ms=" + FormatDouble(result.cluster.p99_ms);
  }
  return sig;
}

uint64_t MeasureSetup(const BenchWorkload& workload, const std::string& root, uint64_t seed) {
  const uint64_t t0 = NowNs();
  const Pass pass = ExpandPass(workload, root, seed);
  const nestsim::ScenarioRun& run = pass.runs.front();
  const nestsim::Job& job = run.jobs.front();
  const nestsim::ExperimentConfig config = SeededConfig(job);
  if (run.scenario.has_cluster) {
    const auto* requests = dynamic_cast<const nestsim::RequestWorkload*>(job.model.get());
    if (requests == nullptr) {
      throw std::runtime_error("nestbench: a fleet job without a requests workload");
    }
    nestsim::DomainGroup group(run.scenario.cluster_machines);
    nestsim::ClusterModel fleet(&group, config, run.scenario.cluster_machines);
    for (int m = 0; m < fleet.size(); ++m) {
      fleet.machine(m).kernel.Start();
    }
    nestsim::Rng rng(config.seed);
    nestsim::Rng wl_rng = rng.Fork();
    const nestsim::RequestPlan plan = requests->BuildPlan(wl_rng);
    if (plan.parts.empty() || !group.domain(0).Step()) {
      throw std::runtime_error("nestbench: the fleet has nothing to run");
    }
    return NowNs() - t0;
  }
  nestsim::Engine engine;
  nestsim::HardwareModel hw(&engine, nestsim::MachineByName(config.machine));
  std::unique_ptr<nestsim::SchedulerPolicy> policy = nestsim::MakeSchedulerPolicy(config);
  std::unique_ptr<nestsim::Governor> governor = nestsim::MakeGovernor(config.governor, config.power);
  nestsim::Kernel kernel(&engine, &hw, policy.get(), governor.get(), config.kernel);
  kernel.Start();
  nestsim::Rng rng(config.seed);
  job.model->Setup(kernel, rng);
  if (!engine.Step()) {
    throw std::runtime_error("nestbench: the first job has nothing to run");
  }
  return NowNs() - t0;
}

}  // namespace nestbench
