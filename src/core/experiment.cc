#include "src/core/experiment.h"

#include <cstdlib>
#include <memory>

#include "src/cfs/cfs_policy.h"
#include "src/core/machine_run.h"
#include "src/metrics/stats.h"

namespace nestsim {

const char* SchedulerKindName(SchedulerKind kind) {
  switch (kind) {
    case SchedulerKind::kCfs:
      return "CFS";
    case SchedulerKind::kNest:
      return "Nest";
    case SchedulerKind::kSmove:
      return "Smove";
    case SchedulerKind::kNestCache:
      return "NestCache";
    case SchedulerKind::kNestBudget:
      return "NestBudget";
    case SchedulerKind::kNestPredict:
      return "NestPredict";
    case SchedulerKind::kNestOracle:
      return "NestOracle";
  }
  return "?";
}

const char* SchedulerKindKey(SchedulerKind kind) {
  switch (kind) {
    case SchedulerKind::kCfs:
      return "cfs";
    case SchedulerKind::kNest:
      return "nest";
    case SchedulerKind::kSmove:
      return "smove";
    case SchedulerKind::kNestCache:
      return "nest_cache";
    case SchedulerKind::kNestBudget:
      return "nest_budget";
    case SchedulerKind::kNestPredict:
      return "nest_predict";
    case SchedulerKind::kNestOracle:
      return "nest_oracle";
  }
  return "?";
}

bool SchedulerKindFromKey(const std::string& key, SchedulerKind* out) {
  for (const SchedulerKind kind :
       {SchedulerKind::kCfs, SchedulerKind::kNest, SchedulerKind::kSmove,
        SchedulerKind::kNestCache, SchedulerKind::kNestBudget, SchedulerKind::kNestPredict,
        SchedulerKind::kNestOracle}) {
    if (key == SchedulerKindKey(kind)) {
      *out = kind;
      return true;
    }
  }
  return false;
}

std::vector<std::string> SchedulerKindKeys() {
  return {"cfs", "nest", "smove", "nest_cache", "nest_budget", "nest_predict", "nest_oracle"};
}

std::string ExperimentConfig::Label() const {
  std::string label = SchedulerKindName(scheduler);
  label += " ";
  label += governor == "schedutil" ? "sched" : "perf";
  return label;
}

bool CheckInvariantsEnabled(const ExperimentConfig& config) {
  const char* env = std::getenv("NESTSIM_CHECK_INVARIANTS");
  if (env != nullptr && env[0] != '\0') {
    return env[0] != '0';
  }
  return config.check_invariants;
}

std::unique_ptr<SchedulerPolicy> MakeSchedulerPolicy(const ExperimentConfig& config) {
  switch (config.scheduler) {
    case SchedulerKind::kCfs:
      return std::make_unique<CfsPolicy>();
    case SchedulerKind::kNest:
      return std::make_unique<NestPolicy>(config.nest);
    case SchedulerKind::kSmove:
      return std::make_unique<SmovePolicy>(config.smove);
    case SchedulerKind::kNestCache:
      return std::make_unique<NestCachePolicy>(config.nest, config.nest_cache);
    case SchedulerKind::kNestBudget:
      return std::make_unique<NestBudgetPolicy>(config.nest, config.nest_budget);
    case SchedulerKind::kNestPredict:
      return std::make_unique<NestPredictPolicy>(config.nest, config.predict.model);
    case SchedulerKind::kNestOracle:
      // With a null plan (e.g. a cluster machine constructed outside the
      // two-pass protocol) the pool is empty and every placement is a CFS
      // fallback; the scenario parser rejects that combination up front.
      return std::make_unique<NestOraclePolicy>(config.nest, config.predict.oracle_plan,
                                                config.predict.oracle_margin);
  }
  return nullptr;
}

ExperimentResult RunExperiment(const ExperimentConfig& config, const Workload& workload) {
  if (config.scheduler == SchedulerKind::kNestOracle && config.predict.oracle_plan == nullptr) {
    // Two-pass oracle protocol (docs/PREDICTION.md): pass 1 runs the
    // identical experiment under plain Nest and records per-window peak
    // demand; pass 2 replays with the recorded plan. Both passes are
    // deterministic, so record → replay → re-replay is byte-identical.
    ExperimentConfig recording = config;
    recording.scheduler = SchedulerKind::kNest;
    auto plan = std::make_shared<OraclePlan>();
    recording.predict.oracle_record_plan = plan;
    // The recording pass is plain Nest; its decisions must not leak into a
    // decision-trace export of the oracle variant.
    recording.predict.decision_trace = nullptr;
    RunExperiment(recording, workload);  // result discarded; only the plan matters
    ExperimentConfig replay = config;
    replay.predict.oracle_plan = plan;
    return RunExperiment(replay, workload);
  }

  // One machine is one PDES domain: the run goes through the same loop and
  // harvest as every fleet (src/core/machine_run.h).
  DomainGroup group(1);
  Engine& engine = group.domain(0);
  MachineRun machine(&engine, config);
  Kernel& kernel = machine.kernel;
  if (config.fault.replicas > 1) {
    kernel.SetInjectionReplication(config.fault.replicas, config.fault.quorum);
  }

  // Single-machine extras on top of the standard observer set.
  std::unique_ptr<TraceRecorder> trace;
  if (config.record_trace) {
    trace = std::make_unique<TraceRecorder>(&kernel);
    kernel.AddObserver(trace.get());
  }
  std::unique_ptr<OracleRecorder> oracle_recorder;
  if (config.predict.oracle_record_plan != nullptr) {
    const SimDuration window =
        static_cast<SimDuration>(config.predict.oracle_window_ms * static_cast<double>(kMillisecond));
    oracle_recorder = std::make_unique<OracleRecorder>(
        &kernel, config.predict.oracle_record_plan.get(), window);
    kernel.AddObserver(oracle_recorder.get());
  }
  std::unique_ptr<DecisionTraceRecorder> decisions;
  if (config.predict.decision_trace != nullptr) {
    decisions = std::make_unique<DecisionTraceRecorder>(&kernel, config.seed,
                                                        config.predict.decision_trace.get());
    kernel.AddObserver(decisions.get());
  }

  kernel.Start();
  Rng rng(config.seed);
  workload.Setup(kernel, rng);

  // The fault plan is drawn *after* workload setup from a forked generator:
  // the workload's draws are identical with faults on or off, and a disabled
  // spec forks nothing at all (byte-identical pre-fault goldens).
  FaultPlan fault_plan;
  std::unique_ptr<FaultInjector> injector;
  if (config.fault.enabled()) {
    Rng fault_rng = rng.Fork();
    fault_plan = BuildFaultPlan(config.fault, fault_rng, /*num_machines=*/1,
                                machine.hw.topology().num_cpus(), config.time_limit);
    injector = std::make_unique<FaultInjector>(&engine, &kernel, &fault_plan);
    injector->Arm();
  }

  // The run ends when every task exited and no open-loop arrival is still in
  // flight; the hardware's periodic updates keep the queue non-empty forever.
  ExperimentResult result = RunMachines(group, {&machine}, config,
                                        [&machine] { return machine.live(); }, /*lockstep=*/false);
  if (trace != nullptr) {
    result.trace = trace->Finish(result.makespan);
  }
  return result;
}

RepeatedResult AggregateRuns(std::vector<ExperimentResult> runs) {
  RepeatedResult out;
  std::vector<double> seconds;
  std::vector<double> energy;
  std::vector<double> underload;
  for (ExperimentResult& r : runs) {
    seconds.push_back(r.seconds());
    energy.push_back(r.energy_joules);
    underload.push_back(r.underload_per_s);
    if (out.mean_freq_hist.edges.empty()) {
      out.mean_freq_hist = r.freq_hist;
    } else {
      for (size_t b = 0; b < out.mean_freq_hist.seconds.size(); ++b) {
        out.mean_freq_hist.seconds[b] += r.freq_hist.seconds[b];
      }
    }
    out.runs.push_back(std::move(r));
  }
  out.mean_seconds = Mean(seconds);
  out.stddev_seconds = Stddev(seconds);
  out.mean_energy_j = Mean(energy);
  out.mean_underload_per_s = Mean(underload);
  return out;
}

RepeatedResult RunRepeated(const ExperimentConfig& config, const Workload& workload,
                           int repetitions, uint64_t base_seed) {
  std::vector<ExperimentResult> runs;
  runs.reserve(static_cast<size_t>(repetitions > 0 ? repetitions : 0));
  for (int i = 0; i < repetitions; ++i) {
    ExperimentConfig c = config;
    c.seed = base_seed + static_cast<uint64_t>(i);
    runs.push_back(RunExperiment(c, workload));
  }
  return AggregateRuns(std::move(runs));
}

}  // namespace nestsim
