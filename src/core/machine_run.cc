#include "src/core/machine_run.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <stdexcept>

#include "src/check/invariant_checker.h"
#include "src/metrics/latency.h"
#include "src/metrics/stats.h"
#include "src/obs/perfetto_trace.h"

namespace nestsim {

namespace {

// The directory Perfetto traces go to: the config field wins, then the
// NESTSIM_TRACE environment variable; empty disables capture.
std::string TraceDir(const ExperimentConfig& config) {
  if (!config.trace_dir.empty()) {
    return config.trace_dir;
  }
  const char* env = std::getenv("NESTSIM_TRACE");
  return env != nullptr ? std::string(env) : std::string();
}

std::string SanitizeStem(const std::string& in) {
  std::string out;
  out.reserve(in.size());
  for (const char c : in) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '-' || c == '_' || c == '.';
    out += ok ? c : '-';
  }
  return out;
}

}  // namespace

MachineRun::MachineRun(Engine* engine, const ExperimentConfig& config, int fleet_index)
    : MachineModel(engine, MachineByName(config.machine), config),
      config_(config),
      fleet_index_(fleet_index),
      underload_(&kernel, config.record_underload_series),
      freq_(&kernel, FreqBucketEdgesFor(hw.spec())),
      counters_(&kernel),
      trace_dir_(TraceDir(config)) {
  kernel.AddObserver(&completion_);
  kernel.AddObserver(&underload_);
  kernel.AddObserver(&freq_);
  kernel.AddObserver(&counters_);
  if (!trace_dir_.empty()) {
    perfetto_ = std::make_unique<PerfettoTraceWriter>(&kernel);
    kernel.AddObserver(perfetto_.get());
  }
  if (config.record_latency) {
    latency_ = std::make_unique<WakeupLatencyTracker>();
    kernel.AddObserver(latency_.get());
  }
  if (CheckInvariantsEnabled(config)) {
    checker_ = std::make_unique<InvariantChecker>(&kernel);
    kernel.AddObserver(checker_.get());
  }
  if (config.fault.any()) {
    resilience_ = std::make_unique<ResilienceRecorder>();
    kernel.AddObserver(resilience_.get());
  }
}

MachineRun::~MachineRun() = default;

bool MachineRun::healthy() const { return checker_ == nullptr || checker_->ok(); }

void MachineRun::ThrowIfViolated() const {
  if (healthy()) {
    return;
  }
  const std::string where =
      fleet_index_ >= 0 ? "cluster machine " + std::to_string(fleet_index_) + ", " : "";
  throw std::runtime_error("invariant violation (" + where + config_.machine + ", " +
                           SchedulerKindKey(config_.scheduler) + "/" + config_.governor +
                           ", seed " + std::to_string(config_.seed) + "):\n" +
                           checker_->Report());
}

void MachineRun::Finish(SimTime end, ExperimentResult* result) {
  const FreqHistogram hist = freq_.Snapshot(end);
  const double underload = underload_.UnderloadPerSecond(end);
  const int cpus = hw.topology().num_cpus();
  result->energy_joules += hw.EnergyJoules();
  result->underload_per_s += underload;
  result->freq_hist.edges = hist.edges;
  result->freq_hist.seconds.resize(hist.seconds.size());
  for (size_t b = 0; b < hist.seconds.size(); ++b) {
    result->freq_hist.seconds[b] += hist.seconds[b];
  }
  for (const int cpu : underload_.CpusEverUsed()) {
    result->cpus_used.push_back(std::max(fleet_index_, 0) * cpus + cpu);
  }
  result->context_switches += kernel.context_switches();
  result->migrations += kernel.total_migrations();
  result->tasks_created += static_cast<int>(kernel.tasks().size());
  for (const auto& [tag, t] : tag_last_exit()) {
    result->tag_makespan[tag] = std::max(result->tag_makespan[tag], t);
  }
  if (fleet_index_ <= 0) {
    result->underload_series = underload_.series();  // empty unless recorded
  }
  result->counters.Add(counters_.Finish(end));
  if (config_.scheduler == SchedulerKind::kSmove) {
    const auto* smove = static_cast<const SmovePolicy*>(policy.get());
    result->smove_moves_armed += smove->moves_armed();
    result->smove_moves_fired += smove->moves_fired();
  }
  if (resilience_ != nullptr) {
    result->resilience.Add(resilience_->Finish());
  }
  if (fleet_index_ >= 0) {
    ClusterMachineStats row;
    if (end > 0) {
      row.utilisation = hist.TotalSeconds() / (static_cast<double>(cpus) * ToSeconds(end));
    }
    row.underload_per_s = underload;
    result->cluster.machines.push_back(row);
  }
  if (perfetto_ != nullptr) {
    perfetto_->Finish(end);
    std::error_code ec;
    std::filesystem::create_directories(trace_dir_, ec);
    std::string stem = config_.trace_label;
    if (stem.empty()) {
      stem = config_.machine + "-" + SchedulerKindName(config_.scheduler) + "-" + config_.governor;
    }
    if (fleet_index_ >= 0) {
      stem += "-m" + std::to_string(fleet_index_);
    }
    const std::string path = trace_dir_ + "/" + SanitizeStem(stem) + "-seed" +
                             std::to_string(config_.seed) + ".json";
    if (!perfetto_->WriteFile(path)) {
      std::fprintf(stderr, "[trace] cannot write %s\n", path.c_str());
    } else if (result->trace_file.empty()) {
      result->trace_file = path;
    }
  }
}

ExperimentResult RunMachines(DomainGroup& group, const std::vector<MachineRun*>& machines,
                             const ExperimentConfig& config, const std::function<bool()>& live,
                             bool lockstep) {
  DomainGroup::RunOptions options;
  options.time_limit = config.time_limit;
  options.workers = config.parallel.workers;
  options.lockstep = lockstep;
  options.live = live;
  options.should_abort = config.should_abort;
  options.healthy = [&machines] {
    return std::all_of(machines.begin(), machines.end(),
                       [](const MachineRun* m) { return m->healthy(); });
  };
  ExperimentResult result;
  result.aborted = group.Run(options).aborted;
  for (const MachineRun* machine : machines) {
    machine->ThrowIfViolated();
  }
  result.hit_time_limit = live() && !result.aborted;

  // Every domain clock lines up on the global stop time before any metric is
  // read: lazy integrators (hardware energy, PELT) integrate "up to Now()",
  // and each domain clock stopped at its own last fired event.
  group.AdvanceAllTo(group.Now());
  for (const MachineRun* machine : machines) {
    for (const auto& [tag, t] : machine->tag_last_exit()) {
      result.makespan = std::max(result.makespan, t);
    }
  }
  if (result.makespan == 0) {
    result.makespan = group.Now();
  }
  result.events_fired = group.TotalEventsFired();

  std::vector<double> wakeups_us;
  for (MachineRun* machine : machines) {
    machine->Finish(result.makespan, &result);
    if (const WakeupLatencyTracker* latency = machine->latency()) {
      wakeups_us.insert(wakeups_us.end(), latency->samples_us().begin(),
                        latency->samples_us().end());
    }
  }
  result.underload_per_s /= static_cast<double>(machines.size());
  if (config.record_latency) {
    result.p50_wakeup_latency_us = Percentile(wakeups_us, 50.0);
    result.p99_wakeup_latency_us = Percentile(wakeups_us, 99.0);
  }
  return result;
}

}  // namespace nestsim
