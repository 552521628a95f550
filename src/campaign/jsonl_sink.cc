#include "src/campaign/jsonl_sink.h"

#include <cstdlib>

#include "src/obs/json_check.h"
#include "src/obs/sched_counters.h"

namespace nestsim {

const char* JobStatusName(JobStatus status) {
  switch (status) {
    case JobStatus::kOk:
      return "ok";
    case JobStatus::kTimeout:
      return "timeout";
    case JobStatus::kFailed:
      return "failed";
  }
  return "?";
}

void AppendRunBlocks(JsonWriter& w, const ExperimentConfig& config, const ExperimentResult& r) {
  if (config.record_latency) {
    w.Key("wakeup_p50_us").Double(r.p50_wakeup_latency_us);
    w.Key("wakeup_p99_us").Double(r.p99_wakeup_latency_us);
  }
  if (r.cluster.num_machines > 0) {
    w.Key("requests_offered").U64(r.cluster.requests_offered);
    w.Key("requests_completed").U64(r.cluster.requests_completed);
    w.Key("latency_p50_ms").Double(r.cluster.p50_ms);
    w.Key("latency_p99_ms").Double(r.cluster.p99_ms);
    w.Key("latency_p999_ms").Double(r.cluster.p999_ms);
  }
  if (r.resilience.any()) {
    w.Key("tasks_killed").U64(r.resilience.tasks_killed);
    w.Key("replicas_reaped").U64(r.resilience.replicas_reaped);
    w.Key("evacuations").U64(r.resilience.evacuations);
    w.Key("work_lost_ms").Double(r.resilience.work_lost_ms);
    w.Key("wasted_replica_ms").Double(r.resilience.wasted_replica_ms);
    w.Key("mean_evac_latency_us").Double(r.resilience.mean_evac_latency_us);
    w.Key("requests_failed").U64(r.resilience.requests_failed);
    w.Key("requests_degraded").U64(r.resilience.requests_degraded);
  }
}

std::string JobRecordJson(const std::string& campaign, const Job& job,
                          const JobOutcome& outcome) {
  std::string out;
  JsonWriter w(&out);
  w.BeginObject();
  w.Key("campaign").String(campaign);
  w.Key("workload").String(job.workload);
  w.Key("variant").String(job.variant);
  w.Key("machine").String(job.config.machine);
  w.Key("scheduler").String(SchedulerKindName(job.config.scheduler));
  w.Key("governor").String(job.config.governor);
  w.Key("base_seed").U64(job.base_seed);
  w.Key("repetitions").U64(static_cast<uint64_t>(job.repetitions));
  w.Key("status").String(JobStatusName(outcome.status));
  w.Key("wall_s").Double(outcome.wall_seconds);
  if (outcome.status == JobStatus::kFailed) {
    w.Key("error").String(outcome.message);
  }
  if (outcome.ok()) {
    w.Key("mean_s").Double(outcome.result.mean_seconds);
    w.Key("stddev_s").Double(outcome.result.stddev_seconds);
    w.Key("mean_energy_j").Double(outcome.result.mean_energy_j);
    w.Key("mean_underload_per_s").Double(outcome.result.mean_underload_per_s);
    w.Key("runs").BeginArray();
    // Decision counters summed across the job's runs (docs/OBSERVABILITY.md).
    SchedCounters summed;
    for (size_t i = 0; i < outcome.result.runs.size(); ++i) {
      const ExperimentResult& r = outcome.result.runs[i];
      w.BeginObject();
      w.Key("seed").U64(job.base_seed + i);
      w.Key("seconds").Double(r.seconds());
      w.Key("energy_j").Double(r.energy_joules);
      w.Key("underload_per_s").Double(r.underload_per_s);
      w.Key("makespan_ns").U64(static_cast<uint64_t>(r.makespan));
      AppendRunBlocks(w, job.config, r);
      w.EndObject();
      summed.Add(r.counters);
    }
    w.EndArray();
    w.Key("counters").Raw(SchedCountersJson(summed));
  }
  w.EndObject();
  return out;
}

JsonlSink::JsonlSink(const std::string& path) {
  if (path.empty()) {
    return;
  }
  file_ = std::fopen(path.c_str(), "a");
  if (file_ == nullptr) {
    std::fprintf(stderr, "[campaign] cannot open JSONL sink %s; disabling\n", path.c_str());
  }
}

JsonlSink::~JsonlSink() {
  if (file_ != nullptr) {
    std::fclose(file_);
  }
}

void JsonlSink::Write(const std::string& campaign, const Job& job, const JobOutcome& outcome) {
  if (file_ == nullptr) {
    return;
  }
  const std::string record = JobRecordJson(campaign, job, outcome);
  std::lock_guard<std::mutex> lock(mu_);
  std::fputs(record.c_str(), file_);
  std::fputc('\n', file_);
  std::fflush(file_);
}

std::string JsonlSink::PathFromEnv() {
  const char* env = std::getenv("NESTSIM_JSONL");
  return env != nullptr ? std::string(env) : std::string();
}

}  // namespace nestsim
