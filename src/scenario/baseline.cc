#include "src/scenario/baseline.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "src/campaign/jsonl_sink.h"
#include "src/obs/json_check.h"

namespace nestsim {

namespace {

std::string FormatDouble(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void AppendString(std::string& out, const char* key, const std::string& value) {
  out += '"';
  out += key;
  out += "\":\"";
  out += JsonEscape(value);
  out += '"';
}

void AppendU64(std::string& out, const char* key, uint64_t value) {
  out += '"';
  out += key;
  out += "\":";
  out += std::to_string(value);
}

void AppendDouble(std::string& out, const char* key, double value) {
  out += '"';
  out += key;
  out += "\":";
  out += FormatDouble(value);
}

std::string BaselineJobRecord(const Job& job, const JobOutcome& outcome) {
  std::string out = "{";
  AppendString(out, "machine", job.config.machine);
  out += ',';
  AppendString(out, "row", job.workload);
  out += ',';
  AppendString(out, "variant", job.variant);
  out += ',';
  AppendString(out, "status", JobStatusName(outcome.status));
  out += ',';
  AppendDouble(out, "wall_s", outcome.wall_seconds);
  if (outcome.status == JobStatus::kFailed) {
    out += ',';
    AppendString(out, "error", outcome.message);
  }
  if (outcome.ok()) {
    out += ",\"runs\":[";
    for (size_t i = 0; i < outcome.result.runs.size(); ++i) {
      const ExperimentResult& r = outcome.result.runs[i];
      if (i > 0) {
        out += ',';
      }
      out += '{';
      AppendU64(out, "seed", job.base_seed + i);
      out += ',';
      AppendU64(out, "makespan_ns", static_cast<uint64_t>(r.makespan));
      out += ',';
      AppendDouble(out, "energy_j", r.energy_joules);
      out += ',';
      AppendDouble(out, "underload_per_s", r.underload_per_s);
      out += ',';
      AppendU64(out, "context_switches", r.context_switches);
      out += ',';
      AppendU64(out, "migrations", r.migrations);
      out += ',';
      AppendU64(out, "tasks_created", static_cast<uint64_t>(r.tasks_created));
      out += ',';
      AppendString(out, "counters", SchedCountersDigest(r.counters));
      if (job.config.record_latency) {
        // Wakeup-latency tails are appended only when the scenario opted into
        // recording them, so pre-predict goldens stay byte-identical.
        out += ',';
        AppendDouble(out, "wakeup_p50_us", r.p50_wakeup_latency_us);
        out += ',';
        AppendDouble(out, "wakeup_p99_us", r.p99_wakeup_latency_us);
      }
      if (r.cluster.num_machines > 0) {
        // Cluster fields are appended only for cluster runs so single-machine
        // goldens stay byte-identical to pre-cluster recordings.
        out += ',';
        AppendU64(out, "requests_offered", r.cluster.requests_offered);
        out += ',';
        AppendU64(out, "requests_completed", r.cluster.requests_completed);
        out += ',';
        AppendDouble(out, "latency_p50_ms", r.cluster.p50_ms);
        out += ',';
        AppendDouble(out, "latency_p99_ms", r.cluster.p99_ms);
        out += ',';
        AppendDouble(out, "latency_p999_ms", r.cluster.p999_ms);
      }
      if (r.resilience.any()) {
        // Resilience fields are appended only when a fault, replica, or
        // evacuation actually fired, so pre-fault goldens stay byte-identical.
        out += ',';
        AppendU64(out, "tasks_killed", r.resilience.tasks_killed);
        out += ',';
        AppendU64(out, "replicas_reaped", r.resilience.replicas_reaped);
        out += ',';
        AppendU64(out, "evacuations", r.resilience.evacuations);
        out += ',';
        AppendDouble(out, "work_lost_ms", r.resilience.work_lost_ms);
        out += ',';
        AppendDouble(out, "wasted_replica_ms", r.resilience.wasted_replica_ms);
        out += ',';
        AppendDouble(out, "mean_evac_latency_us", r.resilience.mean_evac_latency_us);
        out += ',';
        AppendU64(out, "requests_failed", r.resilience.requests_failed);
        out += ',';
        AppendU64(out, "requests_degraded", r.resilience.requests_degraded);
      }
      out += '}';
    }
    out += ']';
  }
  out += '}';
  return out;
}

// A scalar as a problem message shows it: numbers as their %.17g rendering
// (exact round-trip), strings quoted.
std::string Render(const JsonValue& v) {
  if (v.is_number()) {
    return FormatDouble(v.number);
  }
  if (v.is_string()) {
    return "\"" + v.string + "\"";
  }
  return JsonSerialize(v);
}

// Diffs a fresh record against its golden counterpart key by key: both
// sides must carry the same keys, arrays the same length, and every scalar
// the same rendering. Each problem names the field by `path`
// ("runs[0].makespan_ns").
void DiffRecord(const JsonValue& golden, const JsonValue& fresh, const std::string& path,
                const std::string& id, std::vector<std::string>* problems) {
  const std::string prefix = path.empty() ? "" : path + ".";
  if (golden.is_object() && fresh.is_object()) {
    for (const auto& [key, value] : fresh.members) {
      const JsonValue* g = golden.Find(key);
      if (g == nullptr) {
        problems->push_back(id + ": golden record lacks \"" + prefix + key + "\"");
      } else {
        DiffRecord(*g, value, prefix + key, id, problems);
      }
    }
    for (const auto& [key, value] : golden.members) {
      if (fresh.Find(key) == nullptr) {
        problems->push_back(id + ": golden record has \"" + prefix + key +
                            "\", which the fresh record lacks");
      }
    }
  } else if (golden.is_array() && fresh.is_array()) {
    if (golden.items.size() != fresh.items.size()) {
      problems->push_back(id + ": " + path + " length changed: golden " +
                          std::to_string(golden.items.size()) + ", fresh " +
                          std::to_string(fresh.items.size()));
      return;
    }
    for (size_t i = 0; i < fresh.items.size(); ++i) {
      DiffRecord(golden.items[i], fresh.items[i], path + "[" + std::to_string(i) + "]", id,
                 problems);
    }
  } else if (Render(golden) != Render(fresh)) {
    problems->push_back(id + ": " + path + " changed: golden " + Render(golden) + ", fresh " +
                        Render(fresh));
  }
}

}  // namespace

uint64_t Fnv1a64(const std::string& text) {
  uint64_t hash = 14695981039346656037ull;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;
  }
  return hash;
}

std::string SchedCountersDigest(const SchedCounters& counters) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(Fnv1a64(SchedCountersJson(counters))));
  return buf;
}

std::string BaselinePath(const std::string& dir, const std::string& scenario_name) {
  return dir + "/" + scenario_name + ".jsonl";
}

std::string BaselineJsonl(const ScenarioRun& run) {
  std::string out = "{";
  AppendString(out, "baseline", run.scenario.name);
  out += ',';
  AppendU64(out, "jobs", run.jobs.size());
  out += ',';
  AppendU64(out, "repetitions", static_cast<uint64_t>(run.repetitions));
  out += ',';
  AppendU64(out, "base_seed", run.base_seed);
  out += "}\n";
  for (size_t i = 0; i < run.jobs.size(); ++i) {
    out += BaselineJobRecord(run.jobs[i], run.outcomes[i]);
    out += '\n';
  }
  return out;
}

bool RecordBaseline(const ScenarioRun& run, const std::string& dir, std::string* error) {
  const std::string path = BaselinePath(dir, run.scenario.name);
  std::error_code ec;  // best effort; the open error below is authoritative
  std::filesystem::create_directories(dir, ec);
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    *error = "cannot write baseline " + path;
    return false;
  }
  out << BaselineJsonl(run);
  out.close();
  if (!out) {
    *error = "short write to baseline " + path;
    return false;
  }
  return true;
}

BaselineCheck CheckBaseline(const ScenarioRun& run, const std::string& dir,
                            double wall_tolerance) {
  BaselineCheck check;
  check.scenario = run.scenario.name;
  check.baseline_path = BaselinePath(dir, run.scenario.name);
  check.jobs = static_cast<int>(run.jobs.size());

  std::ifstream in(check.baseline_path);
  if (!in) {
    check.problems.push_back("no golden baseline at " + check.baseline_path +
                             " (run --record-baseline first)");
    return check;
  }

  std::vector<JsonValue> records;
  std::string line;
  size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) {
      continue;
    }
    JsonValue record;
    std::string json_error;
    if (!JsonParse(line, &record, &json_error)) {
      check.problems.push_back(check.baseline_path + ":" + std::to_string(line_no) +
                               ": invalid JSON: " + json_error);
      return check;
    }
    records.push_back(std::move(record));
  }
  if (records.empty()) {
    check.problems.push_back(check.baseline_path + ": empty baseline file");
    return check;
  }

  const JsonValue& header = records.front();
  const JsonValue* golden_jobs = header.Find("jobs");
  if (golden_jobs == nullptr || !golden_jobs->is_number() ||
      static_cast<size_t>(golden_jobs->number) != run.jobs.size() ||
      records.size() - 1 != run.jobs.size()) {
    check.problems.push_back(
        "job-grid shape changed: golden has " +
        std::to_string(records.size() - 1) + " records (header says " +
        (golden_jobs != nullptr && golden_jobs->is_number()
             ? std::to_string(static_cast<long long>(golden_jobs->number))
             : "?") +
        "), fresh run has " + std::to_string(run.jobs.size()) + " jobs");
    return check;
  }
  const JsonValue* golden_seed = header.Find("base_seed");
  if (golden_seed == nullptr || !golden_seed->is_number() ||
      static_cast<uint64_t>(golden_seed->number) != run.base_seed) {
    check.problems.push_back("base_seed changed vs golden (golden " +
                             (golden_seed != nullptr && golden_seed->is_number()
                                  ? std::to_string(static_cast<long long>(golden_seed->number))
                                  : std::string("?")) +
                             ", fresh " + std::to_string(run.base_seed) + ")");
  }
  const JsonValue* golden_reps = header.Find("repetitions");
  if (golden_reps == nullptr || !golden_reps->is_number() ||
      static_cast<int>(golden_reps->number) != run.repetitions) {
    check.problems.push_back("repetitions changed vs golden (golden " +
                             (golden_reps != nullptr && golden_reps->is_number()
                                  ? std::to_string(static_cast<long long>(golden_reps->number))
                                  : std::string("?")) +
                             ", fresh " + std::to_string(run.repetitions) + ")");
  }
  if (!check.problems.empty()) {
    return check;
  }

  // The fresh side is the record the writer would append, so the golden's
  // field list lives in BaselineJobRecord alone.
  for (size_t i = 0; i < run.jobs.size(); ++i) {
    const Job& job = run.jobs[i];
    const JobOutcome& outcome = run.outcomes[i];
    const JsonValue& golden = records[i + 1];
    const std::string id = job.config.machine + " x " + job.workload + " x " + job.variant;
    ++check.compared;

    JsonValue fresh;
    std::string json_error;
    if (!JsonParse(BaselineJobRecord(job, outcome), &fresh, &json_error)) {
      check.problems.push_back(id + ": fresh record does not parse: " + json_error);
      continue;
    }
    // wall_s is wall-clock: only the tolerance band checks it, so the key
    // diff sees the golden's own value.
    const JsonValue* wall = golden.Find("wall_s");
    if (wall != nullptr && wall->is_number()) {
      if (wall_tolerance > 0.0) {
        const double band = wall_tolerance * std::max(wall->number, 1e-3);
        if (std::fabs(outcome.wall_seconds - wall->number) > band) {
          check.problems.push_back(id + ": wall_s outside tolerance: golden " +
                                   FormatDouble(wall->number) + ", fresh " +
                                   FormatDouble(outcome.wall_seconds) + " (band ±" +
                                   FormatDouble(band) + ")");
        }
      }
      for (auto& [key, value] : fresh.members) {
        if (key == "wall_s") {
          value = *wall;
        }
      }
    }
    DiffRecord(golden, fresh, "", id, &check.problems);
  }
  return check;
}

std::string BaselineVerdictJson(const std::vector<BaselineCheck>& checks) {
  bool all_ok = true;
  for (const BaselineCheck& c : checks) {
    all_ok = all_ok && c.ok();
  }
  std::string out = "{\"ok\":";
  out += all_ok ? "true" : "false";
  out += ",\"scenarios\":[";
  for (size_t i = 0; i < checks.size(); ++i) {
    const BaselineCheck& c = checks[i];
    if (i > 0) {
      out += ',';
    }
    out += '{';
    AppendString(out, "scenario", c.scenario);
    out += ',';
    AppendString(out, "baseline", c.baseline_path);
    out += ',';
    AppendU64(out, "jobs", static_cast<uint64_t>(c.jobs));
    out += ',';
    AppendU64(out, "compared", static_cast<uint64_t>(c.compared));
    out += ",\"ok\":";
    out += c.ok() ? "true" : "false";
    out += ",\"problems\":[";
    for (size_t p = 0; p < c.problems.size(); ++p) {
      if (p > 0) {
        out += ',';
      }
      out += '"';
      out += JsonEscape(c.problems[p]);
      out += '"';
    }
    out += "]}";
  }
  out += "]}";
  return out;
}

}  // namespace nestsim
