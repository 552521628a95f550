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

std::string BaselineJobRecord(const Job& job, const JobOutcome& outcome) {
  std::string out;
  JsonWriter w(&out);
  w.BeginObject();
  w.Key("machine").String(job.config.machine);
  w.Key("row").String(job.workload);
  w.Key("variant").String(job.variant);
  w.Key("status").String(JobStatusName(outcome.status));
  w.Key("wall_s").Double(outcome.wall_seconds);
  if (outcome.status == JobStatus::kFailed) {
    w.Key("error").String(outcome.message);
  }
  if (outcome.ok()) {
    w.Key("runs").BeginArray();
    for (size_t i = 0; i < outcome.result.runs.size(); ++i) {
      const ExperimentResult& r = outcome.result.runs[i];
      w.BeginObject();
      w.Key("seed").U64(job.base_seed + i);
      w.Key("makespan_ns").U64(static_cast<uint64_t>(r.makespan));
      w.Key("energy_j").Double(r.energy_joules);
      w.Key("underload_per_s").Double(r.underload_per_s);
      w.Key("context_switches").U64(r.context_switches);
      w.Key("migrations").U64(r.migrations);
      w.Key("tasks_created").U64(static_cast<uint64_t>(r.tasks_created));
      w.Key("counters").String(SchedCountersDigest(r.counters));
      AppendRunBlocks(w, job.config, r);
      w.EndObject();
    }
    w.EndArray();
  }
  w.EndObject();
  return out;
}

// A scalar as a problem message shows it: numbers as their %.17g rendering
// (exact round-trip), strings quoted.
std::string Render(const JsonValue& v) {
  if (v.is_number()) {
    return JsonDouble(v.number);
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
  std::string out;
  JsonWriter(&out)
      .BeginObject()
      .Key("baseline").String(run.scenario.name)
      .Key("jobs").U64(run.jobs.size())
      .Key("repetitions").U64(static_cast<uint64_t>(run.repetitions))
      .Key("base_seed").U64(run.base_seed)
      .EndObject();
  out += '\n';
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
                                   JsonDouble(wall->number) + ", fresh " +
                                   JsonDouble(outcome.wall_seconds) + " (band ±" +
                                   JsonDouble(band) + ")");
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
  std::string out;
  JsonWriter w(&out);
  w.BeginObject().Key("ok").Bool(all_ok).Key("scenarios").BeginArray();
  for (const BaselineCheck& c : checks) {
    w.BeginObject();
    w.Key("scenario").String(c.scenario);
    w.Key("baseline").String(c.baseline_path);
    w.Key("jobs").U64(static_cast<uint64_t>(c.jobs));
    w.Key("compared").U64(static_cast<uint64_t>(c.compared));
    w.Key("ok").Bool(c.ok());
    w.Key("problems").BeginArray();
    for (const std::string& problem : c.problems) {
      w.String(problem);
    }
    w.EndArray().EndObject();
  }
  w.EndArray().EndObject();
  return out;
}

}  // namespace nestsim
