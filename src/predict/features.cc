#include "src/predict/features.h"

#include "src/obs/json_check.h"

namespace nestsim {

namespace {

// CSV cells never need quoting except the free-form labels; quote those only
// when they contain a delimiter so the common case stays byte-stable.
void AppendCsvCell(std::string& out, const std::string& text) {
  if (text.find_first_of(",\"\n") == std::string::npos) {
    out += text;
    return;
  }
  out += '"';
  for (char c : text) {
    if (c == '"') {
      out += '"';
    }
    out += c;
  }
  out += '"';
}

DecisionRow::CoreSample SampleOrZero(const DecisionRow& row, int cpu) {
  if (cpu < static_cast<int>(row.cores.size())) {
    return row.cores[cpu];
  }
  return DecisionRow::CoreSample{};
}

}  // namespace

std::string DecisionCsvHeader(int num_cpus) {
  std::string out;
  for (int i = 0; i < kNumFeatureColumns; ++i) {
    if (i > 0) {
      out += ',';
    }
    out += kFeatureColumns[i];
  }
  for (int cpu = 0; cpu < num_cpus; ++cpu) {
    for (int s = 0; s < kNumPerCoreColumns; ++s) {
      out += ",cpu";
      out += std::to_string(cpu);
      out += '_';
      out += kPerCoreColumnSuffixes[s];
    }
  }
  return out;
}

std::string DecisionCsvRow(const DecisionRow& row, uint64_t decision,
                           const DecisionLabels& labels, int num_cpus) {
  std::string out = std::to_string(decision);
  out += ',';
  AppendCsvCell(out, labels.machine);
  out += ',';
  AppendCsvCell(out, labels.row);
  out += ',';
  AppendCsvCell(out, labels.variant);
  out += ',';
  out += std::to_string(row.seed);
  out += ',';
  out += std::to_string(row.time_ns);
  out += ',';
  out += row.is_fork ? "fork" : "wake";
  out += ',';
  out += std::to_string(row.tid);
  out += ',';
  out += std::to_string(row.prev_cpu);
  out += ',';
  out += std::to_string(row.runnable);
  out += ',';
  out += std::to_string(row.chosen_cpu);
  out += ',';
  out += PlacementPathName(row.path);
  for (int cpu = 0; cpu < num_cpus; ++cpu) {
    const DecisionRow::CoreSample s = SampleOrZero(row, cpu);
    out += ',';
    out += JsonDouble(s.ghz);
    out += ',';
    out += JsonDouble(s.load);
    out += ',';
    out += std::to_string(s.idle);
    out += ',';
    out += std::to_string(s.nest);
    out += ',';
    out += JsonDouble(s.warmth);
  }
  return out;
}

std::string DecisionJsonlRow(const DecisionRow& row, uint64_t decision,
                             const DecisionLabels& labels, int num_cpus) {
  std::string out;
  JsonWriter w(&out);
  w.BeginObject();
  w.Key("decision").U64(decision);
  w.Key("machine").String(labels.machine);
  w.Key("row").String(labels.row);
  w.Key("variant").String(labels.variant);
  w.Key("seed").U64(row.seed);
  w.Key("time_ns").I64(row.time_ns);
  w.Key("kind").String(row.is_fork ? "fork" : "wake");
  w.Key("tid").I64(row.tid);
  w.Key("prev_cpu").I64(row.prev_cpu);
  w.Key("runnable").I64(row.runnable);
  w.Key("chosen_cpu").I64(row.chosen_cpu);
  w.Key("path").String(PlacementPathName(row.path));
  w.Key("cores").BeginArray();
  for (int cpu = 0; cpu < num_cpus; ++cpu) {
    const DecisionRow::CoreSample s = SampleOrZero(row, cpu);
    w.BeginObject();
    w.Key("ghz").Double(s.ghz);
    w.Key("load").Double(s.load);
    w.Key("idle").I64(s.idle);
    w.Key("nest").I64(s.nest);
    w.Key("warmth").Double(s.warmth);
    w.EndObject();
  }
  w.EndArray().EndObject();
  return out;
}

}  // namespace nestsim
