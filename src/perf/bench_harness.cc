#include "src/perf/bench_harness.h"

#include <algorithm>
#include <cassert>
#include <chrono>

#include "src/obs/json_check.h"

namespace nestsim {

namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  const auto end = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(end - start).count();
}

}  // namespace

BenchRecord MeasureMedian(const std::string& name, const BenchOptions& options,
                          const std::function<uint64_t()>& body) {
  BenchRecord record;
  record.name = name;
  for (int i = 0; i < options.warmup; ++i) {
    body();
  }
  std::vector<double> seconds;
  const int samples = std::max(1, options.samples);
  seconds.reserve(static_cast<size_t>(samples));
  for (int i = 0; i < samples; ++i) {
    const auto start = std::chrono::steady_clock::now();
    const uint64_t ops = body();
    const double s = SecondsSince(start);
    assert(ops > 0 && "benchmark body reported zero operations");
    record.ops = ops;
    seconds.push_back(s);
  }
  std::sort(seconds.begin(), seconds.end());
  record.samples = samples;
  record.median_s = seconds[static_cast<size_t>(samples) / 2];
  if (record.median_s > 0.0 && record.ops > 0) {
    record.ns_per_op = record.median_s * 1e9 / static_cast<double>(record.ops);
    record.ops_per_sec = static_cast<double>(record.ops) / record.median_s;
  }
  return record;
}

const BenchRecord* BenchReport::Find(const std::string& name) const {
  for (const BenchRecord& r : records_) {
    if (r.name == name) {
      return &r;
    }
  }
  return nullptr;
}

void BenchReport::PrintTable(FILE* out) const {
  std::fprintf(out, "%-36s %14s %14s %14s %8s %10s\n", "benchmark", "ops", "ns/op", "ops/sec",
               "samples", "peak MB");
  for (const BenchRecord& r : records_) {
    std::fprintf(out, "%-36s %14llu %14.1f %14.0f %8d", r.name.c_str(),
                 static_cast<unsigned long long>(r.ops), r.ns_per_op, r.ops_per_sec, r.samples);
    if (r.peak_rss_mb > 0.0) {
      std::fprintf(out, " %10.1f", r.peak_rss_mb);
    }
    std::fputc('\n', out);
  }
}

std::string BenchReport::ToJson(const std::string& mode,
                                const std::string& reference_json) const {
  // A reference record's numeric `field`, by record name, when a prior
  // report was supplied.
  JsonValue reference;
  bool have_reference = false;
  if (!reference_json.empty()) {
    std::string error;
    have_reference = JsonParse(reference_json, &reference, &error);
  }
  auto reference_field = [&](const std::string& name, const char* field) -> const JsonValue* {
    if (!have_reference) {
      return nullptr;
    }
    const JsonValue* records = reference.Find("records");
    if (records == nullptr || !records->is_array()) {
      return nullptr;
    }
    for (const JsonValue& r : records->items) {
      const JsonValue* rname = r.Find("name");
      if (rname != nullptr && rname->is_string() && rname->string == name) {
        const JsonValue* value = r.Find(field);
        return value != nullptr && value->is_number() ? value : nullptr;
      }
    }
    return nullptr;
  };

  std::string out;
  JsonWriter w(&out);
  w.BeginObject();
  w.Key("schema").String("nestsim-bench-core-v1");
  w.Key("mode").String(mode);
  w.Key("records").BeginArray();
  for (const BenchRecord& r : records_) {
    w.BeginObject();
    w.Key("name").String(r.name);
    w.Key("ops").U64(r.ops);
    w.Key("samples").I64(r.samples);
    w.Key("median_s").Double(r.median_s);
    w.Key("ns_per_op").Double(r.ns_per_op);
    w.Key("ops_per_sec").Double(r.ops_per_sec);
    if (const JsonValue* ref = reference_field(r.name, "ops_per_sec");
        ref != nullptr && ref->number > 0.0) {
      w.Key("speedup_vs_reference").Double(r.ops_per_sec / ref->number);
    }
    if (r.peak_rss_mb > 0.0) {
      w.Key("peak_rss_mb").Double(r.peak_rss_mb);
      if (const JsonValue* ref = reference_field(r.name, "peak_rss_mb");
          ref != nullptr && ref->number > 0.0) {
        w.Key("rss_vs_reference").Double(r.peak_rss_mb / ref->number);
      }
    }
    w.EndObject();
  }
  w.EndArray();
  if (have_reference) {
    // Embed the prior report verbatim; it is already a JSON document.
    w.Key("reference").Raw(reference_json);
  }
  w.EndObject();
  out += '\n';
  return out;
}

}  // namespace nestsim
