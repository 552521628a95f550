// nestsim_export: stream per-decision feature rows from scenario runs
// (docs/PREDICTION.md).
//
//   nestsim_export scenarios/smoke.json                  CSV to stdout
//   nestsim_export --format jsonl scenarios/smoke.json   JSONL to stdout
//   nestsim_export --out rows.csv scenarios/smoke.json   write a file
//   nestsim_export --train model.json scenarios/smoke.json
//                                          fit a table model from the rows
//   nestsim_export --list-columns          print the feature schema and exit
//
// One row is captured per fork/wake placement decision, in job order — the
// stream is byte-identical at any NESTSIM_JOBS worker count and any
// --parallel PDES setting. Honours NESTSIM_JOBS, NESTSIM_REPS and
// NESTSIM_SCENARIO_DIR like nestsim_run.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "src/predict/model.h"
#include "src/scenario/decision_export.h"
#include "tools/cli_num.h"

using namespace nestsim;

namespace {

int Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [options] <scenario.json>...\n"
      "\n"
      "options:\n"
      "  --format csv|jsonl   output format (default: csv)\n"
      "  --out PATH           write the stream to PATH instead of stdout\n"
      "  --train PATH         additionally fit a nest-predict-table model from\n"
      "                       every exported row and write it to PATH\n"
      "  --list-columns       print the feature schema and exit\n"
      "  --reps N             repetitions per cell (beats NESTSIM_REPS)\n"
      "  --base-seed N        first seed (scenario default otherwise)\n"
      "  --timeout S          per-job wall-clock budget in seconds\n"
      "  --parallel N         PDES worker threads per job (0 = serial reference\n"
      "                       loop; the stream is byte-identical at any N)\n",
      argv0);
  return 2;
}

void PrintColumns() {
  std::printf("fixed columns:\n");
  for (int i = 0; i < kNumFeatureColumns; ++i) {
    std::printf("  %s\n", kFeatureColumns[i]);
  }
  std::printf("per-core columns (cpu<i>_<suffix>):\n");
  for (int i = 0; i < kNumPerCoreColumns; ++i) {
    std::printf("  %s\n", kPerCoreColumnSuffixes[i]);
  }
}

bool WriteFile(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  out << text;
  out.close();
  if (!out) {
    std::fprintf(stderr, "short write to %s\n", path.c_str());
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bool jsonl = false;
  bool list_columns = false;
  std::string out_path;
  std::string train_path;
  ScenarioRunOptions options;
  std::vector<std::string> files;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--help" || arg == "-h") {
      return Usage(argv[0]);
    } else if (arg == "--list-columns") {
      list_columns = true;
    } else if (arg == "--format") {
      const std::string format = value("--format");
      if (format == "csv") {
        jsonl = false;
      } else if (format == "jsonl") {
        jsonl = true;
      } else {
        std::fprintf(stderr, "--format needs csv or jsonl, got '%s'\n", format.c_str());
        return 2;
      }
    } else if (arg == "--out") {
      out_path = value("--out");
    } else if (arg == "--train") {
      train_path = value("--train");
    } else if (arg == "--reps") {
      const char* v = value("--reps");
      if (!ParseCliPositiveInt(v, &options.repetitions_override)) {
        std::fprintf(stderr, "--reps needs a positive integer, got '%s'\n", v);
        return 2;
      }
    } else if (arg == "--base-seed") {
      const char* v = value("--base-seed");
      if (!ParseCliU64(v, &options.base_seed)) {
        std::fprintf(stderr, "--base-seed needs an unsigned integer, got '%s'\n", v);
        return 2;
      }
      options.has_base_seed = true;
    } else if (arg == "--parallel") {
      const char* v = value("--parallel");
      long n = 0;
      if (!ParseCliInt(v, 0, 64, &n)) {
        std::fprintf(stderr, "--parallel needs an integer in [0, 64], got '%s'\n", v);
        return 2;
      }
      options.parallel_workers = static_cast<int>(n);
    } else if (arg == "--timeout") {
      const char* v = value("--timeout");
      if (!ParseCliPositiveDouble(v, &options.timeout_override_s)) {
        std::fprintf(stderr, "--timeout needs a positive number of seconds, got '%s'\n", v);
        return 2;
      }
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "unknown option %s\n", arg.c_str());
      return Usage(argv[0]);
    } else {
      files.push_back(arg);
    }
  }

  if (list_columns) {
    PrintColumns();
    return 0;
  }
  if (files.empty()) {
    return Usage(argv[0]);
  }
  // The export runs every scenario job; a progress line on stdout would
  // corrupt the stream, so keep the campaign quiet.
  options.campaign.progress = false;

  std::string stream;
  std::vector<DecisionRow> all_rows;
  bool wrote_header = false;
  for (const std::string& file : files) {
    const std::string path = ResolveScenarioPath(file);
    Scenario scenario;
    ScenarioError err;
    if (!LoadScenario(path, &scenario, &err)) {
      std::fprintf(stderr, "%s\n", err.Join().c_str());
      return 2;
    }
    DecisionExportResult result;
    if (!CollectDecisionTraces(scenario, options, &result, &err)) {
      std::fprintf(stderr, "%s\n", err.Join().c_str());
      return 1;
    }
    // Multi-file exports keep one header (the first file's width) — exporting
    // mixed machine widths across files is better done one file at a time.
    std::string text = SerializeDecisions(result, jsonl);
    if (!jsonl && wrote_header) {
      const size_t eol = text.find('\n');
      text.erase(0, eol == std::string::npos ? text.size() : eol + 1);
    }
    wrote_header = true;
    stream += text;
    if (!train_path.empty()) {
      std::vector<DecisionRow> rows = FlattenDecisions(result);
      all_rows.insert(all_rows.end(), rows.begin(), rows.end());
    }
  }

  if (out_path.empty()) {
    std::fwrite(stream.data(), 1, stream.size(), stdout);
  } else if (!WriteFile(out_path, stream)) {
    return 1;
  }

  if (!train_path.empty()) {
    const TableModel model = TrainTableModel(all_rows);
    if (!WriteFile(train_path, model.ToJson())) {
      return 1;
    }
    std::fprintf(stderr, "[train] %zu rows -> %zu buckets -> %s\n", all_rows.size(),
                 model.buckets().size(), train_path.c_str());
  }
  return 0;
}
