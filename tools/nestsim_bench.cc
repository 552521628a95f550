// nestsim_bench: simulator-core micro/throughput benchmarks (docs/BENCHMARKS.md).
//
//   nestsim_bench                          mem/ peaks, micro, full table4/fig12 grids
//   nestsim_bench --quick                  CI-sized grids (~seconds, ":quick" names)
//   nestsim_bench --json BENCH_core.json   also write the JSON report
//   nestsim_bench --reference OLD.json     annotate records with speedup vs OLD
//   nestsim_bench --check-floor baselines/perf_floor.json
//                                          fail (exit 1) on events/sec regression
//
// Exit codes: 0 ok, 1 benchmark failure or floor regression, 2 usage error.

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/perf/core_benches.h"
#include "tools/cli_num.h"

using namespace nestsim;

namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [options]\n"
               "\n"
               "options:\n"
               "  --quick            CI-sized grid slices; record names gain ':quick'\n"
               "  --no-micro         skip the microbenches (event queue, run queue, PELT,\n"
               "                     select/{cfs,nest}/{fork,wake}@{12,64,256},\n"
               "                     setup/requests@256)\n"
               "  --grid FILE        grid scenario to benchmark (repeatable;\n"
               "                     default: table4.json fig12.json)\n"
               "  --no-grid          skip the grid and mem/ benchmarks entirely\n"
               "  --no-scaling       skip the PDES threads-vs-events/sec curve\n"
               "  --scaling FILE     scaling scenario (default: pdes_scaling.json)\n"
               "  --workers LIST     comma-separated curve points (default: 0,1,2,4,8)\n"
               "  --samples N        timed samples per microbenchmark (default 5)\n"
               "  --grid-samples N   timed samples per grid (default: 3 quick, 1 full)\n"
               "  --json PATH        write the BENCH_core.json report to PATH\n"
               "  --reference PATH   prior report; records gain speedup_vs_reference\n"
               "  --check-floor PATH fail on regression vs the committed floor file\n",
               argv0);
  return 2;
}

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path);
  if (!in) {
    return false;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  *out = buf.str();
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  CoreBenchOptions options;
  bool run_micro = true;
  bool run_grids = true;
  bool run_scaling = true;
  std::string scaling_scenario = "pdes_scaling.json";
  std::vector<int> scaling_workers = {0, 1, 2, 4, 8};
  std::vector<std::string> grids;
  std::string json_path;
  std::string reference_path;
  std::string floor_path;

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
    } else if (arg == "--quick") {
      options.quick = true;
    } else if (arg == "--no-micro") {
      run_micro = false;
    } else if (arg == "--no-grid") {
      run_grids = false;
    } else if (arg == "--grid") {
      grids.push_back(value("--grid"));
    } else if (arg == "--no-scaling") {
      run_scaling = false;
    } else if (arg == "--scaling") {
      scaling_scenario = value("--scaling");
    } else if (arg == "--workers") {
      scaling_workers.clear();
      std::stringstream list(value("--workers"));
      std::string item;
      while (std::getline(list, item, ',')) {
        int n = 0;
        if (!ParseCliPositiveInt(item.c_str(), &n) && item != "0") {
          std::fprintf(stderr, "--workers needs comma-separated integers, got '%s'\n",
                       item.c_str());
          return 2;
        }
        scaling_workers.push_back(item == "0" ? 0 : n);
      }
      if (scaling_workers.empty()) {
        std::fprintf(stderr, "--workers needs at least one worker count\n");
        return 2;
      }
    } else if (arg == "--samples") {
      const char* v = value("--samples");
      if (!ParseCliPositiveInt(v, &options.micro_samples)) {
        std::fprintf(stderr, "--samples needs a positive integer, got '%s'\n", v);
        return 2;
      }
    } else if (arg == "--grid-samples") {
      const char* v = value("--grid-samples");
      if (!ParseCliPositiveInt(v, &options.grid_samples)) {
        std::fprintf(stderr, "--grid-samples needs a positive integer, got '%s'\n", v);
        return 2;
      }
    } else if (arg == "--json") {
      json_path = value("--json");
    } else if (arg == "--reference") {
      reference_path = value("--reference");
    } else if (arg == "--check-floor") {
      floor_path = value("--check-floor");
    } else {
      std::fprintf(stderr, "unknown option %s\n", arg.c_str());
      return Usage(argv[0]);
    }
  }
  if (grids.empty()) {
    grids = {"table4.json", "fig12.json"};
  }

  BenchReport report;
  if (run_grids) {
    // First, while this process is still small: a forked child's peak
    // starts from the resident set it inherits.
    std::fprintf(stderr, "[bench] memory: scale256 at 4 s and 64 s simulated...\n");
    if (!RunMemBenches(&report)) {
      return 1;
    }
  }
  if (run_micro) {
    std::fprintf(stderr, "[bench] microbenchmarks (%d samples each)...\n", options.micro_samples);
    RunMicroBenches(options, &report);
  }
  if (run_grids) {
    for (const std::string& grid : grids) {
      std::fprintf(stderr, "[bench] grid %s%s...\n", grid.c_str(),
                   options.quick ? " (quick)" : "");
      if (!RunGridBench(grid, options, &report)) {
        return 1;
      }
    }
  }
  if (run_scaling) {
    std::fprintf(stderr, "[bench] scaling curve %s%s...\n", scaling_scenario.c_str(),
                 options.quick ? " (quick)" : "");
    if (!RunScalingBench(scaling_scenario, scaling_workers, options, &report)) {
      return 1;
    }
  }

  report.PrintTable(stdout);

  std::string reference_json;
  if (!reference_path.empty() && !ReadFile(reference_path, &reference_json)) {
    std::fprintf(stderr, "cannot read reference %s\n", reference_path.c_str());
    return 1;
  }
  const std::string json =
      report.ToJson(options.quick ? "quick" : "full", reference_json);
  if (!json_path.empty()) {
    std::ofstream out(json_path, std::ios::trunc);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    out << json;
    std::fprintf(stderr, "[bench] report written to %s\n", json_path.c_str());
  }

  if (!floor_path.empty()) {
    std::string floor_json;
    if (!ReadFile(floor_path, &floor_json)) {
      std::fprintf(stderr, "cannot read floor %s\n", floor_path.c_str());
      return 1;
    }
    std::string problems;
    if (!CheckPerfFloor(report, floor_json, &problems)) {
      std::fprintf(stderr, "[bench] FLOOR FAIL:\n%s", problems.c_str());
      return 1;
    }
    std::fprintf(stderr, "[bench] floor check passed (%s)\n", floor_path.c_str());
  }
  return 0;
}
