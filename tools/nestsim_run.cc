// nestsim_run: execute declarative experiment scenarios (docs/SCENARIOS.md).
//
//   nestsim_run scenarios/fig5.json               run + print the paper table
//   nestsim_run --print-jobs scenarios/fig5.json  show the expanded job grid
//   nestsim_run --record-baseline scenarios/smoke.json   write golden JSONL
//   nestsim_run --check-baseline scenarios/smoke.json    compare vs golden,
//                                                write BENCH_scenarios.json
//   nestsim_run --list                            registries and config keys
//
// Honours NESTSIM_JOBS (worker pool), NESTSIM_JSONL (streamed result sink),
// NESTSIM_TRACE (Perfetto capture), NESTSIM_REPS (repetition override) and
// NESTSIM_SCENARIO_DIR (scenario search path).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "src/cluster/router.h"
#include "src/governors/governors.h"
#include "tools/cli_num.h"
#include "src/hw/machine_spec.h"
#include "src/scenario/baseline.h"
#include "src/scenario/registry.h"
#include "src/scenario/runner.h"

using namespace nestsim;

namespace {

int Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [options] <scenario.json>...\n"
      "\n"
      "options:\n"
      "  --list               print machines (Tables 2/3), policies, governors,\n"
      "                       workload families and config-override keys, then exit\n"
      "  --print-jobs         expand the grid and list jobs without running\n"
      "  --no-table           skip the paper-style table (JSONL/baseline only)\n"
      "  --reps N             repetitions per cell (beats NESTSIM_REPS)\n"
      "  --base-seed N        first seed (scenario default otherwise)\n"
      "  --timeout S          per-job wall-clock budget in seconds\n"
      "  --parallel N         PDES worker threads per job (0 = serial reference\n"
      "                       loop; results are byte-identical at any N)\n"
      "  --record-baseline    write golden baselines/<name>.jsonl\n"
      "  --check-baseline     compare against the golden; write the verdict\n"
      "  --baseline-dir DIR   golden directory (default: baselines)\n"
      "  --wall-tolerance X   also check wall_s within a relative band X\n"
      "  --verdict PATH       verdict JSON path (default: BENCH_scenarios.json)\n",
      argv0);
  return 2;
}

const char* PowerManagementName(PowerManagement pm) {
  switch (pm) {
    case PowerManagement::kSpeedShift:
      return "Intel Speed Shift";
    case PowerManagement::kSpeedStep:
      return "Enhanced Intel SpeedStep";
    case PowerManagement::kTurboCore:
      return "AMD Turbo Core";
  }
  return "unknown";
}

// The machines block is the paper's Table 2 (hardware characteristics) with
// each machine's Table 3 turbo ladder: the frequency cap by number of active
// physical cores on a socket, at 1-4 and then every 4 cores.
void PrintMachines() {
  std::printf("machines (Table 2; ladder = Table 3 turbo cap in GHz by active cores/socket):\n");
  std::printf("  %-18s %-26s %-13s %10s %7s %7s %9s  %s\n", "name", "CPU", "uarch", "#cores",
              "min", "max", "max turbo", "power management");
  for (const std::string& name : MachineNames()) {
    const MachineSpec& m = MachineByName(name);
    char cores[32];
    std::snprintf(cores, sizeof(cores), "%dx%dx%d=%d", m.num_sockets,
                  m.physical_cores_per_socket, m.threads_per_core,
                  m.num_sockets * m.physical_cores_per_socket * m.threads_per_core);
    std::printf("  %-18s %-26s %-13s %10s %4.1fGHz %4.1fGHz %6.1fGHz  %s\n", name.c_str(),
                m.cpu_model.c_str(), m.microarch.c_str(), cores, m.min_freq_ghz,
                m.nominal_freq_ghz, m.turbo.MaxTurboGhz(), PowerManagementName(m.power_management));
    std::printf("    ladder:");
    for (int c = 1; c <= m.physical_cores_per_socket; c = c < 4 ? c + 1 : c + 4) {
      std::printf(" %d:%.1f", c, m.turbo.CapGhz(c));
    }
    std::printf("\n");
  }
}

void PrintList() {
  PrintMachines();
  std::printf("schedulers: %s\n", JoinNames(SchedulerKindKeys()).c_str());
  std::printf("governors: %s\n", JoinNames(GovernorNames()).c_str());
  std::printf("workload families:\n");
  for (const WorkloadFamily& family : WorkloadFamilies()) {
    std::printf("  %-10s %s\n", family.name.c_str(), family.summary.c_str());
    if (!family.presets.empty()) {
      std::printf("    presets: %s\n", JoinNames(family.presets).c_str());
    }
    for (const auto& [group, rows] : family.groups) {
      std::printf("    group %s: %zu rows\n", group.c_str(), rows.size());
    }
  }
  std::printf("config override keys: %s\n", JoinNames(ConfigOverrideKeys()).c_str());
  std::printf("cluster routers: %s\n", JoinNames(RouterNames()).c_str());
  std::printf("cluster spec keys: cluster.preset, cluster.machines, cluster.router\n");
}

void PrintJobs(const ScenarioRun& run) {
  const Scenario& sc = run.scenario;
  if (sc.has_cluster) {
    std::printf("scenario %s [cluster x%d %s]: %zu jobs (reps %d, base seed %llu)\n",
                sc.name.c_str(), sc.cluster_machines, sc.cluster_router.c_str(), run.jobs.size(),
                run.repetitions, static_cast<unsigned long long>(run.base_seed));
  } else {
    std::printf("scenario %s: %zu jobs (reps %d, base seed %llu)\n", sc.name.c_str(),
                run.jobs.size(), run.repetitions, static_cast<unsigned long long>(run.base_seed));
  }
  const std::string suffix =
      sc.has_cluster
          ? " [cluster x" + std::to_string(sc.cluster_machines) + " " + sc.cluster_router + "]"
          : "";
  for (const Job& job : run.jobs) {
    std::printf("  %-16s %-20s %-24s %s/%s%s\n", job.config.machine.c_str(), job.workload.c_str(),
                job.variant.c_str(), SchedulerKindKey(job.config.scheduler),
                job.config.governor.c_str(), suffix.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  bool list = false;
  bool print_jobs = false;
  bool no_table = false;
  bool record_baseline = false;
  bool check_baseline = false;
  std::string baseline_dir = "baselines";
  std::string verdict_path = "BENCH_scenarios.json";
  double wall_tolerance = 0.0;
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
    } else if (arg == "--list") {
      list = true;
    } else if (arg == "--print-jobs") {
      print_jobs = true;
    } else if (arg == "--no-table") {
      no_table = true;
    } else if (arg == "--record-baseline") {
      record_baseline = true;
    } else if (arg == "--check-baseline") {
      check_baseline = true;
    } else if (arg == "--baseline-dir") {
      baseline_dir = value("--baseline-dir");
    } else if (arg == "--verdict") {
      verdict_path = value("--verdict");
    } else if (arg == "--wall-tolerance") {
      wall_tolerance = std::atof(value("--wall-tolerance"));
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

  if (list) {
    PrintList();
    return 0;
  }
  if (files.empty()) {
    return Usage(argv[0]);
  }
  if (record_baseline && check_baseline) {
    std::fprintf(stderr, "--record-baseline and --check-baseline are mutually exclusive\n");
    return 2;
  }

  std::vector<BaselineCheck> checks;
  int exit_code = 0;
  for (const std::string& file : files) {
    const std::string path = ResolveScenarioPath(file);
    Scenario scenario;
    ScenarioError err;
    if (!LoadScenario(path, &scenario, &err)) {
      std::fprintf(stderr, "%s\n", err.Join().c_str());
      return 2;
    }
    ScenarioRun run;
    if (!ExpandScenario(scenario, options, &run, &err)) {
      std::fprintf(stderr, "%s\n", err.Join().c_str());
      return 2;
    }
    if (print_jobs) {
      PrintJobs(run);
      continue;
    }
    if (!no_table) {
      PrintScenarioHeader(scenario);
    }
    ExecuteScenario(&run);
    if (!no_table) {
      try {
        PrintScenarioTables(run);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "%s\n", e.what());
        exit_code = 1;
      }
    }
    for (const JobOutcome& outcome : run.outcomes) {
      if (!outcome.ok()) {
        exit_code = 1;
      }
    }
    if (record_baseline) {
      std::string error;
      if (!RecordBaseline(run, baseline_dir, &error)) {
        std::fprintf(stderr, "%s\n", error.c_str());
        return 1;
      }
      std::fprintf(stderr, "[baseline] recorded %s\n",
                   BaselinePath(baseline_dir, run.scenario.name).c_str());
    }
    if (check_baseline) {
      BaselineCheck check = CheckBaseline(run, baseline_dir, wall_tolerance);
      for (const std::string& problem : check.problems) {
        std::fprintf(stderr, "[baseline] %s\n", problem.c_str());
      }
      std::fprintf(stderr, "[baseline] %s: %s (%d jobs compared)\n", check.scenario.c_str(),
                   check.ok() ? "PASS" : "FAIL", check.compared);
      if (!check.ok()) {
        exit_code = 1;
      }
      checks.push_back(std::move(check));
    }
  }

  if (check_baseline && !checks.empty()) {
    std::ofstream out(verdict_path, std::ios::trunc);
    if (!out) {
      std::fprintf(stderr, "cannot write verdict %s\n", verdict_path.c_str());
      return 1;
    }
    out << BaselineVerdictJson(checks) << "\n";
    std::fprintf(stderr, "[baseline] verdict written to %s\n", verdict_path.c_str());
  }
  return exit_code;
}
