// nestbench: host-time benchmark of nestsim (see nestbench/README.md).
//
//   nestbench --workload NAME --seed N --seconds S --trace 0|1
//             [--root DIR] [--commit SHA] [--record-expected]
//
// Every run first replays the workload at the reference seed and compares
// each job's simulated outputs with nestbench/expected/<workload>.json. It
// then repeats passes at --seed for --seconds: --trace 0 reports the
// end-to-end metrics, --trace 1 the per-layer metrics of the traced stack.
// The last stdout line is one JSON object; the exit code is 0 only when
// every job ran cleanly and every output matched.

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "nestbench/src/host_speed.h"
#include "nestbench/src/passes.h"
#include "nestbench/src/traced_stack.h"
#include "src/obs/json_check.h"
#include "src/perf/core_benches.h"

namespace nestbench {
namespace {

constexpr uint64_t kReferenceSeed = 1;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  int seconds = 0;
  int trace = -1;
  std::string root = ".";
  std::string commit = "unknown";
  bool record_expected = false;
};

int Usage(const char* why) {
  std::fprintf(stderr,
               "nestbench: %s\nusage: nestbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--root DIR] [--commit SHA] [--record-expected]\n",
               why);
  return 2;
}

bool ParseU64(const char* text, uint64_t* out) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (errno != 0 || end == text || *end != '\0' || text[0] == '-') {
    return false;
  }
  *out = v;
  return true;
}

// Counts jobs and records why any of them failed a check.
struct Checks {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> problems;

  // One job: fails it (once) for each non-empty problem.
  void Record(const std::vector<std::string>& job_problems, const std::string& label) {
    ++attempted;
    bool bad = false;
    for (const std::string& p : job_problems) {
      if (!p.empty()) {
        bad = true;
        if (problems.size() < 20) {
          problems.push_back(label + ": " + p);
        }
      }
    }
    failed += bad ? 1 : 0;
  }
  bool ok() const { return failed == 0 && attempted > 0; }
};

std::string ExpectedPath(const Args& args) {
  return args.root + "/nestbench/expected/" + args.workload + ".json";
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += c;
  }
  return out + "\"";
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

bool WriteExpected(const Args& args, const std::map<std::string, std::string>& signatures) {
  std::ofstream out(ExpectedPath(args));
  out << "{\n  \"workload\": " << JsonString(args.workload) << ",\n  \"seed\": " << kReferenceSeed
      << ",\n  \"jobs\": {";
  const char* sep = "\n";
  for (const auto& [label, sig] : signatures) {
    out << sep << "    " << JsonString(label) << ": " << JsonString(sig);
    sep = ",\n";
  }
  out << "\n  }\n}\n";
  return static_cast<bool>(out);
}

// Label -> signature from the expected file; empty on any problem (which the
// comparison then reports job by job).
std::map<std::string, std::string> ReadExpected(const Args& args, std::string* error) {
  std::map<std::string, std::string> expected;
  std::ifstream in(ExpectedPath(args));
  std::stringstream text;
  text << in.rdbuf();
  nestsim::JsonValue root;
  if (!in || !nestsim::JsonParse(text.str(), &root, error)) {
    *error = "cannot read " + ExpectedPath(args) + (error->empty() ? "" : ": " + *error);
    return expected;
  }
  const nestsim::JsonValue* jobs = root.Find("jobs");
  if (jobs == nullptr || !jobs->is_object()) {
    *error = ExpectedPath(args) + ": no \"jobs\" object";
    return expected;
  }
  for (const auto& [label, sig] : jobs->members) {
    expected[label] = sig.string;
  }
  return expected;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n == 0 ? 0.0 : (n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]));
}

// The highest order statistic with at least ten samples beyond it (the
// maximum when there are fewer than eleven samples), and its percentile.
double Tail(std::vector<double> v, double* percentile) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  if (n == 0) {
    *percentile = 0.0;
    return 0.0;
  }
  const size_t index = n >= 11 ? n - 11 : n - 1;
  *percentile = 100.0 * static_cast<double>(index + 1) / static_cast<double>(n);
  return v[index];
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(const Checks& checks, const std::vector<Metric>& metrics) {
  for (const std::string& p : checks.problems) {
    std::printf("problem %s\n", p.c_str());
  }
  std::string out = "{\"correct\": " + std::string(checks.ok() ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(checks.attempted) +
                    ", \"failed\": " + std::to_string(checks.failed) + ", \"metrics\": {";
  const char* sep = "";
  for (const Metric& m : metrics) {
    out += sep + JsonString(m.name) + ": {\"value\": " + Num(m.value) +
           ", \"unit\": " + JsonString(m.unit) + "}";
    sep = ", ";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

// Runs the reference-seed pass and checks it against the expected file (or
// records the file). Doubles as the warm-up before anything is timed.
void ReferencePass(const Args& args, const BenchWorkload& workload, Checks* checks) {
  Pass pass = ExpandPass(workload, args.root, kReferenceSeed);
  ExecutePass(&pass);
  std::map<std::string, std::string> signatures;
  std::vector<std::pair<std::string, std::string>> problems;
  ForEachJob(pass, [&](const std::string& label, const nestsim::Job&,
                       const nestsim::JobOutcome& outcome) {
    const std::string problem = JobProblem(outcome);
    problems.emplace_back(label, problem);
    if (problem.empty()) {
      signatures[label] = OutputSignature(outcome.result.runs.front());
    }
  });
  if (args.record_expected) {
    for (const auto& [label, problem] : problems) {
      checks->Record({problem}, label);
    }
    if (checks->ok() && !WriteExpected(args, signatures)) {
      checks->Record({"cannot write " + ExpectedPath(args)}, "record");
    }
    return;
  }
  std::string error;
  const std::map<std::string, std::string> expected = ReadExpected(args, &error);
  for (const auto& [label, problem] : problems) {
    const auto want = expected.find(label);
    std::string mismatch;
    if (want == expected.end()) {
      mismatch = error.empty() ? "no expected values for this job" : error;
    } else if (problem.empty() && signatures[label] != want->second) {
      mismatch = "outputs differ from expected: got " + signatures[label] + ", want " +
                 want->second;
    }
    checks->Record({problem, mismatch}, label + " @ reference seed");
  }
  if (expected.size() != problems.size() && error.empty()) {
    checks->Record({"expected file lists a different job set"}, ExpectedPath(args));
  }
}

// Compares a job's signature with the one its first pass produced.
class Determinism {
 public:
  std::string Check(const std::string& label, const std::string& signature) {
    const auto [it, inserted] = first_.try_emplace(label, signature);
    return inserted || it->second == signature ? "" : "outputs changed between passes";
  }

 private:
  std::map<std::string, std::string> first_;
};

void PrintSamples(const char* name, const std::vector<double>& v) {
  std::printf("%s", name);
  for (const double x : v) {
    std::printf(" %.5g", x);
  }
  std::printf("\n");
}

// Each pass and each set-up measurement is timed between two host speed
// probes (host_speed.h) and reported at the reference speed.
std::vector<Metric> EndToEnd(const Args& args, const BenchWorkload& workload, Checks* checks) {
  std::vector<double> raw_walls;
  std::vector<double> speeds;
  std::vector<double> walls;
  std::vector<double> rates;
  std::vector<double> setups;
  Determinism determinism;
  double probe = ProbeSeconds();
  const uint64_t deadline = NowNs() + static_cast<uint64_t>(args.seconds) * 1000000000ull;
  do {
    Pass pass = ExpandPass(workload, args.root, args.seed);
    const double wall = static_cast<double>(pass.load_expand_ns + ExecutePass(&pass)) * 1e-9;
    const double probe_after_pass = ProbeSeconds();
    const double setup = static_cast<double>(MeasureSetup(workload, args.root, args.seed)) * 1e-9;
    const double probe_after_setup = ProbeSeconds();
    uint64_t events = 0;
    ForEachJob(pass, [&](const std::string& label, const nestsim::Job&,
                         const nestsim::JobOutcome& outcome) {
      std::string problem = JobProblem(outcome);
      std::string changed;
      if (problem.empty()) {
        events += outcome.result.runs.front().events_fired;
        changed = determinism.Check(label, OutputSignature(outcome.result.runs.front()));
      }
      checks->Record({problem, changed}, label);
    });
    const double scaled_wall = AtReferenceSpeed(wall, probe, probe_after_pass);
    raw_walls.push_back(wall);
    speeds.push_back(scaled_wall / wall);
    walls.push_back(scaled_wall);
    rates.push_back(static_cast<double>(events) / scaled_wall);
    setups.push_back(AtReferenceSpeed(setup, probe_after_pass, probe_after_setup));
    probe = probe_after_setup;
  } while (NowNs() < deadline);

  double tail_pct = 0.0;
  const double tail = Tail(walls, &tail_pct);
  std::printf("wall_s median %.6f, p%.1f %.6f (highest percentile with >= 10 samples beyond it), "
              "%zu samples; raw host wall median %.6f at host speed %.4f of the reference\n",
              Median(walls), tail_pct, tail, walls.size(), Median(raw_walls), Median(speeds));
  PrintSamples("raw wall_s samples", raw_walls);
  PrintSamples("host speed samples", speeds);
  const double ok_ratio =
      Ratio(static_cast<double>(checks->attempted - checks->failed),
            static_cast<double>(checks->attempted));
  return {
      {"wall_s", Median(walls), "s"},
      {"wall_s_tail", tail, "s"},
      {"events_per_s", Median(rates), "1/s"},
      {"setup_s", Median(setups), "s"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
      {"job_ok_ratio", ok_ratio, "ratio"},
  };
}

// Sums over every traced job of one policy.
struct PolicyTotals {
  LayerStat fork, wake, tick, hooks;
  uint64_t step_ns = 0;
  uint64_t events = 0;
  uint64_t selections = 0, selections_idle = 0, wakes = 0, wakes_prev_cpu = 0;

  void Add(const TracedRun& run) {
    const Ledger& l = run.ledger;
    for (auto [total, layer] : {std::pair{&fork, kPolicyFork}, std::pair{&wake, kPolicyWake},
                                std::pair{&tick, kPolicyTick}, std::pair{&hooks, kPolicyHooks}}) {
      total->calls += l.stat(layer).calls;
      total->self_ns += l.stat(layer).self_ns;
    }
    step_ns += run.step_ns;
    events += run.result.events_fired;
    selections += l.selections;
    selections_idle += l.selections_idle;
    wakes += l.wakes;
    wakes_prev_cpu += l.wakes_prev_cpu;
  }
};

double NsPerCall(const LayerStat& s) {
  return Ratio(static_cast<double>(s.self_ns), static_cast<double>(s.calls));
}

std::vector<Metric> Layers(const Args& args, const BenchWorkload& workload, Checks* checks) {
  const int workers =
      static_cast<int>(std::clamp(std::thread::hardware_concurrency(), 1u, 4u));
  std::map<std::string, PolicyTotals> policies = {{"nest", {}}, {"cfs", {}}};
  LayerStat governor, observers;
  uint64_t events = 0, step_ns = 0, loop_attributed_ns = 0, pending_max = 0;
  uint64_t traced_jobs = 0, setup_ns = 0, plan_ns = 0, plan_parts = 0;
  uint64_t traced_ns = 0, untraced_ns = 0;
  uint64_t replay_events = 0, replay_ns = 0;
  double replay_sim_ms = 0.0;
  uint64_t runner_w0_ns = 0, runner_wn_ns = 0, runner_events = 0;
  std::vector<double> load_expand_ns;
  std::vector<double> job_ms;
  Determinism determinism;
  int rounds = 0;
  std::vector<double> speeds;
  double probe = ProbeSeconds();

  const uint64_t deadline = NowNs() + static_cast<uint64_t>(args.seconds) * 1000000000ull;
  do {
    Pass pass = ExpandPass(workload, args.root, args.seed);
    load_expand_ns.push_back(static_cast<double>(pass.load_expand_ns));
    ExecutePass(&pass);
    ForEachJob(pass, [&](const std::string& label, const nestsim::Job& job,
                         const nestsim::JobOutcome& outcome) {
      const std::string problem = JobProblem(outcome);
      if (!problem.empty()) {
        checks->Record({problem}, label);
        return;
      }
      job_ms.push_back(outcome.wall_seconds * 1e3);
      const nestsim::ExperimentResult& campaign = outcome.result.runs.front();
      const std::string signature = OutputSignature(campaign);
      const nestsim::ExperimentConfig config = SeededConfig(job);

      // The program's own runner, serial and with a worker pool.
      uint64_t t0 = NowNs();
      const nestsim::ExperimentResult serial = RunJob(job, config);
      const uint64_t w0_ns = NowNs() - t0;
      nestsim::ExperimentConfig pooled = config;
      pooled.parallel.workers = workers;
      t0 = NowNs();
      const nestsim::ExperimentResult parallel = RunJob(job, pooled);
      runner_wn_ns += NowNs() - t0;
      runner_w0_ns += w0_ns;
      runner_events += serial.events_fired;

      // The traced stack runs one machine; a fleet job's machine layers are
      // traced on its workload run standalone, against RunExperiment.
      uint64_t reference_ns = w0_ns;
      nestsim::ExperimentResult standalone;
      if (job.runner) {
        t0 = NowNs();
        standalone = nestsim::RunExperiment(config, *job.model);
        reference_ns = NowNs() - t0;
      }
      const TracedRun traced = RunTraced(config, *job.model);
      const std::string fidelity =
          ResultDifference(job.runner ? standalone : serial, traced.result);
      checks->Record(
          {determinism.Check(label, signature),
           OutputSignature(serial) == signature ? "" : "serial rerun differs",
           OutputSignature(parallel) == signature ? "" : "worker-pool run differs",
           fidelity.empty() ? "" : "traced stack differs from RunExperiment in " + fidelity},
          label);

      traced_ns += traced.total_ns;
      untraced_ns += reference_ns;
      ++traced_jobs;
      events += traced.result.events_fired;
      step_ns += traced.step_ns;
      loop_attributed_ns += traced.loop_attributed_ns;
      pending_max = std::max(pending_max, traced.pending_max);
      setup_ns += traced.setup_ns;
      plan_ns += traced.plan_ns;
      plan_parts += traced.plan_parts;
      for (auto [total, layer] :
           {std::pair{&governor, kGovernorRequest}, std::pair{&observers, kObserver}}) {
        total->calls += traced.ledger.stat(layer).calls;
        total->self_ns += traced.ledger.stat(layer).self_ns;
      }
      const auto policy = policies.find(traced.policy_key);
      if (policy != policies.end()) {
        policy->second.Add(traced);
      }
      const ReplayStats replay = ReplayHardware(config.machine, traced.transitions);
      replay_events += replay.events;
      replay_ns += replay.host_ns;
      replay_sim_ms += static_cast<double>(replay.sim_end) / 1e6;
    });
    ++rounds;
    const double probe_after = ProbeSeconds();
    speeds.push_back(AtReferenceSpeed(1.0, probe, probe_after));
    probe = probe_after;
  } while (NowNs() < deadline);

  nestsim::BenchReport micro;
  nestsim::CoreBenchOptions micro_options;
  nestsim::RunMicroBenches(micro_options, &micro);
  auto micro_ns = [&micro](const char* name) {
    const nestsim::BenchRecord* r = micro.Find(name);
    return r != nullptr ? r->ns_per_op : 0.0;
  };

  const double per_round = 1.0 / rounds;
  const double ev = static_cast<double>(events);
  double job_tail_pct = 0.0;
  const double job_tail = Tail(job_ms, &job_tail_pct);
  std::printf("layers over %d rounds, %llu traced jobs; campaign.job_ms.tail is p%.1f of %zu jobs; "
              "parallel workers %d\n",
              rounds, static_cast<unsigned long long>(traced_jobs), job_tail_pct, job_ms.size(),
              workers);

  std::vector<Metric> m = {
      {"sim.events", ev * per_round, "count"},
      {"sim.pending_max", static_cast<double>(pending_max), "count"},
      {"sim.step_ns_per_event", Ratio(static_cast<double>(step_ns), ev), "ns"},
      {"sim.unattributed_ns_per_event",
       Ratio(static_cast<double>(step_ns - std::min(step_ns, loop_attributed_ns)), ev), "ns"},
      {"sim.event_queue.hot_window_ns_per_op", micro_ns("event_queue/hot_window"), "ns"},
      {"kernel.run_queue.churn_ns_per_op", micro_ns("run_queue/churn"), "ns"},
      {"kernel.pelt.update_ns_per_op", micro_ns("pelt/update"), "ns"},
  };
  for (const auto& [key, p] : policies) {
    const double policy_ns = static_cast<double>(p.fork.self_ns + p.wake.self_ns +
                                                 p.tick.self_ns + p.hooks.self_ns);
    m.push_back({key + ".fork.calls", static_cast<double>(p.fork.calls) * per_round, "count"});
    m.push_back({key + ".fork.ns_per_call", NsPerCall(p.fork), "ns"});
    m.push_back({key + ".wake.calls", static_cast<double>(p.wake.calls) * per_round, "count"});
    m.push_back({key + ".wake.ns_per_call", NsPerCall(p.wake), "ns"});
    m.push_back({key + ".tick.ns_per_call", NsPerCall(p.tick), "ns"});
    m.push_back({key + ".hooks.ns_per_event",
                 Ratio(static_cast<double>(p.hooks.self_ns), static_cast<double>(p.events)),
                 "ns"});
    m.push_back({key + ".share", Ratio(policy_ns, static_cast<double>(p.step_ns)), "ratio"});
    m.push_back({key + ".select.idle_ratio",
                 Ratio(static_cast<double>(p.selections_idle), static_cast<double>(p.selections)),
                 "ratio"});
    m.push_back({key + ".select.prev_cpu_ratio",
                 Ratio(static_cast<double>(p.wakes_prev_cpu), static_cast<double>(p.wakes)),
                 "ratio"});
  }
  const double jobs = static_cast<double>(traced_jobs);
  const std::vector<Metric> rest = {
      {"hw.replay.events", static_cast<double>(replay_events) * per_round, "count"},
      {"hw.replay.ns_per_sim_ms", Ratio(static_cast<double>(replay_ns), replay_sim_ms), "ns"},
      {"hw.replay.ns_per_event",
       Ratio(static_cast<double>(replay_ns), static_cast<double>(replay_events)), "ns"},
      {"governors.request.calls", static_cast<double>(governor.calls) * per_round, "count"},
      {"governors.request.ns_per_call", NsPerCall(governor), "ns"},
      {"obs.callbacks", static_cast<double>(observers.calls) * per_round, "count"},
      {"obs.ns_per_event", Ratio(static_cast<double>(observers.self_ns), ev), "ns"},
      {"workloads.setup_ns", Ratio(static_cast<double>(setup_ns), jobs), "ns"},
      {"workloads.plan_ns", Ratio(static_cast<double>(plan_ns), jobs), "ns"},
      {"workloads.plan_parts", Ratio(static_cast<double>(plan_parts), jobs), "count"},
      {"scenario.load_expand_ns", Median(load_expand_ns), "ns"},
      {"campaign.job_ms.p50", Median(job_ms), "ms"},
      {"campaign.job_ms.tail", job_tail, "ms"},
      {"runner.ns_per_event",
       Ratio(static_cast<double>(runner_w0_ns), static_cast<double>(runner_events)), "ns"},
      {"parallel.speedup_wN",
       Ratio(static_cast<double>(runner_w0_ns), static_cast<double>(runner_wn_ns)), "ratio"},
      {"parallel.workers", static_cast<double>(workers), "count"},
      {"trace.overhead_ratio",
       Ratio(static_cast<double>(traced_ns), static_cast<double>(untraced_ns)), "ratio"},
      {"bench.host_speed", Median(speeds), "ratio"},
  };
  m.insert(m.end(), rest.begin(), rest.end());
  return m;
}

int Main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--record-expected") {
      args.record_expected = true;
      continue;
    }
    if (i + 1 >= argc) {
      return Usage(("missing value for " + flag).c_str());
    }
    const char* value = argv[++i];
    uint64_t n = 0;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed" && ParseU64(value, &n)) {
      args.seed = n;
    } else if (flag == "--seconds" && ParseU64(value, &n) && n >= 1 && n <= 3600) {
      args.seconds = static_cast<int>(n);
    } else if (flag == "--trace" && ParseU64(value, &n) && n <= 1) {
      args.trace = static_cast<int>(n);
    } else if (flag == "--root") {
      args.root = value;
    } else if (flag == "--commit") {
      args.commit = value;
    } else {
      return Usage(("bad flag or value: " + flag + " " + value).c_str());
    }
  }
  const BenchWorkload* workload = FindWorkload(args.workload);
  if (workload == nullptr) {
    std::string known;
    for (const std::string& name : WorkloadNames()) {
      known += " " + name;
    }
    return Usage(("unknown --workload; known:" + known).c_str());
  }
  if (!args.record_expected && (args.seconds == 0 || args.trace < 0)) {
    return Usage("--seconds and --trace are required");
  }
#ifndef NDEBUG
  const bool release = false;
#else
  const bool release = std::strcmp(NESTBENCH_BUILD_TYPE, "Release") == 0;
#endif
  if (!release) {
    std::fprintf(stderr, "nestbench: refusing to report from a %s build; rebuild as Release\n",
                 NESTBENCH_BUILD_TYPE);
    return 2;
  }
  // The program reads these; the benchmark measures its defaults.
  for (const char* var : {"NESTSIM_TRACE", "NESTSIM_CHECK_INVARIANTS", "NESTSIM_JSONL",
                          "NESTSIM_JOBS", "NESTSIM_REPS", "NESTSIM_SCENARIO_DIR"}) {
    unsetenv(var);
  }
  std::printf("provenance {\"build_type\": %s, \"compiler\": %s, \"nproc\": %u, \"commit\": %s, "
              "\"seed\": %llu, \"reference_seed\": %llu, \"workload\": %s, \"seconds\": %d, "
              "\"trace\": %d}\n",
              JsonString(NESTBENCH_BUILD_TYPE).c_str(), JsonString(NESTBENCH_CXX_ID).c_str(),
              std::thread::hardware_concurrency(), JsonString(args.commit).c_str(),
              static_cast<unsigned long long>(args.seed),
              static_cast<unsigned long long>(kReferenceSeed), JsonString(args.workload).c_str(),
              args.seconds, args.trace);

  Checks checks;
  try {
    ReferencePass(args, *workload, &checks);
    if (args.record_expected) {
      for (const std::string& p : checks.problems) {
        std::fprintf(stderr, "problem %s\n", p.c_str());
      }
      std::printf("recorded %s (%llu jobs)\n", ExpectedPath(args).c_str(),
                  static_cast<unsigned long long>(checks.attempted));
      return checks.ok() ? 0 : 1;
    }
    const std::vector<Metric> metrics =
        args.trace == 1 ? Layers(args, *workload, &checks) : EndToEnd(args, *workload, &checks);
    PrintResult(checks, metrics);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "nestbench: %s\n", e.what());
    return 1;
  }
  return checks.ok() ? 0 : 1;
}

}  // namespace
}  // namespace nestbench

int main(int argc, char** argv) { return nestbench::Main(argc, argv); }
