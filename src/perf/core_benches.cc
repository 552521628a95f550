#include "src/perf/core_benches.h"

#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <vector>

#include "src/cfs/cfs_policy.h"
#include "src/core/machine_run.h"
#include "src/governors/governors.h"
#include "src/hw/hardware.h"
#include "src/kernel/kernel.h"
#include "src/kernel/pelt.h"
#include "src/kernel/run_queue.h"
#include "src/kernel/task.h"
#include "src/nest/nest_policy.h"
#include "src/obs/json_check.h"
#include "src/scenario/runner.h"
#include "src/scenario/scenario.h"
#include "src/sim/event_queue.h"
#include "src/sim/random.h"
#include "src/workloads/requests.h"

namespace nestsim {

namespace {

// Batch sizes chosen so each micro sample runs a few milliseconds — long
// enough to swamp clock granularity, short enough for --quick CI runs.
constexpr int kQueueBatch = 1 << 16;
constexpr int kHotWindowOps = 1 << 18;
constexpr int kRunQueueOps = 1 << 17;
constexpr int kPeltOps = 1 << 18;

// Pending events per push/pop round-trip in the steady-state benchmark;
// roughly the live-event population of a mid-size simulated machine.
constexpr int kHotWindowDepth = 1024;

uint64_t EventQueuePushPop(Rng& rng) {
  EventQueue queue;
  uint64_t sink = 0;
  for (int i = 0; i < kQueueBatch; ++i) {
    const SimTime t = static_cast<SimTime>(rng.NextBounded(1000000000));
    queue.Push(t, [&sink] { ++sink; });
  }
  while (!queue.Empty()) {
    queue.Pop().fn();
  }
  return static_cast<uint64_t>(kQueueBatch) * 2 + (sink - sink);
}

uint64_t EventQueuePushCancelPop(Rng& rng) {
  EventQueue queue;
  uint64_t sink = 0;
  std::vector<EventId> ids;
  ids.reserve(kQueueBatch);
  for (int i = 0; i < kQueueBatch; ++i) {
    const SimTime t = static_cast<SimTime>(rng.NextBounded(1000000000));
    ids.push_back(queue.Push(t, [&sink] { ++sink; }));
  }
  // The kernel cancels roughly a third of what it schedules (completion
  // events outlived by blocks/preemptions); cancel a random 3rd here.
  uint64_t cancelled = 0;
  for (const EventId id : ids) {
    if (rng.NextBounded(3) == 0) {
      cancelled += queue.Cancel(id) ? 1 : 0;
    }
  }
  while (!queue.Empty()) {
    queue.Pop().fn();
  }
  return static_cast<uint64_t>(kQueueBatch) * 2 + cancelled;
}

uint64_t EventQueueHotWindow(Rng& rng) {
  EventQueue queue;
  uint64_t sink = 0;
  SimTime now = 0;
  for (int i = 0; i < kHotWindowDepth; ++i) {
    queue.Push(now + static_cast<SimTime>(rng.NextBounded(1000000)), [&sink] { ++sink; });
  }
  for (int i = 0; i < kHotWindowOps; ++i) {
    EventQueue::Fired fired = queue.Pop();
    now = fired.time;
    fired.fn();
    queue.Push(now + 1 + static_cast<SimTime>(rng.NextBounded(1000000)), [&sink] { ++sink; });
  }
  queue.Clear();
  return static_cast<uint64_t>(kHotWindowOps) * 2 + (sink - sink);
}

uint64_t RunQueueChurn(Rng& rng) {
  RunQueue rq;
  std::vector<Task> tasks(64);
  std::vector<Task*> queued;
  std::vector<Task*> idle;
  for (size_t i = 0; i < tasks.size(); ++i) {
    tasks[i].tid = static_cast<int>(i) + 1;
    tasks[i].vruntime = rng.NextDouble(0.0, 1e6);
    idle.push_back(&tasks[i]);
  }
  uint64_t ops = 0;
  const Task* sink = nullptr;
  for (int i = 0; i < kRunQueueOps; ++i) {
    const bool enqueue = queued.empty() || (!idle.empty() && rng.NextBool(0.5));
    if (enqueue) {
      Task* task = idle.back();
      idle.pop_back();
      task->vruntime += rng.NextDouble(0.0, 1e4);
      rq.Enqueue(task);
      queued.push_back(task);
    } else {
      Task* task = rq.Leftmost();
      rq.Dequeue(task);
      for (size_t j = 0; j < queued.size(); ++j) {
        if (queued[j] == task) {
          queued[j] = queued.back();
          queued.pop_back();
          break;
        }
      }
      idle.push_back(task);
    }
    sink = rq.Leftmost();
    rq.UpdateMinVruntime();
    ++ops;
  }
  return ops + (sink == nullptr ? 0 : 0);
}

uint64_t PeltUpdates(Rng& rng) {
  PeltSignal signal;
  SimTime now = 0;
  double sink = 0.0;
  for (int i = 0; i < kPeltOps; ++i) {
    // Half the updates land on exact tick boundaries (idle CPUs decay in
    // 4 ms steps), half at ragged event timestamps.
    now += (i % 2 == 0) ? 4 * kMillisecond
                        : static_cast<SimDuration>(1 + rng.NextBounded(4 * kMillisecond));
    signal.Update(now, (i % 4 == 0) ? 1.0 : 0.0);
    sink += signal.ValueAt(now + static_cast<SimDuration>(rng.NextBounded(kMillisecond)));
  }
  return static_cast<uint64_t>(kPeltOps) + (sink < 0.0 ? 1 : 0);
}

// ---- Placement selection on a warmed machine ------------------------------

constexpr int kSelectOps = 2000;

// Parent, previous and waking CPUs all run hogs: forks must look
// elsewhere, and wakeups cannot simply take the previous CPU.
constexpr int kBusyCpu = 1;
constexpr int kWakerCpu = 5;

// One machine warmed by real traffic, so placement sees what it sees
// mid-run: about a quarter of the CPUs, drawn at random so sockets and cores
// differ in idle count as they do under real load, run endless hogs, and a
// burst of injected requests went through the policy's fork path, ran and
// exited, leaving residual utilisation, decaying placement loads and (for
// Nest) nest membership. A fresh idle box would instead hit every early-out
// (drained signals, empty nests) and time nothing of interest.
struct SelectFixture {
  SelectFixture(const char* machine, std::unique_ptr<SchedulerPolicy> p)
      : hw(&engine, MachineByName(machine)),
        policy(std::move(p)),
        kernel(&engine, &hw, policy.get(), &governor) {
    kernel.Start();
    const int n = kernel.topology().num_cpus();
    Rng rng(7);
    Hog(kBusyCpu);  // the first spawn: kBusyCpu becomes root_cpu
    for (int cpu = 0; cpu < n; ++cpu) {
      if (cpu == kWakerCpu || (cpu != kBusyCpu && rng.NextDouble() < 0.25)) {
        Hog(cpu);
      }
    }
    for (int i = 0; i < n / 2; ++i) {
      ProgramBuilder req("req");
      req.ComputeUs(200.0 + rng.NextDouble(0.0, 1800.0));
      kernel.ScheduleInjection(static_cast<SimTime>(rng.NextBounded(8 * kMillisecond)),
                               req.Build(), "req", 1);
    }
    engine.RunUntil(10 * kMillisecond);
    task.tid = 1;
  }

  void Hog(int cpu) {
    ProgramBuilder hog("hog");
    hog.Compute(1e15);
    kernel.SpawnInitial(hog.Build(), "hog", 0, cpu);
  }

  // Moves the clock by a ragged step without firing events, so every
  // selection decays the signals it reads (no dt == 0 shortcuts); the
  // machine state is otherwise frozen.
  void Step(int i) {
    engine.AdvanceTo(engine.Now() + 5 * kMicrosecond + (i * 7919) % (20 * kMicrosecond));
  }

  // The chosen CPU's enqueue footprint (Kernel::EnqueueTask bumps its
  // placement load), so successive selections see their predecessors.
  void Land(int cpu) { kernel.rq(cpu).BumpPlacement(engine.Now()); }

  Engine engine;
  HardwareModel hw;
  SchedutilGovernor governor;
  std::unique_ptr<SchedulerPolicy> policy;
  Kernel kernel;
  Task task;
};

// Runs the select/<policy>/<path>@<cpus> records for one machine.
void RunSelectBenches(const char* machine, const BenchOptions& bench, BenchReport* report) {
  struct Case {
    const char* policy;
    bool fork;
  };
  for (const Case& c : {Case{"cfs", true}, Case{"cfs", false}, Case{"nest", true},
                        Case{"nest", false}}) {
    std::unique_ptr<SchedulerPolicy> policy;
    if (std::string(c.policy) == "cfs") {
      policy = std::make_unique<CfsPolicy>();
    } else {
      policy = std::make_unique<NestPolicy>();
    }
    SelectFixture fx(machine, std::move(policy));
    const std::string name = std::string("select/") + c.policy + (c.fork ? "/fork@" : "/wake@") +
                             std::to_string(fx.kernel.topology().num_cpus());
    report->Add(MeasureMedian(name, bench, [&fx, &c] {
      for (int i = 0; i < kSelectOps; ++i) {
        fx.Step(i);
        int cpu;
        if (c.fork) {
          cpu = fx.policy->SelectCpuFork(fx.task, kBusyCpu);
        } else {
          fx.task.prev_cpu = kBusyCpu;
          fx.task.prev_prev_cpu = -1;
          fx.task.impatience = 0;
          WakeContext ctx;
          ctx.waker_cpu = kWakerCpu;
          cpu = fx.policy->SelectCpuWake(fx.task, ctx);
        }
        fx.Land(cpu);
      }
      return static_cast<uint64_t>(kSelectOps);
    }));
  }
}

// Cold starts per setup/requests@256 sample.
constexpr int kSetupOps = 4;

// setup/requests@256: a 256-CPU requests job from a cold start to its first
// fired event — the machine stack, Kernel::Start, Workload::Setup and one
// Step — in the shape of nestbench's scale256 (intel-8153-8s, Poisson 6400
// req/s of 4 ms median service over 4 s, Nest). Each op also tears the stack
// down again, pending events included.
uint64_t RequestsSetup256() {
  RequestSpec spec;
  spec.name = "bench";
  spec.rate_per_s = 6400.0;
  spec.duration_s = 4.0;
  spec.service_ms = 4.0;
  const RequestWorkload workload(spec);
  ExperimentConfig config;
  config.machine = "intel-8153-8s";
  config.scheduler = SchedulerKind::kNest;
  for (int i = 0; i < kSetupOps; ++i) {
    Engine engine;
    MachineModel machine(&engine, MachineByName(config.machine), config);
    machine.kernel.Start();
    Rng rng(1);
    workload.Setup(machine.kernel, rng);
    engine.Step();
  }
  return kSetupOps;
}

std::string FileStem(const std::string& file) {
  const size_t slash = file.find_last_of('/');
  std::string stem = slash == std::string::npos ? file : file.substr(slash + 1);
  const size_t dot = stem.rfind(".json");
  if (dot != std::string::npos) {
    stem.resize(dot);
  }
  return stem;
}

// What a mem/ child reports back to the parent through its pipe.
struct MemSample {
  uint64_t events = 0;
  double wall_s = 0.0;
  double peak_rss_mb = 0.0;
};

// This process's peak resident set (VmHWM), in MB; 0 when unreadable.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0.0;
}

// The scale256 shape (one intel-8153-8s, Poisson 6400 req/s of 4 ms median
// service: 10 % of 256 CPUs, CFS then Nest, seed 1) for `seconds` simulated,
// run serially the way nestsim_run runs a scenario file. Returns false, with
// a message on stderr, when the scenario does not expand or a job fails.
bool RunScale256(int seconds, MemSample* sample) {
  const std::string text =
      R"({"name": "mem_scale256", "machines": ["intel-8153-8s"],
          "variants": [{"label": "CFS", "scheduler": "cfs", "governor": "schedutil"},
                       {"label": "Nest", "scheduler": "nest", "governor": "schedutil"}],
          "workload": {"family": "requests", "rows": [{"label": "poisson-10pct",
            "params": {"rate_per_s": 6400, "arrivals": "poisson", "service_ms": 4.0,
                       "duration_s": )" +
      std::to_string(seconds) + R"(}}]}, "repetitions": 1, "base_seed": 1})";
  JsonValue root;
  Scenario scenario;
  ScenarioError err;
  ScenarioRunOptions ropts;
  ropts.campaign.jobs = 1;
  ropts.campaign.progress = false;
  ropts.campaign.jsonl_path.clear();
  ScenarioRun run;
  if (!JsonParse(text, &root) || !ParseScenario(root, "mem_scale256", &scenario, &err) ||
      !ExpandScenario(scenario, ropts, &run, &err)) {
    std::fprintf(stderr, "nestsim_bench: mem scenario: %s\n", err.Join().c_str());
    return false;
  }
  const auto start = std::chrono::steady_clock::now();
  ExecuteScenario(&run);
  sample->wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  for (const JobOutcome& outcome : run.outcomes) {
    if (!outcome.ok()) {
      std::fprintf(stderr, "nestsim_bench: a mem/scale256 job failed\n");
      return false;
    }
    for (const ExperimentResult& r : outcome.result.runs) {
      sample->events += r.events_fired;
    }
  }
  sample->peak_rss_mb = PeakRssMb();
  return true;
}

// Runs RunScale256 in a forked child, so the peak is that run's alone: a
// child's VmHWM starts from its resident set at the fork, not from the
// parent's own peak.
bool MeasureScale256InChild(int seconds, MemSample* sample) {
  int fds[2];
  if (pipe(fds) != 0) {
    std::perror("nestsim_bench: pipe");
    return false;
  }
  std::fflush(nullptr);
  const pid_t pid = fork();
  if (pid < 0) {
    std::perror("nestsim_bench: fork");
    close(fds[0]);
    close(fds[1]);
    return false;
  }
  if (pid == 0) {
    close(fds[0]);
    MemSample measured;
    const bool ok = RunScale256(seconds, &measured) &&
                    write(fds[1], &measured, sizeof(measured)) ==
                        static_cast<ssize_t>(sizeof(measured));
    _exit(ok ? 0 : 1);
  }
  close(fds[1]);
  const bool got = read(fds[0], sample, sizeof(*sample)) == static_cast<ssize_t>(sizeof(*sample));
  close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  return got && WIFEXITED(status) && WEXITSTATUS(status) == 0 && sample->peak_rss_mb > 0.0;
}

}  // namespace

bool RunMemBenches(BenchReport* report) {
  for (const int seconds : {4, 64}) {
    MemSample sample;
    if (!MeasureScale256InChild(seconds, &sample)) {
      std::fprintf(stderr, "nestsim_bench: mem/scale256@%ds failed\n", seconds);
      return false;
    }
    BenchRecord record;
    record.name = "mem/scale256@" + std::to_string(seconds) + "s";
    record.ops = sample.events;
    record.samples = 1;
    record.median_s = sample.wall_s;
    if (sample.wall_s > 0.0 && sample.events > 0) {
      record.ns_per_op = sample.wall_s * 1e9 / static_cast<double>(sample.events);
      record.ops_per_sec = static_cast<double>(sample.events) / sample.wall_s;
    }
    record.peak_rss_mb = sample.peak_rss_mb;
    report->Add(std::move(record));
  }
  return true;
}

void RunMicroBenches(const CoreBenchOptions& options, BenchReport* report) {
  BenchOptions bench;
  bench.samples = options.micro_samples;
  struct MicroBench {
    const char* name;
    uint64_t (*body)(Rng&);
  };
  const MicroBench benches[] = {
      {"event_queue/push_pop", &EventQueuePushPop},
      {"event_queue/push_cancel_pop", &EventQueuePushCancelPop},
      {"event_queue/hot_window", &EventQueueHotWindow},
      {"run_queue/churn", &RunQueueChurn},
      {"pelt/update", &PeltUpdates},
  };
  for (const MicroBench& b : benches) {
    report->Add(MeasureMedian(b.name, bench, [&b] {
      Rng rng(42);  // same op sequence for every sample and every build
      return b.body(rng);
    }));
  }
  for (const char* machine : {"amd-4650g-1s", "intel-5218-2s", "intel-8153-8s"}) {
    RunSelectBenches(machine, bench, report);
  }
  report->Add(MeasureMedian("setup/requests@256", bench, &RequestsSetup256));
}

bool RunGridBench(const std::string& scenario_file, const CoreBenchOptions& options,
                  BenchReport* report) {
  const std::string path = ResolveScenarioPath(scenario_file);
  Scenario scenario;
  ScenarioError err;
  if (!LoadScenario(path, &scenario, &err)) {
    std::fprintf(stderr, "%s\n", err.Join().c_str());
    return false;
  }
  if (options.quick) {
    // CI-sized slice: one machine, at most 12 evenly spaced rows, same
    // variants. Quick numbers are only ever compared to other quick numbers
    // (the record name differs), so the slice just has to be stable.
    if (scenario.machines.size() > 1) {
      scenario.machines.resize(1);
    }
    constexpr size_t kQuickRows = 12;
    if (scenario.rows.size() > kQuickRows) {
      std::vector<ScenarioRow> rows;
      rows.reserve(kQuickRows);
      const size_t stride = scenario.rows.size() / kQuickRows;
      for (size_t i = 0; i < scenario.rows.size() && rows.size() < kQuickRows; i += stride) {
        rows.push_back(scenario.rows[i]);
      }
      scenario.rows = std::move(rows);
    }
  }

  ScenarioRunOptions ropts;
  ropts.repetitions_override = 1;
  ropts.campaign.jobs = 1;  // serial: wall time must mean per-core throughput
  ropts.campaign.progress = false;
  ropts.campaign.jsonl_path.clear();
  ScenarioRun run;
  if (!ExpandScenario(scenario, ropts, &run, &err)) {
    std::fprintf(stderr, "%s\n", err.Join().c_str());
    return false;
  }

  bool jobs_ok = true;
  auto body = [&run, &jobs_ok]() -> uint64_t {
    ExecuteScenario(&run);
    uint64_t events = 0;
    for (const JobOutcome& outcome : run.outcomes) {
      if (!outcome.ok()) {
        jobs_ok = false;
      }
      for (const ExperimentResult& r : outcome.result.runs) {
        events += r.events_fired;
      }
    }
    return events > 0 ? events : 1;
  };

  BenchOptions bench;
  bench.samples = options.grid_samples > 0 ? options.grid_samples : (options.quick ? 3 : 1);
  bench.warmup = options.quick ? 1 : 0;
  std::string name = "grid/" + FileStem(scenario_file);
  if (options.quick) {
    name += ":quick";
  }
  BenchRecord record = MeasureMedian(name, bench, body);
  if (!jobs_ok) {
    std::fprintf(stderr, "nestsim_bench: a job in %s failed\n", path.c_str());
    return false;
  }
  report->Add(std::move(record));
  return true;
}

bool RunScalingBench(const std::string& scenario_file, const std::vector<int>& workers,
                     const CoreBenchOptions& options, BenchReport* report) {
  const std::string path = ResolveScenarioPath(scenario_file);
  Scenario scenario;
  ScenarioError err;
  if (!LoadScenario(path, &scenario, &err)) {
    std::fprintf(stderr, "%s\n", err.Join().c_str());
    return false;
  }

  for (const int count : workers) {
    ScenarioRunOptions ropts;
    ropts.repetitions_override = 1;
    ropts.campaign.jobs = 1;  // one job at a time: the PDES pool is the
                              // only parallelism being measured
    ropts.campaign.progress = false;
    ropts.campaign.jsonl_path.clear();
    ropts.parallel_workers = count;
    ScenarioRun run;
    if (!ExpandScenario(scenario, ropts, &run, &err)) {
      std::fprintf(stderr, "%s\n", err.Join().c_str());
      return false;
    }

    bool jobs_ok = true;
    auto body = [&run, &jobs_ok]() -> uint64_t {
      ExecuteScenario(&run);
      uint64_t events = 0;
      for (const JobOutcome& outcome : run.outcomes) {
        if (!outcome.ok()) {
          jobs_ok = false;
        }
        for (const ExperimentResult& r : outcome.result.runs) {
          events += r.events_fired;
        }
      }
      return events > 0 ? events : 1;
    };

    BenchOptions bench;
    // 5 samples even in quick mode: the w4/w0 ratio floor needs a stable
    // median on noisy shared CI boxes, and each sample is well under a second.
    bench.samples = options.grid_samples > 0 ? options.grid_samples : 5;
    bench.warmup = 1;
    std::string name = "pdes/scaling";
    if (options.quick) {
      name += ":quick";
    }
    name += "@w" + std::to_string(count);
    BenchRecord record = MeasureMedian(name, bench, body);
    if (!jobs_ok) {
      std::fprintf(stderr, "nestsim_bench: a job in %s failed at %d workers\n", path.c_str(),
                   count);
      return false;
    }
    report->Add(std::move(record));
  }
  return true;
}

bool CheckPerfFloor(const BenchReport& report, const std::string& floor_json,
                    std::string* problems) {
  JsonValue floor;
  std::string error;
  if (!JsonParse(floor_json, &floor, &error)) {
    *problems += "perf floor file is not valid JSON: " + error + "\n";
    return false;
  }
  double max_regression_pct = 25.0;
  if (const JsonValue* pct = floor.Find("max_regression_pct");
      pct != nullptr && pct->is_number()) {
    max_regression_pct = pct->number;
  }
  const JsonValue* floors = floor.Find("floors");
  if (floors == nullptr || !floors->is_object()) {
    *problems += "perf floor file lacks a \"floors\" object\n";
    return false;
  }
  bool ok = true;
  for (const auto& [name, value] : floors->members) {
    if (!value.is_number() || value.number <= 0.0) {
      *problems += "floor for " + name + " is not a positive number\n";
      ok = false;
      continue;
    }
    const BenchRecord* record = report.Find(name);
    if (record == nullptr) {
      *problems += "floored benchmark " + name + " was not run\n";
      ok = false;
      continue;
    }
    const double minimum = value.number * (1.0 - max_regression_pct / 100.0);
    if (record->ops_per_sec < minimum) {
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "%s regressed: %.0f ops/sec is more than %.0f%% below the floor %.0f\n",
                    name.c_str(), record->ops_per_sec, max_regression_pct, value.number);
      *problems += buf;
      ok = false;
    }
  }
  // "ratio_floors": {"A / B": floor} gates ops_per_sec(A) / ops_per_sec(B),
  // with the same max_regression_pct band. Machine-independent, so it can
  // assert "parallel beats serial" without pinning absolute throughput.
  if (const JsonValue* ratios = floor.Find("ratio_floors");
      ratios != nullptr && ratios->is_object()) {
    for (const auto& [expr, value] : ratios->members) {
      if (!value.is_number() || value.number <= 0.0) {
        *problems += "ratio floor for " + expr + " is not a positive number\n";
        ok = false;
        continue;
      }
      const size_t sep = expr.find(" / ");
      if (sep == std::string::npos) {
        *problems += "ratio floor key \"" + expr + "\" is not of the form \"A / B\"\n";
        ok = false;
        continue;
      }
      const std::string num_name = expr.substr(0, sep);
      const std::string den_name = expr.substr(sep + 3);
      const BenchRecord* num = report.Find(num_name);
      const BenchRecord* den = report.Find(den_name);
      if (num == nullptr || den == nullptr) {
        *problems += "ratio-floored benchmark " + (num == nullptr ? num_name : den_name) +
                     " was not run\n";
        ok = false;
        continue;
      }
      if (den->ops_per_sec <= 0.0) {
        *problems += "ratio floor " + expr + ": denominator measured 0 ops/sec\n";
        ok = false;
        continue;
      }
      const double ratio = num->ops_per_sec / den->ops_per_sec;
      const double minimum = value.number * (1.0 - max_regression_pct / 100.0);
      if (ratio < minimum) {
        char buf[200];
        std::snprintf(buf, sizeof(buf),
                      "%s regressed: ratio %.3f is more than %.0f%% below the floor %.2f\n",
                      expr.c_str(), ratio, max_regression_pct, value.number);
        *problems += buf;
        ok = false;
      }
    }
  }
  return ok;
}

}  // namespace nestsim
