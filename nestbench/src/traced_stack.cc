#include "nestbench/src/traced_stack.h"

#include <algorithm>
#include <functional>
#include <stdexcept>

#include "src/governors/governors.h"
#include "src/hw/hardware.h"
#include "src/kernel/kernel.h"
#include "src/metrics/freq_hist.h"
#include "src/metrics/underload.h"
#include "src/obs/sched_counters.h"
#include "src/scenario/baseline.h"
#include "src/sim/engine.h"
#include "src/workloads/requests.h"

namespace nestbench {

using nestsim::SimTime;
using nestsim::Task;

uint64_t Ledger::AttributedNs() const {
  uint64_t sum = 0;
  for (const LayerStat& s : stats_) {
    sum += s.self_ns;
  }
  return sum;
}

Span::Span(Ledger* ledger, Layer layer) : ledger_(ledger), layer_(layer), start_ns_(NowNs()) {
  if (ledger_->depth_ + 1 >= Ledger::kMaxDepth) {
    throw std::logic_error("nestbench: span nesting too deep");
  }
  ledger_->child_ns_[static_cast<size_t>(++ledger_->depth_)] = 0;
}

Span::~Span() {
  const uint64_t elapsed = NowNs() - start_ns_;
  const size_t depth = static_cast<size_t>(ledger_->depth_);
  LayerStat& stat = ledger_->stats_[layer_];
  ++stat.calls;
  stat.self_ns += elapsed - std::min(elapsed, ledger_->child_ns_[depth]);
  --ledger_->depth_;
  ledger_->child_ns_[depth - 1] += elapsed;
}

// ---- TimedPolicy ----------------------------------------------------------

void TimedPolicy::Attach(nestsim::Kernel* kernel) {
  kernel_ = kernel;
  Span span(ledger_, kPolicyHooks);
  inner_->Attach(kernel);
}

void TimedPolicy::CountSelection(int cpu) {
  ++ledger_->selections;
  if (cpu >= 0 && kernel_->CpuIdle(cpu)) {
    ++ledger_->selections_idle;
  }
}

int TimedPolicy::SelectCpuFork(Task& child, int parent_cpu) {
  int cpu = -1;
  {
    Span span(ledger_, kPolicyFork);
    cpu = inner_->SelectCpuFork(child, parent_cpu);
  }
  CountSelection(cpu);
  return cpu;
}

int TimedPolicy::SelectCpuWake(Task& task, const nestsim::WakeContext& ctx) {
  const int prev_cpu = task.prev_cpu;
  int cpu = -1;
  {
    Span span(ledger_, kPolicyWake);
    cpu = inner_->SelectCpuWake(task, ctx);
  }
  CountSelection(cpu);
  ++ledger_->wakes;
  if (cpu == prev_cpu) {
    ++ledger_->wakes_prev_cpu;
  }
  return cpu;
}

void TimedPolicy::OnTaskEnqueued(Task& task, int cpu) {
  Span span(ledger_, kPolicyHooks);
  inner_->OnTaskEnqueued(task, cpu);
}

void TimedPolicy::OnTaskExit(Task& task, int cpu) {
  Span span(ledger_, kPolicyHooks);
  inner_->OnTaskExit(task, cpu);
}

int TimedPolicy::IdleSpinTicks(int cpu) {
  Span span(ledger_, kPolicyHooks);
  return inner_->IdleSpinTicks(cpu);
}

void TimedPolicy::OnTick() {
  Span span(ledger_, kPolicyTick);
  inner_->OnTick();
}

void TimedPolicy::OnCpuOffline(int cpu) {
  Span span(ledger_, kPolicyHooks);
  inner_->OnCpuOffline(cpu);
}

void TimedPolicy::OnCpuOnline(int cpu) {
  Span span(ledger_, kPolicyHooks);
  inner_->OnCpuOnline(cpu);
}

bool TimedPolicy::UsesPlacementReservation() const {
  Span span(ledger_, kPolicyHooks);
  return inner_->UsesPlacementReservation();
}

bool TimedPolicy::WantsCacheWarmth() const {
  Span span(ledger_, kPolicyHooks);
  return inner_->WantsCacheWarmth();
}

int TimedPolicy::NestMembership(int cpu) const {
  Span span(ledger_, kPolicyHooks);
  return inner_->NestMembership(cpu);
}

// ---- TimedGovernor --------------------------------------------------------

double TimedGovernor::RequestGhz(const nestsim::MachineSpec& spec, double cpu_util) const {
  Span span(ledger_, kGovernorRequest);
  return inner_->RequestGhz(spec, cpu_util);
}

double TimedGovernor::RequestGhzOn(const nestsim::MachineSpec& spec, double cpu_util,
                                   int cpu) const {
  Span span(ledger_, kGovernorRequest);
  return inner_->RequestGhzOn(spec, cpu_util, cpu);
}

void TimedGovernor::AttachHardware(const nestsim::HardwareModel* hw) {
  Span span(ledger_, kGovernorOther);
  inner_->AttachHardware(hw);
}

double TimedGovernor::BudgetWatts() const {
  Span span(ledger_, kGovernorOther);
  return inner_->BudgetWatts();
}

bool TimedGovernor::ThrottledOnSocket(int socket) const {
  Span span(ledger_, kGovernorOther);
  return inner_->ThrottledOnSocket(socket);
}

double TimedGovernor::CapGhzOn(const nestsim::MachineSpec& spec, int cpu) const {
  Span span(ledger_, kGovernorOther);
  return inner_->CapGhzOn(spec, cpu);
}

// ---- TimedObserver --------------------------------------------------------

void TimedObserver::OnTaskCreated(SimTime now, const Task& task) {
  Span span(ledger_, layer_);
  inner_->OnTaskCreated(now, task);
}

void TimedObserver::OnTaskEnqueued(SimTime now, const Task& task, int cpu) {
  Span span(ledger_, layer_);
  inner_->OnTaskEnqueued(now, task, cpu);
}

void TimedObserver::OnContextSwitch(SimTime now, int cpu, const Task* prev, const Task* next) {
  Span span(ledger_, layer_);
  inner_->OnContextSwitch(now, cpu, prev, next);
}

void TimedObserver::OnCpuSpeedChange(SimTime now, int cpu) {
  Span span(ledger_, layer_);
  inner_->OnCpuSpeedChange(now, cpu);
}

void TimedObserver::OnTaskBlocked(SimTime now, const Task& task, int cpu) {
  Span span(ledger_, layer_);
  inner_->OnTaskBlocked(now, task, cpu);
}

void TimedObserver::OnTaskExit(SimTime now, const Task& task) {
  Span span(ledger_, layer_);
  inner_->OnTaskExit(now, task);
}

void TimedObserver::OnTick(SimTime now) {
  Span span(ledger_, layer_);
  inner_->OnTick(now);
}

void TimedObserver::OnTaskPlaced(SimTime now, const Task& task, int cpu, bool is_fork) {
  Span span(ledger_, layer_);
  inner_->OnTaskPlaced(now, task, cpu, is_fork);
}

void TimedObserver::OnReservationCollision(SimTime now, const Task& task, int cpu) {
  Span span(ledger_, layer_);
  inner_->OnReservationCollision(now, task, cpu);
}

void TimedObserver::OnTaskMigrated(SimTime now, const Task& task, int from_cpu, int to_cpu,
                                   nestsim::MigrationReason reason) {
  Span span(ledger_, layer_);
  inner_->OnTaskMigrated(now, task, from_cpu, to_cpu, reason);
}

void TimedObserver::OnNestEvent(SimTime now, nestsim::NestEventKind kind, int cpu) {
  Span span(ledger_, layer_);
  inner_->OnNestEvent(now, kind, cpu);
}

void TimedObserver::OnIdleSpinStart(SimTime now, int cpu, int max_ticks) {
  Span span(ledger_, layer_);
  inner_->OnIdleSpinStart(now, cpu, max_ticks);
}

void TimedObserver::OnIdleSpinEnd(SimTime now, int cpu, bool became_busy) {
  Span span(ledger_, layer_);
  inner_->OnIdleSpinEnd(now, cpu, became_busy);
}

void TimedObserver::OnCoreFreqChange(SimTime now, int phys_core, double freq_ghz) {
  Span span(ledger_, layer_);
  inner_->OnCoreFreqChange(now, phys_core, freq_ghz);
}

void TimedObserver::OnCacheEvent(SimTime now, const Task& task, nestsim::CacheEventKind kind,
                                 int cpu, double warmth) {
  Span span(ledger_, layer_);
  inner_->OnCacheEvent(now, task, kind, cpu, warmth);
}

void TimedObserver::OnFaultEvent(SimTime now, nestsim::FaultEventKind kind, int cpu,
                                 const Task* task) {
  Span span(ledger_, layer_);
  inner_->OnFaultEvent(now, kind, cpu, task);
}

void TimedObserver::OnBudgetState(SimTime now, int socket, double headroom_w, bool throttled) {
  Span span(ledger_, layer_);
  inner_->OnBudgetState(now, socket, headroom_w, throttled);
}

namespace {

// Last task exit, the makespan RunExperiment reports.
class CompletionTracker final : public nestsim::KernelObserver {
 public:
  uint32_t InterestMask() const override { return nestsim::kObsTaskExit; }
  void OnTaskExit(SimTime now, const Task&) override { last_exit_ = std::max(last_exit_, now); }
  SimTime last_exit() const { return last_exit_; }

 private:
  SimTime last_exit_ = 0;
};

// Records when each hardware thread became busy or idle for the hardware
// model: a context switch to a task, or a policy idle spin, keeps it busy.
// Flips at one instant on one CPU collapse to the final state, as the
// kernel's own SetThreadBusy calls do (an idle entry that starts a spin
// never marks the core idle).
class BusyRecorder final : public nestsim::KernelObserver {
 public:
  BusyRecorder(int cpus, std::vector<BusyTransition>* out)
      : out_(out), state_(static_cast<size_t>(cpus), 0), last_(static_cast<size_t>(cpus), -1) {}

  uint32_t InterestMask() const override {
    return nestsim::kObsContextSwitch | nestsim::kObsIdleSpinStart | nestsim::kObsIdleSpinEnd;
  }
  void OnContextSwitch(SimTime now, int cpu, const Task*, const Task* next) override {
    Set(now, cpu, next != nullptr);
  }
  void OnIdleSpinStart(SimTime now, int cpu, int) override { Set(now, cpu, true); }
  void OnIdleSpinEnd(SimTime now, int cpu, bool became_busy) override {
    if (!became_busy) {
      Set(now, cpu, false);
    }
  }

 private:
  void Set(SimTime now, int cpu, bool busy) {
    const size_t c = static_cast<size_t>(cpu);
    const int64_t last = last_[c];
    if (last >= 0 && (*out_)[static_cast<size_t>(last)].time == now) {
      BusyTransition& t = (*out_)[static_cast<size_t>(last)];
      t.busy = busy;
      state_[c] = busy ? 1 : 0;
      return;
    }
    if ((state_[c] != 0) == busy) {
      return;
    }
    state_[c] = busy ? 1 : 0;
    last_[c] = static_cast<int64_t>(out_->size());
    out_->push_back({now, cpu, busy});
  }

  std::vector<BusyTransition>* out_;
  std::vector<char> state_;
  std::vector<int64_t> last_;
};

void RequireLikeForLike(const nestsim::ExperimentConfig& config) {
  const bool plain = config.scheduler != nestsim::SchedulerKind::kNestOracle &&
                     !config.fault.any() && config.fault.replicas <= 1 && !config.record_trace &&
                     !config.record_latency && config.trace_dir.empty() &&
                     config.predict.decision_trace == nullptr &&
                     config.predict.oracle_record_plan == nullptr;
  if (!plain) {
    throw std::invalid_argument(
        "nestbench: the traced stack only mirrors RunExperiment's standard observer set");
  }
}

}  // namespace

TracedRun RunTraced(const nestsim::ExperimentConfig& config, const nestsim::Workload& workload) {
  RequireLikeForLike(config);
  TracedRun run;
  run.policy_key = nestsim::SchedulerKindKey(config.scheduler);
  Ledger* ledger = &run.ledger;
  const uint64_t start_ns = NowNs();

  nestsim::Engine engine;
  const nestsim::MachineSpec& spec = nestsim::MachineByName(config.machine);
  nestsim::HardwareModel hw(&engine, spec);
  TimedPolicy policy(nestsim::MakeSchedulerPolicy(config), ledger);
  TimedGovernor governor(nestsim::MakeGovernor(config.governor, config.power), ledger);
  nestsim::Kernel kernel(&engine, &hw, &policy, &governor, config.kernel);

  CompletionTracker completion;
  nestsim::UnderloadTracker underload(&kernel, config.record_underload_series);
  nestsim::FreqResidencyTracker freq(&kernel, nestsim::FreqBucketEdgesFor(spec));
  nestsim::SchedCounterRecorder counters(&kernel);
  BusyRecorder busy(hw.topology().num_cpus(), &run.transitions);
  TimedObserver timed_completion(&completion, ledger, kObserver);
  TimedObserver timed_underload(&underload, ledger, kObserver);
  TimedObserver timed_freq(&freq, ledger, kObserver);
  TimedObserver timed_counters(&counters, ledger, kObserver);
  TimedObserver timed_busy(&busy, ledger, kRecorder);
  kernel.AddObserver(&timed_completion);
  kernel.AddObserver(&timed_underload);
  kernel.AddObserver(&timed_freq);
  kernel.AddObserver(&timed_counters);
  kernel.AddObserver(&timed_busy);

  kernel.Start();
  nestsim::Rng rng(config.seed);
  uint64_t t0 = NowNs();
  workload.Setup(kernel, rng);
  run.setup_ns = NowNs() - t0;
  if (const auto* requests = dynamic_cast<const nestsim::RequestWorkload*>(&workload)) {
    // The same draw Setup just made, repeated on a private stream so the
    // simulation's generator is untouched.
    nestsim::Rng plan_rng(config.seed);
    nestsim::Rng wl_rng = plan_rng.Fork();
    t0 = NowNs();
    const nestsim::RequestPlan plan = requests->BuildPlan(wl_rng);
    run.plan_ns = NowNs() - t0;
    run.plan_parts = plan.parts.size();
  } else {
    run.plan_ns = run.setup_ns;
    run.plan_parts = kernel.tasks().size();
  }

  // RunExperiment's pump loop, minus the abort poll (no deadline here).
  const uint64_t attributed_before = ledger->AttributedNs();
  t0 = NowNs();
  while ((kernel.live_tasks() > 0 || kernel.pending_injections() > 0) &&
         engine.Now() < config.time_limit) {
    if (!engine.Step()) {
      break;
    }
    run.pending_max = std::max<uint64_t>(run.pending_max, engine.pending_events());
  }
  run.step_ns = NowNs() - t0;
  run.loop_attributed_ns = ledger->AttributedNs() - attributed_before;

  nestsim::ExperimentResult& result = run.result;
  result.hit_time_limit = kernel.live_tasks() > 0 || kernel.pending_injections() > 0;
  const SimTime end = completion.last_exit() > 0 ? completion.last_exit() : engine.Now();
  result.makespan = end;
  result.energy_joules = hw.EnergyJoules();
  result.underload_per_s = underload.UnderloadPerSecond(end);
  result.freq_hist = freq.Snapshot(end);
  result.cpus_used = underload.CpusEverUsed();
  result.events_fired = engine.events_fired();
  result.context_switches = kernel.context_switches();
  result.migrations = kernel.total_migrations();
  result.tasks_created = static_cast<int>(kernel.tasks().size());
  result.counters = counters.Finish(end);
  run.total_ns = NowNs() - start_ns;
  return run;
}

std::string ResultDifference(const nestsim::ExperimentResult& a,
                             const nestsim::ExperimentResult& b) {
  if (a.makespan != b.makespan) return "makespan";
  if (a.energy_joules != b.energy_joules) return "energy_joules";
  if (a.underload_per_s != b.underload_per_s) return "underload_per_s";
  if (a.freq_hist.seconds != b.freq_hist.seconds) return "freq_hist";
  if (a.cpus_used != b.cpus_used) return "cpus_used";
  if (a.events_fired != b.events_fired) return "events_fired";
  if (a.context_switches != b.context_switches) return "context_switches";
  if (a.migrations != b.migrations) return "migrations";
  if (a.tasks_created != b.tasks_created) return "tasks_created";
  if (a.hit_time_limit != b.hit_time_limit) return "hit_time_limit";
  if (nestsim::SchedCountersDigest(a.counters) != nestsim::SchedCountersDigest(b.counters)) {
    return "counters";
  }
  return "";
}

ReplayStats ReplayHardware(const std::string& machine,
                           const std::vector<BusyTransition>& transitions) {
  ReplayStats stats;
  nestsim::Engine engine;
  nestsim::HardwareModel hw(&engine, nestsim::MachineByName(machine));
  hw.Start();
  if (transitions.empty()) {
    return stats;
  }
  // One self-rescheduling event applies each instant's flips, so the queue
  // holds only the hardware's own events plus this cursor.
  size_t next = 0;
  std::function<void()> apply = [&] {
    const SimTime now = transitions[next].time;
    while (next < transitions.size() && transitions[next].time == now) {
      hw.SetThreadBusy(transitions[next].cpu, transitions[next].busy);
      ++next;
    }
    if (next < transitions.size()) {
      engine.ScheduleAt(transitions[next].time, [&apply] { apply(); });
    }
  };
  engine.ScheduleAt(transitions.front().time, [&apply] { apply(); });
  const uint64_t t0 = NowNs();
  engine.RunUntil(transitions.back().time);
  stats.host_ns = NowNs() - t0;
  stats.events = engine.events_fired();
  stats.sim_end = engine.Now();
  return stats;
}

}  // namespace nestbench
