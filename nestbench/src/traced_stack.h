// Outside-in layer tracing for one single-machine nestsim stack.
//
// RunTraced builds Engine -> HardwareModel -> Kernel by hand, the way
// RunExperiment does, but hands the kernel forwarding decorators of the
// public virtual seams (SchedulerPolicy, Governor, KernelObserver) that count
// and time every call. Nothing inside the program is instrumented: a layer's
// time is what its calls cost as seen from the seam, and everything else the
// event loop spends is reported as unattributed (engine + kernel + hardware).
//
// Spans nest (an observer callback can fire inside a policy call), so each
// span records self time: its duration minus the spans it contains.

#ifndef NESTBENCH_SRC_TRACED_STACK_H_
#define NESTBENCH_SRC_TRACED_STACK_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/core/experiment.h"
#include "src/core/workload.h"
#include "src/kernel/governor.h"
#include "src/kernel/observer.h"
#include "src/kernel/policy.h"

namespace nestbench {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

// The seams a span can be charged to.
enum Layer : int {
  kPolicyFork,       // SchedulerPolicy::SelectCpuFork
  kPolicyWake,       // SchedulerPolicy::SelectCpuWake
  kPolicyTick,       // SchedulerPolicy::OnTick
  kPolicyHooks,      // every other SchedulerPolicy virtual
  kGovernorRequest,  // Governor::RequestGhz / RequestGhzOn
  kGovernorOther,    // every other Governor virtual
  kObserver,         // the program's observers (the set RunExperiment attaches)
  kRecorder,         // the benchmark's own busy/idle recorder
  kNumLayers,
};

struct LayerStat {
  uint64_t calls = 0;
  uint64_t self_ns = 0;
};

// Per-run span bookkeeping. Single-threaded: the traced stack runs the
// serial loop on the calling thread.
class Ledger {
 public:
  const LayerStat& stat(Layer layer) const { return stats_[layer]; }
  uint64_t AttributedNs() const;

  // Placement outcomes: whether the chosen CPU was idle, and for wakeups
  // whether it was the task's previous CPU. Deterministic for a seed.
  uint64_t selections = 0;
  uint64_t selections_idle = 0;
  uint64_t wakes = 0;
  uint64_t wakes_prev_cpu = 0;

 private:
  friend class Span;
  static constexpr int kMaxDepth = 32;
  std::array<LayerStat, kNumLayers> stats_{};
  std::array<uint64_t, kMaxDepth> child_ns_{};
  int depth_ = 0;
};

class Span {
 public:
  Span(Ledger* ledger, Layer layer);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Ledger* ledger_;
  Layer layer_;
  uint64_t start_ns_;
};

class TimedPolicy final : public nestsim::SchedulerPolicy {
 public:
  TimedPolicy(std::unique_ptr<nestsim::SchedulerPolicy> inner, Ledger* ledger)
      : inner_(std::move(inner)), ledger_(ledger) {}

  void Attach(nestsim::Kernel* kernel) override;
  const char* name() const override { return inner_->name(); }
  int SelectCpuFork(nestsim::Task& child, int parent_cpu) override;
  int SelectCpuWake(nestsim::Task& task, const nestsim::WakeContext& ctx) override;
  void OnTaskEnqueued(nestsim::Task& task, int cpu) override;
  void OnTaskExit(nestsim::Task& task, int cpu) override;
  int IdleSpinTicks(int cpu) override;
  void OnTick() override;
  void OnCpuOffline(int cpu) override;
  void OnCpuOnline(int cpu) override;
  bool UsesPlacementReservation() const override;
  bool WantsCacheWarmth() const override;
  int NestMembership(int cpu) const override;

 private:
  void CountSelection(int cpu);

  std::unique_ptr<nestsim::SchedulerPolicy> inner_;
  Ledger* ledger_;
};

class TimedGovernor final : public nestsim::Governor {
 public:
  TimedGovernor(std::unique_ptr<nestsim::Governor> inner, Ledger* ledger)
      : inner_(std::move(inner)), ledger_(ledger) {}

  const char* name() const override { return inner_->name(); }
  double RequestGhz(const nestsim::MachineSpec& spec, double cpu_util) const override;
  double RequestGhzOn(const nestsim::MachineSpec& spec, double cpu_util, int cpu) const override;
  void AttachHardware(const nestsim::HardwareModel* hw) override;
  double BudgetWatts() const override;
  bool ThrottledOnSocket(int socket) const override;
  double CapGhzOn(const nestsim::MachineSpec& spec, int cpu) const override;

 private:
  std::unique_ptr<nestsim::Governor> inner_;
  Ledger* ledger_;
};

// Forwards only the callbacks `inner` subscribed to, so the kernel's
// dispatch lists are exactly what they would be without the decorator.
class TimedObserver final : public nestsim::KernelObserver {
 public:
  TimedObserver(nestsim::KernelObserver* inner, Ledger* ledger, Layer layer)
      : inner_(inner), ledger_(ledger), layer_(layer) {}
  TimedObserver(const TimedObserver&) = delete;
  TimedObserver& operator=(const TimedObserver&) = delete;

  uint32_t InterestMask() const override { return inner_->InterestMask(); }
  void OnTaskCreated(nestsim::SimTime now, const nestsim::Task& task) override;
  void OnTaskEnqueued(nestsim::SimTime now, const nestsim::Task& task, int cpu) override;
  void OnContextSwitch(nestsim::SimTime now, int cpu, const nestsim::Task* prev,
                       const nestsim::Task* next) override;
  void OnCpuSpeedChange(nestsim::SimTime now, int cpu) override;
  void OnTaskBlocked(nestsim::SimTime now, const nestsim::Task& task, int cpu) override;
  void OnTaskExit(nestsim::SimTime now, const nestsim::Task& task) override;
  void OnTick(nestsim::SimTime now) override;
  void OnTaskPlaced(nestsim::SimTime now, const nestsim::Task& task, int cpu,
                    bool is_fork) override;
  void OnReservationCollision(nestsim::SimTime now, const nestsim::Task& task, int cpu) override;
  void OnTaskMigrated(nestsim::SimTime now, const nestsim::Task& task, int from_cpu, int to_cpu,
                      nestsim::MigrationReason reason) override;
  void OnNestEvent(nestsim::SimTime now, nestsim::NestEventKind kind, int cpu) override;
  void OnIdleSpinStart(nestsim::SimTime now, int cpu, int max_ticks) override;
  void OnIdleSpinEnd(nestsim::SimTime now, int cpu, bool became_busy) override;
  void OnCoreFreqChange(nestsim::SimTime now, int phys_core, double freq_ghz) override;
  void OnCacheEvent(nestsim::SimTime now, const nestsim::Task& task, nestsim::CacheEventKind kind,
                    int cpu, double warmth) override;
  void OnFaultEvent(nestsim::SimTime now, nestsim::FaultEventKind kind, int cpu,
                    const nestsim::Task* task) override;
  void OnBudgetState(nestsim::SimTime now, int socket, double headroom_w,
                     bool throttled) override;

 private:
  nestsim::KernelObserver* inner_;
  Ledger* ledger_;
  Layer layer_;
};

// One hardware-thread busy/idle flip as the hardware model saw it: a task
// started or stopped running, or a Nest idle spin kept the core busy.
struct BusyTransition {
  nestsim::SimTime time = 0;
  int cpu = 0;
  bool busy = false;
};

struct TracedRun {
  nestsim::ExperimentResult result;  // the fields RunExperiment fills for this config
  Ledger ledger;
  std::string policy_key;            // "cfs", "nest", "smove", ...
  uint64_t total_ns = 0;             // construction through result harvest
  uint64_t step_ns = 0;              // the Engine::Step loop
  uint64_t loop_attributed_ns = 0;   // span self time inside that loop
  uint64_t pending_max = 0;          // most events ever queued after a Step
  uint64_t setup_ns = 0;             // Workload::Setup
  uint64_t plan_ns = 0;              // RequestWorkload::BuildPlan, else == setup_ns
  uint64_t plan_parts = 0;           // plan parts, else tasks Setup spawned
  std::vector<BusyTransition> transitions;
};

// Runs `workload` under `config` on the hand-built decorated stack. Throws
// std::invalid_argument for configs whose RunExperiment path attaches more
// than the standard observers (faults, replicas, traces, latency, oracle,
// decision export), since the trace would then not be like for like.
TracedRun RunTraced(const nestsim::ExperimentConfig& config, const nestsim::Workload& workload);

// The simulated outputs RunExperiment and RunTraced must agree on. Returns
// "" when equal, otherwise the first differing field.
std::string ResultDifference(const nestsim::ExperimentResult& a,
                             const nestsim::ExperimentResult& b);

struct ReplayStats {
  uint64_t events = 0;
  uint64_t host_ns = 0;
  nestsim::SimTime sim_end = 0;
};

// Replays `transitions` through SetThreadBusy on a bare Engine+HardwareModel
// of `machine`, so the hardware layer's DVFS/power cost is timed alone.
ReplayStats ReplayHardware(const std::string& machine,
                           const std::vector<BusyTransition>& transitions);

}  // namespace nestbench

#endif  // NESTBENCH_SRC_TRACED_STACK_H_
