// Deterministic fault injection and resilience accounting.
//
// A FaultPlan is pre-drawn from the scenario seed, so enabling faults cannot
// perturb any workload draw: the plan's generator is forked from the run
// Rng *after* workload setup, and a disabled spec draws nothing at all. The
// FaultInjector replays one machine's slice of the plan against a live
// kernel via Kernel::OfflineCpu/OnlineCpu; machine-level crash events are
// delegated to the cluster runner (src/cluster/), which owns router failover.
//
// Semantics and the metric glossary live in docs/FAULTS.md.

#ifndef NESTSIM_SRC_FAULT_FAULT_H_
#define NESTSIM_SRC_FAULT_FAULT_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/kernel/kernel.h"
#include "src/kernel/observer.h"
#include "src/sim/engine.h"
#include "src/sim/random.h"
#include "src/sim/time.h"

namespace nestsim {

// Fault & replication knobs on ExperimentConfig. Failures are Poisson
// processes per machine (exponential gaps); a downtime of 0 means the
// failure is permanent for the run. Everything defaults off.
struct FaultSpec {
  // Core failures: rate per machine per simulated second; the victim CPU is
  // drawn uniformly at plan time. A failure whose victim is already offline,
  // or is the last online core, is skipped at execution time.
  double core_fail_rate_per_s = 0.0;
  double core_downtime_ms = 0.0;  // 0 == permanent

  // Whole-machine crashes (cluster runs only; ignored on one machine).
  double machine_fail_rate_per_s = 0.0;
  double machine_downtime_ms = 0.0;  // 0 == permanent

  // Horizon the plan covers, seconds; 0 uses the config time limit.
  double horizon_s = 0.0;

  // Replication of request parts, fleet runs only (src/cluster/cluster.cc;
  // one machine replicates as a 1-machine fleet): each part is routed as
  // `replicas` copies of the same drawn program; the first `quorum` exits
  // win and the rest are reaped. replicas <= 1 disables; quorum 0 means 1.
  int replicas = 1;
  int quorum = 0;

  // Whether any failure process is active (replication alone does not need a
  // plan).
  bool enabled() const { return core_fail_rate_per_s > 0.0 || machine_fail_rate_per_s > 0.0; }
  bool any() const { return enabled() || replicas > 1; }
};

// One pre-drawn fault event. `seq` breaks time ties deterministically in the
// order the events were drawn.
struct FaultPlanEvent {
  enum class Kind { kCoreFail, kCoreRepair, kMachineFail, kMachineRepair };
  SimTime time = 0;
  Kind kind = Kind::kCoreFail;
  int machine = 0;
  int cpu = -1;  // victim CPU for core events; -1 for machine events
  uint64_t seq = 0;
};

struct FaultPlan {
  std::vector<FaultPlanEvent> events;  // sorted by (time, seq)
  bool empty() const { return events.empty(); }
};

// Pre-draws every fault event over [0, horizon). All randomness comes from
// `rng` (fork it from the run Rng after workload setup); the draw order is
// fixed — per machine: core gaps+victims, then machine gaps — so the plan is
// a pure function of (spec, seed, num_machines, num_cpus, horizon).
FaultPlan BuildFaultPlan(const FaultSpec& spec, Rng& rng, int num_machines, int num_cpus,
                         SimTime horizon);

// Replays one machine's slice of a FaultPlan against a live kernel. Core
// events call Kernel::OfflineCpu/OnlineCpu; machine events invoke the
// machine-event hook when one is set (the cluster runner's failover path)
// and are ignored otherwise (a single machine cannot crash wholesale).
class FaultInjector {
 public:
  // `fail` is true for kMachineFail, false for kMachineRepair.
  using MachineEventFn = std::function<void(SimTime now, bool fail)>;

  FaultInjector(Engine* engine, Kernel* kernel, const FaultPlan* plan, int machine = 0)
      : engine_(engine), kernel_(kernel), plan_(plan), machine_(machine) {}

  void set_machine_event_fn(MachineEventFn fn) { machine_event_fn_ = std::move(fn); }

  // Schedules every event of this machine on the engine. Call once, after
  // Kernel::Start.
  void Arm();

 private:
  Engine* engine_;
  Kernel* kernel_;
  const FaultPlan* plan_;
  int machine_;
  MachineEventFn machine_event_fn_;
};

// Per-run resilience metrics (docs/FAULTS.md). Everything zero unless faults
// or replicas fired; consumers omit the block when !any() so pre-fault golden
// digests are untouched.
struct ResilienceStats {
  uint64_t tasks_killed = 0;     // died with a core/machine (fault kills only)
  uint64_t replicas_reaped = 0;  // losers killed after their group's quorum
  double work_lost_ms = 0.0;     // CPU time invested in fault-killed tasks
  double wasted_replica_ms = 0.0;  // CPU time invested in reaped replicas
  uint64_t evacuations = 0;        // displaced tasks that got a CPU again
  double mean_evac_latency_us = 0.0;  // displacement -> next dispatch
  double max_evac_latency_us = 0.0;
  // Cluster-only (src/cluster/): requests that never completed because a
  // fault killed a part vs. requests that completed with a replica copy lost.
  uint64_t requests_failed = 0;
  uint64_t requests_degraded = 0;

  bool any() const {
    return tasks_killed != 0 || replicas_reaped != 0 || evacuations != 0 ||
           requests_failed != 0 || requests_degraded != 0;
  }
  void Add(const ResilienceStats& other);
};

// Observes fault events and dispatches to build a ResilienceStats. Purely
// observational; only attached when config.fault.any().
class ResilienceRecorder : public KernelObserver {
 public:
  uint32_t InterestMask() const override { return kObsFaultEvent | kObsContextSwitch; }

  void OnFaultEvent(SimTime now, FaultEventKind kind, int cpu, const Task* task) override {
    (void)now;
    (void)cpu;
    switch (kind) {
      case FaultEventKind::kTaskKilled:
        ++stats_.tasks_killed;
        work_lost_ns_ += static_cast<double>(task->total_runtime);
        break;
      case FaultEventKind::kReplicaReaped:
        ++stats_.replicas_reaped;
        wasted_ns_ += static_cast<double>(task->total_runtime);
        break;
      default:
        break;
    }
  }

  void OnContextSwitch(SimTime now, int cpu, const Task* prev, const Task* next) override {
    (void)cpu;
    (void)prev;
    if (next != nullptr && next->evacuated_at >= 0) {
      const double latency_ns = static_cast<double>(now - next->evacuated_at);
      ++stats_.evacuations;
      evac_sum_ns_ += latency_ns;
      evac_max_ns_ = latency_ns > evac_max_ns_ ? latency_ns : evac_max_ns_;
    }
  }

  ResilienceStats Finish() const {
    ResilienceStats out = stats_;
    out.work_lost_ms = work_lost_ns_ / 1e6;
    out.wasted_replica_ms = wasted_ns_ / 1e6;
    if (out.evacuations > 0) {
      out.mean_evac_latency_us = evac_sum_ns_ / static_cast<double>(out.evacuations) / 1e3;
      out.max_evac_latency_us = evac_max_ns_ / 1e3;
    }
    return out;
  }

 private:
  ResilienceStats stats_;
  double work_lost_ns_ = 0.0;
  double wasted_ns_ = 0.0;
  double evac_sum_ns_ = 0.0;
  double evac_max_ns_ = 0.0;
};

}  // namespace nestsim

#endif  // NESTSIM_SRC_FAULT_FAULT_H_
