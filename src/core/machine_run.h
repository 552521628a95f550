// The one run body. RunExperiment drives one MachineRun on a one-domain
// DomainGroup; RunClusterExperiment (src/cluster/) drives N, machine i on
// domain i. Both run and harvest through RunMachines, so a 1-machine fleet
// measures exactly what the single-machine path measures.

#ifndef NESTSIM_SRC_CORE_MACHINE_RUN_H_
#define NESTSIM_SRC_CORE_MACHINE_RUN_H_

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/core/experiment.h"
#include "src/governors/governors.h"
#include "src/hw/machine_spec.h"
#include "src/kernel/kernel.h"
#include "src/metrics/freq_hist.h"
#include "src/metrics/underload.h"
#include "src/obs/sched_counters.h"
#include "src/sim/engine.h"
#include "src/sim/parallel.h"

namespace nestsim {

class InvariantChecker;
class PerfettoTraceWriter;
class WakeupLatencyTracker;

// One machine's full stack, members constructed in dependency order
// (hardware, policy, governor, kernel).
struct MachineModel {
  MachineModel(Engine* engine, const MachineSpec& spec, const ExperimentConfig& config)
      : hw(engine, spec),
        policy(MakeSchedulerPolicy(config)),
        governor(MakeGovernor(config.governor, config.power)),
        kernel(engine, &hw, policy.get(), governor.get(), config.kernel) {}

  HardwareModel hw;
  std::unique_ptr<SchedulerPolicy> policy;
  std::unique_ptr<Governor> governor;
  Kernel kernel;
};

// Observes task exits to record per-tag completion times.
class CompletionObserver : public KernelObserver {
 public:
  uint32_t InterestMask() const override { return kObsTaskExit; }

  void OnTaskExit(SimTime now, const Task& task) override {
    SimTime& last = tag_last_exit_[task.tag];
    last = std::max(last, now);
  }

  const std::map<int, SimTime>& tag_last_exit() const { return tag_last_exit_; }

 private:
  std::map<int, SimTime> tag_last_exit_;
};

// A machine stack with the standard observer set attached: completion,
// underload, frequency residency, counters, and — when switched on — the
// Perfetto writer, wakeup latency, invariant checker and resilience. The
// kernel is not started, so callers can attach their own observers first.
class MachineRun : public MachineModel {
 public:
  // `fleet_index` >= 0 marks machine i of a fleet: it suffixes the Perfetto
  // file stem with "-m<i>" and names the machine in invariant reports.
  // `config` must outlive the run.
  MachineRun(Engine* engine, const ExperimentConfig& config, int fleet_index = -1);
  ~MachineRun();

  // Tasks alive or open-loop arrivals still scheduled on this machine.
  bool live() const { return kernel.live_tasks() > 0 || kernel.pending_injections() > 0; }
  const std::map<int, SimTime>& tag_last_exit() const { return completion_.tag_last_exit(); }

  // False once the invariant checker (when attached) saw a violation.
  bool healthy() const;
  // Throws std::runtime_error carrying the checker report on a violation.
  void ThrowIfViolated() const;

  // Null unless config.record_latency.
  const WakeupLatencyTracker* latency() const { return latency_.get(); }

  // Adds this machine into *result as of `end` — sums, per-tag maxima,
  // fleet-wide CPU numbers, and on a fleet its result->cluster.machines row —
  // and writes the Perfetto file when tracing is on. Merging into an empty
  // result reproduces the machine exactly.
  void Finish(SimTime end, ExperimentResult* result);

 private:
  const ExperimentConfig& config_;
  const int fleet_index_;
  CompletionObserver completion_;
  UnderloadTracker underload_;
  FreqResidencyTracker freq_;
  SchedCounterRecorder counters_;
  std::string trace_dir_;
  std::unique_ptr<PerfettoTraceWriter> perfetto_;
  std::unique_ptr<WakeupLatencyTracker> latency_;
  std::unique_ptr<InvariantChecker> checker_;
  std::unique_ptr<ResilienceRecorder> resilience_;
};

// The one run loop and harvest: drives `group` on config.parallel's executor
// until `live` goes false, config.time_limit passes or config.should_abort
// fires (`lockstep` forces the merged loop, as zero-lookahead feedback
// needs), throws the first machine's invariant report, then Finishes every
// machine at the makespan: underload is the machine mean and wakeup-latency
// percentiles pool every machine's samples.
ExperimentResult RunMachines(DomainGroup& group, const std::vector<MachineRun*>& machines,
                             const ExperimentConfig& config, const std::function<bool()>& live,
                             bool lockstep);

}  // namespace nestsim

#endif  // NESTSIM_SRC_CORE_MACHINE_RUN_H_
