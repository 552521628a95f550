#include "src/fault/fault.h"

#include <algorithm>

namespace nestsim {

namespace {

SimTime SecondsToSim(double seconds) {
  return static_cast<SimTime>(seconds * static_cast<double>(kSecond));
}

}  // namespace

FaultPlan BuildFaultPlan(const FaultSpec& spec, Rng& rng, int num_machines, int num_cpus,
                         SimTime horizon) {
  FaultPlan plan;
  if (!spec.enabled() || horizon <= 0) {
    return plan;
  }
  if (spec.horizon_s > 0.0) {
    horizon = std::min(horizon, SecondsToSim(spec.horizon_s));
  }
  uint64_t seq = 0;
  auto push = [&plan, &seq](SimTime time, FaultPlanEvent::Kind kind, int machine, int cpu) {
    plan.events.push_back(FaultPlanEvent{time, kind, machine, cpu, seq++});
  };
  // Fixed draw order — per machine: every core-failure arrival (gap then
  // victim), then every machine-crash arrival — so the plan depends only on
  // (spec, rng seed, num_machines, num_cpus, horizon).
  for (int machine = 0; machine < num_machines; ++machine) {
    if (spec.core_fail_rate_per_s > 0.0) {
      const double mean_gap_s = 1.0 / spec.core_fail_rate_per_s;
      double t_s = rng.NextExponential(mean_gap_s);
      while (SecondsToSim(t_s) < horizon) {
        const SimTime t = SecondsToSim(t_s);
        const int victim = static_cast<int>(rng.NextBounded(static_cast<uint64_t>(num_cpus)));
        push(t, FaultPlanEvent::Kind::kCoreFail, machine, victim);
        if (spec.core_downtime_ms > 0.0) {
          push(t + SecondsToSim(spec.core_downtime_ms / 1e3), FaultPlanEvent::Kind::kCoreRepair,
               machine, victim);
        }
        t_s += rng.NextExponential(mean_gap_s);
      }
    }
    if (spec.machine_fail_rate_per_s > 0.0) {
      const double mean_gap_s = 1.0 / spec.machine_fail_rate_per_s;
      double t_s = rng.NextExponential(mean_gap_s);
      while (SecondsToSim(t_s) < horizon) {
        const SimTime t = SecondsToSim(t_s);
        push(t, FaultPlanEvent::Kind::kMachineFail, machine, -1);
        if (spec.machine_downtime_ms > 0.0) {
          push(t + SecondsToSim(spec.machine_downtime_ms / 1e3),
               FaultPlanEvent::Kind::kMachineRepair, machine, -1);
        }
        t_s += rng.NextExponential(mean_gap_s);
      }
    }
  }
  std::sort(plan.events.begin(), plan.events.end(),
            [](const FaultPlanEvent& a, const FaultPlanEvent& b) {
              return a.time != b.time ? a.time < b.time : a.seq < b.seq;
            });
  return plan;
}

void FaultInjector::Arm() {
  for (const FaultPlanEvent& ev : plan_->events) {
    if (ev.machine != machine_) {
      continue;
    }
    switch (ev.kind) {
      case FaultPlanEvent::Kind::kCoreFail:
        // OfflineCpu refuses (deterministically) when the victim is already
        // offline or is the last online core — the failure is then a no-op.
        engine_->ScheduleAt(ev.time, [this, cpu = ev.cpu] { kernel_->OfflineCpu(cpu); });
        break;
      case FaultPlanEvent::Kind::kCoreRepair:
        engine_->ScheduleAt(ev.time, [this, cpu = ev.cpu] { kernel_->OnlineCpu(cpu); });
        break;
      case FaultPlanEvent::Kind::kMachineFail:
      case FaultPlanEvent::Kind::kMachineRepair:
        if (machine_event_fn_) {
          engine_->ScheduleAt(ev.time, [this, fail = ev.kind == FaultPlanEvent::Kind::kMachineFail,
                                        time = ev.time] { machine_event_fn_(time, fail); });
        }
        break;
    }
  }
}

void ResilienceStats::Add(const ResilienceStats& other) {
  // Evacuation latencies merge as (weighted mean, max) — counts weight the
  // means so per-machine aggregation matches a single-recorder run. Merging
  // into an empty side copies the mean exactly.
  const uint64_t total = evacuations + other.evacuations;
  if (total > 0) {
    mean_evac_latency_us =
        evacuations == 0
            ? other.mean_evac_latency_us
            : (mean_evac_latency_us * static_cast<double>(evacuations) +
               other.mean_evac_latency_us * static_cast<double>(other.evacuations)) /
                  static_cast<double>(total);
    max_evac_latency_us = std::max(max_evac_latency_us, other.max_evac_latency_us);
  }
  evacuations = total;
  tasks_killed += other.tasks_killed;
  replicas_reaped += other.replicas_reaped;
  work_lost_ms += other.work_lost_ms;
  wasted_replica_ms += other.wasted_replica_ms;
  requests_failed += other.requests_failed;
  requests_degraded += other.requests_degraded;
}

}  // namespace nestsim
