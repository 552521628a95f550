#include "src/cluster/cluster.h"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>

#include "src/cluster/router.h"
#include "src/metrics/latency.h"
#include "src/metrics/stats.h"
#include "src/workloads/requests.h"

namespace nestsim {

ClusterModel::ClusterModel(DomainGroup* group, const ExperimentConfig& config, int machines) {
  machines_.reserve(static_cast<size_t>(machines));
  for (int m = 0; m < machines; ++m) {
    machines_.push_back(std::make_unique<MachineRun>(&group->domain(m), config, m));
    kernels_.push_back(&machines_.back()->kernel);
    hardware_.push_back(&machines_.back()->hw);
  }
}

namespace {

// Progress of one injected request-part *copy* (parts map 1:1 to copies
// unless fault.replicas spreads each part across machines), shared between
// the per-machine trackers and the final report.
struct PartProgress {
  SimTime first_run = -1;  // first time the copy's task got a CPU
  SimTime exit = -1;       // task exit (stays -1 for killed/reaped copies)
  bool killed = false;     // a core/machine fault killed the copy
  bool dropped = false;    // no machine was alive to route the copy to
};

// Maps this machine's injected tids to plan copy indices and records when
// each copy first ran and when it exited or was killed by a fault. Purely
// observational; the optional exit hook is how the runner's replica-quorum
// bookkeeping learns about completions.
class RequestTracker : public KernelObserver {
 public:
  using ExitFn = std::function<void(size_t copy_index, SimTime now)>;

  explicit RequestTracker(std::vector<PartProgress>* progress) : progress_(progress) {}

  void set_exit_fn(ExitFn fn) { exit_fn_ = std::move(fn); }

  uint32_t InterestMask() const override {
    return kObsContextSwitch | kObsTaskExit | kObsFaultEvent;
  }

  void Track(int tid, size_t copy_index) { parts_by_tid_[tid] = copy_index; }

  void OnContextSwitch(SimTime now, int cpu, const Task* prev, const Task* next) override {
    (void)cpu;
    (void)prev;
    if (next == nullptr) {
      return;
    }
    const auto it = parts_by_tid_.find(next->tid);
    if (it != parts_by_tid_.end() && (*progress_)[it->second].first_run < 0) {
      (*progress_)[it->second].first_run = now;
    }
  }

  void OnTaskExit(SimTime now, const Task& task) override {
    const auto it = parts_by_tid_.find(task.tid);
    if (it != parts_by_tid_.end()) {
      (*progress_)[it->second].exit = now;
      if (exit_fn_) {
        exit_fn_(it->second, now);
      }
    }
  }

  void OnFaultEvent(SimTime now, FaultEventKind kind, int cpu, const Task* task) override {
    (void)now;
    (void)cpu;
    // Only fault kills mark a copy as lost; post-quorum reaping
    // (kReplicaReaped) is the success path, not degradation.
    if (kind != FaultEventKind::kTaskKilled || task == nullptr) {
      return;
    }
    const auto it = parts_by_tid_.find(task->tid);
    if (it != parts_by_tid_.end()) {
      (*progress_)[it->second].killed = true;
    }
  }

 private:
  std::vector<PartProgress>* progress_;
  std::unordered_map<int, size_t> parts_by_tid_;
  ExitFn exit_fn_;
};

}  // namespace

ExperimentResult RunClusterExperiment(const ClusterSpec& cluster, const ExperimentConfig& config,
                                      const Workload& workload) {
  const auto* requests = dynamic_cast<const RequestWorkload*>(&workload);
  if (requests == nullptr) {
    throw std::runtime_error("cluster runs need a \"requests\" workload, got " + workload.name());
  }
  std::unique_ptr<RequestRouter> router = MakeRouter(cluster.router);
  if (router == nullptr) {
    throw std::runtime_error("unknown cluster router \"" + cluster.router + "\"");
  }
  if (cluster.machines < 1) {
    throw std::runtime_error("cluster needs at least one machine");
  }

  // One PDES domain per machine plus the coordinator timeline for arrivals
  // and reaps; the digest is identical at any worker count.
  const int n = cluster.machines;
  DomainGroup group(n);
  ClusterModel model(&group, config, n);

  // The standard observer set rides on every MachineRun; the fleet adds one
  // request tracker per machine.
  std::vector<PartProgress> progress;
  std::vector<std::unique_ptr<RequestTracker>> trackers;
  std::vector<MachineRun*> machines;
  for (int m = 0; m < n; ++m) {
    Kernel& kernel = model.machine(m).kernel;
    trackers.push_back(std::make_unique<RequestTracker>(&progress));
    kernel.AddObserver(trackers.back().get());
    kernel.Start();
    machines.push_back(&model.machine(m));
  }

  // Same stream the single-machine Setup path uses: one Fork() off the seed.
  Rng rng(config.seed);
  Rng wl_rng = rng.Fork();
  const RequestPlan plan = requests->BuildPlan(wl_rng);
  // Each part is injected as `replicas` copies (1 unless configured); the
  // first `quorum` copies to exit win and the rest are reaped fleet-wide.
  const int replicas = std::max(1, config.fault.replicas);
  const int quorum = std::min(std::max(1, config.fault.quorum), replicas);
  progress.resize(plan.parts.size() * static_cast<size_t>(replicas));

  // The fault plan is drawn after the traffic plan from a forked generator —
  // second fork off the seed, exactly like the single-machine path — so
  // enabling faults perturbs no workload draw. Each machine replays its own
  // slice; whole-machine crashes are handled here (kill every live task, mark
  // the machine dead for the router) because only the runner sees the fleet.
  std::vector<char> alive(static_cast<size_t>(n), 1);
  FaultPlan fault_plan;
  std::vector<std::unique_ptr<FaultInjector>> injectors;
  if (config.fault.enabled()) {
    Rng fault_rng = rng.Fork();
    fault_plan = BuildFaultPlan(config.fault, fault_rng, n,
                                model.machine(0).hw.topology().num_cpus(), config.time_limit);
    for (int m = 0; m < n; ++m) {
      // Each machine's slice of the plan replays on that machine's own
      // domain engine: crashes, repairs, and core faults are domain-local
      // events (only alive[], read by the coordinator's arrivals, leaks out,
      // and windows are committed before every arrival).
      injectors.push_back(std::make_unique<FaultInjector>(&group.domain(m),
                                                          &model.machine(m).kernel, &fault_plan, m));
      injectors.back()->set_machine_event_fn([&model, &alive, m](SimTime now, bool fail) {
        (void)now;
        if (!fail) {
          alive[static_cast<size_t>(m)] = 1;  // repaired: routable again, empty
          return;
        }
        if (!alive[static_cast<size_t>(m)]) {
          return;
        }
        alive[static_cast<size_t>(m)] = 0;
        Kernel& kernel = model.machine(m).kernel;
        kernel.NotifyFaultEvent(FaultEventKind::kMachineCrash, -1, nullptr);
        for (const auto& task : kernel.tasks()) {
          kernel.KillTask(task.get());
        }
      });
      injectors.back()->Arm();
    }
  }

  // Replica-quorum bookkeeping (replicas > 1 only): when a part's quorum-th
  // copy exits, the losers are reaped in a same-time follow-up event (never
  // from inside the winner's exit path).
  struct CopyRef {
    Kernel* kernel = nullptr;
    Task* task = nullptr;
  };
  std::vector<CopyRef> copy_refs;
  std::vector<int> part_exits;
  std::vector<SimTime> part_quorum_exit;
  if (replicas > 1) {
    copy_refs.resize(progress.size());
    part_exits.assign(plan.parts.size(), 0);
    part_quorum_exit.assign(plan.parts.size(), -1);
  }
  // The reap is a cross-domain event (losing copies live on other machines),
  // so it rides the coordinator. Scheduling it from inside a domain's exit
  // event is a zero-lookahead feedback edge — which is why replicas > 1
  // forces the lockstep executor below.
  auto on_copy_exit = [&group, &copy_refs, &part_exits, &part_quorum_exit, replicas,
                       quorum](size_t copy, SimTime now) {
    const size_t part = copy / static_cast<size_t>(replicas);
    if (++part_exits[part] != quorum || part_quorum_exit[part] >= 0) {
      return;
    }
    part_quorum_exit[part] = now;
    // Mirror the kernel-side replica path: the winning copy's machine logs
    // the quorum join so SchedCounters sees it in cluster runs too.
    if (copy_refs[copy].kernel != nullptr) {
      copy_refs[copy].kernel->NotifyFaultEvent(FaultEventKind::kReplicaQuorumJoin, -1, nullptr);
    }
    group.ScheduleCoordinator(now, [&copy_refs, part, replicas] {
      for (int r = 0; r < replicas; ++r) {
        const CopyRef& ref = copy_refs[part * static_cast<size_t>(replicas) + static_cast<size_t>(r)];
        if (ref.task != nullptr && ref.task->state != TaskState::kDead) {
          ref.kernel->KillTask(ref.task, FaultEventKind::kReplicaReaped);
        }
      }
    });
  };
  if (replicas > 1) {
    for (auto& tracker : trackers) {
      tracker->set_exit_fn(on_copy_exit);
    }
  }

  // One coordinator event per part, scheduled in plan (arrival) order — the
  // same insertion order Kernel::ScheduleInjection would produce, so a
  // 1-machine passthrough cluster replays the exact single-machine event
  // sequence. The router runs inside the arrival event so load-aware
  // policies see live state — every domain clock is committed to the arrival
  // instant before it fires; the traffic itself was drawn above and cannot
  // be perturbed. Dead machines are failed over to the next alive one in
  // index order; a copy with no alive machine at all is dropped (and its
  // request fails).
  int64_t pending = static_cast<int64_t>(plan.parts.size());
  std::vector<uint64_t> routed(static_cast<size_t>(n), 0);
  const int tag = requests->tag();
  for (size_t i = 0; i < plan.parts.size(); ++i) {
    const RequestPart& part = plan.parts[i];
    group.ScheduleCoordinator(part.arrival, [&model, &plan, &routed, &trackers, &router, &pending,
                                             &alive, &progress, &copy_refs, tag, i, replicas, n] {
      --pending;
      const RequestPart& p = plan.parts[i];
      for (int r = 0; r < replicas; ++r) {
        const size_t copy = i * static_cast<size_t>(replicas) + static_cast<size_t>(r);
        int m = router->Route(model.kernels(), model.hardware());
        if (!alive[static_cast<size_t>(m)]) {
          const int first = m;
          do {
            m = m + 1 < n ? m + 1 : 0;
          } while (!alive[static_cast<size_t>(m)] && m != first);
          if (!alive[static_cast<size_t>(m)]) {
            progress[copy].dropped = true;
            continue;
          }
        }
        ++routed[static_cast<size_t>(m)];
        std::string name = p.name;
        if (r > 0) {
          name += ".r" + std::to_string(r);
        }
        Task* task = model.machine(m).kernel.InjectTask(p.program, std::move(name), tag);
        trackers[static_cast<size_t>(m)]->Track(task->tid, copy);
        if (replicas > 1) {
          copy_refs[copy] = CopyRef{&model.machine(m).kernel, task};
        }
      }
    });
  }

  auto fleet_live = [&] {
    return pending > 0 || std::any_of(machines.begin(), machines.end(),
                                      [](const MachineRun* m) { return m->live(); });
  };
  // Replication's quorum reaps are same-instant cross-domain feedback (zero
  // lookahead), so they force the lockstep executor regardless of sync mode.
  ExperimentResult result =
      RunMachines(group, machines, config, fleet_live, /*lockstep=*/replicas > 1);

  // ---- Serving metrics. ----
  ClusterStats& stats = result.cluster;
  stats.num_machines = n;
  stats.router = router->name();
  stats.requests_offered = plan.requests;

  // A request completes when every part (parent + fan-out subs) exited — with
  // replicas, when every part reached its quorum. Parts are plan-ordered
  // request-major, so one linear walk groups them. A request a fault touched
  // (a copy killed or dropped) counts as *failed* when it never completed and
  // as *degraded* when the surviving copies still completed it.
  LatencyDistribution e2e_ms;
  std::vector<double> queue_ms;
  std::vector<double> service_ms;
  size_t i = 0;
  while (i < plan.parts.size()) {
    const uint64_t req = plan.parts[i].request;
    const SimTime arrival = plan.parts[i].arrival;
    bool complete = true;
    bool fault_touched = false;
    SimTime req_last_exit = 0;
    while (i < plan.parts.size() && plan.parts[i].request == req) {
      SimTime part_exit = -1;
      for (int r = 0; r < replicas; ++r) {
        const PartProgress& p = progress[i * static_cast<size_t>(replicas) + static_cast<size_t>(r)];
        fault_touched = fault_touched || p.killed || p.dropped;
        if (p.exit >= 0 && p.first_run >= 0) {
          queue_ms.push_back(ToMilliseconds(p.first_run - arrival));
          service_ms.push_back(ToMilliseconds(p.exit - p.first_run));
        }
      }
      part_exit = replicas > 1 ? part_quorum_exit[i] : progress[i].exit;
      if (part_exit < 0) {
        complete = false;
      } else {
        req_last_exit = std::max(req_last_exit, part_exit);
      }
      ++i;
    }
    if (complete) {
      ++stats.requests_completed;
      e2e_ms.Add(ToMilliseconds(req_last_exit - arrival));
      if (fault_touched && config.fault.any()) {
        ++result.resilience.requests_degraded;
      }
    } else if (fault_touched && config.fault.any()) {
      ++result.resilience.requests_failed;
    }
  }
  stats.p50_ms = e2e_ms.PercentileAt(50.0);
  stats.p99_ms = e2e_ms.PercentileAt(99.0);
  stats.p999_ms = e2e_ms.PercentileAt(99.9);
  stats.mean_ms = e2e_ms.mean();
  stats.max_ms = e2e_ms.max();
  stats.mean_queue_ms = Mean(queue_ms);
  stats.mean_service_ms = Mean(service_ms);

  // Each machine's Finish appended its utilisation/underload row.
  for (int m = 0; m < n; ++m) {
    stats.machines[static_cast<size_t>(m)].requests_routed = routed[static_cast<size_t>(m)];
  }
  return result;
}

}  // namespace nestsim
