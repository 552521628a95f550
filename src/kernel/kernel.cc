#include "src/kernel/kernel.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "src/sim/log.h"

namespace nestsim {

Kernel::Kernel(Engine* engine, HardwareModel* hw, SchedulerPolicy* policy, Governor* governor)
    : Kernel(engine, hw, policy, governor, Params{}) {}

Kernel::Kernel(Engine* engine, HardwareModel* hw, SchedulerPolicy* policy, Governor* governor,
               Params params)
    : engine_(engine),
      hw_(hw),
      policy_(policy),
      governor_(governor),
      params_(params),
      // First mask-filling member: DomainTree rejects a machine wider than a
      // CpuMask before the idle/overloaded masks or the policy see it.
      domains_(hw->topology()),
      cpus_(hw->topology().num_cpus()) {
  policy_->Attach(this);
  cache_tracking_ = params_.cache.enabled() || policy_->WantsCacheWarmth();
  online_cpus_ = hw->topology().num_cpus();
  for (int cpu = 0; cpu < hw->topology().num_cpus(); ++cpu) {
    idle_cpus_.Set(cpu);  // every run queue starts empty
  }
}

void Kernel::AddObserver(KernelObserver* observer) {
  observers_.push_back(observer);
  const uint32_t mask = observer->InterestMask();
  for (int bit = 0; bit < kNumObserverEvents; ++bit) {
    if ((mask & (1u << bit)) != 0) {
      dispatch_[bit].push_back(observer);
    }
  }
}

void Kernel::Start() {
  assert(!started_);
  started_ = true;
  hw_->set_freq_request_fn([this](int cpu) { return GovernorRequestGhz(cpu); });
  hw_->set_speed_change_fn([this](int cpu) { OnSpeedChange(cpu); });
  hw_->set_freq_change_fn([this](int phys, double ghz) {
    for (KernelObserver* obs : observers_for(kObsCoreFreqChange)) {
      obs->OnCoreFreqChange(engine_->Now(), phys, ghz);
    }
  });
  governor_->AttachHardware(hw_);
  if (governor_->BudgetWatts() > 0.0) {
    hw_->set_freq_cap_fn([this](int cpu) { return governor_->CapGhzOn(hw_->spec(), cpu); });
  }
  hw_->Start();
  engine_->ScheduleAfter(kTickPeriod, [this] { Tick(); });
}

// ---------------------------------------------------------------------------
// Task lifecycle
// ---------------------------------------------------------------------------

Task* Kernel::NewTask(ProgramPtr program, std::string name, int tag, Task* parent) {
  if (!buried_.empty()) {
    ReclaimBuried();
  }
  auto task = std::make_unique<Task>();
  task->tid = next_tid_++;
  task->name = std::move(name);
  task->tag = tag;
  task->program = std::move(program);
  task->parent = parent;
  task->created_at = engine_->Now();
  task->state = TaskState::kPlacing;
  if (cache_tracking_) {
    task->llc_warmth.resize(static_cast<size_t>(topology().num_sockets()));
  }
  Task* raw = tasks_.Add(std::move(task));
  ++live_tasks_;
  ++runnable_tasks_;
  if (parent != nullptr) {
    ++parent->live_children;
  }
  for (KernelObserver* obs : observers_for(kObsTaskCreated)) {
    obs->OnTaskCreated(engine_->Now(), *raw);
  }
  return raw;
}

Task* Kernel::SpawnInitial(ProgramPtr program, std::string name, int tag, int cpu) {
  assert(started_ && "call Start() before spawning tasks");
  if (root_cpu_ < 0) {
    root_cpu_ = cpu;
  }
  Task* task = NewTask(std::move(program), std::move(name), tag, /*parent=*/nullptr);
  task->placement_path = PlacementPath::kInitial;
  for (KernelObserver* obs : observers_for(kObsTaskPlaced)) {
    obs->OnTaskPlaced(engine_->Now(), *task, cpu, /*is_fork=*/true);
  }
  EnqueueTask(task, cpu, /*wakeup=*/false);
  return task;
}

Task* Kernel::InjectTask(ProgramPtr program, std::string name, int tag) {
  assert(started_ && "call Start() before injecting tasks");
  // A request arrives via interrupt on the boot CPU; placement history starts
  // there, mirroring how a fork starts at the parent's core.
  if (root_cpu_ < 0) {
    root_cpu_ = 0;
  }
  Task* task = NewTask(std::move(program), std::move(name), tag, /*parent=*/nullptr);
  task->prev_cpu = root_cpu_;
  const int cpu = policy_->SelectCpuFork(*task, task->prev_cpu);
  PlaceTask(task, cpu, /*is_fork=*/true);
  return task;
}

void Kernel::ScheduleInjection(SimTime when, ProgramPtr program, std::string name, int tag) {
  ++pending_injections_;
  // ProgramPtr is a shared_ptr, so the capture keeps the program alive.
  engine_->ScheduleAt(when, [this, program = std::move(program), name = std::move(name), tag]() mutable {
    --pending_injections_;
    InjectTask(std::move(program), std::move(name), tag);
  });
}

void Kernel::StreamInjections(InjectionSource next, int tag) {
  injection_streams_.push_back(std::make_unique<InjectionStream>(
      InjectionStream{std::move(next), {}, engine_->ReserveRank(), tag}));
  ScheduleStreamed(injection_streams_.back().get());
}

void Kernel::ScheduleStreamed(InjectionStream* stream) {
  if (!stream->next(&stream->pending)) {
    return;  // exhausted: the source no longer counts as pending
  }
  ++pending_injections_;
  engine_->ScheduleAtRank(stream->pending.when, stream->rank, [this, stream] {
    --pending_injections_;
    InjectTask(std::move(stream->pending.program), std::move(stream->pending.name), stream->tag);
    ScheduleStreamed(stream);
  });
}

void Kernel::ForkChild(Task& parent, ProgramPtr program) {
  Task* child = NewTask(program, parent.name + "+" + std::to_string(next_tid_), parent.tag, &parent);
  // A forked task starts its placement history at the parent's core.
  child->prev_cpu = parent.cpu;
  const int cpu = policy_->SelectCpuFork(*child, parent.cpu);
  PlaceTask(child, cpu, /*is_fork=*/true);
}

void Kernel::WakeTask(Task* task, int waker_cpu, bool sync) {
  if (task->state != TaskState::kBlocked) {
    return;  // already woken by another path
  }
  task->state = TaskState::kPlacing;
  task->block_reason = BlockReason::kNone;
  task->last_wakeup = engine_->Now();
  ++task->wakeups;
  ++runnable_tasks_;
  WakeContext ctx;
  ctx.waker_cpu = waker_cpu;
  ctx.sync = sync;
  const int cpu = policy_->SelectCpuWake(*task, ctx);
  PlaceTask(task, cpu, /*is_fork=*/false);
}

void Kernel::PlaceTask(Task* task, int cpu, bool is_fork) {
  if (!cpus_[cpu].online) {
    // The policy picked a failed core (e.g. CFS's idlest-group descent ranks
    // by load, not liveness). Deterministic redirect to the first online CPU.
    cpu = FallbackOnlineCpu();
  }
  if (policy_->UsesPlacementReservation()) {
    // Best effort: the policy normally avoided claimed CPUs already; a failed
    // claim here means a collision the reservation could not prevent.
    if (!cpus_[cpu].rq.TryClaim(engine_->Now())) {
      for (KernelObserver* obs : observers_for(kObsReservationCollision)) {
        obs->OnReservationCollision(engine_->Now(), *task, cpu);
      }
    }
  }
  task->cpu = cpu;
  for (KernelObserver* obs : observers_for(kObsTaskPlaced)) {
    obs->OnTaskPlaced(engine_->Now(), *task, cpu, is_fork);
  }
  const bool wakeup = !is_fork;
  // By tid: a task killed in flight may be reclaimed before this fires.
  engine_->ScheduleAfter(params_.placement_latency, [this, tid = task->tid, cpu, wakeup] {
    Task* placed = FindTask(tid);
    if (placed != nullptr && placed->state == TaskState::kPlacing) {
      EnqueueTask(placed, cpu, wakeup);
    }
  });
}

void Kernel::EnqueueTask(Task* task, int cpu, bool wakeup) {
  if (!cpus_[cpu].online) {
    // The target failed during the §3.4 in-flight window.
    cpu = FallbackOnlineCpu();
  }
  CpuState& cs = cpus_[cpu];
  RunQueue& rq = cs.rq;
  rq.ClearClaim();

  task->cpu = cpu;
  task->state = TaskState::kRunnable;
  task->enqueued_at = engine_->Now();

  // vruntime placement: the task's vruntime is stored *relative* to its old
  // queue (normalised at dequeue); re-base it here. Woken sleepers get a
  // bounded credit so they preempt promptly but cannot starve the queue.
  if (wakeup) {
    const double credit = static_cast<double>(params_.sleeper_credit);
    task->vruntime = rq.min_vruntime() + std::max(task->vruntime, -credit);
  } else {
    task->vruntime = rq.min_vruntime() + std::max(task->vruntime, 0.0);
  }

  rq.Enqueue(task);
  rq.BumpPlacement(engine_->Now());
  UpdateCpuMasks(cpu);

  policy_->OnTaskEnqueued(*task, cpu);
  for (KernelObserver* obs : observers_for(kObsTaskEnqueued)) {
    obs->OnTaskEnqueued(engine_->Now(), *task, cpu);
  }
  hw_->KickCpu(cpu);  // schedutil-style frequency kick on enqueue

  // Fault injection (src/check/ self-tests): drop the dispatch that would
  // make this enqueue visible — the "skipped wakeup" bug class the invariant
  // checker exists to catch.
  if (params_.test_skip_enqueue_dispatch_every > 0 &&
      ++enqueue_count_ % static_cast<uint64_t>(params_.test_skip_enqueue_dispatch_every) == 0) {
    return;
  }

  if (rq.curr() == nullptr) {
    ScheduleCpu(cpu);
  } else {
    MaybePreempt(cpu, task);
  }
}

void Kernel::BlockCurrent(int cpu, BlockReason reason) {
  CpuState& cs = cpus_[cpu];
  Task* task = cs.rq.curr();
  assert(task != nullptr);

  UpdateCurr(cpu);
  if (task->completion_event != kInvalidEventId) {
    engine_->Cancel(task->completion_event);
    task->completion_event = kInvalidEventId;
  }

  // Execution-history update (§3.3): this stint is over.
  task->prev_prev_cpu = task->prev_cpu;
  task->prev_cpu = cpu;

  task->state = TaskState::kBlocked;
  task->block_reason = reason;
  // Normalise vruntime relative to this queue for a later re-base.
  task->vruntime -= cs.rq.min_vruntime();
  --runnable_tasks_;

  cs.rq.set_curr(nullptr);
  cs.rq.UpdateMinVruntime();
  UpdateCpuMasks(cpu);
  for (KernelObserver* obs : observers_for(kObsTaskBlocked)) {
    obs->OnTaskBlocked(engine_->Now(), *task, cpu);
  }
  NotifyContextSwitch(cpu, task, nullptr);
  ScheduleCpu(cpu);
}

void Kernel::ExitCurrent(int cpu) {
  CpuState& cs = cpus_[cpu];
  Task* task = cs.rq.curr();
  assert(task != nullptr);

  UpdateCurr(cpu);
  if (task->completion_event != kInvalidEventId) {
    engine_->Cancel(task->completion_event);
    task->completion_event = kInvalidEventId;
  }

  task->prev_prev_cpu = task->prev_cpu;
  task->prev_cpu = cpu;
  task->state = TaskState::kDead;
  task->exited_at = engine_->Now();
  --live_tasks_;
  --runnable_tasks_;
  cs.rq.set_curr(nullptr);
  cs.rq.UpdateMinVruntime();
  UpdateCpuMasks(cpu);
  sync_.ForgetTask(task);

  for (KernelObserver* obs : observers_for(kObsTaskExit)) {
    obs->OnTaskExit(engine_->Now(), *task);
  }
  NotifyContextSwitch(cpu, task, nullptr);

  ReleaseParent(task, /*waker_cpu=*/cpu, /*sync=*/true);
  BuryIfUnreachable(task);

  ScheduleCpu(cpu);
  // Nest demotes a core whose task terminated leaving it idle (§3.1). The
  // hook runs after rescheduling so the policy sees the post-exit state.
  policy_->OnTaskExit(*task, cpu);
}

void Kernel::ReleaseParent(Task* task, int waker_cpu, bool sync) {
  Task* parent = task->parent;
  if (parent == nullptr) {
    return;
  }
  --parent->live_children;
  if (parent->live_children <= parent->join_threshold &&
      parent->state == TaskState::kBlocked && parent->block_reason == BlockReason::kJoin) {
    WakeTask(parent, waker_cpu, sync);
  }
  BuryIfUnreachable(parent);
}

void Kernel::BuryIfUnreachable(Task* task) {
  if (task->state == TaskState::kDead && task->live_children == 0) {
    buried_.push_back({task->tid, engine_->events_fired()});
  }
}

void Kernel::ReclaimBuried() {
  // Burials are in event order; free those from events that have finished.
  const uint64_t current = engine_->events_fired();
  size_t freed = 0;
  while (freed < buried_.size() && buried_[freed].event < current) {
    tasks_.Reclaim(static_cast<size_t>(buried_[freed].tid) - 1);
    ++freed;
  }
  buried_.erase(buried_.begin(), buried_.begin() + static_cast<std::ptrdiff_t>(freed));
}

// ---------------------------------------------------------------------------
// CPU scheduling
// ---------------------------------------------------------------------------

void Kernel::ScheduleCpu(int cpu) {
  CpuState& cs = cpus_[cpu];
  assert(cs.rq.curr() == nullptr);

  if (cs.rq.QueuedCount() == 0 && params_.enable_newidle_balance) {
    NewIdleBalance(cpu);
  }

  Task* next = cs.rq.Leftmost();
  if (next == nullptr) {
    EnterIdle(cpu);
    return;
  }
  StartRunning(next, cpu);
}

void Kernel::StartRunning(Task* task, int cpu) {
  CpuState& cs = cpus_[cpu];
  // Fold the idle interval into the CPU utilisation signal first.
  cs.rq.util().Update(engine_->Now(), 0.0);

  cs.rq.Dequeue(task);
  cs.rq.set_curr(task);
  UpdateCpuMasks(cpu);

  const SimTime now = engine_->Now();
  // Reset segment bookkeeping before anything (speed-change callbacks fired
  // from the busy transition below) can call UpdateCurr on this task.
  task->seg_start = now;
  task->seg_speed_ghz = 0.0;
  task->total_wait += now - task->enqueued_at;
  if (task->prev_cpu >= 0 && topology().PhysCoreOf(task->prev_cpu) != topology().PhysCoreOf(cpu)) {
    ++task->migrations;
    ++migrations_;
    // Cold caches: charge the refill as extra work on the next segment.
    task->remaining_work += topology().SameSocket(task->prev_cpu, cpu)
                                ? params_.migration_cost_work
                                : params_.cross_die_migration_cost_work;
  }
  if (cache_tracking_) {
    AccountCacheWarmth(task, cpu, now);
  }
  task->state = TaskState::kRunning;
  task->cpu = cpu;
  task->sched_in_time = now;
  task->util.Update(now, 0.0);  // fold the blocked/waiting gap

  if (cs.spinning) {
    StopSpin(cpu, /*because_busy=*/true);
  } else {
    hw_->SetThreadBusy(cpu, true);
  }
  // A task appearing on this hardware thread stops the sibling's warm spin
  // immediately (§3.2).
  const int sibling = topology().SiblingOf(cpu);
  if (sibling >= 0 && cpus_[sibling].spinning) {
    StopSpin(sibling, /*because_busy=*/false);
  }

  ++context_switches_;
  NotifyContextSwitch(cpu, nullptr, task);
  // Re-placement after a fault completed: observers sampled the evacuation
  // gap from inside OnContextSwitch; clear the stamp before the task runs.
  task->evacuated_at = -1;
  ExecuteTask(cpu);
}

// Cache-warmth accounting at dispatch (src/hw/cache_model.h): classify the
// destination LLC as warm or cold, charge the cross-LLC migration cost, and
// reset the warmth the task abandons when it changes die. Only called when
// warmth tracking is on; with neutral parameters every behavioural effect is
// a bit-exact no-op (+= 0.0 work), so NestCache runs with the model disabled
// stay comparable against plain Nest.
void Kernel::AccountCacheWarmth(Task* task, int cpu, SimTime now) {
  const int socket = topology().SocketOf(cpu);
  PeltSignal& here = task->llc_warmth[static_cast<size_t>(socket)];
  // Decay the destination's warmth across the not-running gap first, so both
  // the classification below and the accrual in UpdateCurr start from the
  // task's true arrival-time warmth.
  here.Update(now, 0.0);
  const double warmth = here.raw();
  const bool cross_llc = task->prev_cpu >= 0 && !topology().SameSocket(task->prev_cpu, cpu);
  if (cross_llc) {
    // The lines left behind are dead, not merely decaying: the refill charge
    // pays for streaming them back in over the new LLC.
    task->remaining_work += params_.cache.migration_cost_work;
    task->llc_warmth[static_cast<size_t>(topology().SocketOf(task->prev_cpu))].Set(now, 0.0);
  }
  if (task->prev_cpu >= 0) {
    const CacheEventKind classified = warmth >= params_.cache.warm_threshold
                                          ? CacheEventKind::kWarmHit
                                          : CacheEventKind::kColdMiss;
    for (KernelObserver* obs : observers_for(kObsCacheEvent)) {
      obs->OnCacheEvent(now, *task, classified, cpu, warmth);
      if (cross_llc) {
        obs->OnCacheEvent(now, *task, CacheEventKind::kCrossDieMigration, cpu, warmth);
      }
    }
  }
}

void Kernel::StopRunning(int cpu, bool requeue) {
  CpuState& cs = cpus_[cpu];
  Task* task = cs.rq.curr();
  assert(task != nullptr);
  UpdateCurr(cpu);
  if (task->completion_event != kInvalidEventId) {
    engine_->Cancel(task->completion_event);
    task->completion_event = kInvalidEventId;
  }
  cs.rq.set_curr(nullptr);
  task->state = TaskState::kRunnable;
  if (requeue) {
    task->enqueued_at = engine_->Now();
    cs.rq.Enqueue(task);
  }
  UpdateCpuMasks(cpu);
  NotifyContextSwitch(cpu, task, nullptr);
}

void Kernel::MaybePreempt(int cpu, Task* enqueued) {
  CpuState& cs = cpus_[cpu];
  Task* curr = cs.rq.curr();
  if (curr == nullptr) {
    return;
  }
  UpdateCurr(cpu);
  const double gran = static_cast<double>(params_.wakeup_granularity);
  if (enqueued->vruntime + gran < curr->vruntime) {
    StopRunning(cpu, /*requeue=*/true);
    ScheduleCpu(cpu);
  }
}

void Kernel::EnterIdle(int cpu) {
  CpuState& cs = cpus_[cpu];
  cs.idle_since = engine_->Now();

  const int spin_ticks = policy_->IdleSpinTicks(cpu);
  const int sibling = topology().SiblingOf(cpu);
  const bool sibling_busy = sibling >= 0 && cpus_[sibling].rq.curr() != nullptr;
  if (spin_ticks > 0 && !sibling_busy) {
    // Warm spin (§3.2): the idle loop keeps the core active for the hardware.
    if (!cs.spinning) {
      cs.spinning = true;
      hw_->SetThreadBusy(cpu, true);  // no-op if it was already busy
    }
    const uint64_t gen = ++cs.dispatch_gen;
    for (KernelObserver* obs : observers_for(kObsIdleSpinStart)) {
      obs->OnIdleSpinStart(engine_->Now(), cpu, spin_ticks);
    }
    cs.spin_end = engine_->ScheduleAfter(spin_ticks * kTickPeriod, [this, cpu, gen] {
      if (cpus_[cpu].spinning && cpus_[cpu].dispatch_gen == gen) {
        StopSpin(cpu, /*because_busy=*/false);
      }
    });
    return;
  }
  if (cs.spinning) {
    StopSpin(cpu, /*because_busy=*/false);
  } else {
    hw_->SetThreadBusy(cpu, false);
  }
}

void Kernel::StopSpin(int cpu, bool because_busy) {
  CpuState& cs = cpus_[cpu];
  assert(cs.spinning);
  cs.spinning = false;
  if (cs.spin_end != kInvalidEventId) {
    engine_->Cancel(cs.spin_end);
    cs.spin_end = kInvalidEventId;
  }
  if (!because_busy) {
    hw_->SetThreadBusy(cpu, false);
  }
  // When the spin ends because a task starts here, the thread stays busy.
  for (KernelObserver* obs : observers_for(kObsIdleSpinEnd)) {
    obs->OnIdleSpinEnd(engine_->Now(), cpu, because_busy);
  }
}

// ---------------------------------------------------------------------------
// Execution engine
// ---------------------------------------------------------------------------

void Kernel::ExecuteTask(int cpu) {
  Task* task = cpus_[cpu].rq.curr();
  assert(task != nullptr);
  InterpretOps(cpu, task);
  if (cpus_[cpu].rq.curr() == task && task->state == TaskState::kRunning &&
      task->completion_event == kInvalidEventId) {
    // A completion may already be in flight when a speed-change callback
    // started the segment during StartRunning; never double-schedule.
    assert(task->remaining_work > 0);
    BeginComputeSegment(cpu);
  }
}

void Kernel::BeginComputeSegment(int cpu) {
  Task* task = cpus_[cpu].rq.curr();
  assert(task != nullptr && task->remaining_work > 0);
  const SimTime now = engine_->Now();
  task->seg_start = now;
  double speed_ghz = hw_->EffectiveSpeedGhz(cpu);
  if (cache_tracking_) {
    // Warm-cache speedup (src/hw/cache_model.h): the factor is sampled at
    // segment start and held for the segment, like the hardware speed — a
    // piecewise-constant approximation that keeps completion times
    // analytically exact per segment. Neutral parameters multiply by an
    // exact 1.0.
    const double warmth =
        task->llc_warmth[static_cast<size_t>(topology().SocketOf(cpu))].ValueAt(now);
    speed_ghz *= WarmSpeedupFactor(params_.cache, warmth);
  }
  task->seg_speed_ghz = std::max(speed_ghz, 1e-6);
  const double duration_ns = task->remaining_work / task->seg_speed_ghz;
  const SimDuration d = std::max<SimDuration>(1, static_cast<SimDuration>(std::ceil(duration_ns)));
  task->completion_event =
      engine_->ScheduleAt(now + d, [this, cpu, task] { OnComputeComplete(cpu, task); });
}

void Kernel::OnComputeComplete(int cpu, Task* task) {
  if (cpus_[cpu].rq.curr() != task) {
    return;  // stale event (defensive; cancellation should prevent this)
  }
  task->completion_event = kInvalidEventId;
  UpdateCurr(cpu);
  task->remaining_work = 0.0;
  ExecuteTask(cpu);
}

void Kernel::UpdateCurr(int cpu) {
  CpuState& cs = cpus_[cpu];
  Task* task = cs.rq.curr();
  if (task == nullptr) {
    cs.rq.util().Update(engine_->Now(), 0.0);
    return;
  }
  const SimTime now = engine_->Now();
  const SimDuration elapsed = now - task->seg_start;
  if (elapsed > 0) {
    const double work_done = static_cast<double>(elapsed) * task->seg_speed_ghz;
    task->remaining_work = std::max(0.0, task->remaining_work - work_done);
    task->vruntime += static_cast<double>(elapsed);
    task->total_runtime += elapsed;
    task->seg_start = now;
    cs.rq.UpdateMinVruntime();
  }
  task->util.Update(now, 1.0);
  cs.rq.util().Update(now, 1.0);
  if (cache_tracking_) {
    // Warmth accrues on the LLC the task is running on; the other sockets
    // decay lazily (PeltSignal::ValueAt) when somebody reads them.
    task->llc_warmth[static_cast<size_t>(topology().SocketOf(cpu))].Update(now, 1.0);
  }
}

void Kernel::OnSpeedChange(int cpu) {
  CpuState& cs = cpus_[cpu];
  Task* task = cs.rq.curr();
  if (task == nullptr || task->state != TaskState::kRunning) {
    return;  // spinning idle thread: nothing to recompute
  }
  UpdateCurr(cpu);
  const bool had_completion_event = task->completion_event != kInvalidEventId;
  if (had_completion_event) {
    engine_->Cancel(task->completion_event);
    task->completion_event = kInvalidEventId;
  }
  if (task->remaining_work > 0) {
    BeginComputeSegment(cpu);
  } else if (had_completion_event) {
    // The speed change landed exactly at completion and we just cancelled
    // the event that would have advanced the program: do it here, or the
    // task would hang forever. (Without an in-flight event the task has not
    // begun its segment yet — StartRunning will interpret it.)
    ExecuteTask(cpu);
  }
  for (KernelObserver* obs : observers_for(kObsCpuSpeedChange)) {
    obs->OnCpuSpeedChange(engine_->Now(), cpu);
  }
}

// ---------------------------------------------------------------------------
// Program interpreter
// ---------------------------------------------------------------------------

void Kernel::InterpretOps(int cpu, Task* task) {
  int guard = 0;
  while (true) {
    if (++guard > 1000000) {
      LogAt(LogLevel::kError, engine_->Now(), "task %d: runaway zero-time op loop", task->tid);
      std::abort();
    }
    if (task->remaining_work > 0) {
      return;  // caller starts the compute segment
    }
    if (task->pc >= task->program->ops.size()) {
      ExitCurrent(cpu);
      return;
    }
    const Op& op = task->program->ops[task->pc];
    switch (op.kind) {
      case OpKind::kCompute:
        task->remaining_work = op.work;
        ++task->pc;
        break;  // loop re-checks remaining_work
      case OpKind::kSleep: {
        ++task->pc;
        const SimDuration d = op.duration;
        // Timer wakeups fire on the CPU that armed the timer. By tid: a task
        // killed while asleep may be reclaimed before the timer fires.
        const int timer_cpu = cpu;
        BlockCurrent(cpu, BlockReason::kSleep);
        engine_->ScheduleAfter(d, [this, tid = task->tid, timer_cpu] {
          if (Task* sleeper = FindTask(tid)) {
            WakeTask(sleeper, timer_cpu, /*sync=*/false);
          }
        });
        return;
      }
      case OpKind::kFork:
        if (!task->op_cost_paid && params_.fork_cost_work > 0) {
          task->op_cost_paid = true;
          task->remaining_work = params_.fork_cost_work;
          break;
        }
        task->op_cost_paid = false;
        ForkChild(*task, op.child);
        ++task->pc;
        break;
      case OpKind::kJoinChildren:
        ++task->pc;
        if (task->live_children > op.id) {
          task->join_threshold = op.id;
          BlockCurrent(cpu, BlockReason::kJoin);
          return;
        }
        break;
      case OpKind::kBarrier:
        ++task->pc;
        if (!ArriveBarrier(task, op.id, cpu)) {
          return;  // blocked
        }
        break;
      case OpKind::kSend:
        if (!task->op_cost_paid && params_.send_cost_work > 0) {
          task->op_cost_paid = true;
          task->remaining_work = params_.send_cost_work;
          break;
        }
        task->op_cost_paid = false;
        SendMessage(task, op.id, cpu);
        ++task->pc;
        break;
      case OpKind::kRecv:
        if (!task->op_cost_paid && params_.recv_cost_work > 0) {
          task->op_cost_paid = true;
          task->remaining_work = params_.recv_cost_work;
          break;
        }
        task->op_cost_paid = false;
        ++task->pc;
        if (!RecvMessage(task, op.id, cpu)) {
          return;  // blocked
        }
        break;
      case OpKind::kLoopBegin:
        if (op.count <= 0) {
          // Skip to past the matching kLoopEnd.
          int depth = 1;
          size_t j = task->pc + 1;
          while (j < task->program->ops.size() && depth > 0) {
            if (task->program->ops[j].kind == OpKind::kLoopBegin) {
              ++depth;
            } else if (task->program->ops[j].kind == OpKind::kLoopEnd) {
              --depth;
            }
            ++j;
          }
          task->pc = j;
        } else {
          task->loop_stack.push_back({task->pc + 1, op.count});
          ++task->pc;
        }
        break;
      case OpKind::kLoopEnd: {
        assert(!task->loop_stack.empty());
        Task::LoopFrame& frame = task->loop_stack.back();
        if (--frame.remaining > 0) {
          task->pc = frame.begin_pc;
        } else {
          task->loop_stack.pop_back();
          ++task->pc;
        }
        break;
      }
      case OpKind::kExit:
        ExitCurrent(cpu);
        return;
    }
  }
}

bool Kernel::ArriveBarrier(Task* task, int id, int cpu) {
  SyncBarrier& barrier = sync_.GetBarrier(id);
  if (static_cast<int>(barrier.waiting.size()) + 1 >= barrier.parties) {
    // Last arriver: release everyone. The waker is this CPU; it keeps
    // running, so this is not a sync wakeup.
    std::vector<Task*> to_wake;
    to_wake.swap(barrier.waiting);
    for (Task* waiter : to_wake) {
      WakeTask(waiter, cpu, /*sync=*/false);
    }
    return true;
  }
  barrier.waiting.push_back(task);
  BlockCurrent(cpu, BlockReason::kBarrier);
  return false;
}

bool Kernel::RecvMessage(Task* task, int id, int cpu) {
  Channel& channel = sync_.GetChannel(id);
  if (channel.pending_messages > 0) {
    --channel.pending_messages;
    return true;
  }
  channel.waiting_receivers.push_back(task);
  BlockCurrent(cpu, BlockReason::kRecv);
  return false;
}

void Kernel::SendMessage(Task* task, int id, int cpu) {
  (void)task;
  Channel& channel = sync_.GetChannel(id);
  if (!channel.waiting_receivers.empty()) {
    Task* receiver = channel.waiting_receivers.front();
    channel.waiting_receivers.pop_front();
    // Message handoff: the sender is likely to keep going, but this is the
    // classic sync-ish wakeup pattern (hackbench).
    WakeTask(receiver, cpu, /*sync=*/true);
  } else {
    ++channel.pending_messages;
  }
}

// ---------------------------------------------------------------------------
// Tick and load balancing
// ---------------------------------------------------------------------------

void Kernel::Tick() {
  const SimTime now = engine_->Now();
  hw_->SampleTick();

  for (int cpu = 0; cpu < topology().num_cpus(); ++cpu) {
    CpuState& cs = cpus_[cpu];
    if (!cs.online) {
      continue;  // failed core: queue drained, PELT reset at offline time
    }
    Task* curr = cs.rq.curr();
    if (curr == nullptr) {
      cs.rq.util().Update(now, 0.0);
      continue;
    }
    UpdateCurr(cpu);
    // Tick preemption: vruntime-fair round-robin among queued tasks.
    Task* leftmost = cs.rq.Leftmost();
    if (leftmost != nullptr && curr->vruntime > leftmost->vruntime &&
        now - curr->sched_in_time >= params_.min_granularity) {
      StopRunning(cpu, /*requeue=*/true);
      ScheduleCpu(cpu);
    }
  }

  policy_->OnTick();
  if (params_.enable_periodic_balance) {
    PeriodicBalance();
  }
  const double budget_w = governor_->BudgetWatts();
  if (budget_w > 0.0) {
    for (int socket = 0; socket < topology().num_sockets(); ++socket) {
      const double headroom = budget_w - hw_->SocketPowerWatts(socket);
      const bool throttled = governor_->ThrottledOnSocket(socket);
      for (KernelObserver* obs : observers_for(kObsBudgetState)) {
        obs->OnBudgetState(now, socket, headroom, throttled);
      }
    }
  }
  for (KernelObserver* obs : observers_for(kObsTick)) {
    obs->OnTick(now);
  }
  engine_->ScheduleAfter(kTickPeriod, [this] { Tick(); });
}

Task* Kernel::FindStealableTask(int dst_cpu, bool same_die_only, bool ignore_hotness) {
  const SimTime now = engine_->Now();
  const int dst_socket = topology().SocketOf(dst_cpu);
  Task* best = nullptr;
  int best_queued = 0;
  bool best_same_die = false;
  for (int cpu : overloaded_cpus_) {
    if (cpu == dst_cpu) {
      continue;
    }
    const bool same_die = topology().SocketOf(cpu) == dst_socket;
    if (same_die_only && !same_die) {
      continue;
    }
    RunQueue& src = cpus_[cpu].rq;
    // Scan from the back (largest vruntime = least entitled) and skip
    // cache-hot entries unless the balancer is escalating.
    Task* candidate = nullptr;
    const std::vector<Task*> queued = src.QueuedTasks();
    for (auto it = queued.rbegin(); it != queued.rend(); ++it) {
      if (ignore_hotness ||
          now - (*it)->enqueued_at >= params_.steal_min_wait) {
        candidate = *it;
        break;
      }
    }
    if (candidate == nullptr) {
      continue;
    }
    // Prefer same-die sources, then the most loaded queue.
    if (best == nullptr || (same_die && !best_same_die) ||
        (same_die == best_same_die && src.QueuedCount() > best_queued)) {
      best = candidate;
      best_queued = src.QueuedCount();
      best_same_die = same_die;
    }
  }
  return best;
}

void Kernel::MigrateQueued(Task* task, int dst_cpu, MigrationReason reason) {
  assert(task->state == TaskState::kRunnable);
  const int src_cpu = task->cpu;
  if (!cpus_[dst_cpu].online) {
    // Policy-driven moves (Smove's timer) can target a failed core.
    dst_cpu = FallbackOnlineCpu();
    if (dst_cpu == src_cpu) {
      return;
    }
  }
  RunQueue& src = cpus_[src_cpu].rq;
  assert(src.Queued(task));
  src.Dequeue(task);
  UpdateCpuMasks(src_cpu);
  task->vruntime -= src.min_vruntime();
  RunQueue& dst = cpus_[dst_cpu].rq;
  task->cpu = dst_cpu;
  task->vruntime = dst.min_vruntime() + std::max(task->vruntime, 0.0);
  dst.Enqueue(task);
  task->enqueued_at = engine_->Now();
  UpdateCpuMasks(dst_cpu);
  ++migrations_;
  ++task->migrations;
  for (KernelObserver* obs : observers_for(kObsTaskMigrated)) {
    obs->OnTaskMigrated(engine_->Now(), *task, src_cpu, dst_cpu, reason);
  }
}

void Kernel::NotifyNestEvent(NestEventKind kind, int cpu) {
  for (KernelObserver* obs : observers_for(kObsNestEvent)) {
    obs->OnNestEvent(engine_->Now(), kind, cpu);
  }
}

void Kernel::KickIfIdle(int cpu) {
  if (cpus_[cpu].rq.curr() == nullptr && cpus_[cpu].rq.QueuedCount() > 0) {
    ScheduleCpu(cpu);
  }
}

void Kernel::NewIdleBalance(int cpu) {
  if (overloaded_cpus_.Empty()) {
    return;
  }
  Task* task = FindStealableTask(cpu, /*same_die_only=*/false, /*ignore_hotness=*/false);
  if (task != nullptr) {
    MigrateQueued(task, cpu, MigrationReason::kNewIdlePull);
  }
}

void Kernel::PeriodicBalance() {
  if (overloaded_cpus_.Empty()) {
    return;
  }
  // One pull per idle CPU per tick, same-die first — an approximation of the
  // periodic/nohz-idle balancing pass.
  for (int cpu = 0; cpu < topology().num_cpus() && !overloaded_cpus_.Empty(); ++cpu) {
    if (!cpus_[cpu].online || !cpus_[cpu].rq.Idle()) {
      continue;
    }
    // The periodic pass escalates past cache-hotness: a CPU that has idled
    // through a whole tick takes whatever is queued.
    Task* task = FindStealableTask(cpu, /*same_die_only=*/true, /*ignore_hotness=*/true);
    if (task == nullptr) {
      task = FindStealableTask(cpu, /*same_die_only=*/false, /*ignore_hotness=*/true);
    }
    if (task != nullptr) {
      MigrateQueued(task, cpu, MigrationReason::kPeriodicPull);
      if (cpus_[cpu].rq.curr() == nullptr) {
        ScheduleCpu(cpu);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Faults (src/fault/): core offline/online, task killing, replica quorums
// ---------------------------------------------------------------------------

int Kernel::FallbackOnlineCpu() const {
  for (int cpu = 0; cpu < static_cast<int>(cpus_.size()); ++cpu) {
    if (cpus_[cpu].online) {
      return cpu;
    }
  }
  return 0;  // unreachable: OfflineCpu refuses to take the last CPU down
}

void Kernel::NotifyFaultEvent(FaultEventKind kind, int cpu, const Task* task) {
  for (KernelObserver* obs : observers_for(kObsFaultEvent)) {
    obs->OnFaultEvent(engine_->Now(), kind, cpu, task);
  }
}

bool Kernel::OfflineCpu(int cpu) {
  CpuState& cs = cpus_[cpu];
  if (!cs.online || online_cpus_ <= 1) {
    return false;
  }
  const SimTime now = engine_->Now();
  cs.online = false;
  --online_cpus_;

  if (cs.spinning) {
    StopSpin(cpu, /*because_busy=*/false);
  }

  // Collect the work this core was holding. vruntimes are normalised against
  // the pre-drain base so EnqueueTask can re-base them on the new queue.
  const double vruntime_base = cs.rq.min_vruntime();
  std::vector<Task*> displaced;
  Task* curr = cs.rq.curr();
  if (curr != nullptr) {
    UpdateCurr(cpu);
    if (curr->completion_event != kInvalidEventId) {
      engine_->Cancel(curr->completion_event);
      curr->completion_event = kInvalidEventId;
    }
    curr->prev_prev_cpu = curr->prev_cpu;
    curr->prev_cpu = cpu;
    curr->vruntime -= vruntime_base;
    cs.rq.set_curr(nullptr);
    displaced.push_back(curr);
  }
  while (Task* queued = cs.rq.Leftmost()) {
    cs.rq.Dequeue(queued);
    queued->vruntime -= vruntime_base;
    displaced.push_back(queued);
  }

  // Hard reset: reservation claim, vruntime base, and the PELT signal — a
  // repaired core must come back with no residual history.
  cs.rq.ClearClaim();
  cs.rq.UpdateMinVruntime();
  cs.rq.util().Set(now, 0.0);
  UpdateCpuMasks(cpu);
  if (curr != nullptr) {
    NotifyContextSwitch(cpu, curr, nullptr);
  }
  hw_->SetThreadBusy(cpu, false);  // no-op if it was already idle

  policy_->OnCpuOffline(cpu);
  NotifyFaultEvent(FaultEventKind::kCoreOffline, cpu, nullptr);

  // Re-place the displaced work through the policy's wake path. The policy
  // already sees this core as offline (CpuIdle is false); whatever it picks
  // is relabelled as the fault_evacuate placement path.
  for (Task* task : displaced) {
    task->state = TaskState::kPlacing;
    task->evacuated_at = now;
    WakeContext ctx;
    ctx.waker_cpu = FallbackOnlineCpu();
    const int target = policy_->SelectCpuWake(*task, ctx);
    task->placement_path = PlacementPath::kFaultEvacuate;
    PlaceTask(task, target, /*is_fork=*/false);
    NotifyFaultEvent(FaultEventKind::kTaskEvacuated, task->cpu, task);
  }
  return true;
}

void Kernel::OnlineCpu(int cpu) {
  CpuState& cs = cpus_[cpu];
  if (cs.online) {
    return;
  }
  const SimTime now = engine_->Now();
  cs.online = true;
  ++online_cpus_;
  cs.idle_since = now;
  cs.rq.util().Set(now, 0.0);
  cs.rq.ClearClaim();
  UpdateCpuMasks(cpu);
  policy_->OnCpuOnline(cpu);
  NotifyFaultEvent(FaultEventKind::kCoreOnline, cpu, nullptr);
}

void Kernel::KillTask(Task* task, FaultEventKind kind) {
  if (task == nullptr || task->state == TaskState::kDead) {
    return;
  }
  const SimTime now = engine_->Now();
  const int cpu = task->cpu;
  const bool was_running = task->state == TaskState::kRunning;
  switch (task->state) {
    case TaskState::kRunning: {
      CpuState& cs = cpus_[cpu];
      assert(cs.rq.curr() == task);
      UpdateCurr(cpu);
      if (task->completion_event != kInvalidEventId) {
        engine_->Cancel(task->completion_event);
        task->completion_event = kInvalidEventId;
      }
      cs.rq.set_curr(nullptr);
      cs.rq.UpdateMinVruntime();
      UpdateCpuMasks(cpu);
      --runnable_tasks_;
      NotifyContextSwitch(cpu, task, nullptr);
      break;
    }
    case TaskState::kRunnable: {
      CpuState& cs = cpus_[cpu];
      if (cs.rq.Queued(task)) {
        cs.rq.Dequeue(task);
        cs.rq.UpdateMinVruntime();
        UpdateCpuMasks(cpu);
      }
      --runnable_tasks_;
      break;
    }
    case TaskState::kPlacing:
      // The delayed enqueue looks the task up by tid and checks state ==
      // kPlacing, so marking the task dead (or reclaiming it) cancels it;
      // any §3.4 claim it holds simply times out.
      --runnable_tasks_;
      break;
    case TaskState::kBlocked:
    case TaskState::kDead:
      break;
  }
  task->state = TaskState::kDead;
  task->exited_at = now;
  --live_tasks_;
  sync_.ForgetTask(task);
  // Deliberately no OnTaskExit: killed work must not count as completed.
  NotifyFaultEvent(kind, cpu, task);

  ReleaseParent(task, /*waker_cpu=*/FallbackOnlineCpu(), /*sync=*/false);
  BuryIfUnreachable(task);
  if (was_running) {
    ScheduleCpu(cpu);
    policy_->OnTaskExit(*task, cpu);
  }
}

// ---------------------------------------------------------------------------
// Misc
// ---------------------------------------------------------------------------

double Kernel::GovernorRequestGhz(int cpu) {
  RunQueue& rq = cpus_[cpu].rq;
  double util = CpuUtil(cpu);
  // schedutil sees the enqueued/running task's own utilisation immediately
  // (PELT attach on enqueue); approximate with the max of the signals.
  if (rq.curr() != nullptr) {
    util = std::max(util, rq.curr()->util.ValueAt(engine_->Now()));
  }
  return governor_->RequestGhzOn(hw_->spec(), std::min(1.0, util), cpu);
}

void Kernel::NotifyContextSwitch(int cpu, const Task* prev, const Task* next) {
  for (KernelObserver* obs : observers_for(kObsContextSwitch)) {
    obs->OnContextSwitch(engine_->Now(), cpu, prev, next);
  }
}

}  // namespace nestsim
