#include "src/smove/smove_policy.h"

namespace nestsim {

void SmovePolicy::Attach(Kernel* kernel) {
  SchedulerPolicy::Attach(kernel);
  cfs_.Attach(kernel);
}

int SmovePolicy::MaybePark(Task& task, int cfs_choice, int fast_cpu) {
  HardwareModel& hw = kernel_->hw();
  const double low = params_.low_freq_fraction * hw.spec().nominal_freq_ghz;
  const double chosen_freq = hw.FreqAtLastTickGhz(cfs_choice);
  const double fast_freq = hw.FreqAtLastTickGhz(fast_cpu);
  if (cfs_choice == fast_cpu || chosen_freq >= low || fast_freq < low) {
    // The sampled frequency of the CFS core looks fine (possibly stale —
    // that is the §5.2 failure mode), or the parent core is no better.
    task.placement_path = PlacementPath::kSmoveCfs;
    return cfs_choice;
  }

  // Park on the fast core and arm the fallback timer.
  task.placement_path = PlacementPath::kSmoveParked;
  ++moves_armed_;
  const int fallback = cfs_choice;
  // By tid: the task may exit, and be reclaimed, before the timer fires.
  kernel_->engine().ScheduleAfter(params_.move_delay, [this, tid = task.tid, fallback] {
    // Move only if the task is still waiting on a run queue.
    Task* t = kernel_->FindTask(tid);
    if (t != nullptr && t->state == TaskState::kRunnable && kernel_->rq(t->cpu).Queued(t)) {
      ++moves_fired_;
      kernel_->MigrateQueued(t, fallback);
      kernel_->KickIfIdle(fallback);
    }
  });
  return fast_cpu;
}

int SmovePolicy::SelectCpuFork(Task& child, int parent_cpu) {
  const int cfs_choice = cfs_.ForkPath(child, parent_cpu);
  return MaybePark(child, cfs_choice, parent_cpu);
}

int SmovePolicy::SelectCpuWake(Task& task, const WakeContext& ctx) {
  const int cfs_choice = cfs_.WakePath(task, ctx, /*work_conserving_ext=*/false);
  const int fast_cpu = ctx.waker_cpu >= 0 ? ctx.waker_cpu : cfs_choice;
  return MaybePark(task, cfs_choice, fast_cpu);
}

}  // namespace nestsim
