#include "src/nest/nest_budget_policy.h"

namespace nestsim {

int NestBudgetPolicy::SelectCommon(Task& task, int anchor_cpu, bool is_fork,
                                   const WakeContext& ctx) {
  if (!SocketThrottled(anchor_cpu)) {
    return NestPolicy::SelectCommon(task, anchor_cpu, is_fork, ctx);
  }
  // The anchor's socket is over budget: place inside the existing warm mask
  // but never grow it. The ladder is the same primary → reserve → CFS, minus
  // every membership change the base ladder would make.
  int chosen = SearchPrimary(anchor_cpu);
  if (chosen >= 0) {
    task.placement_path = PlacementPath::kNestPrimary;
    MarkUsed(chosen);
    return chosen;
  }
  chosen = SearchReserve(anchor_cpu);
  if (chosen >= 0) {
    // The reserve core runs the task but stays in the reserve — promotion
    // would widen the warm mask the governor is trying to narrow.
    task.placement_path = PlacementPath::kNestReserve;
    MarkUsed(chosen);
    return chosen;
  }
  // Warm mask saturated: stack behind the shallowest primary queue on the
  // anchor's socket rather than waking an overflow core. One fewer active
  // core saves the throttled socket more power than the queueing delay costs
  // it — this is the cap actually narrowing the nest instead of slowing it.
  const Topology& topo = kernel_->topology();
  const int socket = topo.SocketOf(anchor_cpu);
  int best = -1;
  int best_depth = 0;
  for (int cpu : primary_mask_ & die_masks_[socket]) {
    const int depth = kernel_->rq(cpu).QueuedCount() + (kernel_->CpuIdle(cpu) ? 0 : 1);
    if (best < 0 || depth < best_depth) {
      best = cpu;
      best_depth = depth;
    }
  }
  if (best >= 0) {
    task.placement_path = PlacementPath::kNestPrimary;
    MarkUsed(best);
    return best;
  }
  chosen = is_fork ? CfsFallbackFork(task, anchor_cpu) : CfsFallbackWake(task, ctx);
  task.placement_path = PlacementPath::kNestCfsFallback;
  // No reserve adoption either: the overflow core serves this one placement
  // and cools back down.
  return chosen;
}

int NestBudgetPolicy::SelectCpuWake(Task& task, const WakeContext& ctx) {
  const int anchor = task.prev_cpu >= 0 ? task.prev_cpu : ctx.waker_cpu;
  if (!SocketThrottled(anchor)) {
    return NestPolicy::SelectCpuWake(task, ctx);
  }
  // Throttled: take the previous core only while it remains in the shrunk
  // primary mask. Skipping the base class's attach/prev-core ladder here is
  // what makes demotions stick — its §5.4 path re-adopts any idle previous
  // core into the primary, growing the mask right back.
  if (task.prev_cpu >= 0 && InPrimary(task.prev_cpu) &&
      kernel_->CpuIdleUnclaimed(task.prev_cpu)) {
    task.placement_path = PlacementPath::kNestPrevCore;
    MarkUsed(task.prev_cpu);
    return task.prev_cpu;
  }
  return SelectCommon(task, anchor, /*is_fork=*/false, ctx);
}

void NestBudgetPolicy::OnTick() {
  NestPolicy::OnTick();
  const Governor& gov = kernel_->governor();
  if (gov.BudgetWatts() <= 0.0) {
    return;
  }
  // Active shrink: per throttled socket, demote the least-recently-used idle
  // primary core. One per socket per tick keeps the shrink gradual enough
  // for the power reading (which decays with PELT) to catch up.
  const Topology& topo = kernel_->topology();
  for (int socket = 0; socket < topo.num_sockets(); ++socket) {
    if (!gov.ThrottledOnSocket(socket)) {
      continue;
    }
    if (PrimarySize() <= budget_params_.min_primary) {
      return;
    }
    int victim = -1;
    SimTime oldest = 0;
    for (int cpu : primary_mask_ & die_masks_[socket]) {
      if (!kernel_->CpuIdle(cpu)) {
        continue;
      }
      if (victim < 0 || cores_[cpu].last_used < oldest) {
        victim = cpu;
        oldest = cores_[cpu].last_used;
      }
    }
    if (victim >= 0) {
      kernel_->NotifyNestEvent(NestEventKind::kDemote, victim);
      DemoteFromPrimary(victim);
    }
  }
}

}  // namespace nestsim
