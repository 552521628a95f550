#include "src/nest/nest_policy.h"

#include <cassert>

namespace nestsim {

void NestPolicy::Attach(Kernel* kernel) {
  SchedulerPolicy::Attach(kernel);
  cfs_.Attach(kernel);
  const Topology& topo = kernel->topology();
  cores_.assign(topo.num_cpus(), CoreInfo{});
  primary_mask_ = CpuMask();
  reserve_mask_ = CpuMask();
  die_masks_.assign(topo.num_sockets(), CpuMask());
  for (int cpu = 0; cpu < topo.num_cpus(); ++cpu) {
    die_masks_[topo.SocketOf(cpu)].Set(cpu);
  }
}

// ---------------------------------------------------------------------------
// Nest membership management
// ---------------------------------------------------------------------------

void NestPolicy::AddToPrimary(int cpu) {
  if (InReserve(cpu)) {
    RemoveFromReserve(cpu);
  }
  const bool was_primary = InPrimary(cpu);
  cores_[cpu].compaction_eligible = false;
  primary_mask_.Set(cpu);
  if (!was_primary) {
    kernel_->NotifyNestEvent(NestEventKind::kPromote, cpu);
  }
}

void NestPolicy::AddToReserve(int cpu) {
  if (InPrimary(cpu) || InReserve(cpu)) {
    return;
  }
  if (!params_.enable_reserve) {
    return;
  }
  if (reserve_mask_.Count() >= params_.r_max) {
    // Reserve full: the core joins no nest (§3.1).
    kernel_->NotifyNestEvent(NestEventKind::kReserveFull, cpu);
    return;
  }
  reserve_mask_.Set(cpu);
  kernel_->NotifyNestEvent(NestEventKind::kReserveAdd, cpu);
}

void NestPolicy::RemoveFromPrimary(int cpu) {
  assert(InPrimary(cpu));
  cores_[cpu].compaction_eligible = false;
  primary_mask_.Clear(cpu);
}

void NestPolicy::RemoveFromReserve(int cpu) {
  assert(InReserve(cpu));
  reserve_mask_.Clear(cpu);
}

void NestPolicy::DemoteFromPrimary(int cpu) {
  RemoveFromPrimary(cpu);
  AddToReserve(cpu);  // drops the core when the reserve is full or disabled
}

void NestPolicy::MarkUsed(int cpu) {
  cores_[cpu].last_used = kernel_->engine().Now();
  cores_[cpu].compaction_eligible = false;
}

void NestPolicy::OnTaskEnqueued(Task& task, int cpu) {
  (void)task;
  if (InPrimary(cpu) || InReserve(cpu)) {
    MarkUsed(cpu);
  }
}

void NestPolicy::OnTaskExit(Task& task, int cpu) {
  (void)task;
  // A task terminated and left the core idle: the core is no longer useful
  // and is demoted immediately (§3.1).
  if (InPrimary(cpu) && kernel_->CpuIdle(cpu)) {
    kernel_->NotifyNestEvent(NestEventKind::kDemote, cpu);
    DemoteFromPrimary(cpu);
  }
}

void NestPolicy::OnCpuOffline(int cpu) {
  if (InPrimary(cpu)) {
    kernel_->NotifyNestEvent(NestEventKind::kDemote, cpu);
    RemoveFromPrimary(cpu);
  }
  if (InReserve(cpu)) {
    RemoveFromReserve(cpu);
  }
}

int NestPolicy::IdleSpinTicks(int cpu) {
  if (!params_.enable_spin || !InPrimary(cpu)) {
    return 0;
  }
  return params_.s_max_ticks;
}

void NestPolicy::OnTick() {
  if (!params_.enable_compaction) {
    return;
  }
  const SimTime now = kernel_->engine().Now();
  const SimDuration limit = params_.p_remove_ticks * kTickPeriod;
  for (int cpu : primary_mask_) {
    CoreInfo& core = cores_[cpu];
    if (!core.compaction_eligible && kernel_->CpuIdle(cpu) && now - core.last_used >= limit) {
      core.compaction_eligible = true;
    }
  }
}

// ---------------------------------------------------------------------------
// Nest searches
// ---------------------------------------------------------------------------

int NestPolicy::SearchPrimary(int anchor, bool anchor_die_only) {
  // Visit order (§3.1): the anchor's die first, then everything else; each
  // group in numerical order starting from the anchor. The on-die pass only
  // ever demotes the core it is visiting, so the off-die candidates it
  // leaves behind are exactly the off-die primary cores at their turn.
  const CpuMask& die = die_masks_[kernel_->topology().SocketOf(anchor)];
  const int found = SearchPrimaryIn(primary_mask_ & die, anchor);
  if (found >= 0 || anchor_die_only) {
    return found;
  }
  return SearchPrimaryIn(primary_mask_ & ~die, anchor);
}

int NestPolicy::SearchPrimaryIn(CpuMask candidates, int start) {
  for (int cpu = candidates.NextFrom(start); cpu >= 0; cpu = candidates.NextFrom(cpu + 1)) {
    candidates.Clear(cpu);
    if (cores_[cpu].compaction_eligible) {
      // A task touched an expired core: compaction happens now (§3.1).
      kernel_->NotifyNestEvent(NestEventKind::kCompact, cpu);
      DemoteFromPrimary(cpu);
      continue;
    }
    if (kernel_->CpuIdleUnclaimed(cpu)) {
      return cpu;
    }
  }
  return -1;
}

int NestPolicy::SearchReserve(int anchor, bool anchor_die_only) {
  if (!params_.enable_reserve || reserve_mask_.Empty()) {
    return -1;
  }
  // The reserve search starts from a fixed core — the one where Nest was
  // started — to limit dispersal (§3.1). It has no side effects.
  const int fixed = kernel_->root_cpu() >= 0 ? kernel_->root_cpu() : 0;
  const CpuMask& die = die_masks_[kernel_->topology().SocketOf(anchor)];
  const int found = SearchReserveIn(reserve_mask_ & die, fixed);
  if (found >= 0 || anchor_die_only) {
    return found;
  }
  return SearchReserveIn(reserve_mask_ & ~die, fixed);
}

int NestPolicy::SearchReserveIn(CpuMask candidates, int start) const {
  for (int cpu = candidates.NextFrom(start); cpu >= 0; cpu = candidates.NextFrom(cpu + 1)) {
    candidates.Clear(cpu);
    if (kernel_->CpuIdleUnclaimed(cpu)) {
      return cpu;
    }
  }
  return -1;
}

int NestPolicy::CfsFallbackFork(Task& child, int parent_cpu) {
  return cfs_.ForkPath(child, parent_cpu);
}

int NestPolicy::CfsFallbackWake(Task& task, const WakeContext& ctx) {
  return cfs_.WakePath(task, ctx, params_.enable_wake_work_conservation);
}

// ---------------------------------------------------------------------------
// Core selection
// ---------------------------------------------------------------------------

int NestPolicy::SelectCommon(Task& task, int anchor_cpu, bool is_fork, const WakeContext& ctx) {
  int chosen = SearchPrimary(anchor_cpu);
  if (chosen >= 0) {
    task.placement_path = PlacementPath::kNestPrimary;
    MarkUsed(chosen);
    return chosen;
  }
  chosen = SearchReserve(anchor_cpu);
  if (chosen >= 0) {
    // Promotion: a reserve hit proves the nest needs to grow (§3.1).
    task.placement_path = PlacementPath::kNestReserve;
    RemoveFromReserve(chosen);
    AddToPrimary(chosen);
    MarkUsed(chosen);
    return chosen;
  }
  chosen = is_fork ? CfsFallbackFork(task, anchor_cpu) : CfsFallbackWake(task, ctx);
  task.placement_path = PlacementPath::kNestCfsFallback;
  // CFS can hand back a failed core (the kernel redirects the enqueue); such
  // a core must not enter a nest.
  if (kernel_->CpuOnline(chosen)) {
    if (params_.enable_reserve) {
      AddToReserve(chosen);
    } else {
      // Ablation without a reserve: CFS-chosen cores must join the primary
      // directly, or the nest could never grow.
      AddToPrimary(chosen);
    }
    MarkUsed(chosen);
  }
  return chosen;
}

int NestPolicy::SelectCpuFork(Task& child, int parent_cpu) {
  WakeContext unused;
  return SelectCommon(child, parent_cpu, /*is_fork=*/true, unused);
}

int NestPolicy::SelectCpuWake(Task& task, const WakeContext& ctx) {
  const int anchor = task.prev_cpu >= 0 ? task.prev_cpu : ctx.waker_cpu;

  // Impatience bookkeeping (§3.1): count consecutive wakeups that found the
  // previous core occupied.
  const bool prev_busy = task.prev_cpu >= 0 && !kernel_->CpuIdle(task.prev_cpu);
  if (prev_busy) {
    ++task.impatience;
  } else {
    task.impatience = 0;
  }

  if (params_.enable_impatience && task.impatience >= params_.r_impatient) {
    // Skip the primary nest entirely; the chosen core goes straight into the
    // primary nest to expand it, and the counter resets (§3.1).
    task.impatience = 0;
    task.placement_path = PlacementPath::kNestImpatient;
    int chosen = SearchReserve(anchor);
    if (chosen >= 0) {
      RemoveFromReserve(chosen);
    } else {
      chosen = CfsFallbackWake(task, ctx);
    }
    if (kernel_->CpuOnline(chosen)) {
      AddToPrimary(chosen);
      MarkUsed(chosen);
    }
    return chosen;
  }

  // Attachment (§3.3): a task that ran twice in a row on the same core goes
  // back there first, and may even reclaim a compaction-eligible core.
  if (params_.enable_attach && task.prev_cpu >= 0 && task.prev_cpu == task.prev_prev_cpu) {
    const int attached = task.prev_cpu;
    if (InPrimary(attached) && kernel_->CpuIdleUnclaimed(attached)) {
      task.placement_path = PlacementPath::kNestAttached;
      MarkUsed(attached);
      return attached;
    }
  }

  // Favouring of the previously used core (§5.4): an idle previous core is
  // taken even when it is outside the nests — this is what keeps
  // one-task-per-core gangs (NAS) on their original cores instead of
  // shuffling them through the primary nest. A core that keeps being used
  // this way is, by definition, in use: it joins the primary nest, so other
  // placements (and the warm spin) can benefit from it.
  if (params_.enable_attach && task.prev_cpu >= 0 && kernel_->CpuIdleUnclaimed(task.prev_cpu)) {
    task.placement_path = PlacementPath::kNestPrevCore;
    AddToPrimary(task.prev_cpu);
    MarkUsed(task.prev_cpu);
    return task.prev_cpu;
  }

  return SelectCommon(task, anchor, /*is_fork=*/false, ctx);
}

}  // namespace nestsim
