#include "src/nest/nest_cache_policy.h"

namespace nestsim {

int NestCachePolicy::WarmestLlc(const Task& task, double* warmth) const {
  *warmth = 0.0;
  if (task.llc_warmth.empty()) {
    return -1;
  }
  const SimTime now = kernel_->engine().Now();
  int best = -1;
  double best_warmth = 0.0;
  for (size_t socket = 0; socket < task.llc_warmth.size(); ++socket) {
    const double w = task.llc_warmth[socket].ValueAt(now);
    // Strict > keeps ties on the lowest socket, deterministically.
    if (w > best_warmth) {
      best_warmth = w;
      best = static_cast<int>(socket);
    }
  }
  *warmth = best_warmth;
  return best;
}

int NestCachePolicy::WarmExpansionCpu(const Task& task) const {
  double warmth = 0.0;
  const int warm = WarmestLlc(task, &warmth);
  if (warm < 0) {
    return -1;
  }
  for (const int cpu : kernel_->topology().CpusOnSocket(warm)) {
    if (kernel_->CpuIdleUnclaimed(cpu)) {
      return cpu;
    }
  }
  return -1;
}

int NestCachePolicy::SelectCommon(Task& task, int anchor_cpu, bool is_fork,
                                  const WakeContext& ctx) {
  // Warm anchoring: a task warm enough on some LLC searches the nests on
  // that die only, *before* the standard ladder is allowed to scatter it
  // off-die. The decisive case is the on-die reserve hit: plain Nest ranks
  // every primary core — even across the interconnect — above the reserve,
  // so a warm task whose die has a free reserve core but no free primary
  // core would pay a cross-LLC refill; here it stays home instead.
  if (cache_params_.enable_warm_anchor && !task.llc_warmth.empty()) {
    double warmth = 0.0;
    const int warm = WarmestLlc(task, &warmth);
    if (warm >= 0 && warmth >= cache_params_.warm_bias_threshold) {
      const int warm_anchor = kernel_->topology().SocketOf(anchor_cpu) == warm
                                  ? anchor_cpu
                                  : kernel_->topology().CpusOnSocket(warm).front();
      int chosen = SearchPrimary(warm_anchor, /*anchor_die_only=*/true);
      if (chosen >= 0) {
        task.placement_path = PlacementPath::kNestCacheWarm;
        MarkUsed(chosen);
        return chosen;
      }
      chosen = SearchReserve(warm_anchor, /*anchor_die_only=*/true);
      if (chosen >= 0) {
        // Same promotion a reserve hit earns in the standard ladder.
        task.placement_path = PlacementPath::kNestCacheWarm;
        RemoveFromReserve(chosen);
        AddToPrimary(chosen);
        MarkUsed(chosen);
        return chosen;
      }
      // Nothing free on the warm die: the refill is unavoidable, so defer to
      // the standard work-conserving ladder (it rescans the warm die first;
      // the second pass is cheap and side-effect free after this one).
    }
  }
  return NestPolicy::SelectCommon(task, anchor_cpu, is_fork, ctx);
}

int NestCachePolicy::CfsFallbackFork(Task& child, int parent_cpu) {
  if (cache_params_.enable_cost_aware_expansion) {
    const int cpu = WarmExpansionCpu(child);
    if (cpu >= 0) {
      return cpu;
    }
  }
  return NestPolicy::CfsFallbackFork(child, parent_cpu);
}

int NestCachePolicy::CfsFallbackWake(Task& task, const WakeContext& ctx) {
  if (cache_params_.enable_cost_aware_expansion) {
    const int cpu = WarmExpansionCpu(task);
    if (cpu >= 0) {
      return cpu;
    }
  }
  return NestPolicy::CfsFallbackWake(task, ctx);
}

void NestCachePolicy::OnTick() {
  if (!cache_params_.enable_compaction_grace || cache_params_.compaction_grace_ticks == 0) {
    NestPolicy::OnTick();
    return;
  }
  if (!params_.enable_compaction) {
    return;
  }
  // Same marking pass as NestPolicy::OnTick, but primary cores on the
  // dominant die — where the nest, and therefore everyone's LLC warmth, is
  // concentrated — get a longer leash before compaction can evict them.
  int dominant = -1;
  int dominant_count = 0;
  const Topology& topo = kernel_->topology();
  for (int socket = 0; socket < topo.num_sockets(); ++socket) {
    const int count = (primary_mask_ & die_masks_[socket]).Count();
    if (count > dominant_count) {  // ties keep the lowest socket
      dominant_count = count;
      dominant = socket;
    }
  }
  const SimTime now = kernel_->engine().Now();
  const SimDuration base_limit = params_.p_remove_ticks * kTickPeriod;
  const SimDuration graced_limit =
      (params_.p_remove_ticks + cache_params_.compaction_grace_ticks) * kTickPeriod;
  for (int cpu : primary_mask_) {
    CoreInfo& core = cores_[cpu];
    const SimDuration limit = topo.SocketOf(cpu) == dominant ? graced_limit : base_limit;
    if (!core.compaction_eligible && kernel_->CpuIdle(cpu) && now - core.last_used >= limit) {
      core.compaction_eligible = true;
    }
  }
}

}  // namespace nestsim
