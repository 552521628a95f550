#include "src/cfs/cfs_policy.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

namespace nestsim {

void CfsPolicy::Attach(Kernel* kernel) {
  SchedulerPolicy::Attach(kernel);
  ql_memo_.assign(kernel->topology().num_cpus(), QuantisedLoadMemo{});
}

int CfsPolicy::QuantisedLoad(int cpu) {
  const SimTime now = kernel_->engine().Now();
  const RunQueue& rq = kernel_->rq(cpu);
  QuantisedLoadMemo& memo = ql_memo_[cpu];
  if (memo.now == now && memo.placement_gen == rq.placement_gen()) {
    return memo.value;
  }
  const double util = kernel_->CpuUtil(cpu);
  const double placement = rq.PlacementLoad(now);
  const int value = static_cast<int>(std::lround((util + placement) * params_.load_resolution));
  memo = {now, rq.placement_gen(), value};
  return value;
}

int CfsPolicy::GroupLoad(const SchedGroup& group) {
  int load = 0;
  for (int cpu : group.cpus) {
    load += QuantisedLoad(cpu);
    // Queued tasks contribute their full weight to group load, as runnable
    // load does in Linux.
    load += kernel_->rq(cpu).QueuedCount() * params_.load_resolution;
  }
  return load;
}

int CfsPolicy::GroupIdleCount(const SchedGroup& group) const {
  return (group.mask & kernel_->idle_cpus()).Count();
}

int CfsPolicy::FindIdlestCpu(const std::vector<int>& span, int origin) {
  // Scan in numerical order, starting from `origin`'s position modulo the
  // span size (§2.1). Lower (nr_running, quantised load) wins; strict
  // inequality keeps the earliest candidate on ties, so a CPU with more
  // tasks than the best so far never needs its load.
  const int n = static_cast<int>(span.size());
  assert(n > 0);
  int start = 0;
  for (int i = 0; i < n; ++i) {
    if (span[i] >= origin) {
      start = i;
      break;
    }
  }
  int best_cpu = -1;
  int best_nr = std::numeric_limits<int>::max();
  int best_load = std::numeric_limits<int>::max();
  for (int i = 0; i < n; ++i) {
    const int cpu = span[(start + i) % n];
    const int nr = kernel_->rq(cpu).NrRunning();
    if (nr > best_nr) {
      continue;
    }
    const int load = QuantisedLoad(cpu);
    if (nr < best_nr || load < best_load) {
      best_cpu = cpu;
      best_nr = nr;
      best_load = load;
    }
  }
  return best_cpu;
}

int CfsPolicy::ForkPath(const Task& child, int parent_cpu) {
  (void)child;
  const DomainTree& tree = kernel_->domains();
  const SchedDomain* domain = &tree.Top();

  // Bring every utilisation signal in the top span to now before descending.
  // PELT updates are path dependent — skipping one at this instant would
  // change the low bits of every later update of that signal — and results
  // are pinned to a descent that reads every CPU's load. The descent below
  // reads loads only where a decision needs them; those reads are then
  // dt == 0 no-ops on the signal.
  for (int cpu : domain->span) {
    kernel_->CpuUtil(cpu);
  }

  int cpu = parent_cpu;
  while (domain != nullptr) {
    // Find the local group (containing `cpu`) and the best remote group:
    // most idle CPUs, then least load. A group's load is summed only when
    // its idle count ties the best one (kNoLoad until then).
    constexpr int kNoLoad = -1;
    const SchedGroup* local = nullptr;
    const SchedGroup* best = nullptr;
    int best_idle = -1;
    int best_load = kNoLoad;
    for (const SchedGroup& group : domain->groups) {
      if (group.mask.Test(cpu)) {
        local = &group;
        continue;
      }
      const int idle = GroupIdleCount(group);
      if (idle > best_idle) {
        best = &group;
        best_idle = idle;
        best_load = kNoLoad;
      } else if (idle == best_idle) {
        if (best_load == kNoLoad) {
          best_load = GroupLoad(*best);
        }
        const int load = GroupLoad(group);
        if (load < best_load) {
          best = &group;
          best_load = load;
        }
      }
    }

    const SchedGroup* chosen = local;
    if (local == nullptr) {
      chosen = best;
    } else if (best != nullptr) {
      // Leave the local group only when the remote one is substantially
      // idler (find_idlest_group's stickiness).
      const int local_idle = GroupIdleCount(*local);
      const int margin = std::max(
          1, static_cast<int>(params_.group_imbalance_fraction * static_cast<double>(local->cpus.size())));
      if (best_idle > local_idle + margin || (local_idle == 0 && best_idle > 0)) {
        chosen = best;
      } else if (best_idle == local_idle) {
        if (best_load == kNoLoad) {
          best_load = GroupLoad(*best);
        }
        if (best_load + margin * params_.load_resolution < GroupLoad(*local)) {
          chosen = best;
        }
      }
    }
    assert(chosen != nullptr);

    cpu = FindIdlestCpu(chosen->cpus, cpu);
    domain = tree.ChildContaining(*domain, cpu);
  }
  return cpu;
}

int CfsPolicy::ScanDieForIdle(int die, int origin, bool require_idle_core) {
  const Topology& topo = kernel_->topology();
  const std::vector<int>& firsts = topo.FirstThreadsOnSocket(die);
  const int n = static_cast<int>(firsts.size());
  const int origin_phys = topo.PhysCoreOf(origin);
  int start = 0;
  for (int i = 0; i < n; ++i) {
    if (topo.PhysCoreOf(firsts[i]) >= origin_phys) {
      start = i;
      break;
    }
  }
  if (require_idle_core) {
    // Pass 1: a physical core with every hardware thread idle.
    for (int i = 0; i < n; ++i) {
      const int first = firsts[(start + i) % n];
      const int sibling = topo.SiblingOf(first);
      if (kernel_->CpuIdle(first) && (sibling < 0 || kernel_->CpuIdle(sibling))) {
        return first;
      }
    }
    return -1;
  }
  // Pass 2: bounded scan for any idle CPU, in numerical order.
  const std::vector<int>& cpus = topo.CpusOnSocket(die);
  const int total = static_cast<int>(cpus.size());
  int scan_start = 0;
  for (int i = 0; i < total; ++i) {
    if (cpus[i] >= origin) {
      scan_start = i;
      break;
    }
  }
  const int limit = std::min(total, params_.wakeup_scan_limit);
  for (int i = 0; i < limit; ++i) {
    const int cpu = cpus[(scan_start + i) % total];
    if (kernel_->CpuIdle(cpu)) {
      return cpu;
    }
  }
  return -1;
}

int CfsPolicy::WakePath(const Task& task, const WakeContext& ctx, bool work_conserving_ext) {
  const Topology& topo = kernel_->topology();
  const int prev = task.prev_cpu >= 0 ? task.prev_cpu : ctx.waker_cpu;
  const int waker = ctx.waker_cpu >= 0 ? ctx.waker_cpu : prev;

  // wake_affine: pick the target die/CPU. A sync wakeup whose waker is alone
  // on its CPU targets the waker even when prev is idle (v5.9
  // wake_affine_idle) — this is what pulls IPC-woken tasks toward the waker
  // and scatters them over its die.
  int target = prev;
  if (ctx.sync && waker != prev && kernel_->rq(waker).NrRunning() <= 1) {
    target = waker;
  } else if (!kernel_->CpuIdle(prev)) {
    if (kernel_->CpuUtil(waker) < kernel_->CpuUtil(prev)) {
      target = waker;
    }
  }

  // select_idle_sibling on the target's die.
  const int die = topo.SocketOf(target);
  if (kernel_->CpuIdle(target)) {
    return target;
  }
  int found = ScanDieForIdle(die, target, /*require_idle_core=*/true);
  if (found >= 0) {
    return found;
  }
  found = ScanDieForIdle(die, target, /*require_idle_core=*/false);
  if (found >= 0) {
    return found;
  }
  const int sibling = topo.SiblingOf(target);
  if (sibling >= 0 && kernel_->CpuIdle(sibling)) {
    return sibling;
  }

  if (work_conserving_ext) {
    // Nest's §3.4 extension: examine the other dies before giving up.
    for (int offset = 1; offset < topo.num_sockets(); ++offset) {
      const int other = (die + offset) % topo.num_sockets();
      int cpu = ScanDieForIdle(other, topo.CpusOnSocket(other).front(), /*require_idle_core=*/true);
      if (cpu < 0) {
        cpu = ScanDieForIdle(other, topo.CpusOnSocket(other).front(), /*require_idle_core=*/false);
      }
      if (cpu >= 0) {
        return cpu;
      }
    }
  }
  return target;
}

int CfsPolicy::SelectCpuFork(Task& child, int parent_cpu) {
  child.placement_path = PlacementPath::kCfsFork;
  return ForkPath(child, parent_cpu);
}

int CfsPolicy::SelectCpuWake(Task& task, const WakeContext& ctx) {
  task.placement_path = PlacementPath::kCfsWake;
  return WakePath(task, ctx, /*work_conserving_ext=*/false);
}

}  // namespace nestsim
