// The CFS core-selection policy (paper §2.1), modelled on Linux v5.9.
//
// Fork: descend the scheduling-domain hierarchy, picking the least-loaded
// group at each level (with a stickiness margin before leaving the local
// group), then the least-loaded CPU within the chosen group, scanning in
// numerical order from the forking CPU. Load comparisons use the decaying
// per-CPU utilisation, quantised as Linux's integer load metrics are — a
// *fully* idle CPU beats a recently used one, which is the dispersal bias
// Nest attacks.
//
// Wakeup: pick a target (previous CPU or waker, wake_affine-style), then
// select_idle_sibling on the target's die: whole-die scan for a fully idle
// physical core, bounded scan for any idle CPU, the target's hyperthread,
// else the target itself. Not work conserving across dies — unless the
// caller asks for Nest's §3.4 extension.

#ifndef NESTSIM_SRC_CFS_CFS_POLICY_H_
#define NESTSIM_SRC_CFS_CFS_POLICY_H_

#include <cstdint>
#include <vector>

#include "src/kernel/kernel.h"
#include "src/kernel/policy.h"

namespace nestsim {

class CfsPolicy : public SchedulerPolicy {
 public:
  struct Params {
    // Bounded idle-CPU scan length on the wakeup path ("searches through a
    // few cores", §2.1).
    int wakeup_scan_limit = 8;
    // Quantisation of load comparisons, emulating integer load_avg: loads
    // within 1/load_resolution of each other tie (and numerical order from
    // the origin CPU breaks the tie).
    int load_resolution = 32;
    // Extra idle CPUs a remote group must have before fork leaves the local
    // group, as a fraction of group size (imbalance_pct-style stickiness;
    // v5.9 keeps forks local while the local group has real spare capacity).
    double group_imbalance_fraction = 0.4;
  };

  CfsPolicy() = default;
  explicit CfsPolicy(Params params) : params_(params) {}

  const char* name() const override { return "cfs"; }

  void Attach(Kernel* kernel) override;

  int SelectCpuFork(Task& child, int parent_cpu) override;
  int SelectCpuWake(Task& task, const WakeContext& ctx) override;

  // The raw paths, reusable by Nest (fallback) and Smove (base choice).
  // `work_conserving_ext` enables Nest's §3.4 all-die wakeup scan.
  int ForkPath(const Task& child, int parent_cpu);
  int WakePath(const Task& task, const WakeContext& ctx, bool work_conserving_ext);

  const Params& params() const { return params_; }

 private:
  // Quantised load of one CPU (integer, 0..load_resolution).
  int QuantisedLoad(int cpu);
  // Sum of quantised loads over a group span. ForkPath asks for it only when
  // two groups' idle counts tie.
  int GroupLoad(const SchedGroup& group);
  // popcount(group mask & the kernel's idle mask).
  int GroupIdleCount(const SchedGroup& group) const;

  // Least-loaded CPU within a span, scanning numerically from `origin`:
  // prefers idle CPUs with the smallest quantised load; falls back to the
  // smallest (nr_running, load). Loads are read only for CPUs whose
  // nr_running could still win.
  int FindIdlestCpu(const std::vector<int>& span, int origin);

  // select_idle_sibling's die scan. Returns -1 if nothing idle was found.
  int ScanDieForIdle(int die, int origin, bool require_idle_core);

  Params params_;

  // Fork's group descent can ask a CPU for its quantised load more than once
  // per placement (a tied group's sum at one level, then the chosen group's
  // CPU scan at the next). ForkPath brings every utilisation signal to now
  // before the descent, so the value is pure within one instant for a fixed
  // placement generation — PELT updates are idempotent at dt == 0 — and is
  // cached per CPU.
  struct QuantisedLoadMemo {
    SimTime now = -1;
    uint64_t placement_gen = 0;
    int value = 0;
  };
  std::vector<QuantisedLoadMemo> ql_memo_;
};

}  // namespace nestsim

#endif  // NESTSIM_SRC_CFS_CFS_POLICY_H_
