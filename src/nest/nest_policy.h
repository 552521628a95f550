// The Nest scheduling policy (paper §3).
//
// Nest keeps two sets of cores. The *primary nest* holds cores in active use;
// the *reserve nest* (bounded by R_max) holds cores that were recently useful
// or were just handed over by CFS and have not yet proved themselves. Core
// selection searches primary → reserve → CFS; management moves cores between
// the nests:
//   * reserve hit          → promote to primary
//   * CFS fallback hit     → add to reserve (if it has room)
//   * idle for P_remove    → eligible for compaction; demoted to reserve (or
//                            dropped) when a task next touches it
//   * task exits, core idle→ demote to reserve immediately
//   * impatient task       → skip primary; the chosen core goes straight to
//                            primary, growing the nest
// Additional mechanisms: a 2-deep placement history attaches a task to a core
// it used twice in a row (§3.3); the idle loop warm-spins on primary cores
// for up to S_max ticks (§3.2); wakeups fall back to a fully work-conserving
// CFS scan (§3.4); and placement reservations close the select/enqueue race
// (§3.4). Every feature has a kill switch for the paper's ablations.

#ifndef NESTSIM_SRC_NEST_NEST_POLICY_H_
#define NESTSIM_SRC_NEST_NEST_POLICY_H_

#include <vector>

#include "src/cfs/cfs_policy.h"
#include "src/kernel/kernel.h"
#include "src/kernel/policy.h"

namespace nestsim {

// Paper Table 1 defaults; scaled variants drive the ablation study.
struct NestParams {
  int p_remove_ticks = 2;  // idle ticks before a primary core may be compacted
  int r_max = 5;           // reserve-nest capacity
  int r_impatient = 2;     // failed previous-core attempts before impatience
  int s_max_ticks = 2;     // warm-spin duration in the idle loop

  // Feature switches (ablation).
  bool enable_reserve = true;
  bool enable_compaction = true;
  bool enable_spin = true;
  bool enable_attach = true;
  bool enable_impatience = true;
  bool enable_wake_work_conservation = true;
  bool enable_placement_reservation = true;
};

class NestPolicy : public SchedulerPolicy {
 public:
  NestPolicy() = default;
  explicit NestPolicy(NestParams params) : params_(params) {}

  void Attach(Kernel* kernel) override;
  const char* name() const override { return "nest"; }

  int SelectCpuFork(Task& child, int parent_cpu) override;
  int SelectCpuWake(Task& task, const WakeContext& ctx) override;
  void OnTaskEnqueued(Task& task, int cpu) override;
  void OnTaskExit(Task& task, int cpu) override;
  int IdleSpinTicks(int cpu) override;
  void OnTick() override;
  // A failed core leaves both nests immediately; a repaired one re-earns its
  // membership through the normal promotion paths (src/fault/).
  void OnCpuOffline(int cpu) override;
  bool UsesPlacementReservation() const override {
    return params_.enable_placement_reservation;
  }
  int NestMembership(int cpu) const override {
    return InPrimary(cpu) ? 2 : (InReserve(cpu) ? 1 : 0);
  }

  const NestParams& params() const { return params_; }

  // Introspection for tests and metrics.
  bool InPrimary(int cpu) const { return primary_mask_.Test(cpu); }
  bool InReserve(int cpu) const { return reserve_mask_.Test(cpu); }
  bool CompactionEligible(int cpu) const { return cores_[cpu].compaction_eligible; }
  int PrimarySize() const { return primary_mask_.Count(); }
  int ReserveSize() const { return reserve_mask_.Count(); }

 protected:
  // Subclass seam: NestCachePolicy (src/nest/nest_cache_policy.h) reuses the
  // membership management and searches, re-anchors selection toward a warm
  // LLC, and overrides the fallbacks to expand onto cache-cheap cores.
  struct CoreInfo {
    bool compaction_eligible = false;
    SimTime last_used = 0;
  };

  // Shared fork/wake selection once the per-path preliminaries are done.
  // Virtual so NestCachePolicy can interleave its warm-die-restricted passes
  // with the standard primary → reserve → CFS ladder.
  virtual int SelectCommon(Task& task, int anchor_cpu, bool is_fork, const WakeContext& ctx);

  // Searches the primary nest for an idle unclaimed core: same die as
  // `anchor` first, then the other dies; numerical order from `anchor`,
  // wrapping past the last CPU. Demotes compaction-eligible cores it touches
  // along the way. Each pass walks only nest members — primary_mask_ AND or
  // AND-NOT the anchor's die mask, rotated with CpuMask::NextFrom — so its
  // cost follows the nest size, not the machine width. With
  // `anchor_die_only` the off-die pass is skipped entirely.
  int SearchPrimary(int anchor, bool anchor_die_only = false);
  // Searches the reserve nest the same way, starting from the fixed core
  // (root_cpu), anchored die first; `anchor_die_only` skips the off-die pass.
  int SearchReserve(int anchor, bool anchor_die_only = false);

  // Virtual so NestCachePolicy can make nest *expansion* migration-cost
  // aware: when the nests are full, the CFS-chosen core is the one that
  // joins a nest, and a cache-aware policy prefers it on a warm die.
  virtual int CfsFallbackFork(Task& child, int parent_cpu);
  virtual int CfsFallbackWake(Task& task, const WakeContext& ctx);

  // The only writers of nest membership (primary_mask_/reserve_mask_);
  // subclasses only read it.
  void AddToPrimary(int cpu);
  void AddToReserve(int cpu);  // respects r_max; may drop the core instead
  void RemoveFromPrimary(int cpu);
  void RemoveFromReserve(int cpu);
  void DemoteFromPrimary(int cpu);  // to reserve, or out entirely
  void MarkUsed(int cpu);

  NestParams params_;
  CfsPolicy cfs_;
  std::vector<CoreInfo> cores_;
  CpuMask primary_mask_;  // the primary nest
  CpuMask reserve_mask_;  // the reserve nest, disjoint from the primary
  std::vector<CpuMask> die_masks_;  // by socket; built in Attach

 private:
  // One search pass over `candidates` in rotated order from `start`; the
  // primary pass demotes compaction-eligible cores as it meets them.
  int SearchPrimaryIn(CpuMask candidates, int start);
  int SearchReserveIn(CpuMask candidates, int start) const;
};

}  // namespace nestsim

#endif  // NESTSIM_SRC_NEST_NEST_POLICY_H_
