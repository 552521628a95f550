#include "src/nest/nest_policy.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/governors/governors.h"
#include "src/sim/random.h"
#include "tests/testing/test_machine.h"

namespace nestsim {
namespace {

struct NestRig {
  explicit NestRig(NestParams params = NestParams(),
                   MachineSpec spec = FixedFreqMachine(2, 4, 2))
      : hw(&engine, spec), nest(params), kernel(&engine, &hw, &nest, &governor) {
    kernel.Start();
    // Establish root_cpu (the fixed reserve-search start) without occupying
    // anything for long.
    ProgramBuilder b("root");
    b.Compute(1);
    kernel.SpawnInitial(b.Build(), "root", 0, 0);
    engine.RunUntil(kMillisecond);
  }

  Task* Occupy(int cpu) {
    ProgramBuilder b("hog");
    b.Compute(1e12);
    return kernel.SpawnInitial(b.Build(), "hog", 0, cpu);
  }

  // Runs a wake selection for a task with the given history.
  int Wake(Task& t, int waker) {
    WakeContext ctx;
    ctx.waker_cpu = waker;
    return nest.SelectCpuWake(t, ctx);
  }

  Engine engine;
  HardwareModel hw;
  PerformanceGovernor governor;
  NestPolicy nest;
  Kernel kernel;
};

TEST(NestPolicyTest, EmptyNestFallsBackToCfsAndJoinsReserve) {
  NestRig rig;
  Task child;
  const int cpu = rig.nest.SelectCpuFork(child, 0);
  EXPECT_GE(cpu, 0);
  // A CFS-chosen core normally enters the reserve nest (§3.1).
  EXPECT_TRUE(rig.nest.InReserve(cpu));
  EXPECT_FALSE(rig.nest.InPrimary(cpu));
  EXPECT_EQ(rig.nest.ReserveSize(), 1);
}

TEST(NestPolicyTest, ReserveHitPromotesToPrimary) {
  NestRig rig;
  Task a;
  const int cpu = rig.nest.SelectCpuFork(a, 0);
  ASSERT_TRUE(rig.nest.InReserve(cpu));
  Task b;
  const int again = rig.nest.SelectCpuFork(b, 0);
  EXPECT_EQ(again, cpu);
  EXPECT_TRUE(rig.nest.InPrimary(cpu));
  EXPECT_FALSE(rig.nest.InReserve(cpu));
}

TEST(NestPolicyTest, PrimaryAndReserveAreDisjoint) {
  NestRig rig;
  // Drive a bunch of selections and check the invariant throughout.
  for (int i = 0; i < 40; ++i) {
    Task t;
    t.prev_cpu = i % 8;
    rig.Wake(t, 0);
    for (int cpu = 0; cpu < rig.kernel.topology().num_cpus(); ++cpu) {
      ASSERT_FALSE(rig.nest.InPrimary(cpu) && rig.nest.InReserve(cpu)) << "cpu " << cpu;
    }
  }
}

TEST(NestPolicyTest, ReserveIsBoundedByRmax) {
  NestParams params;
  params.r_max = 2;
  NestRig rig(params);
  // Force many distinct CFS fallbacks by occupying chosen cores.
  for (int i = 0; i < 6; ++i) {
    Task t;
    const int cpu = rig.nest.SelectCpuFork(t, 0);
    rig.Occupy(cpu);
    EXPECT_LE(rig.nest.ReserveSize(), 2);
  }
}

TEST(NestPolicyTest, PrimarySearchStartsAtPreviousCore) {
  NestRig rig;
  // Build a primary nest of cores 1 and 2.
  Task t1;
  const int c1 = rig.nest.SelectCpuFork(t1, 1);
  Task t2;
  const int c2 = rig.nest.SelectCpuFork(t2, 1);
  ASSERT_EQ(c1, c2);  // promotion path reuses the same core
  ASSERT_TRUE(rig.nest.InPrimary(c1));

  Task waker;
  waker.prev_cpu = c1;
  waker.prev_prev_cpu = -1;
  const int chosen = rig.Wake(waker, 0);
  EXPECT_EQ(chosen, c1);  // idle primary core at its previous position
}

TEST(NestPolicyTest, AttachedTaskReturnsToItsCore) {
  NestRig rig;
  Task setup;
  const int core = rig.nest.SelectCpuFork(setup, 0);
  Task again;
  rig.nest.SelectCpuFork(again, 0);  // promote to primary
  ASSERT_TRUE(rig.nest.InPrimary(core));

  Task attached;
  attached.prev_cpu = core;
  attached.prev_prev_cpu = core;  // history of 2 identical stints (§3.3)
  EXPECT_EQ(rig.Wake(attached, 5), core);
}

TEST(NestPolicyTest, AttachmentDisabledFallsThrough) {
  NestParams params;
  params.enable_attach = false;
  NestRig rig(params);
  Task setup;
  const int core = rig.nest.SelectCpuFork(setup, 0);
  Task again;
  rig.nest.SelectCpuFork(again, 0);
  ASSERT_TRUE(rig.nest.InPrimary(core));
  // Even without attachment the primary search still finds the core; this
  // exercises the switch rather than the outcome.
  Task t;
  t.prev_cpu = core;
  t.prev_prev_cpu = core;
  EXPECT_EQ(rig.Wake(t, 5), core);
}

TEST(NestPolicyTest, ImpatienceExpandsPrimaryDirectly) {
  NestParams params;
  params.r_impatient = 2;
  NestRig rig(params);
  // Primary core occupied by someone else.
  Task setup;
  const int core = rig.nest.SelectCpuFork(setup, 0);
  Task again;
  rig.nest.SelectCpuFork(again, 0);
  ASSERT_TRUE(rig.nest.InPrimary(core));
  rig.Occupy(core);

  Task t;
  t.prev_cpu = core;
  t.prev_prev_cpu = -1;
  // First failed wake: impatience 1; falls back normally.
  rig.Wake(t, 0);
  EXPECT_EQ(t.impatience, 1);
  // Second failed wake: impatient path; the chosen core goes straight to
  // primary and the counter resets (§3.1).
  const int chosen = rig.Wake(t, 0);
  EXPECT_EQ(t.impatience, 0);
  EXPECT_TRUE(rig.nest.InPrimary(chosen));
}

TEST(NestPolicyTest, ImpatienceResetsWhenPrevIsIdle) {
  NestRig rig;
  Task t;
  t.prev_cpu = 3;  // idle
  t.impatience = 1;
  rig.Wake(t, 0);
  EXPECT_EQ(t.impatience, 0);
}

TEST(NestPolicyTest, ExitDemotesIdleCoreToReserve) {
  NestRig rig;
  Task setup;
  const int core = rig.nest.SelectCpuFork(setup, 0);
  Task again;
  rig.nest.SelectCpuFork(again, 0);
  ASSERT_TRUE(rig.nest.InPrimary(core));

  Task dead;
  rig.nest.OnTaskExit(dead, core);  // core is idle
  EXPECT_FALSE(rig.nest.InPrimary(core));
  EXPECT_TRUE(rig.nest.InReserve(core));
}

TEST(NestPolicyTest, ExitKeepsBusyCore) {
  NestRig rig;
  Task setup;
  const int core = rig.nest.SelectCpuFork(setup, 0);
  Task again;
  rig.nest.SelectCpuFork(again, 0);
  rig.Occupy(core);
  Task dead;
  rig.nest.OnTaskExit(dead, core);
  EXPECT_TRUE(rig.nest.InPrimary(core));
}

TEST(NestPolicyTest, CompactionMarksLongIdlePrimaryCores) {
  NestParams params;
  params.p_remove_ticks = 2;
  NestRig rig(params);
  Task setup;
  const int stale = rig.nest.SelectCpuFork(setup, 0);
  Task again;
  rig.nest.SelectCpuFork(again, 0);
  ASSERT_TRUE(rig.nest.InPrimary(stale));
  EXPECT_FALSE(rig.nest.CompactionEligible(stale));
  // Grow a second primary core so the search has a live alternative.
  rig.Occupy(stale);
  Task other;
  const int fresh_reserve = rig.nest.SelectCpuFork(other, 0);
  Task other2;
  const int fresh = rig.nest.SelectCpuFork(other2, 0);
  ASSERT_EQ(fresh, fresh_reserve);
  ASSERT_TRUE(rig.nest.InPrimary(fresh));
  ASSERT_NE(fresh, stale);
  // `stale` is busy (occupied), so it cannot expire yet; free it by letting
  // time pass after marking: simplest is to expire `stale` while idle — so
  // re-run with `stale` idle and `fresh` kept warm.
  // Keep `fresh` warm by touching it each tick.
  for (int i = 0; i < 4; ++i) {
    rig.engine.RunUntil(rig.engine.Now() + kTickPeriod);
    Task dummy;
    rig.nest.OnTaskEnqueued(dummy, fresh);
  }
  // `stale` stayed busy, never idle -> not eligible. Kill nothing; instead
  // verify eligibility semantics on an idle primary core: demote `stale`'s
  // hog and wait.
  // (The Occupy task never exits in this rig, so assert on `fresh` going
  // stale instead once we stop touching it.)
  rig.engine.RunUntil(rig.engine.Now() + 3 * kTickPeriod);
  EXPECT_TRUE(rig.nest.CompactionEligible(fresh));
  // A non-attached wake anchored at `fresh` demotes it; the primary search
  // continues and must not return the demoted core from the primary nest.
  Task t;
  t.prev_cpu = fresh;
  t.prev_prev_cpu = -1;
  const int chosen = rig.Wake(t, 0);
  EXPECT_FALSE(rig.nest.InPrimary(fresh) && chosen != fresh);
  // Either the core was demoted (normal compaction) or re-selected through
  // the reserve path, which re-promotes it.
  if (chosen != fresh) {
    EXPECT_FALSE(rig.nest.InPrimary(fresh));
  } else {
    EXPECT_TRUE(rig.nest.InPrimary(fresh));
  }
}

TEST(NestPolicyTest, AttachedTaskReclaimsCompactionEligibleCore) {
  NestParams params;
  params.p_remove_ticks = 2;
  NestRig rig(params);
  Task setup;
  const int core = rig.nest.SelectCpuFork(setup, 0);
  Task again;
  rig.nest.SelectCpuFork(again, 0);
  rig.engine.RunUntil(rig.engine.Now() + 3 * kTickPeriod);
  ASSERT_TRUE(rig.nest.CompactionEligible(core));
  Task t;
  t.prev_cpu = core;
  t.prev_prev_cpu = core;  // attached
  EXPECT_EQ(rig.Wake(t, 0), core);
  EXPECT_TRUE(rig.nest.InPrimary(core));
  EXPECT_FALSE(rig.nest.CompactionEligible(core));
}

TEST(NestPolicyTest, CompactionDisabledNeverMarks) {
  NestParams params;
  params.enable_compaction = false;
  NestRig rig(params);
  Task setup;
  const int core = rig.nest.SelectCpuFork(setup, 0);
  Task again;
  rig.nest.SelectCpuFork(again, 0);
  rig.engine.RunUntil(rig.engine.Now() + 20 * kTickPeriod);
  EXPECT_FALSE(rig.nest.CompactionEligible(core));
}

TEST(NestPolicyTest, SpinOnlyOnPrimaryCores) {
  NestParams params;
  params.s_max_ticks = 2;
  NestRig rig(params);
  Task setup;
  const int core = rig.nest.SelectCpuFork(setup, 0);
  Task again;
  rig.nest.SelectCpuFork(again, 0);
  ASSERT_TRUE(rig.nest.InPrimary(core));
  EXPECT_EQ(rig.nest.IdleSpinTicks(core), 2);
  // Non-nest core: no spin.
  int outside = 0;
  while (rig.nest.InPrimary(outside) || rig.nest.InReserve(outside)) {
    ++outside;
  }
  EXPECT_EQ(rig.nest.IdleSpinTicks(outside), 0);
}

TEST(NestPolicyTest, SpinDisabledByAblation) {
  NestParams params;
  params.enable_spin = false;
  NestRig rig(params);
  Task setup;
  const int core = rig.nest.SelectCpuFork(setup, 0);
  Task again;
  rig.nest.SelectCpuFork(again, 0);
  EXPECT_EQ(rig.nest.IdleSpinTicks(core), 0);
}

TEST(NestPolicyTest, NoReserveModeAddsCfsCoresToPrimary) {
  NestParams params;
  params.enable_reserve = false;
  NestRig rig(params);
  Task t;
  const int cpu = rig.nest.SelectCpuFork(t, 0);
  EXPECT_TRUE(rig.nest.InPrimary(cpu));
  EXPECT_EQ(rig.nest.ReserveSize(), 0);
}

TEST(NestPolicyTest, ReservationFlagControlledByParam) {
  NestParams on;
  EXPECT_TRUE(NestPolicy(on).UsesPlacementReservation());
  NestParams off;
  off.enable_placement_reservation = false;
  EXPECT_FALSE(NestPolicy(off).UsesPlacementReservation());
}

TEST(NestPolicyTest, SearchPrefersAnchorDie) {
  NestRig rig;
  // Primary cores on both sockets: 1 (socket 0) and 4 (socket 1).
  // Build them via direct membership manipulation through selection:
  Task a;
  const int c0 = rig.nest.SelectCpuFork(a, 1);
  Task b;
  rig.nest.SelectCpuFork(b, 1);  // promote c0
  ASSERT_EQ(rig.kernel.topology().SocketOf(c0), 0);
  // Occupy everything on socket 0 except via fallback to socket 1.
  for (int cpu : rig.kernel.topology().CpusOnSocket(0)) {
    if (rig.kernel.CpuIdle(cpu)) {
      rig.Occupy(cpu);
    }
  }
  Task c;
  const int c1 = rig.nest.SelectCpuFork(c, 1);
  Task d;
  const int c1b = rig.nest.SelectCpuFork(d, 1);
  ASSERT_EQ(rig.kernel.topology().SocketOf(c1), 1);
  ASSERT_EQ(c1, c1b);
  ASSERT_TRUE(rig.nest.InPrimary(c1));
  // Now a task anchored on socket 1 must find the socket-1 primary core
  // first, even though c0's socket-0 core exists.
  Task t;
  t.prev_cpu = rig.kernel.topology().CpusOnSocket(1).front();
  const int chosen = rig.Wake(t, t.prev_cpu);
  EXPECT_EQ(rig.kernel.topology().SocketOf(chosen), 1);
}

TEST(NestPolicyTest, PrimarySizeCounts) {
  NestRig rig;
  EXPECT_EQ(rig.nest.PrimarySize(), 0);
  Task a;
  const int c = rig.nest.SelectCpuFork(a, 0);
  Task b;
  rig.nest.SelectCpuFork(b, 0);
  EXPECT_TRUE(rig.nest.InPrimary(c));
  EXPECT_EQ(rig.nest.PrimarySize(), 1);
}

// ---------------------------------------------------------------------------
// Differential test of the mask-based nest searches against the linear scans
// they replaced.
// ---------------------------------------------------------------------------

// Exposes the searches and keeps a copy of the pre-mask linear
// SearchPrimary/SearchReserve (a local list in place of the old member
// scratch vector): a wrapped walk over every CPU of the machine, on-die
// inline, off-die deferred to the list.
class SearchProbe : public NestPolicy {
 public:
  using NestPolicy::NestPolicy;
  using NestPolicy::SearchPrimary;
  using NestPolicy::SearchReserve;

  // Forces `cpu`'s membership: 0 none, 1 reserve (subject to r_max), 2
  // primary, optionally compaction-eligible.
  void ForceMembership(int cpu, int membership, bool eligible) {
    if (InPrimary(cpu)) {
      RemoveFromPrimary(cpu);
    }
    if (InReserve(cpu)) {
      RemoveFromReserve(cpu);
    }
    if (membership == 2) {
      AddToPrimary(cpu);
      cores_[cpu].compaction_eligible = eligible;
    } else if (membership == 1) {
      AddToReserve(cpu);
    }
  }

  int ReferenceSearchPrimary(int anchor, bool anchor_die_only) {
    const Topology& topo = kernel_->topology();
    const int anchor_die = topo.SocketOf(anchor);
    const int num_cpus = topo.num_cpus();
    std::vector<int> offdie;
    for (int i = 0; i < num_cpus; ++i) {
      const int cpu = anchor + i < num_cpus ? anchor + i : anchor + i - num_cpus;
      if (topo.SocketOf(cpu) != anchor_die) {
        if (!anchor_die_only && InPrimary(cpu)) {
          offdie.push_back(cpu);
        }
        continue;
      }
      if (!InPrimary(cpu)) {
        continue;
      }
      if (cores_[cpu].compaction_eligible) {
        kernel_->NotifyNestEvent(NestEventKind::kCompact, cpu);
        DemoteFromPrimary(cpu);
        continue;
      }
      if (kernel_->CpuIdleUnclaimed(cpu)) {
        return cpu;
      }
    }
    for (int cpu : offdie) {
      if (!InPrimary(cpu)) {
        continue;
      }
      if (cores_[cpu].compaction_eligible) {
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

  int ReferenceSearchReserve(int anchor, bool anchor_die_only) {
    if (!params_.enable_reserve || ReserveSize() == 0) {
      return -1;
    }
    const Topology& topo = kernel_->topology();
    const int anchor_die = topo.SocketOf(anchor);
    const int num_cpus = topo.num_cpus();
    const int fixed = kernel_->root_cpu() >= 0 ? kernel_->root_cpu() : 0;
    std::vector<int> offdie;
    for (int i = 0; i < num_cpus; ++i) {
      const int cpu = fixed + i < num_cpus ? fixed + i : fixed + i - num_cpus;
      if (!InReserve(cpu)) {
        continue;
      }
      if (topo.SocketOf(cpu) != anchor_die) {
        if (!anchor_die_only) {
          offdie.push_back(cpu);
        }
        continue;
      }
      if (kernel_->CpuIdleUnclaimed(cpu)) {
        return cpu;
      }
    }
    for (int cpu : offdie) {
      if (kernel_->CpuIdleUnclaimed(cpu)) {
        return cpu;
      }
    }
    return -1;
  }
};

class NestEventLog : public KernelObserver {
 public:
  uint32_t InterestMask() const override { return kObsNestEvent; }
  void OnNestEvent(SimTime now, NestEventKind kind, int cpu) override {
    (void)now;
    events.emplace_back(kind, cpu);
  }
  std::vector<std::pair<NestEventKind, int>> events;
};

// One machine in a random state drawn from `seed`: busy, claimed and offline
// CPUs, and random primary/reserve/compaction-eligible membership. Two rigs
// from the same seed are identical.
struct SearchRig {
  SearchRig(const std::string& machine, uint64_t seed)
      : hw(&engine, MachineByName(machine)), nest(DrawParams(seed)),
        kernel(&engine, &hw, &nest, &governor) {
    kernel.Start();
    Rng rng(seed);
    const int n = kernel.topology().num_cpus();
    const double busy = std::vector<double>{0.05, 0.4, 0.9}[rng.NextBounded(3)];
    const double member = std::vector<double>{0.05, 0.3, 0.8}[rng.NextBounded(3)];
    // The first spawn fixes root_cpu, the reserve search's start.
    Spawn(static_cast<int>(rng.NextBounded(static_cast<uint64_t>(n))));
    for (int cpu = 0; cpu < n; ++cpu) {
      if (rng.NextDouble() < busy && kernel.CpuIdle(cpu)) {
        Spawn(cpu);
      }
    }
    for (int cpu = 0; cpu < n; ++cpu) {
      if (rng.NextDouble() < 0.03) {
        kernel.OfflineCpu(cpu);
      }
    }
    for (int cpu = 0; cpu < n; ++cpu) {
      if (kernel.CpuIdle(cpu) && rng.NextDouble() < 0.1) {
        kernel.TryClaimCpu(cpu);
      }
    }
    for (int cpu = 0; cpu < n; ++cpu) {
      int membership = 0;  // offline cores stay out of both nests
      if (kernel.CpuOnline(cpu) && rng.NextDouble() < member) {
        membership = 1 + static_cast<int>(rng.NextBounded(2));
      }
      nest.ForceMembership(cpu, membership, rng.NextDouble() < 0.3);
    }
    kernel.AddObserver(&log);
  }

  // Alternate seeds bound the reserve (r_max 5, so demotes can drop cores)
  // or leave it effectively unbounded.
  static NestParams DrawParams(uint64_t seed) {
    NestParams params;
    params.r_max = seed % 2 == 0 ? 5 : CpuMask::kMaxCpus;
    return params;
  }

  void Spawn(int cpu) {
    ProgramBuilder b("hog");
    b.Compute(1e12);
    kernel.SpawnInitial(b.Build(), "hog", 0, cpu);
  }

  std::vector<int> Membership() const {
    std::vector<int> out;
    for (int cpu = 0; cpu < kernel.topology().num_cpus(); ++cpu) {
      out.push_back(nest.NestMembership(cpu) * 2 + (nest.CompactionEligible(cpu) ? 1 : 0));
    }
    return out;
  }

  Engine engine;
  HardwareModel hw;
  PerformanceGovernor governor;
  SearchProbe nest;
  Kernel kernel;
  NestEventLog log;
};

class NestSearchDifferentialTest : public ::testing::TestWithParam<const char*> {};

TEST_P(NestSearchDifferentialTest, MaskSearchesMatchLinearScans) {
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    SearchRig fast(GetParam(), seed);
    SearchRig ref(GetParam(), seed);
    ASSERT_EQ(fast.Membership(), ref.Membership());
    Rng rng(seed * 7919);
    const int n = fast.kernel.topology().num_cpus();
    // A few searches per state, so earlier compaction demotes shape later
    // searches; primary and reserve, with and without anchor_die_only.
    for (int step = 0; step < 8; ++step) {
      const int anchor = static_cast<int>(rng.NextBounded(static_cast<uint64_t>(n)));
      const bool die_only = rng.NextBounded(2) == 0;
      const bool primary = step % 2 == 0;
      const int got = primary ? fast.nest.SearchPrimary(anchor, die_only)
                              : fast.nest.SearchReserve(anchor, die_only);
      const int want = primary ? ref.nest.ReferenceSearchPrimary(anchor, die_only)
                               : ref.nest.ReferenceSearchReserve(anchor, die_only);
      const std::string where = std::string(GetParam()) + " seed " + std::to_string(seed) +
                                " step " + std::to_string(step);
      ASSERT_EQ(got, want) << where;
      ASSERT_EQ(fast.Membership(), ref.Membership()) << where;  // same demotes
      ASSERT_EQ(fast.log.events, ref.log.events) << where;      // same kCompact order
      ASSERT_EQ(fast.nest.PrimarySize(), ref.nest.PrimarySize()) << where;
      ASSERT_EQ(fast.nest.ReserveSize(), ref.nest.ReserveSize()) << where;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Machines, NestSearchDifferentialTest,
                         ::testing::Values("amd-4650g-1s", "intel-5218-2s", "intel-8153-8s"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '-') {
                               c = '_';
                             }
                           }
                           return name;
                         });

}  // namespace
}  // namespace nestsim
