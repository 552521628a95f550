#include "src/cfs/cfs_policy.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "src/governors/governors.h"
#include "src/sim/random.h"
#include "tests/testing/test_machine.h"

namespace nestsim {
namespace {

struct CfsRig {
  explicit CfsRig(MachineSpec spec = FixedFreqMachine(2, 4, 2))
      : hw(&engine, spec), kernel(&engine, &hw, &cfs, &governor) {
    kernel.Start();
  }

  // Makes `cpu` busy by spawning an endless-ish compute task pinned there.
  Task* Occupy(int cpu) {
    ProgramBuilder b("hog");
    b.Compute(1e12);
    return kernel.SpawnInitial(b.Build(), "hog", 0, cpu);
  }

  Engine engine;
  HardwareModel hw;
  CfsPolicy cfs;
  PerformanceGovernor governor;
  Kernel kernel;
};

TEST(CfsForkTest, IdleMachineKeepsChildNearParent) {
  CfsRig rig;
  Task child;
  const int cpu = rig.cfs.SelectCpuFork(child, 2);
  // Everything idle: the local group wins at every level, and the numerical
  // scan starts at the parent.
  EXPECT_EQ(rig.kernel.topology().SocketOf(cpu), rig.kernel.topology().SocketOf(2));
}

TEST(CfsForkTest, AvoidsBusyParentCpu) {
  CfsRig rig;
  rig.Occupy(2);
  Task child;
  const int cpu = rig.cfs.SelectCpuFork(child, 2);
  EXPECT_NE(cpu, 2);
  EXPECT_TRUE(rig.kernel.CpuIdle(cpu));
}

TEST(CfsForkTest, RecentlyUsedIdleCpuLosesToColdCpu) {
  // The paper's dispersal bias (§2.1): a CPU that just hosted a task carries
  // residual load and loses to a fully idle CPU.
  CfsRig rig;
  ProgramBuilder b("short");
  b.Compute(3e6);
  rig.kernel.SpawnInitial(b.Build(), "short", 0, 1);
  rig.engine.RunUntil(5 * kMillisecond);  // task done; cpu 1 idle but warm
  ASSERT_TRUE(rig.kernel.CpuIdle(1));
  Task child;
  const int cpu = rig.cfs.SelectCpuFork(child, 0);
  EXPECT_NE(cpu, 1);
}

TEST(CfsForkTest, InfluenceOfRecentUseTimesOut) {
  CfsRig rig;
  ProgramBuilder b("short");
  b.Compute(1e6);
  rig.kernel.SpawnInitial(b.Build(), "short", 0, 1);
  // After a long decay the recently-used CPU ties with cold ones and the
  // numerical order from the forking CPU wins again (§5.2 case study).
  rig.engine.RunUntil(300 * kMillisecond);
  Task child;
  const int cpu = rig.cfs.SelectCpuFork(child, 0);
  EXPECT_TRUE(rig.kernel.CpuIdle(cpu));
  EXPECT_LE(cpu, 1);  // back near the start of the socket
}

TEST(CfsForkTest, PrefersIdlerRemoteSocketWhenLocalLoaded) {
  CfsRig rig;
  // Load most of socket 0 (cpus 0..3 and 8..11 are socket 0 in the 2x4x2
  // test topology).
  for (int cpu : {0, 1, 2, 3, 8}) {
    rig.Occupy(cpu);
  }
  Task child;
  const int cpu = rig.cfs.SelectCpuFork(child, 0);
  EXPECT_EQ(rig.kernel.topology().SocketOf(cpu), 1);
}

TEST(CfsWakeTest, IdlePrevCpuWins) {
  CfsRig rig;
  Task t;
  t.prev_cpu = 3;
  WakeContext ctx;
  ctx.waker_cpu = 0;
  EXPECT_EQ(rig.cfs.SelectCpuWake(t, ctx), 3);
}

TEST(CfsWakeTest, BusyPrevFallsBackToIdleCoreOnSameDie) {
  CfsRig rig;
  rig.Occupy(3);
  Task t;
  t.prev_cpu = 3;
  WakeContext ctx;
  ctx.waker_cpu = 3;
  const int cpu = rig.cfs.SelectCpuWake(t, ctx);
  EXPECT_NE(cpu, 3);
  EXPECT_EQ(rig.kernel.topology().SocketOf(cpu), rig.kernel.topology().SocketOf(3));
  EXPECT_TRUE(rig.kernel.CpuIdle(cpu));
}

TEST(CfsWakeTest, SyncWakeupPrefersWakerWhenItWillBlock) {
  CfsRig rig;
  rig.Occupy(3);  // prev busy
  Task t;
  t.prev_cpu = 3;
  // Waker on the other socket, about to block, only itself running.
  Task* waker = rig.Occupy(4);
  (void)waker;
  WakeContext ctx;
  ctx.waker_cpu = 4;
  ctx.sync = true;
  const int cpu = rig.cfs.SelectCpuWake(t, ctx);
  // Target becomes the waker; its die provides the idle CPU.
  EXPECT_EQ(rig.kernel.topology().SocketOf(cpu), 1);
}

TEST(CfsWakeTest, NotWorkConservingAcrossDies) {
  CfsRig rig;
  // Fill the whole of socket 0.
  for (int cpu : rig.kernel.topology().CpusOnSocket(0)) {
    rig.Occupy(cpu);
  }
  Task t;
  t.prev_cpu = 0;
  WakeContext ctx;
  ctx.waker_cpu = 0;
  const int cpu = rig.cfs.WakePath(t, ctx, /*work_conserving_ext=*/false);
  // Plain CFS stays on the full die even though socket 1 is idle (§2.1).
  EXPECT_EQ(rig.kernel.topology().SocketOf(cpu), 0);
}

TEST(CfsWakeTest, WorkConservingExtensionFindsOtherDie) {
  CfsRig rig;
  for (int cpu : rig.kernel.topology().CpusOnSocket(0)) {
    rig.Occupy(cpu);
  }
  Task t;
  t.prev_cpu = 0;
  WakeContext ctx;
  ctx.waker_cpu = 0;
  const int cpu = rig.cfs.WakePath(t, ctx, /*work_conserving_ext=*/true);
  // Nest's §3.4 extension scans the other dies.
  EXPECT_EQ(rig.kernel.topology().SocketOf(cpu), 1);
  EXPECT_TRUE(rig.kernel.CpuIdle(cpu));
}

TEST(CfsWakeTest, PrefersFullyIdlePhysicalCore) {
  CfsRig rig;
  // Make cpu 1 busy so physical core 1 is half-busy; its sibling (9) is idle.
  rig.Occupy(1);
  rig.Occupy(2);  // prev will be busy
  Task t;
  t.prev_cpu = 2;
  WakeContext ctx;
  ctx.waker_cpu = 2;
  const int cpu = rig.cfs.SelectCpuWake(t, ctx);
  // Must pick a CPU whose sibling is idle too (cpu 3 or 0), not cpu 9 whose
  // sibling is busy.
  const int sibling = rig.kernel.topology().SiblingOf(cpu);
  EXPECT_TRUE(rig.kernel.CpuIdle(cpu));
  EXPECT_TRUE(rig.kernel.CpuIdle(sibling));
}

TEST(CfsWakeTest, FallsBackToTargetWhenDieFull) {
  CfsRig rig;
  for (int cpu : rig.kernel.topology().CpusOnSocket(0)) {
    rig.Occupy(cpu);
  }
  Task t;
  t.prev_cpu = 1;
  WakeContext ctx;
  ctx.waker_cpu = 1;
  const int cpu = rig.cfs.WakePath(t, ctx, false);
  EXPECT_EQ(cpu, 1);  // queues behind prev
}

// ---------------------------------------------------------------------------
// Differential test of ForkPath against the eager descent it replaced.
// ---------------------------------------------------------------------------

// Copy of the pre-mask ForkPath: std::find for the local group, a linear
// idle count, and every group's load summed whether or not a decision needs
// it (which is what read every CPU's utilisation in the top span). It drops
// only the per-CPU load memo, which cached a value that is pure within an
// instant.
class ReferenceForkPath {
 public:
  ReferenceForkPath(Kernel* kernel, CfsPolicy::Params params)
      : kernel_(kernel), params_(params) {}

  int Run(int parent_cpu) {
    const DomainTree& tree = kernel_->domains();
    const SchedDomain* domain = &tree.Top();
    int cpu = parent_cpu;
    while (domain != nullptr) {
      const SchedGroup* local = nullptr;
      const SchedGroup* best = nullptr;
      int best_idle = -1;
      int best_load = std::numeric_limits<int>::max();
      for (const SchedGroup& group : domain->groups) {
        const bool is_local =
            std::find(group.cpus.begin(), group.cpus.end(), cpu) != group.cpus.end();
        if (is_local) {
          local = &group;
          continue;
        }
        const int idle = GroupIdleCount(group);
        const int load = GroupLoad(group);
        if (idle > best_idle || (idle == best_idle && load < best_load)) {
          best = &group;
          best_idle = idle;
          best_load = load;
        }
      }
      const SchedGroup* chosen = local;
      if (local == nullptr) {
        chosen = best;
      } else if (best != nullptr) {
        const int local_idle = GroupIdleCount(*local);
        const int local_load = GroupLoad(*local);
        const int margin = std::max(1, static_cast<int>(params_.group_imbalance_fraction *
                                                        static_cast<double>(local->cpus.size())));
        if (best_idle > local_idle + margin || (local_idle == 0 && best_idle > 0) ||
            (best_idle == local_idle && best_load + margin * params_.load_resolution < local_load)) {
          chosen = best;
        }
      }
      cpu = FindIdlestCpu(chosen->cpus, cpu);
      domain = tree.ChildContaining(*domain, cpu);
    }
    return cpu;
  }

 private:
  int QuantisedLoad(int cpu) {
    const double util = kernel_->CpuUtil(cpu);
    const double placement = kernel_->rq(cpu).PlacementLoad(kernel_->engine().Now());
    return static_cast<int>(std::lround((util + placement) * params_.load_resolution));
  }

  int GroupLoad(const SchedGroup& group) {
    int load = 0;
    for (int cpu : group.cpus) {
      load += QuantisedLoad(cpu);
      load += kernel_->rq(cpu).QueuedCount() * params_.load_resolution;
    }
    return load;
  }

  int GroupIdleCount(const SchedGroup& group) const {
    int idle = 0;
    for (int cpu : group.cpus) {
      idle += kernel_->CpuIdle(cpu) ? 1 : 0;
    }
    return idle;
  }

  int FindIdlestCpu(const std::vector<int>& span, int origin) {
    const int n = static_cast<int>(span.size());
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
      const int load = QuantisedLoad(cpu);
      if (nr < best_nr || (nr == best_nr && load < best_load)) {
        best_cpu = cpu;
        best_nr = nr;
        best_load = load;
      }
    }
    return best_cpu;
  }

  Kernel* kernel_;
  CfsPolicy::Params params_;
};

// A machine driven into a random state from `seed`: hogs (some doubled up so
// tasks queue) started at staggered times so their loads differ, short tasks
// that ran and left residual utilisation, injected requests that bumped
// placement loads, and offline CPUs. Seeds cycle through three shapes: "tie"
// busies the same CPU offsets on every socket, so group idle counts tie and
// the loads decide; "full" busies every CPU, so the idlest-CPU scan compares
// loads among equally busy CPUs; "random" mixes everything. Two rigs from
// one seed match.
struct ForkRig {
  ForkRig(const std::string& machine, uint64_t seed)
      : hw(&engine, MachineByName(machine)), kernel(&engine, &hw, &cfs, &governor) {
    kernel.Start();
    Rng rng(seed);
    const Topology& topo = kernel.topology();
    const int n = topo.num_cpus();
    constexpr int kStages = 4;
    std::vector<std::vector<std::pair<int, double>>> spawns(kStages);  // (cpu, work)
    auto hog = [&](int cpu) {
      spawns[rng.NextBounded(kStages)].emplace_back(cpu, 1e12);
    };
    switch (seed % 3) {
      case 0: {  // tie
        const int per_socket = n / topo.num_sockets();
        std::vector<int> offsets;
        for (int i = 0; i < per_socket; ++i) {
          if (rng.NextDouble() < 0.3) {
            offsets.push_back(i);
          }
        }
        for (int socket = 0; socket < topo.num_sockets(); ++socket) {
          for (int offset : offsets) {
            hog(topo.CpusOnSocket(socket)[offset]);
          }
        }
        break;
      }
      case 1:  // full
        for (int cpu = 0; cpu < n; ++cpu) {
          hog(cpu);
          if (rng.NextDouble() < 0.2) {
            hog(cpu);  // queues behind the first
          }
        }
        break;
      default:  // random
        for (int cpu = 0; cpu < n; ++cpu) {
          const double roll = rng.NextDouble();
          if (roll < 0.25) {
            hog(cpu);
          } else if (roll < 0.3) {
            hog(cpu);
            hog(cpu);
          } else if (roll < 0.5) {
            spawns[rng.NextBounded(kStages)].emplace_back(
                cpu, 1e6 + static_cast<double>(rng.NextBounded(4000000)));
          }
        }
        for (int cpu = 0; cpu < n; ++cpu) {
          if (rng.NextDouble() < 0.05) {
            kernel.OfflineCpu(cpu);
          }
        }
        break;
    }
    const int injections = static_cast<int>(rng.NextBounded(static_cast<uint64_t>(n)));
    for (int i = 0; i < injections; ++i) {
      ProgramBuilder b("req");
      b.Compute(5e5 + static_cast<double>(rng.NextBounded(2000000)));
      kernel.ScheduleInjection(static_cast<SimTime>(rng.NextBounded(3 * kMillisecond)),
                               b.Build(), "req", 1);
    }
    for (const auto& stage : spawns) {
      for (const auto& [cpu, work] : stage) {
        if (kernel.CpuOnline(cpu)) {
          Spawn(cpu, work);
        }
      }
      engine.RunUntil(engine.Now() + 500 * kMicrosecond +
                      static_cast<SimTime>(rng.NextBounded(kMillisecond)));
    }
  }

  void Spawn(int cpu, double work) {
    ProgramBuilder b("task");
    b.Compute(work);
    kernel.SpawnInitial(b.Build(), "task", 0, cpu);
  }

  // Every CPU's utilisation signal, bit for bit.
  std::vector<uint64_t> UtilBits() const {
    std::vector<uint64_t> out;
    for (int cpu = 0; cpu < kernel.topology().num_cpus(); ++cpu) {
      const PeltSignal& util = kernel.rq(cpu).util();
      out.push_back(std::bit_cast<uint64_t>(util.raw()));
      out.push_back(static_cast<uint64_t>(util.last_update()));
    }
    return out;
  }

  Engine engine;
  HardwareModel hw;
  CfsPolicy cfs;
  SchedutilGovernor governor;
  Kernel kernel;
};

class CfsForkDifferentialTest : public ::testing::TestWithParam<const char*> {};

TEST_P(CfsForkDifferentialTest, LazyForkPathMatchesEagerDescent) {
  for (uint64_t seed = 1; seed <= 24; ++seed) {
    ForkRig fast(GetParam(), seed);
    ForkRig ref(GetParam(), seed);
    ReferenceForkPath reference(&ref.kernel, ref.cfs.params());
    Rng rng(seed * 104729);
    const int n = fast.kernel.topology().num_cpus();
    ASSERT_EQ(fast.UtilBits(), ref.UtilBits());
    for (int step = 0; step < 12; ++step) {
      // Ragged gaps, so the decays between forks are not table hits.
      const SimTime until =
          fast.engine.Now() + 1 + static_cast<SimTime>(rng.NextBounded(2 * kMillisecond));
      fast.engine.RunUntil(until);
      ref.engine.RunUntil(until);
      for (int cpu = 0; cpu < n; ++cpu) {
        ASSERT_EQ(fast.kernel.idle_cpus().Test(cpu), fast.kernel.CpuIdle(cpu)) << "cpu " << cpu;
      }
      // One to three forks per instant: later ones see the memoised loads.
      const int forks = 1 + static_cast<int>(rng.NextBounded(3));
      for (int f = 0; f < forks; ++f) {
        const int parent = static_cast<int>(rng.NextBounded(static_cast<uint64_t>(n)));
        Task child;
        const int got = fast.cfs.ForkPath(child, parent);
        const int want = reference.Run(parent);
        const std::string where = std::string(GetParam()) + " seed " + std::to_string(seed) +
                                  " step " + std::to_string(step);
        ASSERT_EQ(got, want) << where;
        ASSERT_EQ(fast.UtilBits(), ref.UtilBits()) << where;
        // The placement lands: bump the chosen CPU's load on both rigs.
        fast.kernel.rq(got).BumpPlacement(fast.engine.Now());
        ref.kernel.rq(want).BumpPlacement(ref.engine.Now());
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Machines, CfsForkDifferentialTest,
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
