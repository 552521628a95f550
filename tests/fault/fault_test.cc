// Fault-injection engine (src/fault/, docs/FAULTS.md): plan determinism, the
// kernel's offline/online + evacuation mechanics driven directly, and
// end-to-end runs that keep every scheduler deterministic under fire.

#include "src/fault/fault.h"

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <utility>

#include "src/cfs/cfs_policy.h"
#include "src/check/invariant_checker.h"
#include "src/core/experiment.h"
#include "src/governors/governors.h"
#include "src/nest/nest_policy.h"
#include "src/obs/sched_counters.h"
#include "src/workloads/configure.h"
#include "tests/testing/test_machine.h"

namespace nestsim {
namespace {

// ---- plan construction ----------------------------------------------------

FaultSpec BothProcesses() {
  FaultSpec spec;
  spec.core_fail_rate_per_s = 50.0;
  spec.core_downtime_ms = 10.0;
  spec.machine_fail_rate_per_s = 2.0;
  spec.machine_downtime_ms = 20.0;
  return spec;
}

TEST(FaultPlanTest, PureFunctionOfSpecAndSeed) {
  Rng a(42);
  Rng b(42);
  const FaultPlan pa = BuildFaultPlan(BothProcesses(), a, 3, 8, kSecond);
  const FaultPlan pb = BuildFaultPlan(BothProcesses(), b, 3, 8, kSecond);
  ASSERT_FALSE(pa.empty());
  ASSERT_EQ(pa.events.size(), pb.events.size());
  for (size_t i = 0; i < pa.events.size(); ++i) {
    EXPECT_EQ(pa.events[i].time, pb.events[i].time);
    EXPECT_EQ(pa.events[i].kind, pb.events[i].kind);
    EXPECT_EQ(pa.events[i].machine, pb.events[i].machine);
    EXPECT_EQ(pa.events[i].cpu, pb.events[i].cpu);
    EXPECT_EQ(pa.events[i].seq, pb.events[i].seq);
  }
}

TEST(FaultPlanTest, SortedInBoundsWithPairedRepairs) {
  Rng rng(7);
  const FaultPlan plan = BuildFaultPlan(BothProcesses(), rng, 2, 4, kSecond);
  ASSERT_FALSE(plan.empty());
  size_t core_fails = 0, core_repairs = 0, machine_fails = 0, machine_repairs = 0;
  for (size_t i = 0; i < plan.events.size(); ++i) {
    const FaultPlanEvent& e = plan.events[i];
    if (i > 0) {
      const FaultPlanEvent& prev = plan.events[i - 1];
      EXPECT_LE(prev.time, e.time);
      if (prev.time == e.time) {
        EXPECT_LT(prev.seq, e.seq);  // the draw order breaks time ties
      }
    }
    EXPECT_GE(e.machine, 0);
    EXPECT_LT(e.machine, 2);
    switch (e.kind) {
      case FaultPlanEvent::Kind::kCoreFail:
        ++core_fails;
        EXPECT_LT(e.time, kSecond);
        EXPECT_GE(e.cpu, 0);
        EXPECT_LT(e.cpu, 4);
        break;
      case FaultPlanEvent::Kind::kCoreRepair:
        ++core_repairs;
        EXPECT_GE(e.cpu, 0);
        break;
      case FaultPlanEvent::Kind::kMachineFail:
        ++machine_fails;
        EXPECT_LT(e.time, kSecond);
        EXPECT_EQ(e.cpu, -1);
        break;
      case FaultPlanEvent::Kind::kMachineRepair:
        ++machine_repairs;
        break;
    }
  }
  // Nonzero downtimes: every failure has its repair in the plan.
  EXPECT_GT(core_fails, 0u);
  EXPECT_EQ(core_fails, core_repairs);
  EXPECT_EQ(machine_fails, machine_repairs);
}

TEST(FaultPlanTest, DisabledSpecDrawsNothingAndLeavesTheRngUntouched) {
  FaultSpec off;  // defaults: everything disabled
  Rng rng(11);
  const FaultPlan plan = BuildFaultPlan(off, rng, 1, 8, kSecond);
  EXPECT_TRUE(plan.empty());
  Rng fresh(11);
  EXPECT_EQ(rng.NextBounded(1 << 20), fresh.NextBounded(1 << 20));
}

TEST(FaultPlanTest, ZeroDowntimeIsPermanent) {
  FaultSpec spec;
  spec.core_fail_rate_per_s = 200.0;
  spec.core_downtime_ms = 0.0;
  Rng rng(3);
  const FaultPlan plan = BuildFaultPlan(spec, rng, 1, 4, kSecond);
  ASSERT_FALSE(plan.empty());
  for (const FaultPlanEvent& e : plan.events) {
    EXPECT_EQ(e.kind, FaultPlanEvent::Kind::kCoreFail);
  }
}

// ---- kernel offline/online mechanics --------------------------------------

// Kernel + checker + counters over a 1-socket fixed-frequency machine,
// driven directly so tests control the exact moment a core dies.
struct FaultRig {
  explicit FaultRig(std::unique_ptr<SchedulerPolicy> pol, int phys = 2)
      : hw(&engine, FixedFreqMachine(/*sockets=*/1, phys, /*threads_per_core=*/1)),
        policy(std::move(pol)),
        kernel(&engine, &hw, policy.get(), &governor, Kernel::Params{}),
        checker(&kernel),
        counters(&kernel) {
    kernel.AddObserver(&checker);
    kernel.AddObserver(&counters);
    kernel.Start();
  }

  void Run(SimTime limit) {
    while (kernel.live_tasks() > 0 && engine.Now() < limit) {
      ASSERT_TRUE(engine.Step());
    }
  }

  Engine engine;
  HardwareModel hw;
  std::unique_ptr<SchedulerPolicy> policy;
  PerformanceGovernor governor;
  Kernel kernel;
  InvariantChecker checker;
  SchedCounterRecorder counters;
};

ProgramPtr FanOutProgram(int children, double child_ms) {
  ProgramBuilder parent("p");
  parent.ComputeMs(0.1);
  for (int i = 0; i < children; ++i) {
    ProgramBuilder child("c");
    child.ComputeMs(child_ms);
    parent.Fork(child.Build());
  }
  parent.JoinChildren();
  return parent.Build();
}

TEST(OfflineCpuTest, RefusesTheLastOnlineCore) {
  FaultRig rig(std::make_unique<CfsPolicy>());
  ASSERT_TRUE(rig.kernel.OfflineCpu(0));
  EXPECT_FALSE(rig.kernel.OfflineCpu(1));  // last online core machine-wide
  EXPECT_TRUE(rig.kernel.CpuOnline(1));
  EXPECT_FALSE(rig.kernel.OfflineCpu(0));  // already offline: a no-op
  rig.kernel.OnlineCpu(0);
  EXPECT_TRUE(rig.kernel.OfflineCpu(1));  // CPU 0 carries the machine now
}

TEST(OfflineCpuTest, EvacuatesRunningAndQueuedWork) {
  FaultRig rig(std::make_unique<CfsPolicy>());
  rig.kernel.SpawnInitial(FanOutProgram(6, 2.0), "p", 0, 0);
  // Step until CPU 0 is running one task with more queued behind it, so the
  // offline drains both the curr slot and the tree.
  while (!(rig.kernel.rq(0).curr() != nullptr && rig.kernel.rq(0).QueuedCount() > 0)) {
    ASSERT_TRUE(rig.engine.Step());
  }
  ASSERT_TRUE(rig.kernel.OfflineCpu(0));
  EXPECT_FALSE(rig.kernel.CpuOnline(0));
  const SchedCounters& c = rig.counters.counters();
  EXPECT_EQ(c.faults_injected, 1u);
  EXPECT_GE(c.tasks_evacuated, 2u);
  EXPECT_GE(c.placements[static_cast<int>(PlacementPath::kFaultEvacuate)], 2u);
  rig.Run(kSecond);
  EXPECT_EQ(rig.kernel.live_tasks(), 0);
  EXPECT_TRUE(rig.checker.ok()) << rig.checker.Report();
}

// A core dies while it holds an active §3.4 placement reservation: the claim
// must be cancelled with the core, and the in-flight task's delayed enqueue
// redirects to an online CPU instead of landing on the corpse.
TEST(OfflineCpuTest, CancelsAnInFlightReservationOnTheVictim) {
  FaultRig rig(std::make_unique<NestPolicy>());
  rig.kernel.SpawnInitial(FanOutProgram(1, 1.0), "p", 0, 0);
  int claimed_cpu = -1;
  while (claimed_cpu < 0) {
    ASSERT_TRUE(rig.engine.Step());
    for (int cpu = 0; cpu < 2; ++cpu) {
      if (rig.kernel.rq(cpu).claimed()) {
        claimed_cpu = cpu;
        break;
      }
    }
  }
  ASSERT_TRUE(rig.kernel.OfflineCpu(claimed_cpu));
  EXPECT_FALSE(rig.kernel.rq(claimed_cpu).claimed());
  rig.Run(kSecond);
  EXPECT_EQ(rig.kernel.live_tasks(), 0);
  EXPECT_TRUE(rig.checker.ok()) << rig.checker.Report();
}

// Nest loses every core but one: the primary mask shrinks with the machine
// and the whole gang completes on the survivor.
TEST(OfflineCpuTest, NestSurvivesLosingAllButOneCore) {
  FaultRig rig(std::make_unique<NestPolicy>(), /*phys=*/4);
  for (int cpu = 1; cpu < 4; ++cpu) {
    ASSERT_TRUE(rig.kernel.OfflineCpu(cpu));
  }
  EXPECT_FALSE(rig.kernel.OfflineCpu(0));
  rig.kernel.SpawnInitial(FanOutProgram(4, 1.0), "p", 0, 0);
  rig.Run(kSecond);
  EXPECT_EQ(rig.kernel.live_tasks(), 0);
  EXPECT_TRUE(rig.checker.ok()) << rig.checker.Report();
}

TEST(OfflineCpuTest, RepairedCoreRunsFreshWork) {
  FaultRig rig(std::make_unique<NestPolicy>());
  ASSERT_TRUE(rig.kernel.OfflineCpu(1));
  rig.kernel.OnlineCpu(1);
  EXPECT_TRUE(rig.kernel.CpuOnline(1));
  rig.kernel.SpawnInitial(FanOutProgram(3, 1.0), "p", 0, 0);
  rig.Run(kSecond);
  EXPECT_EQ(rig.kernel.live_tasks(), 0);
  EXPECT_TRUE(rig.checker.ok()) << rig.checker.Report();
}

TEST(FaultInjectorTest, ReplaysThePlanAndRepairsRestoreEveryCore) {
  FaultRig rig(std::make_unique<CfsPolicy>(), /*phys=*/4);
  FaultSpec spec;
  spec.core_fail_rate_per_s = 300.0;
  spec.core_downtime_ms = 1.0;
  Rng rng(9);
  FaultPlan plan = BuildFaultPlan(spec, rng, 1, 4, 100 * kMillisecond);
  ASSERT_FALSE(plan.empty());
  FaultInjector injector(&rig.engine, &rig.kernel, &plan, /*machine=*/0);
  injector.Arm();
  // The kernel's periodic tick re-arms itself forever, so drain by simulated
  // time: past 200 ms every planned fail (< 100 ms) and its +1 ms repair has
  // executed.
  while (rig.engine.Now() < 200 * kMillisecond) {
    ASSERT_TRUE(rig.engine.Step());
  }
  EXPECT_GT(rig.counters.counters().faults_injected, 0u);
  for (int cpu = 0; cpu < 4; ++cpu) {
    EXPECT_TRUE(rig.kernel.CpuOnline(cpu)) << cpu;
  }
  EXPECT_TRUE(rig.checker.ok()) << rig.checker.Report();
}

// ---- end-to-end runs under fire -------------------------------------------

ConfigureSpec SmallBuild() {
  ConfigureSpec spec = ConfigureWorkload::PackageSpec("gcc");
  spec.num_tests = 12;
  return spec;
}

// High kill rate, every scheduler, run twice: identical results prove the
// plan replay and the evacuation path are deterministic. Smove runs with a
// long move delay so armed migrations are routinely in flight when their
// destination core dies (MigrateQueued's fallback redirect).
TEST(FaultRunTest, EverySchedulerSurvivesCoreKillsDeterministically) {
  for (const SchedulerKind kind :
       {SchedulerKind::kCfs, SchedulerKind::kNest, SchedulerKind::kSmove,
        SchedulerKind::kNestCache, SchedulerKind::kNestBudget}) {
    ExperimentConfig config;
    config.scheduler = kind;
    config.seed = 21;
    config.fault.core_fail_rate_per_s = 400.0;
    config.fault.core_downtime_ms = 5.0;
    config.smove.move_delay = 500 * kMicrosecond;
    const ConfigureWorkload workload(SmallBuild());
    const ExperimentResult a = RunExperiment(config, workload);
    const ExperimentResult b = RunExperiment(config, workload);
    SCOPED_TRACE(SchedulerKindKey(kind));
    EXPECT_EQ(a.makespan, b.makespan);
    EXPECT_TRUE(a.counters == b.counters);
    EXPECT_GT(a.counters.faults_injected, 0u);
  }
}

// The disabled spec is the golden-gate contract: a run with the default
// FaultSpec must be bit-identical to one that never heard of faults.
TEST(FaultRunTest, DefaultSpecIsByteIdenticalToNoFaults) {
  ExperimentConfig plain;
  plain.scheduler = SchedulerKind::kNest;
  plain.seed = 4;
  ExperimentConfig with_default_fault = plain;
  with_default_fault.fault = FaultSpec{};
  const ConfigureWorkload workload(SmallBuild());
  const ExperimentResult a = RunExperiment(plain, workload);
  const ExperimentResult b = RunExperiment(with_default_fault, workload);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_TRUE(a.counters == b.counters);
  EXPECT_EQ(a.counters.faults_injected, 0u);
  EXPECT_FALSE(a.resilience.any());
}

// Replication is the fleet runner's quorum: the single-machine runner must
// refuse it rather than run the workload unreplicated.
TEST(FaultRunTest, RunExperimentRejectsReplicas) {
  ExperimentConfig config;
  config.fault.replicas = 2;
  EXPECT_THROW(RunExperiment(config, ConfigureWorkload(SmallBuild())), std::invalid_argument);
}

}  // namespace
}  // namespace nestsim
