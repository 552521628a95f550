#include "src/kernel/kernel.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/cfs/cfs_policy.h"
#include "src/governors/governors.h"
#include "tests/testing/test_machine.h"

namespace nestsim {
namespace {

// A stub policy that always selects a scripted CPU; used to force placements.
class PinnedPolicy : public SchedulerPolicy {
 public:
  explicit PinnedPolicy(int cpu, bool reservation = false, int spin_ticks = 0)
      : cpu_(cpu), reservation_(reservation), spin_ticks_(spin_ticks) {}

  const char* name() const override { return "pinned"; }
  int SelectCpuFork(Task&, int) override { return cpu_; }
  int SelectCpuWake(Task&, const WakeContext&) override { return cpu_; }
  int IdleSpinTicks(int) override { return spin_ticks_; }
  bool UsesPlacementReservation() const override { return reservation_; }

  void set_cpu(int cpu) { cpu_ = cpu; }

 private:
  int cpu_;
  bool reservation_;
  int spin_ticks_;
};

// Keeps a copy of every task as it exits, by tid: a Task* is not held
// across events, because an exited task may be reclaimed.
class ExitLog : public KernelObserver {
 public:
  uint32_t InterestMask() const override { return kObsTaskExit; }
  void OnTaskExit(SimTime now, const Task& task) override {
    (void)now;
    exited_.emplace(task.tid, task);
  }
  // The exited task `tid` as it was at exit; fails the test if it never did.
  const Task& at(int tid) const {
    const auto it = exited_.find(tid);
    EXPECT_NE(it, exited_.end()) << "tid " << tid << " never exited";
    return it == exited_.end() ? missing_ : it->second;
  }
  bool contains(int tid) const { return exited_.count(tid) != 0; }

 private:
  std::map<int, Task> exited_;
  Task missing_;
};

// Common rig: fixed 1 GHz machine, so work W (GHz-ns) takes exactly W ns.
struct Rig {
  explicit Rig(MachineSpec spec = FixedFreqMachine(),
               Kernel::Params params = ZeroCostParams(),
               std::unique_ptr<SchedulerPolicy> custom_policy = nullptr)
      : hw(&engine, spec),
        policy(custom_policy != nullptr ? std::move(custom_policy)
                                        : std::make_unique<CfsPolicy>()),
        kernel(&engine, &hw, policy.get(), &governor, params) {
    kernel.AddObserver(&exits);
    kernel.Start();
  }

  static Kernel::Params ZeroCostParams() {
    Kernel::Params p;
    p.placement_latency = 0;
    p.fork_cost_work = 0;
    p.send_cost_work = 0;
    p.recv_cost_work = 0;
    p.migration_cost_work = 0;
    p.cross_die_migration_cost_work = 0;
    return p;
  }

  // Pumps until no workload task is alive (hardware events keep the queue
  // non-empty forever).
  void RunToCompletion(SimDuration limit = 10 * kSecond) {
    while (kernel.live_tasks() > 0 && engine.Now() < limit) {
      ASSERT_TRUE(engine.Step());
    }
    ASSERT_EQ(kernel.live_tasks(), 0) << "workload did not finish";
  }

  Engine engine;
  HardwareModel hw;
  std::unique_ptr<SchedulerPolicy> policy;
  PerformanceGovernor governor;
  Kernel kernel;
  ExitLog exits;
};

TEST(KernelTest, SingleComputeTaskRunsExactly) {
  Rig rig;
  ProgramBuilder b("t");
  b.Compute(2e6);  // 2 ms at 1 GHz
  const int tid = rig.kernel.SpawnInitial(b.Build(), "t", 0, 0)->tid;
  rig.RunToCompletion();
  EXPECT_EQ(rig.exits.at(tid).exited_at, 2 * kMillisecond);
  EXPECT_EQ(rig.exits.at(tid).total_runtime, 2 * kMillisecond);
}

TEST(KernelTest, TaskStateTransitions) {
  Rig rig;
  ProgramBuilder b("t");
  b.Compute(1e6).Sleep(Milliseconds(1)).Compute(1e6);
  Task* task = rig.kernel.SpawnInitial(b.Build(), "t", 0, 0);
  EXPECT_EQ(task->state, TaskState::kRunning);
  rig.engine.RunUntil(MillisecondsF(1.5));
  EXPECT_EQ(task->state, TaskState::kBlocked);
  EXPECT_EQ(task->block_reason, BlockReason::kSleep);
  const int tid = task->tid;
  rig.RunToCompletion();
  EXPECT_EQ(rig.exits.at(tid).state, TaskState::kDead);
  EXPECT_EQ(rig.exits.at(tid).exited_at, 3 * kMillisecond);
}

TEST(KernelTest, ForkAndJoinCompletes) {
  Rig rig;
  ProgramBuilder child("c");
  child.Compute(3e6);
  ProgramBuilder parent("p");
  parent.Compute(1e6).Fork(child.Build()).JoinChildren().Compute(1e6);
  rig.kernel.SpawnInitial(parent.Build(), "p", 0, 0);
  rig.RunToCompletion();
  // Parent: 1 ms, fork at t=1ms, child runs 3 ms in parallel, parent joins
  // at 4 ms, final 1 ms -> 5 ms total.
  EXPECT_EQ(rig.engine.Now(), 5 * kMillisecond);
  EXPECT_EQ(rig.kernel.tasks().size(), 2u);
}

TEST(KernelTest, ForkCostIsCharged) {
  Kernel::Params params = Rig::ZeroCostParams();
  params.fork_cost_work = 50e3;  // 50 us at 1 GHz
  Rig rig(FixedFreqMachine(), params);
  ProgramBuilder child("c");
  child.Compute(1e6);
  ProgramBuilder parent("p");
  parent.Fork(child.Build()).JoinChildren();
  rig.kernel.SpawnInitial(parent.Build(), "p", 0, 0);
  rig.RunToCompletion();
  // fork cost 50 us + child 1 ms.
  EXPECT_EQ(rig.engine.Now(), Microseconds(1050));
}

TEST(KernelTest, PlacementLatencyDelaysEnqueue) {
  Kernel::Params params = Rig::ZeroCostParams();
  params.placement_latency = 5 * kMicrosecond;
  Rig rig(FixedFreqMachine(), params);
  ProgramBuilder child("c");
  child.Compute(1e6);
  ProgramBuilder parent("p");
  parent.Fork(child.Build()).JoinChildren();
  rig.kernel.SpawnInitial(parent.Build(), "p", 0, 0);
  rig.RunToCompletion();
  // Two placements pay the latency: the fork and the parent's join wakeup.
  EXPECT_EQ(rig.engine.Now(), Microseconds(1010));
}

TEST(KernelTest, SleepWakesAfterDuration) {
  Rig rig;
  ProgramBuilder b("t");
  b.Sleep(Milliseconds(7)).Compute(1e6);
  const int tid = rig.kernel.SpawnInitial(b.Build(), "t", 0, 0)->tid;
  rig.RunToCompletion();
  EXPECT_EQ(rig.exits.at(tid).exited_at, 8 * kMillisecond);
  EXPECT_EQ(rig.exits.at(tid).wakeups, 1);
}

TEST(KernelTest, ExecutionHistoryTracksLastTwoStints) {
  Rig rig;
  ProgramBuilder b("t");
  b.Compute(1e6).Sleep(Milliseconds(1)).Compute(1e6).Sleep(Milliseconds(1)).Compute(1e6);
  const int tid = rig.kernel.SpawnInitial(b.Build(), "t", 0, 2)->tid;
  rig.RunToCompletion();
  // Ran on cpu 2 every time (prev == prev_prev: "attached", paper §3.3).
  EXPECT_EQ(rig.exits.at(tid).prev_cpu, 2);
  EXPECT_EQ(rig.exits.at(tid).prev_prev_cpu, 2);
}

TEST(KernelTest, TwoCpuBoundTasksShareOneCpuFairly) {
  // Mono-CPU machine: both tasks must interleave by tick preemption.
  Rig rig(FixedFreqMachine(1, 1, 1));
  for (int i = 0; i < 2; ++i) {
    ProgramBuilder b("t");
    b.Compute(20e6);  // 20 ms each
    rig.kernel.SpawnInitial(b.Build(), "t" + std::to_string(i), 0, 0);
  }
  rig.RunToCompletion();
  EXPECT_EQ(rig.engine.Now(), 40 * kMillisecond);
  // Fairness: both ran, and neither finished absurdly early.
  EXPECT_GT(rig.exits.at(1).exited_at, 30 * kMillisecond);
  EXPECT_GT(rig.exits.at(2).exited_at, 30 * kMillisecond);
  EXPECT_GT(rig.kernel.context_switches(), 4u);
}

TEST(KernelTest, WakeupPreemptsLongRunner) {
  Rig rig(FixedFreqMachine(1, 1, 1));
  ProgramBuilder hog("hog");
  hog.Compute(50e6);
  ProgramBuilder sleeper("sleeper");
  sleeper.Sleep(Milliseconds(10)).Compute(1e6);
  rig.kernel.SpawnInitial(hog.Build(), "hog", 0, 0);
  const int tid = rig.kernel.SpawnInitial(sleeper.Build(), "sleeper", 0, 0)->tid;
  rig.RunToCompletion();
  // The sleeper woke at 10 ms with a vruntime credit and must have finished
  // long before the hog's 51 ms completion.
  EXPECT_LT(rig.exits.at(tid).exited_at, 20 * kMillisecond);
}

TEST(KernelTest, BarrierReleasesAllParties) {
  Rig rig;
  rig.kernel.CreateBarrier(1, 3);
  ProgramBuilder b("w");
  b.Compute(1e6).Barrier(1).Compute(1e6);
  for (int i = 0; i < 3; ++i) {
    rig.kernel.SpawnInitial(b.Build(), "w" + std::to_string(i), 0, i);
  }
  rig.RunToCompletion();
  EXPECT_EQ(rig.engine.Now(), 2 * kMillisecond);
}

TEST(KernelTest, BarrierIsCyclic) {
  Rig rig;
  rig.kernel.CreateBarrier(1, 2);
  ProgramBuilder b("w");
  b.Loop(5).Compute(1e6).Barrier(1).EndLoop();
  rig.kernel.SpawnInitial(b.Build(), "a", 0, 0);
  rig.kernel.SpawnInitial(b.Build(), "b", 0, 1);
  rig.RunToCompletion();
  EXPECT_EQ(rig.engine.Now(), 5 * kMillisecond);
}

TEST(KernelTest, ChannelHandoffWakesReceiver) {
  Rig rig;
  ProgramBuilder receiver("r");
  receiver.Recv(9).Compute(1e6);
  ProgramBuilder sender("s");
  sender.Compute(2e6).Send(9);
  const int tid = rig.kernel.SpawnInitial(receiver.Build(), "r", 0, 0)->tid;
  rig.kernel.SpawnInitial(sender.Build(), "s", 0, 1);
  rig.RunToCompletion();
  // Receiver blocked immediately, woke at t=2ms, computed 1ms.
  EXPECT_EQ(rig.exits.at(tid).exited_at, 3 * kMillisecond);
}

TEST(KernelTest, ChannelBuffersMessages) {
  Rig rig;
  ProgramBuilder sender("s");
  sender.Send(9).Send(9);
  ProgramBuilder receiver("r");
  receiver.Sleep(Milliseconds(5)).Recv(9).Recv(9).Compute(1e6);
  const int tid = rig.kernel.SpawnInitial(receiver.Build(), "r", 0, 0)->tid;
  rig.kernel.SpawnInitial(sender.Build(), "s", 0, 1);
  rig.RunToCompletion();
  // Both messages were pending; no blocking on recv.
  EXPECT_EQ(rig.exits.at(tid).exited_at, 6 * kMillisecond);
}

TEST(KernelTest, JoinThresholdReapsBatchOnly) {
  Rig rig;
  ProgramBuilder service("svc");
  service.Sleep(Milliseconds(50));
  ProgramBuilder batch("batch");
  batch.Compute(1e6);
  ProgramBuilder parent("p");
  parent.Fork(service.Build()).Fork(batch.Build()).JoinChildren(1).Compute(1e6);
  const int tid = rig.kernel.SpawnInitial(parent.Build(), "p", 0, 0)->tid;
  rig.RunToCompletion();
  // Parent resumed when the batch child (1 ms) exited, not the 50 ms service.
  EXPECT_EQ(rig.exits.at(tid).exited_at, 2 * kMillisecond);
  EXPECT_EQ(rig.engine.Now(), 50 * kMillisecond);
}

TEST(KernelTest, ExitingChildWakesJoiningParent) {
  Rig rig;
  ProgramBuilder child("c");
  child.Compute(4e6);
  ProgramBuilder parent("p");
  parent.Fork(child.Build()).JoinChildren();
  Task* p = rig.kernel.SpawnInitial(parent.Build(), "p", 0, 0);
  rig.engine.RunUntil(2 * kMillisecond);
  EXPECT_EQ(p->state, TaskState::kBlocked);
  EXPECT_EQ(p->block_reason, BlockReason::kJoin);
  const int tid = p->tid;
  rig.RunToCompletion();
  EXPECT_EQ(rig.exits.at(tid).state, TaskState::kDead);
}

TEST(KernelTest, RunnableCountTracksLifecycle) {
  Rig rig;
  EXPECT_EQ(rig.kernel.runnable_tasks(), 0);
  ProgramBuilder b("t");
  b.Compute(1e6).Sleep(Milliseconds(2)).Compute(1e6);
  rig.kernel.SpawnInitial(b.Build(), "t", 0, 0);
  EXPECT_EQ(rig.kernel.runnable_tasks(), 1);
  rig.engine.RunUntil(MillisecondsF(1.5));  // sleeping
  EXPECT_EQ(rig.kernel.runnable_tasks(), 0);
  rig.engine.RunUntil(MillisecondsF(3.5));  // woke, computing
  EXPECT_EQ(rig.kernel.runnable_tasks(), 1);
  rig.RunToCompletion();
  EXPECT_EQ(rig.kernel.runnable_tasks(), 0);
}

TEST(KernelTest, OverloadedQueueDrainsViaLoadBalancing) {
  // Pin all placements to cpu 0, then let the balancer spread them.
  auto policy = std::make_unique<PinnedPolicy>(0);
  Rig rig(FixedFreqMachine(1, 4, 1), Rig::ZeroCostParams(), std::move(policy));
  ProgramBuilder worker("w");
  worker.Compute(10e6);
  ProgramBuilder parent("p");
  for (int i = 0; i < 3; ++i) {
    parent.Fork(worker.Build());
  }
  parent.JoinChildren();
  rig.kernel.SpawnInitial(parent.Build(), "p", 0, 0);
  rig.RunToCompletion();
  // Without balancing this serialises on cpu 0 (~30 ms); stealing should
  // bring it close to the 10 ms parallel optimum.
  EXPECT_LT(rig.engine.Now(), 16 * kMillisecond);
  EXPECT_GT(rig.kernel.total_migrations(), 0u);
}

TEST(KernelTest, NoBalancingKeepsOverloadSerial) {
  auto policy = std::make_unique<PinnedPolicy>(0);
  Kernel::Params params = Rig::ZeroCostParams();
  params.enable_newidle_balance = false;
  params.enable_periodic_balance = false;
  Rig rig(FixedFreqMachine(1, 4, 1), params, std::move(policy));
  ProgramBuilder worker("w");
  worker.Compute(10e6);
  ProgramBuilder parent("p");
  for (int i = 0; i < 3; ++i) {
    parent.Fork(worker.Build());
  }
  parent.JoinChildren();
  rig.kernel.SpawnInitial(parent.Build(), "p", 0, 0);
  rig.RunToCompletion();
  EXPECT_GE(rig.engine.Now(), 30 * kMillisecond);
}

TEST(KernelTest, IdleSpinKeepsHardwareBusy) {
  auto policy = std::make_unique<PinnedPolicy>(0, /*reservation=*/false, /*spin_ticks=*/2);
  Rig rig(FixedFreqMachine(1, 2, 2), Rig::ZeroCostParams(), std::move(policy));
  ProgramBuilder b("t");
  b.Compute(1e6);
  rig.kernel.SpawnInitial(b.Build(), "t", 0, 0);
  rig.engine.RunUntil(2 * kMillisecond);  // task done at 1 ms, spin active
  EXPECT_TRUE(rig.kernel.CpuIdle(0));
  EXPECT_TRUE(rig.hw.ThreadBusy(0));  // warm spin
  rig.engine.RunUntil(12 * kMillisecond);  // spin (8 ms) expired
  EXPECT_FALSE(rig.hw.ThreadBusy(0));
}

TEST(KernelTest, SpinStopsWhenSiblingGetsTask) {
  auto owned = std::make_unique<PinnedPolicy>(0, false, /*spin_ticks=*/10);
  PinnedPolicy* policy = owned.get();
  Rig rig(FixedFreqMachine(1, 2, 2), Rig::ZeroCostParams(), std::move(owned));
  ProgramBuilder b("t");
  b.Compute(1e6);
  rig.kernel.SpawnInitial(b.Build(), "t", 0, 0);
  rig.engine.RunUntil(2 * kMillisecond);
  ASSERT_TRUE(rig.hw.ThreadBusy(0));  // spinning
  // Start a task on the SMT sibling of cpu 0.
  const int sibling = rig.kernel.topology().SiblingOf(0);
  policy->set_cpu(sibling);
  ProgramBuilder b2("t2");
  b2.Compute(1e6);
  rig.kernel.SpawnInitial(b2.Build(), "t2", 0, sibling);
  rig.engine.RunUntil(rig.engine.Now() + 100 * kMicrosecond);
  // The spin must have yielded to the sibling (paper §3.2).
  EXPECT_FALSE(rig.hw.ThreadBusy(0));
  EXPECT_TRUE(rig.hw.ThreadBusy(sibling));
}

TEST(KernelTest, ClaimedCpuVisibleThroughKernel) {
  Rig rig;
  EXPECT_TRUE(rig.kernel.CpuIdleUnclaimed(3));
  EXPECT_TRUE(rig.kernel.TryClaimCpu(3));
  EXPECT_FALSE(rig.kernel.CpuIdleUnclaimed(3));
  EXPECT_FALSE(rig.kernel.TryClaimCpu(3));
  rig.kernel.rq(3).ClearClaim();
  EXPECT_TRUE(rig.kernel.CpuIdleUnclaimed(3));
}

TEST(KernelTest, PlacementCollisionWithoutReservation) {
  // Both tasks select cpu 0 inside the placement window: the second must
  // queue behind the first (the §3.4 collision).
  auto policy = std::make_unique<PinnedPolicy>(0, /*reservation=*/false);
  Kernel::Params params = Rig::ZeroCostParams();
  params.placement_latency = 10 * kMicrosecond;
  Rig rig(FixedFreqMachine(1, 4, 1), params, std::move(policy));
  ProgramBuilder w("w");
  w.Compute(5e6);
  ProgramBuilder parent("p");
  parent.Fork(w.Build()).Fork(w.Build()).Compute(20e6);
  rig.kernel.SpawnInitial(parent.Build(), "p", 0, 1);
  rig.engine.RunUntil(1 * kMillisecond);
  // Before any balancing tick, cpu 0 has one running and one queued.
  EXPECT_EQ(rig.kernel.rq(0).NrRunning(), 2);
}

TEST(KernelTest, MigrateQueuedMovesTaskAndKickWorks) {
  auto policy = std::make_unique<PinnedPolicy>(0);
  Kernel::Params params = Rig::ZeroCostParams();
  params.enable_newidle_balance = false;
  params.enable_periodic_balance = false;
  Rig rig(FixedFreqMachine(1, 2, 1), params, std::move(policy));
  ProgramBuilder w("w");
  w.Compute(10e6);
  ProgramBuilder parent("p");
  parent.Fork(w.Build()).Compute(30e6);
  rig.kernel.SpawnInitial(parent.Build(), "p", 0, 0);
  rig.engine.RunUntil(1 * kMillisecond);
  Task* queued = rig.kernel.rq(0).Leftmost();
  ASSERT_NE(queued, nullptr);
  rig.kernel.MigrateQueued(queued, 1);
  EXPECT_EQ(queued->cpu, 1);
  EXPECT_TRUE(rig.kernel.rq(1).Queued(queued));
  rig.kernel.KickIfIdle(1);
  EXPECT_EQ(rig.kernel.rq(1).curr(), queued);
}

TEST(KernelTest, SmtSharingSlowsBothThreads) {
  MachineSpec spec = FixedFreqMachine(1, 1, 2, 1.0);
  spec.smt_throughput = 0.5;
  auto policy = std::make_unique<PinnedPolicy>(0);
  Rig rig(spec, Rig::ZeroCostParams(), std::move(policy));
  ProgramBuilder b("t");
  b.Compute(10e6);
  rig.kernel.SpawnInitial(b.Build(), "a", 0, 0);
  rig.kernel.SpawnInitial(b.Build(), "b", 0, 1);  // the SMT sibling
  rig.RunToCompletion();
  // Both threads at half speed: 10 ms of work takes 20 ms.
  EXPECT_EQ(rig.engine.Now(), 20 * kMillisecond);
}

TEST(KernelTest, RootCpuIsFirstSpawnCpu) {
  Rig rig;
  EXPECT_EQ(rig.kernel.root_cpu(), -1);
  ProgramBuilder b("t");
  b.Compute(1e6);
  rig.kernel.SpawnInitial(b.Build(), "t", 0, 5);
  EXPECT_EQ(rig.kernel.root_cpu(), 5);
}

TEST(KernelTest, EmptyLoopBodySkipsCleanly) {
  Rig rig;
  ProgramBuilder b("t");
  b.Loop(0).Compute(1e6).EndLoop().Compute(2e6);
  const int tid = rig.kernel.SpawnInitial(b.Build(), "t", 0, 0)->tid;
  rig.RunToCompletion();
  EXPECT_EQ(rig.exits.at(tid).exited_at, 2 * kMillisecond);
}

TEST(KernelTest, NestedLoopsExecuteFully) {
  Rig rig;
  ProgramBuilder b("t");
  b.Loop(3).Loop(2).Compute(1e6).EndLoop().EndLoop();
  const int tid = rig.kernel.SpawnInitial(b.Build(), "t", 0, 0)->tid;
  rig.RunToCompletion();
  EXPECT_EQ(rig.exits.at(tid).exited_at, 6 * kMillisecond);
}

// intel-8153-8s already fills a CpuMask exactly (256 CPUs). A 9-socket
// machine (288 CPUs) must be refused when the kernel is built, with both
// counts in the message, before any mask is written.
TEST(KernelTest, MachineWiderThanCpuMaskFailsAtConstruction) {
  const MachineSpec spec = FixedFreqMachine(/*sockets=*/9, /*phys_per_socket=*/16,
                                            /*threads_per_core=*/2);
  Engine engine;
  HardwareModel hw(&engine, spec);
  ASSERT_EQ(hw.topology().num_cpus(), 288);
  CfsPolicy cfs;
  PerformanceGovernor governor;
  try {
    Kernel kernel(&engine, &hw, &cfs, &governor);
    FAIL() << "a 288-CPU kernel was constructed";
  } catch (const std::length_error& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("288"), std::string::npos) << message;
    EXPECT_NE(message.find("256"), std::string::npos) << message;
  }
}

TEST(KernelTest, FullWidthMachineFitsCpuMask) {
  const MachineSpec spec = FixedFreqMachine(8, 16, 2);
  Engine engine;
  HardwareModel hw(&engine, spec);
  CfsPolicy cfs;
  PerformanceGovernor governor;
  Kernel kernel(&engine, &hw, &cfs, &governor);
  EXPECT_EQ(kernel.idle_cpus().Count(), CpuMask::kMaxCpus);
}

// The order of injections against other events at shared instants, logged
// as (label, time, tasks created, tasks runnable) at marker events pushed
// before and after the injections were set up. With zero placement latency
// every injection also schedules its enqueue at its own arrival instant.
std::vector<std::string> InjectionOrder(bool streamed) {
  Rig rig;
  std::vector<std::string> log;
  auto mark = [&](const char* label) {
    log.push_back(std::string(label) + "@" + std::to_string(rig.engine.Now()) +
                  " tasks=" + std::to_string(rig.kernel.tasks().size()) +
                  " runnable=" + std::to_string(rig.kernel.runnable_tasks()));
  };
  const std::vector<SimTime> times = {1000, 1000, 1000, 2000};
  ProgramBuilder builder("req");
  builder.Compute(500);
  const ProgramPtr program = builder.Build();
  rig.engine.ScheduleAt(1000, [&] { mark("before"); });
  if (streamed) {
    rig.kernel.StreamInjections(
        [&times, &program, next = size_t{0}](Kernel::Injection* injection) mutable {
          if (next == times.size()) {
            return false;
          }
          *injection = {times[next], program, "req" + std::to_string(next)};
          ++next;
          return true;
        },
        /*tag=*/1);
  } else {
    for (size_t i = 0; i < times.size(); ++i) {
      rig.kernel.ScheduleInjection(times[i], program, "req" + std::to_string(i), /*tag=*/1);
    }
  }
  rig.engine.ScheduleAt(1000, [&] { mark("after"); });
  rig.engine.ScheduleAt(2000, [&] { mark("after"); });
  EXPECT_GT(rig.kernel.pending_injections(), 0);
  while (rig.kernel.live_tasks() > 0 || rig.kernel.pending_injections() > 0) {
    EXPECT_TRUE(rig.engine.Step());
  }
  mark("done");
  return log;
}

TEST(KernelTest, StreamedInjectionsFireWhereScheduledOnesWould) {
  const std::vector<std::string> scheduled = InjectionOrder(/*streamed=*/false);
  EXPECT_EQ(InjectionOrder(/*streamed=*/true), scheduled);
  // All three injections at 1000 land between the two markers; the one at
  // 2000 precedes its marker.
  EXPECT_EQ(scheduled, (std::vector<std::string>{"before@1000 tasks=0 runnable=0",
                                                 "after@1000 tasks=3 runnable=3",
                                                 "after@2000 tasks=4 runnable=3",
                                                 "done@2500 tasks=4 runnable=0"}));
}

// ---- Reclamation: a dead task is freed once nothing can reach it. ----

// Injects a short task at absolute time `when`; the NewTask inside that
// later event is where buried tasks are freed.
void InjectAt(Rig& rig, SimTime when) {
  rig.engine.ScheduleAt(when, [&rig] {
    ProgramBuilder b("probe");
    b.Compute(1e5);
    rig.kernel.InjectTask(b.Build(), "probe", 0);
  });
}

bool Reclaimed(const Rig& rig, int tid) { return rig.kernel.FindTask(tid) == nullptr; }

// Slots read null once reclaimed, in any order and across chunk boundaries;
// a chunk emptied before it fills keeps taking new tasks.
TEST(TaskTableTest, ReclaimedSlotsReadNullAndTheRestSurvive) {
  TaskTable table;
  constexpr size_t kTasks = 2500;  // three chunks, the last one partly filled
  for (size_t i = 0; i < kTasks; ++i) {
    auto task = std::make_unique<Task>();
    task->tid = static_cast<int>(i) + 1;
    ASSERT_EQ(table.Add(std::move(task))->tid, static_cast<int>(i) + 1);
  }
  for (size_t i = 0; i < kTasks; ++i) {
    if (i % 7 != 3) {
      table.Reclaim(i);
    }
  }
  for (size_t i = 2048; i < kTasks; ++i) {
    if (i % 7 == 3) {
      table.Reclaim(i);  // the tail chunk is now empty but not full
    }
  }
  auto last = std::make_unique<Task>();
  last->tid = static_cast<int>(kTasks) + 1;
  table.Add(std::move(last));
  EXPECT_EQ(table.size(), kTasks + 1);
  for (size_t i = 0; i < 2048; ++i) {
    EXPECT_EQ(table[i] != nullptr, i % 7 == 3) << i;
    if (table[i] != nullptr) {
      EXPECT_EQ(table[i]->tid, static_cast<int>(i) + 1);
    }
  }
  for (size_t i = 2048; i < kTasks; ++i) {
    EXPECT_EQ(table[i], nullptr) << i;
  }
  ASSERT_NE(table[kTasks], nullptr);
  EXPECT_EQ(table[kTasks]->tid, static_cast<int>(kTasks) + 1);
}

TEST(KernelReclaimTest, ParentExitingFirstIsFreedOnlyAfterItsLastChild) {
  Rig rig;
  ProgramBuilder short_child("c1");
  short_child.Compute(1e6);
  ProgramBuilder long_child("c2");
  long_child.Compute(3e6);
  ProgramBuilder parent("p");
  parent.Fork(short_child.Build()).Fork(long_child.Build());  // exits without a join
  const int parent_tid = rig.kernel.SpawnInitial(parent.Build(), "p", 0, 0)->tid;
  ASSERT_EQ(rig.kernel.tasks().size(), 3u);
  ASSERT_EQ(rig.kernel.FindTask(parent_tid)->state, TaskState::kDead);
  InjectAt(rig, 2 * kMillisecond);  // c1 has exited, c2 still runs
  InjectAt(rig, 8 * kMillisecond);  // both children have exited
  rig.engine.RunUntil(2 * kMillisecond);
  EXPECT_TRUE(Reclaimed(rig, 2));
  EXPECT_FALSE(Reclaimed(rig, parent_tid)) << "a dead parent with a live child was freed";
  EXPECT_EQ(rig.kernel.FindTask(parent_tid)->live_children, 1);
  rig.engine.RunUntil(8 * kMillisecond);
  EXPECT_TRUE(Reclaimed(rig, 3));
  EXPECT_TRUE(Reclaimed(rig, parent_tid));
  rig.RunToCompletion();
  EXPECT_EQ(rig.exits.at(parent_tid).exited_at, 0);
  EXPECT_LT(rig.exits.at(2).exited_at, 2 * kMillisecond);
  EXPECT_GT(rig.exits.at(3).exited_at, 2 * kMillisecond);
  EXPECT_LT(rig.exits.at(3).exited_at, 8 * kMillisecond);
}

TEST(KernelReclaimTest, TidsStayMonotonicAndTasksCountsEveryTaskCreated) {
  Rig rig;
  ProgramBuilder b("t");
  b.Compute(1e6);
  rig.kernel.SpawnInitial(b.Build(), "t", 0, 0);
  for (int i = 1; i <= 4; ++i) {
    InjectAt(rig, i * 2 * kMillisecond);  // each after the previous task exited
  }
  rig.engine.RunUntil(10 * kMillisecond);
  ASSERT_EQ(rig.kernel.live_tasks(), 0);
  ASSERT_EQ(rig.kernel.tasks().size(), 5u);
  for (int tid = 1; tid <= 4; ++tid) {
    EXPECT_TRUE(Reclaimed(rig, tid)) << "tid " << tid;
  }
  // Freed slots are never reused: the last task still has the fifth tid.
  ASSERT_NE(rig.kernel.FindTask(5), nullptr);
  EXPECT_EQ(rig.kernel.FindTask(5)->tid, 5);
}

// A task killed with an event still pending on it (the delayed enqueue of
// the §3.4 window, or a sleep timer) is freed before that event fires; the
// event must find the slot empty and touch nothing (ASan builds catch a
// read of the freed task).
TEST(KernelReclaimTest, TaskKilledWhilePlacingIsFreedBeforeItsEnqueueFires) {
  Kernel::Params params = Rig::ZeroCostParams();
  params.placement_latency = 5 * kMicrosecond;
  Rig rig(FixedFreqMachine(), params);
  ProgramBuilder child("c");
  child.Compute(1e6);
  ProgramBuilder parent("p");
  parent.Fork(child.Build()).Compute(1e6);
  rig.kernel.SpawnInitial(parent.Build(), "p", 0, 0);
  Task* placing = rig.kernel.FindTask(2);
  ASSERT_NE(placing, nullptr);
  ASSERT_EQ(placing->state, TaskState::kPlacing);
  rig.kernel.KillTask(placing);
  InjectAt(rig, 1 * kMicrosecond);  // frees the child, 4 us before its enqueue
  rig.engine.RunUntil(2 * kMicrosecond);
  EXPECT_TRUE(Reclaimed(rig, 2));
  rig.RunToCompletion();
  EXPECT_FALSE(rig.exits.contains(2));
  EXPECT_EQ(rig.kernel.runnable_tasks(), 0);
}

TEST(KernelReclaimTest, TaskKilledWhileAsleepIsFreedBeforeItsTimerFires) {
  Rig rig;
  ProgramBuilder b("t");
  b.Sleep(Milliseconds(1)).Compute(1e6);
  Task* sleeper = rig.kernel.SpawnInitial(b.Build(), "t", 0, 0);
  ASSERT_EQ(sleeper->state, TaskState::kBlocked);
  rig.kernel.KillTask(sleeper);
  InjectAt(rig, Microseconds(500));  // frees the sleeper before its 1 ms timer
  rig.engine.RunUntil(2 * kMillisecond);
  EXPECT_TRUE(Reclaimed(rig, 1));
  rig.RunToCompletion();
  EXPECT_FALSE(rig.exits.contains(1));
  EXPECT_EQ(rig.kernel.runnable_tasks(), 0);
}

}  // namespace
}  // namespace nestsim
