// The traced stack must be a faithful copy of RunExperiment: same simulated
// outputs for every policy, and decorators that forward every virtual.

#include "nestbench/src/traced_stack.h"

#include <gtest/gtest.h>

#include "nestbench/src/host_speed.h"

#include <memory>
#include <string>

#include "src/nest/nest_cache_policy.h"
#include "src/nest/nest_policy.h"
#include "src/obs/sched_counters.h"
#include "src/workloads/configure.h"
#include "src/workloads/requests.h"

namespace nestbench {
namespace {

using nestsim::ExperimentConfig;
using nestsim::SchedulerKind;

class FidelityTest : public ::testing::TestWithParam<SchedulerKind> {};

TEST_P(FidelityTest, ConfigureWorkloadMatchesRunExperiment) {
  ExperimentConfig config;
  config.machine = "intel-5218-2s";
  config.scheduler = GetParam();
  config.seed = 7;
  const nestsim::ConfigureWorkload workload("mplayer");
  const nestsim::ExperimentResult expected = nestsim::RunExperiment(config, workload);
  const TracedRun traced = RunTraced(config, workload);
  EXPECT_EQ(ResultDifference(expected, traced.result), "");
  EXPECT_GT(traced.result.events_fired, 0u);
  EXPECT_GT(traced.ledger.stat(kPolicyFork).calls + traced.ledger.stat(kPolicyWake).calls, 0u);
  EXPECT_GT(traced.ledger.stat(kGovernorRequest).calls, 0u);
  EXPECT_GT(traced.ledger.stat(kObserver).calls, 0u);
  EXPECT_FALSE(traced.transitions.empty());
  EXPECT_LE(traced.loop_attributed_ns, traced.step_ns);
  EXPECT_EQ(traced.plan_ns, traced.setup_ns);
}

TEST_P(FidelityTest, RequestWorkloadMatchesRunExperiment) {
  ExperimentConfig config;
  config.machine = "intel-6130-2s";
  config.scheduler = GetParam();
  config.governor = "performance";
  config.seed = 3;
  nestsim::RequestSpec spec;
  spec.rate_per_s = 2000.0;
  spec.duration_s = 0.2;
  spec.fanout = 2;
  const nestsim::RequestWorkload workload(spec);
  const nestsim::ExperimentResult expected = nestsim::RunExperiment(config, workload);
  const TracedRun traced = RunTraced(config, workload);
  EXPECT_EQ(ResultDifference(expected, traced.result), "");
  EXPECT_GT(traced.plan_parts, 0u);
  EXPECT_EQ(static_cast<int>(traced.plan_parts), expected.tasks_created);
}

INSTANTIATE_TEST_SUITE_P(Policies, FidelityTest,
                         ::testing::Values(SchedulerKind::kNest, SchedulerKind::kCfs,
                                           SchedulerKind::kSmove),
                         [](const auto& info) {
                           return std::string(nestsim::SchedulerKindKey(info.param));
                         });

TEST(FidelityTest, ResultDifferenceNamesTheField) {
  nestsim::ExperimentResult a;
  nestsim::ExperimentResult b;
  EXPECT_EQ(ResultDifference(a, b), "");
  b.energy_joules = 1.0;
  EXPECT_EQ(ResultDifference(a, b), "energy_joules");
  b = a;
  b.counters.fork_placements = 1;
  EXPECT_EQ(ResultDifference(a, b), "counters");
}

TEST(FidelityTest, RefusesConfigsWithExtraObservers) {
  ExperimentConfig config;
  config.record_latency = true;
  const nestsim::ConfigureWorkload workload("mplayer");
  EXPECT_THROW(RunTraced(config, workload), std::invalid_argument);
}

TEST(DecoratorTest, PolicyForwardsQueries) {
  Ledger ledger;
  TimedPolicy nest(std::make_unique<nestsim::NestPolicy>(nestsim::NestParams{}), &ledger);
  EXPECT_TRUE(nest.UsesPlacementReservation());
  EXPECT_FALSE(nest.WantsCacheWarmth());
  EXPECT_STREQ(nest.name(), nestsim::NestPolicy(nestsim::NestParams{}).name());
  TimedPolicy cache(std::make_unique<nestsim::NestCachePolicy>(nestsim::NestParams{},
                                                               nestsim::NestCacheParams{}),
                    &ledger);
  EXPECT_TRUE(cache.WantsCacheWarmth());
  EXPECT_EQ(ledger.stat(kPolicyHooks).calls, 3u);
}

TEST(DecoratorTest, ObserverKeepsTheInnerInterestMask) {
  struct OnlyTicks : nestsim::KernelObserver {
    uint32_t InterestMask() const override { return nestsim::kObsTick; }
    void OnTick(nestsim::SimTime) override { ++ticks; }
    int ticks = 0;
  } inner;
  Ledger ledger;
  TimedObserver timed(&inner, &ledger, kObserver);
  EXPECT_EQ(timed.InterestMask(), nestsim::kObsTick);
  timed.OnTick(5);
  EXPECT_EQ(inner.ticks, 1);
  EXPECT_EQ(ledger.stat(kObserver).calls, 1u);
}

TEST(DecoratorTest, NestedSpansChargeSelfTime) {
  Ledger ledger;
  {
    Span outer(&ledger, kPolicyWake);
    Span inner(&ledger, kObserver);
    const uint64_t t0 = NowNs();
    while (NowNs() - t0 < 2000000) {
    }
  }
  EXPECT_GE(ledger.stat(kObserver).self_ns, 2000000u);
  EXPECT_LT(ledger.stat(kPolicyWake).self_ns, ledger.stat(kObserver).self_ns);
  EXPECT_EQ(ledger.AttributedNs(),
            ledger.stat(kObserver).self_ns + ledger.stat(kPolicyWake).self_ns);
}

TEST(ReplayTest, ReplaysEveryTransition) {
  const std::vector<BusyTransition> transitions = {
      {0, 0, true}, {1000000, 1, true}, {5000000, 0, false}, {9000000, 1, false}};
  const ReplayStats stats = ReplayHardware("intel-5218-2s", transitions);
  EXPECT_EQ(stats.sim_end, 9000000);
  EXPECT_GE(stats.events, 4u);
}

TEST(HostSpeedTest, ScalesByTheMeanProbeTime) {
  EXPECT_GT(ProbeSeconds(), 0.0);
  EXPECT_DOUBLE_EQ(AtReferenceSpeed(2.0, kReferenceProbeSeconds, kReferenceProbeSeconds), 2.0);
  // A host running at half the reference speed takes twice as long.
  EXPECT_DOUBLE_EQ(AtReferenceSpeed(2.0, 2 * kReferenceProbeSeconds, 2 * kReferenceProbeSeconds),
                   1.0);
}

}  // namespace
}  // namespace nestbench
