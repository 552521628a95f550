// Cluster serving layer (src/cluster/): the passthrough differential — a
// 1-machine cluster must reproduce the single-machine RunExperiment result
// exactly — plus router behaviour, serving metrics, and determinism.

#include "src/cluster/cluster.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "src/cluster/router.h"
#include "src/obs/json_check.h"
#include "src/obs/sched_counters.h"
#include "src/scenario/runner.h"
#include "src/scenario/scenario.h"
#include "src/workloads/requests.h"

namespace nestsim {
namespace {

RequestSpec SmallTraffic() {
  RequestSpec spec;
  spec.name = "test";
  spec.rate_per_s = 400.0;
  spec.duration_s = 0.2;
  spec.service_ms = 0.5;
  spec.service_sigma = 0.4;
  return spec;
}

ExperimentConfig SmallConfig(SchedulerKind scheduler) {
  ExperimentConfig config;
  config.machine = "amd-4650g-1s";
  config.scheduler = scheduler;
  config.seed = 5;
  return config;
}

// Every field both runners fill, compared exactly (the doubles to within a
// few ulps). The counters compare as their full JSON rendering, not just the
// digest, so a mismatch names the counter that moved.
void ExpectSameResult(const ExperimentResult& a, const ExperimentResult& b) {
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_DOUBLE_EQ(a.energy_joules, b.energy_joules);
  EXPECT_DOUBLE_EQ(a.underload_per_s, b.underload_per_s);
  EXPECT_EQ(a.context_switches, b.context_switches);
  EXPECT_EQ(a.migrations, b.migrations);
  EXPECT_EQ(a.tasks_created, b.tasks_created);
  EXPECT_EQ(SchedCountersJson(a.counters), SchedCountersJson(b.counters));
  EXPECT_EQ(a.events_fired, b.events_fired);
  EXPECT_EQ(a.freq_hist.seconds, b.freq_hist.seconds);
  EXPECT_EQ(a.cpus_used, b.cpus_used);
  EXPECT_EQ(a.tag_makespan, b.tag_makespan);
  EXPECT_EQ(a.hit_time_limit, b.hit_time_limit);
  EXPECT_DOUBLE_EQ(a.p50_wakeup_latency_us, b.p50_wakeup_latency_us);
  EXPECT_DOUBLE_EQ(a.p99_wakeup_latency_us, b.p99_wakeup_latency_us);
  const ResilienceStats& ra = a.resilience;
  const ResilienceStats& rb = b.resilience;
  EXPECT_EQ(ra.tasks_killed, rb.tasks_killed);
  EXPECT_EQ(ra.replicas_reaped, rb.replicas_reaped);
  EXPECT_DOUBLE_EQ(ra.work_lost_ms, rb.work_lost_ms);
  EXPECT_DOUBLE_EQ(ra.wasted_replica_ms, rb.wasted_replica_ms);
  EXPECT_EQ(ra.evacuations, rb.evacuations);
  EXPECT_DOUBLE_EQ(ra.mean_evac_latency_us, rb.mean_evac_latency_us);
  EXPECT_DOUBLE_EQ(ra.max_evac_latency_us, rb.max_evac_latency_us);
  EXPECT_EQ(ra.requests_failed, rb.requests_failed);
  EXPECT_EQ(ra.requests_degraded, rb.requests_degraded);
}

// The passthrough differential on one config: the 1-machine fleet must match
// RunExperiment field for field and still report its serving metrics.
void ExpectPassthroughMatches(const ExperimentConfig& config, const Workload& workload) {
  const ExperimentResult single = RunExperiment(config, workload);
  const ExperimentResult fleet =
      RunClusterExperiment(ClusterSpec{1, "passthrough"}, config, workload);
  ExpectSameResult(single, fleet);
  EXPECT_EQ(fleet.cluster.num_machines, 1);
  EXPECT_GT(fleet.cluster.requests_offered, 0u);
  EXPECT_EQ(fleet.cluster.requests_completed, fleet.cluster.requests_offered);
}

const SchedulerKind kDifferentialSchedulers[] = {SchedulerKind::kCfs, SchedulerKind::kNest,
                                                 SchedulerKind::kSmove};

TEST(ClusterDifferentialTest, PassthroughSingleMachineIsDigestIdentical) {
  const RequestWorkload workload(SmallTraffic());
  for (const SchedulerKind scheduler : kDifferentialSchedulers) {
    SCOPED_TRACE(SchedulerKindKey(scheduler));
    ExpectPassthroughMatches(SmallConfig(scheduler), workload);
  }
}

TEST(ClusterDifferentialTest, PassthroughMatchesWithWakeupLatency) {
  const RequestWorkload workload(SmallTraffic());
  for (const SchedulerKind scheduler : kDifferentialSchedulers) {
    SCOPED_TRACE(SchedulerKindKey(scheduler));
    ExperimentConfig config = SmallConfig(scheduler);
    config.record_latency = true;
    ExpectPassthroughMatches(config, workload);
  }
}

TEST(ClusterDifferentialTest, PassthroughMatchesUnderCoreFaults) {
  const RequestWorkload workload(SmallTraffic());
  for (const SchedulerKind scheduler : kDifferentialSchedulers) {
    SCOPED_TRACE(SchedulerKindKey(scheduler));
    ExperimentConfig config = SmallConfig(scheduler);
    config.fault.core_fail_rate_per_s = 40.0;
    config.fault.core_downtime_ms = 20.0;
    config.fault.horizon_s = 0.3;
    const ExperimentResult single = RunExperiment(config, workload);
    EXPECT_GT(single.counters.faults_injected, 0u);
    ExpectPassthroughMatches(config, workload);
  }
}

// A single machine is a one-domain group: running it on the worker pool must
// reproduce the serial run exactly.
TEST(ClusterDifferentialTest, SingleMachineWorkerPoolMatchesSerial) {
  const RequestWorkload workload(SmallTraffic());
  for (const SchedulerKind scheduler : kDifferentialSchedulers) {
    SCOPED_TRACE(SchedulerKindKey(scheduler));
    const ExperimentConfig serial = SmallConfig(scheduler);
    ExperimentConfig pooled = serial;
    pooled.parallel.workers = 2;
    ExpectSameResult(RunExperiment(serial, workload), RunExperiment(pooled, workload));
  }
}

TEST(ClusterDifferentialTest, ClusterRunIsRepeatable) {
  const RequestWorkload workload(SmallTraffic());
  const ExperimentConfig config = SmallConfig(SchedulerKind::kNest);
  const ClusterSpec cluster{3, "least-loaded"};
  const ExperimentResult a = RunClusterExperiment(cluster, config, workload);
  const ExperimentResult b = RunClusterExperiment(cluster, config, workload);
  ExpectSameResult(a, b);
  EXPECT_DOUBLE_EQ(a.cluster.p99_ms, b.cluster.p99_ms);
  ASSERT_EQ(a.cluster.machines.size(), b.cluster.machines.size());
  for (size_t m = 0; m < a.cluster.machines.size(); ++m) {
    EXPECT_EQ(a.cluster.machines[m].requests_routed, b.cluster.machines[m].requests_routed);
  }
}

TEST(ClusterRunTest, RoundRobinSpreadsArrivalsEvenly) {
  const RequestWorkload workload(SmallTraffic());
  const ExperimentResult r = RunClusterExperiment(
      ClusterSpec{2, "round-robin"}, SmallConfig(SchedulerKind::kCfs), workload);
  ASSERT_EQ(r.cluster.machines.size(), 2u);
  const uint64_t m0 = r.cluster.machines[0].requests_routed;
  const uint64_t m1 = r.cluster.machines[1].requests_routed;
  EXPECT_EQ(m0 + m1, r.cluster.requests_offered);  // fanout 0: one part each
  EXPECT_LE(m0 > m1 ? m0 - m1 : m1 - m0, 1u);      // strict alternation
}

TEST(ClusterRunTest, ServingMetricsAreCoherent) {
  RequestSpec spec = SmallTraffic();
  spec.fanout = 2;
  spec.io_pause_ms = 0.2;
  const RequestWorkload workload(spec);
  const ExperimentResult r = RunClusterExperiment(
      ClusterSpec{2, "round-robin"}, SmallConfig(SchedulerKind::kNest), workload);
  const ClusterStats& c = r.cluster;
  EXPECT_EQ(c.num_machines, 2);
  EXPECT_EQ(c.router, "round-robin");
  EXPECT_GT(c.requests_offered, 0u);
  EXPECT_EQ(c.requests_completed, c.requests_offered);  // run drains fully
  // Percentiles are nondecreasing and bounded by the max.
  EXPECT_GT(c.p50_ms, 0.0);
  EXPECT_LE(c.p50_ms, c.p99_ms);
  EXPECT_LE(c.p99_ms, c.p999_ms);
  EXPECT_LE(c.p999_ms, c.max_ms);
  // Queueing + service breakdown: both sides positive, each below the
  // end-to-end mean (parts run concurrently, so they need not sum to it).
  EXPECT_GT(c.mean_service_ms, 0.0);
  EXPECT_GE(c.mean_queue_ms, 0.0);
  // With fanout 2 every request contributes three routed parts.
  uint64_t routed = 0;
  for (const ClusterMachineStats& m : c.machines) {
    routed += m.requests_routed;
    EXPECT_GE(m.utilisation, 0.0);
    EXPECT_LE(m.utilisation, 1.0);
  }
  EXPECT_EQ(routed, c.requests_offered * 3);
}

TEST(ClusterRunTest, UnknownRouterThrows) {
  const RequestWorkload workload(SmallTraffic());
  EXPECT_THROW(RunClusterExperiment(ClusterSpec{2, "no-such-router"},
                                    SmallConfig(SchedulerKind::kCfs), workload),
               std::runtime_error);
}

TEST(ClusterRunTest, NonRequestWorkloadThrows) {
  // Any closed-loop workload must be rejected: the cluster runner owns the
  // injection schedule and cannot replay arbitrary Setup() side effects.
  class NotRequests : public Workload {
   public:
    std::string name() const override { return "not-requests"; }
    void Setup(Kernel&, Rng&) const override {}
  };
  EXPECT_THROW(RunClusterExperiment(ClusterSpec{1, "passthrough"},
                                    SmallConfig(SchedulerKind::kCfs), NotRequests()),
               std::runtime_error);
}

TEST(RouterTest, RegistryCoversEveryName) {
  const std::vector<std::string> names = RouterNames();
  EXPECT_EQ(names.size(), 4u);
  for (const std::string& name : names) {
    const auto router = MakeRouter(name);
    ASSERT_NE(router, nullptr) << name;
    EXPECT_EQ(router->name(), name);
  }
  EXPECT_EQ(MakeRouter("no-such-router"), nullptr);
}

TEST(RouterTest, LeastLoadedPrefersTheIdlerMachine) {
  DomainGroup group(2);
  const ExperimentConfig config = SmallConfig(SchedulerKind::kCfs);
  ClusterModel model(&group, config, 2);
  model.machine(0).kernel.Start();
  model.machine(1).kernel.Start();

  const auto router = MakeRouter("least-loaded");
  // Both idle: lowest index wins.
  EXPECT_EQ(router->Route(model.kernels(), model.hardware()), 0);

  // Park a runnable task on machine 0; the router must now pick machine 1.
  ProgramBuilder builder("busy");
  builder.ComputeMs(5.0);
  model.machine(0).kernel.InjectTask(builder.Build(), "busy", /*tag=*/0);
  EXPECT_GT(model.machine(0).kernel.runnable_tasks(), 0);
  EXPECT_EQ(router->Route(model.kernels(), model.hardware()), 1);
}

TEST(RequestPlanTest, PlanIsDeterministicAndOrdered) {
  const RequestWorkload workload(SmallTraffic());
  Rng rng_a(42), rng_b(42);
  const RequestPlan a = workload.BuildPlan(rng_a);
  const RequestPlan b = workload.BuildPlan(rng_b);
  ASSERT_EQ(a.parts.size(), b.parts.size());
  EXPECT_GT(a.requests, 0u);
  SimTime prev = 0;
  for (size_t i = 0; i < a.parts.size(); ++i) {
    EXPECT_EQ(a.parts[i].arrival, b.parts[i].arrival);
    EXPECT_EQ(a.parts[i].name, b.parts[i].name);
    EXPECT_GE(a.parts[i].arrival, prev);  // arrival order
    prev = a.parts[i].arrival;
  }
}

// Machine crashes with requests in flight (docs/FAULTS.md): the dead machine
// stops taking traffic, its in-flight work is killed and accounted as failed
// requests, and the fleet result stays bit-deterministic.
TEST(ClusterFaultTest, MachineCrashFailsOverInFlightRequests) {
  // Heavy enough traffic that a crash instant always finds live tasks to
  // kill; SmallTraffic leaves the machines idle almost all the time.
  RequestSpec spec = SmallTraffic();
  spec.rate_per_s = 4000.0;
  spec.service_ms = 2.0;
  spec.duration_s = 0.1;
  const RequestWorkload workload(spec);
  ExperimentConfig config = SmallConfig(SchedulerKind::kNest);
  config.fault.machine_fail_rate_per_s = 30.0;
  config.fault.machine_downtime_ms = 0.0;  // permanent: a crashed box stays dark
  const ClusterSpec cluster{2, "least-loaded"};
  const ExperimentResult a = RunClusterExperiment(cluster, config, workload);
  const ExperimentResult b = RunClusterExperiment(cluster, config, workload);
  ExpectSameResult(a, b);
  EXPECT_GT(a.counters.faults_injected, 0u);  // kMachineCrash counts as a fault
  EXPECT_GT(a.resilience.tasks_killed, 0u);
  EXPECT_GT(a.resilience.requests_failed, 0u);
  EXPECT_LT(a.cluster.requests_completed, a.cluster.requests_offered);
}

// Replication without faults: every part still completes (the quorum winner),
// losers are reaped as wasted — not failed — work, and the counters see one
// quorum join per reap opportunity.
TEST(ClusterFaultTest, ReplicaQuorumJoinsAndReapsTheLosers) {
  // Copies of a part share one pre-drawn program, so on idle machines both
  // exit at the same instant and the reap finds the loser already dead.
  // Saturate a single machine instead: queueing skews the copies' start
  // times, the earlier copy wins the quorum, and the straggler is reaped
  // mid-flight with runtime on the books.
  RequestSpec spec = SmallTraffic();
  spec.rate_per_s = 4000.0;
  spec.service_ms = 1.0;
  spec.arrivals = ArrivalKind::kBursty;
  spec.duration_s = 0.1;
  const RequestWorkload workload(spec);
  ExperimentConfig config = SmallConfig(SchedulerKind::kCfs);
  config.fault.replicas = 2;
  config.fault.quorum = 1;
  const ExperimentResult r =
      RunClusterExperiment(ClusterSpec{1, "passthrough"}, config, workload);
  EXPECT_GT(r.counters.replica_quorum_joins, 0u);
  EXPECT_GT(r.resilience.replicas_reaped, 0u);
  // A loser can exit on its own in the same instant the quorum lands, so
  // reaps can trail joins but never exceed them.
  EXPECT_GE(r.counters.replica_quorum_joins, r.resilience.replicas_reaped);
  EXPECT_EQ(r.cluster.requests_completed, r.cluster.requests_offered);
  EXPECT_EQ(r.resilience.requests_failed, 0u);
  EXPECT_GT(r.resilience.wasted_replica_ms, 0.0);
}

// The scenario path to single-machine replication: a 1-machine passthrough
// fleet, parsed and run like any scenario file.
TEST(ClusterFaultTest, OneMachineFleetScenarioJoinsQuorums) {
  JsonValue root;
  std::string json_error;
  ASSERT_TRUE(JsonParse(R"({
    "name":"one-machine-replicas","machines":["amd-4650g-1s"],
    "variants":[{"label":"cfs","scheduler":"cfs","governor":"schedutil"}],
    "workload":{"family":"requests","params":{"rate_per_s":4000.0,"arrivals":"bursty",
                                              "duration_s":0.1,"service_ms":1.0}},
    "cluster":{"machines":1},
    "repetitions":1,
    "config":{"replicas":2,"fault.quorum":1}
  })",
                        &root, &json_error))
      << json_error;
  Scenario scenario;
  ScenarioError err;
  ASSERT_TRUE(ParseScenario(root, "one-machine-replicas", &scenario, &err)) << err.Join();
  ScenarioRunOptions options;
  options.campaign.jobs = 1;
  options.campaign.progress = false;
  options.campaign.jsonl_path.clear();
  ScenarioRun run;
  ASSERT_TRUE(ExpandScenario(scenario, options, &run, &err)) << err.Join();
  ExecuteScenario(&run);
  ASSERT_EQ(run.outcomes.size(), 1u);
  ASSERT_TRUE(run.outcomes[0].ok()) << run.outcomes[0].message;
  const ExperimentResult& r = run.outcomes[0].result.runs.at(0);
  EXPECT_EQ(r.cluster.num_machines, 1);
  EXPECT_GT(r.counters.replica_quorum_joins, 0u);
  EXPECT_GT(r.resilience.replicas_reaped, 0u);
}

TEST(RequestPlanTest, BurstyOffersMoreThanPoissonAtSameBaseRate) {
  RequestSpec poisson = SmallTraffic();
  poisson.duration_s = 1.0;
  RequestSpec bursty = poisson;
  bursty.arrivals = ArrivalKind::kBursty;
  Rng rng_a(7), rng_b(7);
  const RequestPlan p = RequestWorkload(poisson).BuildPlan(rng_a);
  const RequestPlan b = RequestWorkload(bursty).BuildPlan(rng_b);
  EXPECT_GT(b.requests, p.requests);
}

// A time limit that stops a fleet mid-traffic. Requests that never arrived
// still count as offered, exactly as many as the whole plan holds, and only
// arrived requests can complete or fail. The completed/failed/degraded
// counts are pinned to what the runner reported for this run when it pushed
// the whole plan up front, before arrivals were streamed.
TEST(ClusterRunTest, TimeLimitedRunCountsTheWholeOffer) {
  RequestSpec spec = SmallTraffic();
  spec.rate_per_s = 4000.0;
  spec.service_ms = 2.0;
  spec.duration_s = 0.2;
  spec.fanout = 2;
  const RequestWorkload workload(spec);
  ExperimentConfig config = SmallConfig(SchedulerKind::kNest);
  config.fault.machine_fail_rate_per_s = 30.0;
  config.fault.machine_downtime_ms = 20.0;
  config.time_limit = 100 * kMillisecond;
  const ExperimentResult r =
      RunClusterExperiment(ClusterSpec{2, "least-loaded"}, config, workload);

  Rng rng(config.seed);
  Rng wl_rng = rng.Fork();
  const RequestPlan plan = workload.BuildPlan(wl_rng);
  uint64_t arrived = 0;
  for (const RequestPart& part : plan.parts) {
    arrived += part.part == 0 && part.arrival <= config.time_limit ? 1 : 0;
  }
  EXPECT_TRUE(r.hit_time_limit);
  EXPECT_EQ(r.cluster.requests_offered, plan.requests);
  EXPECT_LT(arrived, plan.requests);
  EXPECT_LE(r.cluster.requests_completed + r.resilience.requests_failed, arrived);
  EXPECT_EQ(r.cluster.requests_offered, 802u);
  EXPECT_EQ(r.cluster.requests_completed, 384u);
  EXPECT_EQ(r.resilience.requests_failed, 18u);
  EXPECT_EQ(r.resilience.requests_degraded, 0u);
}

}  // namespace
}  // namespace nestsim
