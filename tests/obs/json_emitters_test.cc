// Pinned bytes for every JSON emitter: fixed synthetic inputs rendered
// through the golden writer (BaselineJsonl, BaselineVerdictJson), the
// campaign JSONL record, the counter object, the BENCH_core.json report and
// the decision-export rows. The goldens, their SchedCounters digests and the
// nestbench expected digests are all these bytes, so any change to them is a
// format change, never a refactor. The hostile-string tests then push a label
// full of quotes, backslashes, control bytes and UTF-8 through each emitter
// (and a Perfetto trace) and parse it back.

#include <gtest/gtest.h>

#include <iterator>
#include <string>
#include <vector>

#include "src/campaign/jsonl_sink.h"
#include "src/cfs/cfs_policy.h"
#include "src/governors/governors.h"
#include "src/kernel/program.h"
#include "src/obs/json_check.h"
#include "src/obs/perfetto_trace.h"
#include "src/obs/sched_counters.h"
#include "src/perf/bench_harness.h"
#include "src/predict/features.h"
#include "src/scenario/baseline.h"

namespace nestsim {
namespace {

constexpr PlacementPath kLatePaths[] = {PlacementPath::kNestCacheWarm,
                                        PlacementPath::kFaultEvacuate,
                                        PlacementPath::kNestPredicted,
                                        PlacementPath::kNestOracleWarm};

bool IsLatePath(int i) {
  for (const PlacementPath p : kLatePaths) {
    if (static_cast<int>(p) == i) {
      return true;
    }
  }
  return false;
}

// Every placement path before the late four counts i + 1.
SchedCounters CoreCounters() {
  SchedCounters c;
  for (int i = 0; i < kNumPlacementPaths; ++i) {
    c.placements[i] = IsLatePath(i) ? 0 : static_cast<uint64_t>(i + 1);
  }
  c.fork_placements = 101;
  c.wake_placements = 102;
  c.reservation_collisions = 103;
  c.nest_promotions = 104;
  c.nest_demotions = 105;
  c.nest_compactions = 106;
  c.nest_reserve_adds = 107;
  c.nest_reserve_full_drops = 108;
  c.spin_starts = 109;
  c.spin_converted = 110;
  c.spin_expired = 111;
  c.migrations_newidle = 112;
  c.migrations_periodic = 113;
  c.migrations_policy = 114;
  c.freq_ramps_up = 115;
  c.freq_ramps_down = 116;
  c.wc_violation_ns = 18446744073709551615ull;
  c.wc_violation_episodes = 118;
  return c;
}

// CoreCounters plus every late path, the cache block and the fault block.
SchedCounters FullCounters() {
  SchedCounters c = CoreCounters();
  for (int i = 0; i < kNumPlacementPaths; ++i) {
    c.placements[i] = static_cast<uint64_t>(i + 1);
  }
  c.cache_warm_hits = 201;
  c.cache_cold_misses = 202;
  c.cache_cross_die_migrations = 203;
  c.faults_injected = 301;
  c.tasks_evacuated = 302;
  c.replica_quorum_joins = 303;
  c.budget_throttle_ticks = 304;
  return c;
}

ExperimentResult PlainRun() {
  ExperimentResult r;
  r.makespan = 123456789;
  r.energy_joules = 100.0 / 3.0;
  r.underload_per_s = 2.5;
  r.context_switches = 17;
  r.migrations = 4;
  r.tasks_created = 9;
  r.counters = CoreCounters();
  r.p50_wakeup_latency_us = 1.5;
  r.p99_wakeup_latency_us = 1.0 / 3.0;
  return r;
}

// A single-machine run where faults fired: carries the resilience block.
ExperimentResult FaultRun() {
  ExperimentResult r = PlainRun();
  r.makespan = 2000000000;
  r.counters = FullCounters();
  r.resilience.tasks_killed = 2;
  r.resilience.replicas_reaped = 1;
  r.resilience.evacuations = 3;
  r.resilience.work_lost_ms = 0.1;
  r.resilience.wasted_replica_ms = 0.2;
  r.resilience.mean_evac_latency_us = 12.75;
  r.resilience.requests_failed = 1;
  return r;
}

// A fleet run with faults: adds the cluster serving block.
ExperimentResult FleetRun() {
  ExperimentResult r = FaultRun();
  r.cluster.num_machines = 2;
  r.cluster.requests_offered = 100;
  r.cluster.requests_completed = 97;
  r.cluster.p50_ms = 0.25;
  r.cluster.p99_ms = 1.0 / 7.0;
  r.cluster.p999_ms = 3.5;
  return r;
}

Job MakeJob(const std::string& row, bool record_latency) {
  Job job;
  job.workload = row;
  job.variant = "Nest sched";
  job.config.machine = "intel-5218-2s";
  job.config.scheduler = SchedulerKind::kNest;
  job.config.governor = "schedutil";
  job.config.record_latency = record_latency;
  job.repetitions = 2;
  job.base_seed = 41;
  return job;
}

JobOutcome OkOutcome(std::vector<ExperimentResult> runs) {
  JobOutcome outcome;
  outcome.status = JobStatus::kOk;
  outcome.wall_seconds = 0.125;
  outcome.result.runs = std::move(runs);
  outcome.result.mean_seconds = 1.0 / 3.0;
  outcome.result.stddev_seconds = 0.1;
  outcome.result.mean_energy_j = 12.5;
  outcome.result.mean_underload_per_s = 0.7;
  return outcome;
}

// Four jobs: two runs (plain, then with faults), a fleet job that records
// wakeup latency, a failed job and a timed-out one.
ScenarioRun PinnedRun() {
  ScenarioRun run;
  run.scenario.name = "pinned";
  run.repetitions = 2;
  run.base_seed = 41;
  run.jobs = {MakeJob("gcc", false), MakeJob("fleet", true), MakeJob("bad", false),
              MakeJob("slow", false)};
  run.outcomes.push_back(OkOutcome({PlainRun(), FaultRun()}));
  run.outcomes.push_back(OkOutcome({FleetRun()}));
  JobOutcome failed;
  failed.status = JobStatus::kFailed;
  failed.message = "went \"bang\"";
  failed.wall_seconds = 0.5;
  run.outcomes.push_back(failed);
  JobOutcome timeout;
  timeout.status = JobStatus::kTimeout;
  timeout.wall_seconds = 2.0;
  run.outcomes.push_back(timeout);
  return run;
}

std::vector<BaselineCheck> VerdictChecks() {
  BaselineCheck pass;
  pass.scenario = "fig4";
  pass.baseline_path = "baselines/fig4.jsonl";
  pass.jobs = 176;
  pass.compared = 176;
  BaselineCheck fail;
  fail.scenario = "table4";
  fail.baseline_path = "baselines/table4.jsonl";
  fail.jobs = 3;
  fail.compared = 2;
  fail.problems = {"a x b x c: runs[0].makespan_ns changed: golden 1, fresh 2",
                   "golden record lacks \"runs[1].seed\""};
  return {pass, fail};
}

BenchReport PinnedReport() {
  BenchReport report;
  BenchRecord micro;
  micro.name = "event_queue/push_pop_hot";
  micro.ops = 1000;
  micro.samples = 5;
  micro.median_s = 0.001234;
  micro.ns_per_op = 1234.0;
  micro.ops_per_sec = 1000.0 / 0.001234;
  report.Add(micro);
  BenchRecord mem;
  mem.name = "mem/scale256@4s";
  mem.ops = 1;
  mem.samples = 1;
  mem.median_s = 0.1;
  mem.ns_per_op = 1e8;
  mem.ops_per_sec = 10.0;
  mem.peak_rss_mb = 4.25;
  report.Add(mem);
  return report;
}

// A prior report: a speedup for the first record and an RSS ratio (but no
// speedup, its ops_per_sec being 0) for the second.
constexpr const char* kReference =
    "{\"records\":[{\"name\":\"event_queue/push_pop_hot\",\"ops_per_sec\":500000},"
    "{\"name\":\"mem/scale256@4s\",\"ops_per_sec\":0,\"peak_rss_mb\":8.5}]}";

DecisionLabels PinnedLabels() { return DecisionLabels{"intel-5218-2s", "a,b", "v\"q"}; }

// A fork onto an idle primary core and a wake into the oracle's warm pool;
// two core samples each, exported three CPUs wide.
std::vector<DecisionRow> PinnedRows() {
  DecisionRow fork;
  fork.seed = 7;
  fork.time_ns = 123456;
  fork.is_fork = true;
  fork.tid = 12;
  fork.prev_cpu = -1;
  fork.runnable = 3;
  fork.chosen_cpu = 1;
  fork.path = PlacementPath::kNestPrimary;
  fork.cores = {{2.1, 0.5, 1, 2, 0.75}, {3.0000000000000004, 1.0 / 3.0, 0, 0, 0.0}};
  DecisionRow wake = fork;
  wake.is_fork = false;
  wake.time_ns = 9000000000;
  wake.prev_cpu = 1;
  wake.path = PlacementPath::kNestOracleWarm;
  wake.cores[1].warmth = 1e-300;
  return {fork, wake};
}

TEST(PinnedBytesTest, CounterObjects) {
  EXPECT_EQ(SchedCountersJson(SchedCounters{}),
            R"json({"placements":{"unknown":0,"initial":0,"cfs_fork":0,"cfs_wake":0,"nest_primary":0,"nest_reserve":0,"nest_attached":0,"nest_prev_core":0,"nest_impatient":0,"nest_cfs_fallback":0,"smove_parked":0,"smove_cfs":0},"fork_placements":0,"wake_placements":0,"reservation_collisions":0,"nest_promotions":0,"nest_demotions":0,"nest_compactions":0,"nest_reserve_adds":0,"nest_reserve_full_drops":0,"spin_starts":0,"spin_converted":0,"spin_expired":0,"migrations_newidle":0,"migrations_periodic":0,"migrations_policy":0,"freq_ramps_up":0,"freq_ramps_down":0,"wc_violation_ns":0,"wc_violation_episodes":0})json");
  EXPECT_EQ(SchedCountersJson(CoreCounters()),
            R"json({"placements":{"unknown":1,"initial":2,"cfs_fork":3,"cfs_wake":4,"nest_primary":5,"nest_reserve":6,"nest_attached":7,"nest_prev_core":8,"nest_impatient":9,"nest_cfs_fallback":10,"smove_parked":11,"smove_cfs":12},"fork_placements":101,"wake_placements":102,"reservation_collisions":103,"nest_promotions":104,"nest_demotions":105,"nest_compactions":106,"nest_reserve_adds":107,"nest_reserve_full_drops":108,"spin_starts":109,"spin_converted":110,"spin_expired":111,"migrations_newidle":112,"migrations_periodic":113,"migrations_policy":114,"freq_ramps_up":115,"freq_ramps_down":116,"wc_violation_ns":18446744073709551615,"wc_violation_episodes":118})json");
  EXPECT_EQ(SchedCountersJson(FullCounters()),
            R"json({"placements":{"unknown":1,"initial":2,"cfs_fork":3,"cfs_wake":4,"nest_primary":5,"nest_reserve":6,"nest_attached":7,"nest_prev_core":8,"nest_impatient":9,"nest_cfs_fallback":10,"smove_parked":11,"smove_cfs":12,"nest_cache_warm":13,"fault_evacuate":14,"nest_predicted":15,"nest_oracle_warm":16},"fork_placements":101,"wake_placements":102,"reservation_collisions":103,"nest_promotions":104,"nest_demotions":105,"nest_compactions":106,"nest_reserve_adds":107,"nest_reserve_full_drops":108,"spin_starts":109,"spin_converted":110,"spin_expired":111,"migrations_newidle":112,"migrations_periodic":113,"migrations_policy":114,"freq_ramps_up":115,"freq_ramps_down":116,"wc_violation_ns":18446744073709551615,"wc_violation_episodes":118,"cache_warm_hits":201,"cache_cold_misses":202,"cache_cross_die_migrations":203,"faults_injected":301,"tasks_evacuated":302,"replica_quorum_joins":303,"budget_throttle_ticks":304})json");
  // Either block appears whole as soon as one of its counters is non-zero.
  SchedCounters cache;
  cache.cache_cross_die_migrations = 1;
  EXPECT_EQ(SchedCountersJson(cache),
            R"json({"placements":{"unknown":0,"initial":0,"cfs_fork":0,"cfs_wake":0,"nest_primary":0,"nest_reserve":0,"nest_attached":0,"nest_prev_core":0,"nest_impatient":0,"nest_cfs_fallback":0,"smove_parked":0,"smove_cfs":0},"fork_placements":0,"wake_placements":0,"reservation_collisions":0,"nest_promotions":0,"nest_demotions":0,"nest_compactions":0,"nest_reserve_adds":0,"nest_reserve_full_drops":0,"spin_starts":0,"spin_converted":0,"spin_expired":0,"migrations_newidle":0,"migrations_periodic":0,"migrations_policy":0,"freq_ramps_up":0,"freq_ramps_down":0,"wc_violation_ns":0,"wc_violation_episodes":0,"cache_warm_hits":0,"cache_cold_misses":0,"cache_cross_die_migrations":1})json");
  SchedCounters fault;
  fault.budget_throttle_ticks = 2;
  EXPECT_EQ(SchedCountersJson(fault),
            R"json({"placements":{"unknown":0,"initial":0,"cfs_fork":0,"cfs_wake":0,"nest_primary":0,"nest_reserve":0,"nest_attached":0,"nest_prev_core":0,"nest_impatient":0,"nest_cfs_fallback":0,"smove_parked":0,"smove_cfs":0},"fork_placements":0,"wake_placements":0,"reservation_collisions":0,"nest_promotions":0,"nest_demotions":0,"nest_compactions":0,"nest_reserve_adds":0,"nest_reserve_full_drops":0,"spin_starts":0,"spin_converted":0,"spin_expired":0,"migrations_newidle":0,"migrations_periodic":0,"migrations_policy":0,"freq_ramps_up":0,"freq_ramps_down":0,"wc_violation_ns":0,"wc_violation_episodes":0,"faults_injected":0,"tasks_evacuated":0,"replica_quorum_joins":0,"budget_throttle_ticks":2})json");
}

// Each late placement path joins the placements object only when used, after
// the twelve original paths.
TEST(PinnedBytesTest, LatePlacementPathsJoinOnlyWhenUsed) {
  const char* const expected[] = {
      R"json({"placements":{"unknown":0,"initial":0,"cfs_fork":0,"cfs_wake":0,"nest_primary":0,"nest_reserve":0,"nest_attached":0,"nest_prev_core":0,"nest_impatient":0,"nest_cfs_fallback":0,"smove_parked":0,"smove_cfs":0,"nest_cache_warm":5},"fork_placements":0,"wake_placements":0,"reservation_collisions":0,"nest_promotions":0,"nest_demotions":0,"nest_compactions":0,"nest_reserve_adds":0,"nest_reserve_full_drops":0,"spin_starts":0,"spin_converted":0,"spin_expired":0,"migrations_newidle":0,"migrations_periodic":0,"migrations_policy":0,"freq_ramps_up":0,"freq_ramps_down":0,"wc_violation_ns":0,"wc_violation_episodes":0})json",
      R"json({"placements":{"unknown":0,"initial":0,"cfs_fork":0,"cfs_wake":0,"nest_primary":0,"nest_reserve":0,"nest_attached":0,"nest_prev_core":0,"nest_impatient":0,"nest_cfs_fallback":0,"smove_parked":0,"smove_cfs":0,"fault_evacuate":5},"fork_placements":0,"wake_placements":0,"reservation_collisions":0,"nest_promotions":0,"nest_demotions":0,"nest_compactions":0,"nest_reserve_adds":0,"nest_reserve_full_drops":0,"spin_starts":0,"spin_converted":0,"spin_expired":0,"migrations_newidle":0,"migrations_periodic":0,"migrations_policy":0,"freq_ramps_up":0,"freq_ramps_down":0,"wc_violation_ns":0,"wc_violation_episodes":0})json",
      R"json({"placements":{"unknown":0,"initial":0,"cfs_fork":0,"cfs_wake":0,"nest_primary":0,"nest_reserve":0,"nest_attached":0,"nest_prev_core":0,"nest_impatient":0,"nest_cfs_fallback":0,"smove_parked":0,"smove_cfs":0,"nest_predicted":5},"fork_placements":0,"wake_placements":0,"reservation_collisions":0,"nest_promotions":0,"nest_demotions":0,"nest_compactions":0,"nest_reserve_adds":0,"nest_reserve_full_drops":0,"spin_starts":0,"spin_converted":0,"spin_expired":0,"migrations_newidle":0,"migrations_periodic":0,"migrations_policy":0,"freq_ramps_up":0,"freq_ramps_down":0,"wc_violation_ns":0,"wc_violation_episodes":0})json",
      R"json({"placements":{"unknown":0,"initial":0,"cfs_fork":0,"cfs_wake":0,"nest_primary":0,"nest_reserve":0,"nest_attached":0,"nest_prev_core":0,"nest_impatient":0,"nest_cfs_fallback":0,"smove_parked":0,"smove_cfs":0,"nest_oracle_warm":5},"fork_placements":0,"wake_placements":0,"reservation_collisions":0,"nest_promotions":0,"nest_demotions":0,"nest_compactions":0,"nest_reserve_adds":0,"nest_reserve_full_drops":0,"spin_starts":0,"spin_converted":0,"spin_expired":0,"migrations_newidle":0,"migrations_periodic":0,"migrations_policy":0,"freq_ramps_up":0,"freq_ramps_down":0,"wc_violation_ns":0,"wc_violation_episodes":0})json"};
  for (size_t i = 0; i < std::size(kLatePaths); ++i) {
    SchedCounters c;
    c.placements[static_cast<int>(kLatePaths[i])] = 5;
    EXPECT_EQ(SchedCountersJson(c), expected[i]) << PlacementPathName(kLatePaths[i]);
  }
}

TEST(PinnedBytesTest, BaselineJsonl) {
  const std::string expected =
      R"json({"baseline":"pinned","jobs":4,"repetitions":2,"base_seed":41})json" "\n"
      R"json({"machine":"intel-5218-2s","row":"gcc","variant":"Nest sched","status":"ok","wall_s":0.125,"runs":[{"seed":41,"makespan_ns":123456789,"energy_j":33.333333333333336,"underload_per_s":2.5,"context_switches":17,"migrations":4,"tasks_created":9,"counters":"261775c6e6120419"},{"seed":42,"makespan_ns":2000000000,"energy_j":33.333333333333336,"underload_per_s":2.5,"context_switches":17,"migrations":4,"tasks_created":9,"counters":"2fe58e511fdccbac","tasks_killed":2,"replicas_reaped":1,"evacuations":3,"work_lost_ms":0.10000000000000001,"wasted_replica_ms":0.20000000000000001,"mean_evac_latency_us":12.75,"requests_failed":1,"requests_degraded":0}]})json" "\n"
      R"json({"machine":"intel-5218-2s","row":"fleet","variant":"Nest sched","status":"ok","wall_s":0.125,"runs":[{"seed":41,"makespan_ns":2000000000,"energy_j":33.333333333333336,"underload_per_s":2.5,"context_switches":17,"migrations":4,"tasks_created":9,"counters":"2fe58e511fdccbac","wakeup_p50_us":1.5,"wakeup_p99_us":0.33333333333333331,"requests_offered":100,"requests_completed":97,"latency_p50_ms":0.25,"latency_p99_ms":0.14285714285714285,"latency_p999_ms":3.5,"tasks_killed":2,"replicas_reaped":1,"evacuations":3,"work_lost_ms":0.10000000000000001,"wasted_replica_ms":0.20000000000000001,"mean_evac_latency_us":12.75,"requests_failed":1,"requests_degraded":0}]})json" "\n"
      R"json({"machine":"intel-5218-2s","row":"bad","variant":"Nest sched","status":"failed","wall_s":0.5,"error":"went \"bang\""})json" "\n"
      R"json({"machine":"intel-5218-2s","row":"slow","variant":"Nest sched","status":"timeout","wall_s":2})json" "\n";
  EXPECT_EQ(BaselineJsonl(PinnedRun()), expected);
}

TEST(PinnedBytesTest, BaselineVerdictJson) {
  const std::vector<BaselineCheck> checks = VerdictChecks();
  EXPECT_EQ(BaselineVerdictJson(checks),
            R"json({"ok":false,"scenarios":[{"scenario":"fig4","baseline":"baselines/fig4.jsonl","jobs":176,"compared":176,"ok":true,"problems":[]},{"scenario":"table4","baseline":"baselines/table4.jsonl","jobs":3,"compared":2,"ok":false,"problems":["a x b x c: runs[0].makespan_ns changed: golden 1, fresh 2","golden record lacks \"runs[1].seed\""]}]})json");
  EXPECT_EQ(BaselineVerdictJson({checks[0]}),
            R"json({"ok":true,"scenarios":[{"scenario":"fig4","baseline":"baselines/fig4.jsonl","jobs":176,"compared":176,"ok":true,"problems":[]}]})json");
}

// The fleet job (index 1) is left out: the JSONL record gains its wakeup and
// cluster blocks from the golden writer (JobRecordJsonTest).
TEST(PinnedBytesTest, JobRecordJson) {
  const ScenarioRun run = PinnedRun();
  EXPECT_EQ(JobRecordJson("unit", run.jobs[0], run.outcomes[0]),
            R"json({"campaign":"unit","workload":"gcc","variant":"Nest sched","machine":"intel-5218-2s","scheduler":"Nest","governor":"schedutil","base_seed":41,"repetitions":2,"status":"ok","wall_s":0.125,"mean_s":0.33333333333333331,"stddev_s":0.10000000000000001,"mean_energy_j":12.5,"mean_underload_per_s":0.69999999999999996,"runs":[{"seed":41,"seconds":0.123456789,"energy_j":33.333333333333336,"underload_per_s":2.5,"makespan_ns":123456789},{"seed":42,"seconds":2,"energy_j":33.333333333333336,"underload_per_s":2.5,"makespan_ns":2000000000,"tasks_killed":2,"replicas_reaped":1,"evacuations":3,"work_lost_ms":0.10000000000000001,"wasted_replica_ms":0.20000000000000001,"mean_evac_latency_us":12.75,"requests_failed":1,"requests_degraded":0}],"counters":{"placements":{"unknown":2,"initial":4,"cfs_fork":6,"cfs_wake":8,"nest_primary":10,"nest_reserve":12,"nest_attached":14,"nest_prev_core":16,"nest_impatient":18,"nest_cfs_fallback":20,"smove_parked":22,"smove_cfs":24,"nest_cache_warm":13,"fault_evacuate":14,"nest_predicted":15,"nest_oracle_warm":16},"fork_placements":202,"wake_placements":204,"reservation_collisions":206,"nest_promotions":208,"nest_demotions":210,"nest_compactions":212,"nest_reserve_adds":214,"nest_reserve_full_drops":216,"spin_starts":218,"spin_converted":220,"spin_expired":222,"migrations_newidle":224,"migrations_periodic":226,"migrations_policy":228,"freq_ramps_up":230,"freq_ramps_down":232,"wc_violation_ns":18446744073709551614,"wc_violation_episodes":236,"cache_warm_hits":201,"cache_cold_misses":202,"cache_cross_die_migrations":203,"faults_injected":301,"tasks_evacuated":302,"replica_quorum_joins":303,"budget_throttle_ticks":304}})json");
  EXPECT_EQ(JobRecordJson("unit", run.jobs[2], run.outcomes[2]),
            R"json({"campaign":"unit","workload":"bad","variant":"Nest sched","machine":"intel-5218-2s","scheduler":"Nest","governor":"schedutil","base_seed":41,"repetitions":2,"status":"failed","wall_s":0.5,"error":"went \"bang\""})json");
  EXPECT_EQ(JobRecordJson("unit", run.jobs[3], run.outcomes[3]),
            R"json({"campaign":"unit","workload":"slow","variant":"Nest sched","machine":"intel-5218-2s","scheduler":"Nest","governor":"schedutil","base_seed":41,"repetitions":2,"status":"timeout","wall_s":2})json");
}

TEST(PinnedBytesTest, BenchReport) {
  EXPECT_EQ(PinnedReport().ToJson("quick", ""),
            R"json({"schema":"nestsim-bench-core-v1","mode":"quick","records":[{"name":"event_queue/push_pop_hot","ops":1000,"samples":5,"median_s":0.0012340000000000001,"ns_per_op":1234,"ops_per_sec":810372.77147487842},{"name":"mem/scale256@4s","ops":1,"samples":1,"median_s":0.10000000000000001,"ns_per_op":100000000,"ops_per_sec":10,"peak_rss_mb":4.25}]})json" "\n");
  EXPECT_EQ(PinnedReport().ToJson("full", kReference),
            R"json({"schema":"nestsim-bench-core-v1","mode":"full","records":[{"name":"event_queue/push_pop_hot","ops":1000,"samples":5,"median_s":0.0012340000000000001,"ns_per_op":1234,"ops_per_sec":810372.77147487842,"speedup_vs_reference":1.6207455429497568},{"name":"mem/scale256@4s","ops":1,"samples":1,"median_s":0.10000000000000001,"ns_per_op":100000000,"ops_per_sec":10,"peak_rss_mb":4.25,"rss_vs_reference":0.5}],"reference":{"records":[{"name":"event_queue/push_pop_hot","ops_per_sec":500000},{"name":"mem/scale256@4s","ops_per_sec":0,"peak_rss_mb":8.5}]}})json" "\n");
}

TEST(PinnedBytesTest, DecisionRows) {
  const DecisionLabels labels = PinnedLabels();
  const std::vector<DecisionRow> rows = PinnedRows();
  EXPECT_EQ(DecisionCsvRow(rows[0], 7, labels, 3),
            R"json(7,intel-5218-2s,"a,b","v""q",7,123456,fork,12,-1,3,1,nest_primary,2.1000000000000001,0.5,1,2,0.75,3.0000000000000004,0.33333333333333331,0,0,0,0,0,0,0,0)json");
  EXPECT_EQ(DecisionJsonlRow(rows[0], 7, labels, 3),
            R"json({"decision":7,"machine":"intel-5218-2s","row":"a,b","variant":"v\"q","seed":7,"time_ns":123456,"kind":"fork","tid":12,"prev_cpu":-1,"runnable":3,"chosen_cpu":1,"path":"nest_primary","cores":[{"ghz":2.1000000000000001,"load":0.5,"idle":1,"nest":2,"warmth":0.75},{"ghz":3.0000000000000004,"load":0.33333333333333331,"idle":0,"nest":0,"warmth":0},{"ghz":0,"load":0,"idle":0,"nest":0,"warmth":0}]})json");
  EXPECT_EQ(DecisionCsvRow(rows[1], 7, labels, 3),
            R"json(7,intel-5218-2s,"a,b","v""q",7,9000000000,wake,12,1,3,1,nest_oracle_warm,2.1000000000000001,0.5,1,2,0.75,3.0000000000000004,0.33333333333333331,0,0,1e-300,0,0,0,0,0)json");
  EXPECT_EQ(DecisionJsonlRow(rows[1], 7, labels, 3),
            R"json({"decision":7,"machine":"intel-5218-2s","row":"a,b","variant":"v\"q","seed":7,"time_ns":9000000000,"kind":"wake","tid":12,"prev_cpu":1,"runnable":3,"chosen_cpu":1,"path":"nest_oracle_warm","cores":[{"ghz":2.1000000000000001,"load":0.5,"idle":1,"nest":2,"warmth":0.75},{"ghz":3.0000000000000004,"load":0.33333333333333331,"idle":0,"nest":0,"warmth":1e-300},{"ghz":0,"load":0,"idle":0,"nest":0,"warmth":0}]})json");
}

// A label no emitter may mangle: a quote, a backslash, every control byte
// 0x01-0x1f and multi-byte UTF-8.
std::string HostileString() {
  std::string s = "q\"b\\s ";
  for (char c = 0x01; c < 0x20; ++c) {
    s += c;
  }
  return s + " caf\xc3\xa9 \xe6\xbc\xa2 \xf0\x9f\x99\x82";
}

JsonValue ParseOrFail(const std::string& text) {
  std::string error;
  EXPECT_TRUE(JsonValid(text, &error)) << error;
  JsonValue v;
  EXPECT_TRUE(JsonParse(text, &v, &error)) << error;
  return v;
}

// One parsed value per newline-terminated line.
std::vector<JsonValue> ParseLines(const std::string& text) {
  std::vector<JsonValue> lines;
  size_t start = 0;
  while (start < text.size()) {
    const size_t nl = text.find('\n', start);
    EXPECT_NE(nl, std::string::npos);
    lines.push_back(ParseOrFail(text.substr(start, nl - start)));
    start = nl == std::string::npos ? text.size() : nl + 1;
  }
  return lines;
}

std::string StringAt(const JsonValue& object, const std::string& key) {
  const JsonValue* v = object.Find(key);
  return v != nullptr && v->is_string() ? v->string : "<missing " + key + ">";
}

// The JSONL record and the golden share AppendRunBlocks, so the fleet job's
// run carries the same wakeup, cluster and resilience fields in both.
TEST(RunBlocksTest, JsonlCarriesTheGoldensOptionalBlocks) {
  const ScenarioRun run = PinnedRun();
  const JsonValue golden = ParseLines(BaselineJsonl(run)).at(2);
  const JsonValue jsonl = ParseOrFail(JobRecordJson("unit", run.jobs[1], run.outcomes[1]));
  ASSERT_EQ(StringAt(golden, "row"), "fleet");
  const JsonValue& golden_run = golden.Find("runs")->items.at(0);
  const JsonValue& jsonl_run = jsonl.Find("runs")->items.at(0);
  for (const char* key : {"wakeup_p50_us", "wakeup_p99_us", "requests_offered",
                          "requests_completed", "latency_p50_ms", "latency_p99_ms",
                          "latency_p999_ms", "tasks_killed", "replicas_reaped", "evacuations",
                          "work_lost_ms", "wasted_replica_ms", "mean_evac_latency_us",
                          "requests_failed", "requests_degraded"}) {
    const JsonValue* g = golden_run.Find(key);
    const JsonValue* j = jsonl_run.Find(key);
    ASSERT_NE(g, nullptr) << key;
    ASSERT_NE(j, nullptr) << key;
    EXPECT_EQ(g->number, j->number) << key;
  }
  // The plain run of the first job carries none of them.
  const JsonValue plain = ParseOrFail(JobRecordJson("unit", run.jobs[0], run.outcomes[0]));
  const JsonValue& plain_run = plain.Find("runs")->items.at(0);
  EXPECT_EQ(plain_run.Find("wakeup_p99_us"), nullptr);
  EXPECT_EQ(plain_run.Find("requests_offered"), nullptr);
  EXPECT_EQ(plain_run.Find("tasks_killed"), nullptr);
}

TEST(HostileStringTest, BaselineRecordsRoundTrip) {
  const std::string hostile = HostileString();
  ScenarioRun run = PinnedRun();
  run.scenario.name = hostile;
  for (Job& job : run.jobs) {
    job.config.machine = hostile;
    job.workload = hostile;
    job.variant = hostile;
  }
  run.outcomes[2].message = hostile;
  const std::vector<JsonValue> lines = ParseLines(BaselineJsonl(run));
  ASSERT_EQ(lines.size(), run.jobs.size() + 1);
  EXPECT_EQ(StringAt(lines[0], "baseline"), hostile);
  for (size_t i = 1; i < lines.size(); ++i) {
    EXPECT_EQ(StringAt(lines[i], "machine"), hostile);
    EXPECT_EQ(StringAt(lines[i], "row"), hostile);
    EXPECT_EQ(StringAt(lines[i], "variant"), hostile);
  }
  EXPECT_EQ(StringAt(lines[3], "error"), hostile);
}

TEST(HostileStringTest, VerdictRoundTrips) {
  const std::string hostile = HostileString();
  std::vector<BaselineCheck> checks = VerdictChecks();
  checks[1].scenario = hostile;
  checks[1].baseline_path = hostile;
  checks[1].problems.push_back(hostile);
  const JsonValue verdict = ParseOrFail(BaselineVerdictJson(checks));
  const JsonValue* scenarios = verdict.Find("scenarios");
  ASSERT_NE(scenarios, nullptr);
  ASSERT_EQ(scenarios->items.size(), 2u);
  const JsonValue& failed = scenarios->items[1];
  EXPECT_EQ(StringAt(failed, "scenario"), hostile);
  EXPECT_EQ(StringAt(failed, "baseline"), hostile);
  const JsonValue* problems = failed.Find("problems");
  ASSERT_NE(problems, nullptr);
  ASSERT_EQ(problems->items.size(), 3u);
  EXPECT_EQ(problems->items[2].string, hostile);
}

TEST(HostileStringTest, JobRecordRoundTrips) {
  const std::string hostile = HostileString();
  const ScenarioRun run = PinnedRun();
  for (const size_t i : {size_t{0}, size_t{2}}) {
    Job job = run.jobs[i];
    job.config.machine = hostile;
    job.config.governor = hostile;
    job.workload = hostile;
    job.variant = hostile;
    JobOutcome outcome = run.outcomes[i];
    outcome.message = hostile;
    const JsonValue record = ParseOrFail(JobRecordJson(hostile, job, outcome));
    for (const char* key : {"campaign", "workload", "variant", "machine", "governor"}) {
      EXPECT_EQ(StringAt(record, key), hostile) << key;
    }
    if (!outcome.ok()) {
      EXPECT_EQ(StringAt(record, "error"), hostile);
    }
  }
}

TEST(HostileStringTest, BenchReportRoundTrips) {
  const std::string hostile = HostileString();
  BenchReport report = PinnedReport();
  BenchRecord named = report.records()[0];
  named.name = hostile;
  report.Add(named);
  const JsonValue doc = ParseOrFail(report.ToJson(hostile, kReference));
  EXPECT_EQ(StringAt(doc, "mode"), hostile);
  const JsonValue* records = doc.Find("records");
  ASSERT_NE(records, nullptr);
  ASSERT_EQ(records->items.size(), 3u);
  EXPECT_EQ(StringAt(records->items[2], "name"), hostile);
}

TEST(HostileStringTest, DecisionRowRoundTrips) {
  const std::string hostile = HostileString();
  const DecisionLabels labels{hostile, hostile, hostile};
  const JsonValue row = ParseOrFail(DecisionJsonlRow(PinnedRows()[1], 7, labels, 3));
  for (const char* key : {"machine", "row", "variant"}) {
    EXPECT_EQ(StringAt(row, key), hostile) << key;
  }
}

// A tiny traced run whose task carries the hostile name (its forked child
// gets the name plus a "+<n>" suffix): every event naming a task must decode
// back to the hostile prefix.
TEST(HostileStringTest, PerfettoTraceRoundTrips) {
  const std::string hostile = HostileString();
  Engine engine;
  HardwareModel hw(&engine, MachineByName("amd-4650g-1s"));
  CfsPolicy cfs;
  PerformanceGovernor governor;
  Kernel kernel(&engine, &hw, &cfs, &governor);
  PerfettoTraceWriter writer(&kernel);
  kernel.AddObserver(&writer);
  kernel.Start();
  ProgramBuilder child(hostile);
  child.Compute(1e6);
  ProgramBuilder parent(hostile);
  parent.Compute(1e6).Fork(child.Build()).JoinChildren().Compute(1e6);
  kernel.SpawnInitial(parent.Build(), hostile, 0, 0);
  while (kernel.live_tasks() > 0 && engine.Now() < kSecond) {
    ASSERT_TRUE(engine.Step());
  }
  writer.Finish(engine.Now());

  const JsonValue doc = ParseOrFail(writer.Serialize());
  const JsonValue* events = doc.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  int named = 0;
  int stints = 0;
  for (const JsonValue& ev : events->items) {
    const JsonValue* args = ev.Find("args");
    if (args != nullptr && args->Find("task") != nullptr) {
      EXPECT_EQ(StringAt(*args, "task").rfind(hostile, 0), 0u);
      ++named;
    }
    stints += StringAt(ev, "name").rfind(hostile, 0) == 0;
  }
  EXPECT_GT(named, 0);
  EXPECT_GT(stints, 0);  // execution stints are named after the task
}

}  // namespace
}  // namespace nestsim
