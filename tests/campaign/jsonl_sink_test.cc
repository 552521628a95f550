#include "src/campaign/jsonl_sink.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>

#include "src/campaign/campaign.h"
#include "src/workloads/configure.h"

namespace nestsim {
namespace {

Job SampleJob() {
  Job job;
  job.workload = "gcc";
  job.variant = "Nest sched";
  job.config.machine = "intel-5218-2s";
  job.config.scheduler = SchedulerKind::kNest;
  job.config.governor = "schedutil";
  job.repetitions = 2;
  job.base_seed = 9;
  return job;
}

TEST(JobRecordJsonTest, OkRecordCarriesConfigAndMetrics) {
  ConfigureSpec spec = ConfigureWorkload::PackageSpec("gcc");
  spec.num_tests = 10;
  Job job = SampleJob();
  job.model = std::make_shared<ConfigureWorkload>(spec);
  const JobOutcome outcome = ExecuteJob(job);
  ASSERT_TRUE(outcome.ok());

  const std::string record = JobRecordJson("unit", job, outcome);
  EXPECT_NE(record.find("\"campaign\":\"unit\""), std::string::npos);
  EXPECT_NE(record.find("\"workload\":\"gcc\""), std::string::npos);
  EXPECT_NE(record.find("\"variant\":\"Nest sched\""), std::string::npos);
  EXPECT_NE(record.find("\"machine\":\"intel-5218-2s\""), std::string::npos);
  EXPECT_NE(record.find("\"scheduler\":\"Nest\""), std::string::npos);
  EXPECT_NE(record.find("\"governor\":\"schedutil\""), std::string::npos);
  EXPECT_NE(record.find("\"base_seed\":9"), std::string::npos);
  EXPECT_NE(record.find("\"repetitions\":2"), std::string::npos);
  EXPECT_NE(record.find("\"status\":\"ok\""), std::string::npos);
  EXPECT_NE(record.find("\"mean_s\":"), std::string::npos);
  EXPECT_NE(record.find("\"runs\":[{\"seed\":9,"), std::string::npos);
  EXPECT_NE(record.find("{\"seed\":10,"), std::string::npos);
  EXPECT_EQ(record.find('\n'), std::string::npos);  // one line per record
}

// Fault-free records must look exactly like they did before the fault
// subsystem existed: no resilience fields, no fault/budget counters
// (docs/FAULTS.md §5 omission convention).
TEST(JobRecordJsonTest, FaultFreeRecordOmitsResilienceAndFaultCounters) {
  ConfigureSpec spec = ConfigureWorkload::PackageSpec("gcc");
  spec.num_tests = 10;
  Job job = SampleJob();
  job.model = std::make_shared<ConfigureWorkload>(spec);
  const JobOutcome outcome = ExecuteJob(job);
  ASSERT_TRUE(outcome.ok());
  const std::string record = JobRecordJson("unit", job, outcome);
  for (const char* field :
       {"tasks_killed", "replicas_reaped", "evacuations", "work_lost_ms", "wasted_replica_ms",
        "requests_failed", "faults_injected", "tasks_evacuated", "replica_quorum_joins",
        "budget_throttle_ticks", "fault_evacuate"}) {
    EXPECT_EQ(record.find(field), std::string::npos) << field;
  }
}

TEST(JobRecordJsonTest, FaultRunCarriesTheResilienceBlock) {
  ConfigureSpec spec = ConfigureWorkload::PackageSpec("gcc");
  spec.num_tests = 10;
  Job job = SampleJob();
  job.model = std::make_shared<ConfigureWorkload>(spec);
  // A small machine and a high kill rate so some kill certainly lands on the
  // (often lone) busy core and an evacuation makes it into the record.
  job.config.machine = "amd-4650g-1s";
  job.config.fault.core_fail_rate_per_s = 1000.0;
  job.config.fault.core_downtime_ms = 5.0;
  job.config.fault.horizon_s = 2.0;  // keep the pre-drawn plan small
  const JobOutcome outcome = ExecuteJob(job);
  ASSERT_TRUE(outcome.ok());
  const std::string record = JobRecordJson("unit", job, outcome);
  EXPECT_NE(record.find("\"evacuations\":"), std::string::npos);
  EXPECT_NE(record.find("\"faults_injected\":"), std::string::npos);
  EXPECT_NE(record.find("\"tasks_evacuated\":"), std::string::npos);
}

TEST(JobRecordJsonTest, FailedRecordCarriesError) {
  const Job job = SampleJob();
  JobOutcome outcome;
  outcome.status = JobStatus::kFailed;
  outcome.message = "went \"bang\"";
  const std::string record = JobRecordJson("unit", job, outcome);
  EXPECT_NE(record.find("\"status\":\"failed\""), std::string::npos);
  EXPECT_NE(record.find("\"error\":\"went \\\"bang\\\"\""), std::string::npos);
  EXPECT_EQ(record.find("\"runs\""), std::string::npos);
}

TEST(JsonlSinkTest, WritesOneLinePerJob) {
  const std::string path = ::testing::TempDir() + "/nestsim_sink_test.jsonl";
  std::remove(path.c_str());
  {
    JsonlSink sink(path);
    ASSERT_TRUE(sink.enabled());
    const Job job = SampleJob();
    JobOutcome outcome;
    outcome.status = JobStatus::kTimeout;
    sink.Write("unit", job, outcome);
    sink.Write("unit", job, outcome);
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  int lines = 0;
  while (std::getline(in, line)) {
    ++lines;
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    EXPECT_NE(line.find("\"status\":\"timeout\""), std::string::npos);
  }
  EXPECT_EQ(lines, 2);
  std::remove(path.c_str());
}

TEST(JsonlSinkTest, EmptyPathDisables) {
  JsonlSink sink("");
  EXPECT_FALSE(sink.enabled());
  sink.Write("unit", SampleJob(), JobOutcome{});  // must not crash
}

TEST(JsonlSinkTest, CampaignWritesRecordsInSubmissionOrder) {
  const std::string path = ::testing::TempDir() + "/nestsim_campaign_sink.jsonl";
  std::remove(path.c_str());
  CampaignOptions options;
  options.jobs = 4;
  options.progress = false;
  options.jsonl_path = path;
  Campaign campaign("sink-order", options);
  ConfigureSpec spec = ConfigureWorkload::PackageSpec("gcc");
  spec.num_tests = 10;
  const auto model = std::make_shared<ConfigureWorkload>(spec);
  for (int i = 0; i < 6; ++i) {
    Job job;
    job.workload = "job-" + std::to_string(i);
    job.model = model;
    campaign.Add(job);
  }
  campaign.Run();

  std::ifstream in(path);
  std::string line;
  int i = 0;
  while (std::getline(in, line)) {
    EXPECT_NE(line.find("\"workload\":\"job-" + std::to_string(i) + "\""), std::string::npos)
        << line;
    ++i;
  }
  EXPECT_EQ(i, 6);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace nestsim
