// The campaign runner: executes a batch of independent experiment jobs on a
// fixed-size worker pool.
//
// Each seeded simulation is single-threaded and self-contained, so a grid of
// machines × variants × workloads × seeds is embarrassingly parallel. Jobs
// are claimed from an atomic cursor (the "queue" is an index, not a locked
// structure) and outcomes land in a slot vector indexed by submission order,
// so results are deterministic and bitwise-identical for any worker count.
// NESTSIM_JOBS=1 runs everything serially on the calling thread, in
// submission order.

#ifndef NESTSIM_SRC_CAMPAIGN_CAMPAIGN_H_
#define NESTSIM_SRC_CAMPAIGN_CAMPAIGN_H_

#include <string>
#include <vector>

#include "src/campaign/job.h"

namespace nestsim {

// Worker count from NESTSIM_JOBS; defaults to hardware concurrency (min 1).
int CampaignJobsFromEnv();

// Per-cell repetition count: NESTSIM_REPS when set to a positive integer,
// otherwise `fallback`. The scenario engine resolves repetition counts
// through this so the environment override works uniformly.
int RepetitionsFromEnv(int fallback);

struct CampaignOptions {
  int jobs = 0;            // worker threads; <= 0 resolves to hardware concurrency
  bool progress = true;    // throttled stderr progress line
  std::string jsonl_path;  // JSONL sink target; "" = disabled

  // NESTSIM_JOBS for the worker count, NESTSIM_JSONL for the sink.
  static CampaignOptions FromEnv();
};

// Executes one job in isolation: seeds base_seed..base_seed+reps-1, enforces
// the wall-clock budget, captures exceptions. Exposed for tests and custom
// drivers.
JobOutcome ExecuteJob(const Job& job);

class Campaign {
 public:
  explicit Campaign(std::string name, CampaignOptions options = CampaignOptions::FromEnv());

  // Returns the job's index; Run() reports outcomes in the same order.
  size_t Add(Job job);

  size_t size() const { return jobs_.size(); }
  const std::string& name() const { return name_; }
  const std::vector<Job>& jobs() const { return jobs_; }

  // Runs every job and returns outcomes in Add() order regardless of
  // completion order. JSONL records are streamed while the campaign runs —
  // still in Add() order, each record flushed as soon as every earlier job
  // has finished — so the sink file is deterministic AND a killed campaign
  // leaves a parseable partial file. Timed-out and failed jobs get a record
  // too (status + error message).
  std::vector<JobOutcome> Run();

 private:
  std::string name_;
  CampaignOptions options_;
  std::vector<Job> jobs_;
};

}  // namespace nestsim

#endif  // NESTSIM_SRC_CAMPAIGN_CAMPAIGN_H_
