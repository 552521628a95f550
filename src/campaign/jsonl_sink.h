// JSONL result sink: one JSON object per completed job.
//
// Benches emit these records next to their human-readable tables so sweeps
// can be post-processed (pandas, jq, gnuplot) without scraping stdout. The
// sink is enabled by pointing NESTSIM_JSONL at a file path; records are
// appended, one per line.

#ifndef NESTSIM_SRC_CAMPAIGN_JSONL_SINK_H_
#define NESTSIM_SRC_CAMPAIGN_JSONL_SINK_H_

#include <cstdio>
#include <mutex>
#include <string>

#include "src/campaign/job.h"

namespace nestsim {

class JsonWriter;

// The optional per-run blocks, written into the open run object of both this
// sink's records and the goldens (src/scenario/baseline.cc): the wakeup
// latency tails when `config` records latency, the cluster serving figures on
// fleet runs, the resilience figures when a fault, replica or evacuation
// fired. Each block is absent otherwise, so older records stay byte-identical.
void AppendRunBlocks(JsonWriter& w, const ExperimentConfig& config, const ExperimentResult& r);

// The record the sink writes for one job, without the trailing newline.
// Fields: campaign, workload, variant, machine, scheduler, governor,
// base_seed, repetitions, status, wall_s; when the job succeeded also the
// aggregate means, a per-run array (seed, seconds, energy_j,
// underload_per_s, makespan_ns, then AppendRunBlocks) and the summed
// counters; when it failed, the error message.
std::string JobRecordJson(const std::string& campaign, const Job& job, const JobOutcome& outcome);

class JsonlSink {
 public:
  // Opens `path` for appending. An empty path disables the sink; a failed
  // open disables it too (with a warning on stderr).
  explicit JsonlSink(const std::string& path);
  ~JsonlSink();

  JsonlSink(const JsonlSink&) = delete;
  JsonlSink& operator=(const JsonlSink&) = delete;

  bool enabled() const { return file_ != nullptr; }

  // Appends one record. Thread-safe.
  void Write(const std::string& campaign, const Job& job, const JobOutcome& outcome);

  // $NESTSIM_JSONL, or "" when unset.
  static std::string PathFromEnv();

 private:
  std::mutex mu_;
  std::FILE* file_ = nullptr;
};

}  // namespace nestsim

#endif  // NESTSIM_SRC_CAMPAIGN_JSONL_SINK_H_
