// Golden-baseline regression gate for scenarios.
//
// RecordBaseline writes one JSONL file per scenario under a baselines
// directory: a header line plus one record per job in expansion order, each
// carrying the deterministic per-run fields (makespan_ns, energy, underload,
// counter digests). CheckBaseline renders the fresh run's records the same
// way and diffs them against the golden key by key: the key sets must be
// equal and deterministic fields must match exactly (simulations are
// bit-reproducible from the seed), wall-clock only within an optional
// tolerance band. The
// verdict serialises to BENCH_scenarios.json for CI.

#ifndef NESTSIM_SRC_SCENARIO_BASELINE_H_
#define NESTSIM_SRC_SCENARIO_BASELINE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/obs/sched_counters.h"
#include "src/scenario/runner.h"

namespace nestsim {

// FNV-1a 64-bit over `text`; the digest that compresses a SchedCounters JSON
// record into one comparable token.
uint64_t Fnv1a64(const std::string& text);

// 16-hex-digit digest of SchedCountersJson(counters).
std::string SchedCountersDigest(const SchedCounters& counters);

// "<dir>/<scenario-name>.jsonl".
std::string BaselinePath(const std::string& dir, const std::string& scenario_name);

// Serialises one executed run as baseline JSONL (header + one line per job).
std::string BaselineJsonl(const ScenarioRun& run);

// Writes BaselineJsonl(run) to BaselinePath(dir, ...), replacing any previous
// golden. Returns false with `error` set when the file cannot be written
// (missing directory, permissions).
bool RecordBaseline(const ScenarioRun& run, const std::string& dir, std::string* error);

// One scenario's comparison outcome.
struct BaselineCheck {
  std::string scenario;
  std::string baseline_path;
  int jobs = 0;        // jobs in the fresh run
  int compared = 0;    // jobs matched against a golden record
  std::vector<std::string> problems;  // empty = pass

  bool ok() const { return problems.empty(); }
};

// Compares `run` (already executed) against the recorded golden.
// `wall_tolerance` is a relative band for wall_seconds (0.25 = ±25%); 0
// disables the wall-clock check (the default — wall time is machine load, not
// simulation behaviour). All structural and value mismatches are reported.
BaselineCheck CheckBaseline(const ScenarioRun& run, const std::string& dir,
                            double wall_tolerance = 0.0);

// {"ok":...,"scenarios":[...]} — the BENCH_scenarios.json payload for a batch
// of checks.
std::string BaselineVerdictJson(const std::vector<BaselineCheck>& checks);

}  // namespace nestsim

#endif  // NESTSIM_SRC_SCENARIO_BASELINE_H_
