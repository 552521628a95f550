// The decision-trace feature schema (src/predict/).
//
// One DecisionRow is captured per fork/wake placement decision: the waking
// task's identity and history, the machine-wide runnable count, the chosen
// CPU and policy path (the label), and a per-core snapshot of frequency,
// PELT load, idleness, nest membership, and the task's LLC warmth. The same
// rows feed the CSV/JSONL export (tools/nestsim_export) and the offline
// table-model fit (TrainTableModel); docs/PREDICTION.md is the reference.

#ifndef NESTSIM_SRC_PREDICT_FEATURES_H_
#define NESTSIM_SRC_PREDICT_FEATURES_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/kernel/task.h"
#include "src/sim/time.h"

namespace nestsim {

// Fixed (per-decision) columns, in export order. check_docs.sh rule 15 greps
// this initializer: every name must appear backticked in docs/PREDICTION.md.
inline constexpr const char* kFeatureColumns[] = {
    "decision",
    "machine",
    "row",
    "variant",
    "seed",
    "time_ns",
    "kind",
    "tid",
    "prev_cpu",
    "runnable",
    "chosen_cpu",
    "path",
};

// Per-core column suffixes: logical CPU i contributes cpu<i>_<suffix> columns
// after the fixed block. Also covered by check_docs.sh rule 15.
inline constexpr const char* kPerCoreColumnSuffixes[] = {
    "ghz",
    "load",
    "idle",
    "nest",
    "warmth",
};

inline constexpr int kNumFeatureColumns =
    static_cast<int>(sizeof(kFeatureColumns) / sizeof(kFeatureColumns[0]));
inline constexpr int kNumPerCoreColumns =
    static_cast<int>(sizeof(kPerCoreColumnSuffixes) / sizeof(kPerCoreColumnSuffixes[0]));

struct DecisionRow {
  uint64_t seed = 0;       // the repetition's experiment seed
  SimTime time_ns = 0;     // simulation time of the decision
  bool is_fork = false;    // fork-path vs wake-path selection
  int tid = -1;            // task being placed
  int prev_cpu = -1;       // CPU of the task's last execution (-1 = never ran)
  int runnable = 0;        // machine-wide runnable+running+placing count
  int chosen_cpu = -1;     // the decision's outcome
  PlacementPath path = PlacementPath::kUnknown;

  struct CoreSample {
    double ghz = 0.0;     // physical-core frequency, GHz
    double load = 0.0;    // run-queue PELT utilisation, decayed read-only
    int idle = 0;         // nothing running or queued (offline counts as busy)
    int nest = 0;         // policy membership: 2 primary/pool, 1 reserve, 0 none
    double warmth = 0.0;  // placed task's LLC warmth on this CPU's die
  };
  std::vector<CoreSample> cores;  // indexed by logical CPU
};

// Job identity prefixed to every exported row so concatenated multi-job
// streams stay self-describing (same naming as the baseline records).
struct DecisionLabels {
  std::string machine;
  std::string row;
  std::string variant;
};

// The table model saturates runnable counts at this bucket.
inline constexpr int kRunnableBucketMax = 8;

inline int RunnableBucket(int runnable) {
  if (runnable < 0) {
    return 0;
  }
  return runnable < kRunnableBucketMax ? runnable : kRunnableBucketMax;
}

// CSV header for a per-core block of `num_cpus` logical CPUs.
std::string DecisionCsvHeader(int num_cpus);

// One CSV line (no trailing newline); doubles as JsonDouble's %.17g, so
// they round-trip bit-exactly. `decision` is the stream-wide row
// index; the per-core block is padded with zero samples to `num_cpus` so
// multi-machine scenario exports stay rectangular.
std::string DecisionCsvRow(const DecisionRow& row, uint64_t decision,
                           const DecisionLabels& labels, int num_cpus);

// The same row as a single-line JSON object, keys in column order (per-core
// samples nested under "cores").
std::string DecisionJsonlRow(const DecisionRow& row, uint64_t decision,
                             const DecisionLabels& labels, int num_cpus);

}  // namespace nestsim

#endif  // NESTSIM_SRC_PREDICT_FEATURES_H_
