// Microbenchmark harness for the simulator hot path (docs/BENCHMARKS.md).
//
// A benchmark body runs a batch of operations and reports how many it
// performed; the harness times the batch on a monotonic clock, repeats it
// after a warmup, and keeps the median sample — the standard defence against
// one-off stalls (page faults, frequency ramps) polluting a measurement.
// Results carry ns/op and ops/sec; grid benchmarks reuse the same record with
// "op" = one fired simulation event, giving the events/sec figure the CI
// regression gate tracks.

#ifndef NESTSIM_SRC_PERF_BENCH_HARNESS_H_
#define NESTSIM_SRC_PERF_BENCH_HARNESS_H_

#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

namespace nestsim {

// One measured benchmark. `ops` is the per-sample batch size; timing fields
// come from the median sample.
struct BenchRecord {
  std::string name;       // e.g. "event_queue/push_pop_hot" or "grid/table4"
  uint64_t ops = 0;       // operations (or fired events) per sample
  int samples = 0;        // timed samples (median kept), excludes warmup
  double median_s = 0.0;  // wall seconds of the median sample
  double ns_per_op = 0.0;
  double ops_per_sec = 0.0;
  double peak_rss_mb = 0.0;  // mem/ records: peak resident memory; 0 = none
};

struct BenchOptions {
  int samples = 5;  // timed samples; the median is kept
  int warmup = 1;   // untimed runs before sampling
};

// Runs `body` warmup+samples times; `body` returns the number of operations
// it performed (must be > 0 and should be identical across samples).
BenchRecord MeasureMedian(const std::string& name, const BenchOptions& options,
                          const std::function<uint64_t()>& body);

// Collects records and renders them as an aligned table or a JSON document.
class BenchReport {
 public:
  void Add(BenchRecord record) { records_.push_back(std::move(record)); }

  const std::vector<BenchRecord>& records() const { return records_; }
  const BenchRecord* Find(const std::string& name) const;

  // Aligned fixed-width table; header only when there are no records.
  void PrintTable(FILE* out) const;

  // The BENCH_core.json document: {"schema","mode","records":[...]}, with
  // doubles rendered as %.17g (exact round-trip). When `reference` (a prior
  // report's JSON, parsed or not) is non-empty it is embedded verbatim under
  // "reference" and each record that also appears there gets a
  // "speedup_vs_reference" field (this ops_per_sec / reference ops_per_sec).
  // Records with a peak_rss_mb carry it, and "rss_vs_reference" (this peak /
  // the reference's) when the reference record has one too.
  std::string ToJson(const std::string& mode, const std::string& reference_json) const;

 private:
  std::vector<BenchRecord> records_;
};

}  // namespace nestsim

#endif  // NESTSIM_SRC_PERF_BENCH_HARNESS_H_
