// The core benchmark suite behind tools/nestsim_bench (docs/BENCHMARKS.md).
//
// Microbenchmarks cover the three structures the discrete-event hot path
// lives in — the cancellable event queue, the vruntime run queue, and the
// PELT decay math — plus the policies' placement selection per machine
// width; grid benchmarks run whole committed scenarios
// (table4, fig12) end to end, reporting fired simulation events per second.
// Quick mode shrinks the grids to CI size; the record names gain a ":quick"
// suffix so quick and full measurements are never compared to each other.

#ifndef NESTSIM_SRC_PERF_CORE_BENCHES_H_
#define NESTSIM_SRC_PERF_CORE_BENCHES_H_

#include <string>
#include <vector>

#include "src/perf/bench_harness.h"

namespace nestsim {

struct CoreBenchOptions {
  bool quick = false;  // CI-sized grids (first machine, sampled rows)
  int micro_samples = 5;
  int grid_samples = 0;  // 0 = default (3 quick, 1 full)
};

// Event-queue, run-queue and PELT microbenchmarks, the placement
// selection records select/{cfs,nest}/{fork,wake}@{12,64,256}: SelectCpuFork
// and SelectCpuWake on a warmed amd-4650g-1s, intel-5218-2s and
// intel-8153-8s, and setup/requests@256: a 256-CPU open-loop requests job
// from a cold start to its first fired event.
void RunMicroBenches(const CoreBenchOptions& options, BenchReport* report);

// Runs the scenario grid in `scenario_file` (resolved via the standard
// scenario search path) serially on this thread and records fired events per
// second as "grid/<scenario name>" (":quick" appended in quick mode).
// Returns false — with a message on stderr — when the scenario cannot be
// loaded or a job fails.
bool RunGridBench(const std::string& scenario_file, const CoreBenchOptions& options,
                  BenchReport* report);

// The threads-vs-events/sec scaling curve (docs/PARALLEL.md): runs the
// pdes_scaling scenario once per worker count in `workers` and records fired
// events per second as "pdes/scaling@wN" (":quick" before the @ in quick
// mode; w0 is the serial reference loop). One curve point per record keeps
// the floor file able to express ratios between worker counts.
bool RunScalingBench(const std::string& scenario_file, const std::vector<int>& workers,
                     const CoreBenchOptions& options, BenchReport* report);

// mem/scale256@{4,64}s: the peak resident memory (VmHWM) of a forked child
// that runs the scale256 shape — one intel-8153-8s, Poisson 6400 req/s of
// 4 ms median service, CFS then Nest — for 4 s and for 64 s simulated. The
// two peaks stay close when memory is bounded in simulated duration. Each
// record also carries the child's fired events and wall time. Returns false,
// with a message on stderr, when a child fails.
bool RunMemBenches(BenchReport* report);

// The regression gate for CI: `floor_json` is baselines/perf_floor.json.
// Every floored benchmark must be present in `report` with ops_per_sec no
// more than max_regression_pct below its floor, and every "A / B" entry of
// the optional "ratio_floors" object must have ops_per_sec(A)/ops_per_sec(B)
// no more than max_regression_pct below its floor (this is how CI asserts
// parallel >= serial events/sec without hard-coding one machine's absolute
// throughput). Returns true when everything holds; otherwise appends one
// line per problem to `problems`.
bool CheckPerfFloor(const BenchReport& report, const std::string& floor_json,
                    std::string* problems);

}  // namespace nestsim

#endif  // NESTSIM_SRC_PERF_CORE_BENCHES_H_
