// Task programs: the behaviour scripts that simulated tasks execute.
//
// A program is a flat list of ops interpreted by the kernel. Compute work is
// expressed in "GHz-nanoseconds": a compute op of work W takes W / f
// nanoseconds on a core running at f GHz (times the SMT sharing factor). This
// makes workload definitions machine-independent while letting frequency
// drive performance, which is the paper's whole subject.
//
// Blocking ops (sleep, recv on an empty channel, barrier, join) release the
// CPU; the scheduler's wakeup path then chooses where the task resumes —
// exactly the decision Nest changes.

#ifndef NESTSIM_SRC_KERNEL_PROGRAM_H_
#define NESTSIM_SRC_KERNEL_PROGRAM_H_

#include <memory>
#include <string>
#include <vector>

#include "src/sim/time.h"

namespace nestsim {

struct Program;
using ProgramPtr = std::shared_ptr<const Program>;

enum class OpKind {
  kCompute,       // run for `work` GHz-ns
  kSleep,         // block for `duration`
  kFork,          // spawn a child task running `child`
  kJoinChildren,  // block until at most `id` live children remain
  kBarrier,       // block on barrier `id` until all its parties arrive
  kSend,          // post one message to channel `id`, waking one receiver
  kRecv,          // consume one message from channel `id`, blocking if empty
  kLoopBegin,     // repeat the ops up to the matching kLoopEnd `count` times
  kLoopEnd,
  kExit,          // terminate the task (implicit at end of program)
};

struct Op {
  OpKind kind = OpKind::kExit;
  double work = 0.0;          // kCompute: GHz-ns
  SimDuration duration = 0;   // kSleep
  ProgramPtr child;           // kFork
  int id = 0;                 // kBarrier/kSend/kRecv channel or barrier id
  int count = 0;              // kLoopBegin iterations
};

struct Program {
  std::vector<Op> ops;
};

// Fluent builder. Loops nest; Build() validates loop pairing.
//
//   ProgramBuilder b("worker");
//   b.Loop(100).ComputeMs(1.0).Barrier(0).EndLoop();
//   ProgramPtr p = b.Build();
class ProgramBuilder {
 public:
  explicit ProgramBuilder(std::string name) : name_(std::move(name)) {}

  // `work` in GHz-ns: 1e6 == 1 ms at 1 GHz.
  ProgramBuilder& Compute(double work_ghz_ns);
  // Convenience: compute sized to take `ms` milliseconds at `ghz` GHz.
  ProgramBuilder& ComputeMsAt(double ms, double ghz);
  // Compute sized in milliseconds at the calibration frequency (3.0 GHz) —
  // roughly "milliseconds of runtime on a warm server core".
  ProgramBuilder& ComputeMs(double ms) { return ComputeMsAt(ms, kCalibrationGhz); }
  ProgramBuilder& ComputeUs(double us) { return ComputeMsAt(us / 1000.0, kCalibrationGhz); }

  ProgramBuilder& Sleep(SimDuration d);
  ProgramBuilder& SleepMs(double ms) { return Sleep(MillisecondsF(ms)); }
  ProgramBuilder& Fork(ProgramPtr child);
  // Blocks until at most `remaining` children are still alive (0 = all
  // children exited). A non-zero threshold lets a parent reap a batch while
  // long-lived service children keep running.
  ProgramBuilder& JoinChildren(int remaining = 0);
  ProgramBuilder& Barrier(int barrier_id);
  ProgramBuilder& Send(int channel_id);
  ProgramBuilder& Recv(int channel_id);
  ProgramBuilder& Loop(int count);
  ProgramBuilder& EndLoop();
  ProgramBuilder& Exit();

  // Snapshots the current op list into an immutable program; the builder
  // remains usable (and may be Built repeatedly, e.g. one program per
  // worker). Aborts on unbalanced Loop/EndLoop.
  ProgramPtr Build() const&;
  // The same for a builder that is about to go away: its op list moves into
  // the program instead of being copied (one allocation fewer per program,
  // which open-loop request streams pay per request part).
  ProgramPtr Build() &&;

  static constexpr double kCalibrationGhz = 3.0;

 private:
  void CheckBalanced() const;  // aborts on an unclosed Loop

  std::string name_;
  std::vector<Op> ops_;
  int open_loops_ = 0;
};

// Total compute work (GHz-ns) in a program, descending into forked children
// and multiplying through loops. Useful for sanity checks in tests.
double TotalWork(const Program& program);

}  // namespace nestsim

#endif  // NESTSIM_SRC_KERNEL_PROGRAM_H_
