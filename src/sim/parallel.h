// Conservative parallel discrete-event execution (docs/PARALLEL.md).
//
// A DomainGroup partitions one simulation into N *domains* — independent
// Engines, each with its own event queue and clock (every run gives each
// machine a domain; a single-machine run is a one-domain group) — plus one
// *coordinator* Engine carrying every cross-domain event: request arrivals
// with their router decision, and the replica-quorum reaps. Domains never
// touch each other's state directly; all interaction flows through
// coordinator events, and that isolation is what makes the window
// synchronizer below conservative.
//
// Run() executes the union of all queues in one canonical total order:
//
//   (timestamp, domain id, insertion seq)   — coordinator = highest domain id
//
// The order is a property of the event data alone, never of thread
// scheduling, so a run's results are byte-identical at any worker count.
// Two executors produce it:
//
//  * the merged loop — the serial reference executor: repeatedly fire the
//    globally earliest event across all queues, advancing every domain clock
//    to a coordinator event's timestamp before it fires (lazy integrators
//    such as PELT and the energy model read their domain clock);
//
//  * the windowed executor — between consecutive coordinator events no
//    domain can affect another, so the span up to the next coordinator
//    timestamp (the group's lower bound on cross-domain time, LBTS) is a
//    safe window every domain executes independently. A worker pool pumps
//    domains concurrently, a barrier commits the window, the coordinator
//    event fires, and the cycle repeats. An optional lookahead cap bounds
//    window length (a null-message-style heartbeat) so wall-clock abort
//    polling stays responsive across long arrival gaps. Once the
//    coordinator queue drains (or the next coordinator event lies past the
//    time limit) the run finishes on the merged loop, which alone evaluates
//    the liveness predicate exactly per event.
//
// Feedback with zero lookahead — task replication, whose quorum reaps are
// scheduled *at the current instant* from inside domain events — cannot be
// windowed; Run() must then be given lockstep = true, which executes the
// merged loop wholesale (on a pool thread when workers > 0, so the
// threading is still exercised). This is the textbook degenerate case of a
// conservative synchronizer: zero lookahead serializes.

#ifndef NESTSIM_SRC_SIM_PARALLEL_H_
#define NESTSIM_SRC_SIM_PARALLEL_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/sim/engine.h"
#include "src/sim/time.h"

namespace nestsim {

// Execution knobs, carried by ExperimentConfig as `config.parallel` and set
// from scenario files via the parallel.* override keys (docs/SCENARIOS.md).
// Parallel execution is invisible in every result: goldens recorded at
// workers = 0 must verify at any worker count.
struct ParallelParams {
  // Worker threads pumping domains. 0 = serial: the merged reference loop on
  // the calling thread. >0 spawns that many threads (a single-domain or
  // lockstep run executes wholesale on one pool thread instead).
  int workers = 0;

  // "auto" | "window" | "lockstep". Auto picks the windowed executor and
  // falls back to lockstep when windowing is unsafe (replicas > 1); "window"
  // falls back the same way; "lockstep" always runs the merged loop.
  std::string sync = "auto";

  // Caps the conservative window length, in simulated microseconds; 0 keeps
  // windows uncapped (they span the whole gap to the next coordinator
  // event). Purely an execution knob: any cap yields identical results.
  double lookahead_us = 0.0;
};

// N domain Engines plus one coordinator Engine, executed as one simulation.
class DomainGroup {
 public:
  explicit DomainGroup(int domains);
  ~DomainGroup();
  DomainGroup(const DomainGroup&) = delete;
  DomainGroup& operator=(const DomainGroup&) = delete;

  int size() const { return static_cast<int>(domains_.size()); }
  Engine& domain(int i) { return *domains_[static_cast<size_t>(i)]; }
  Engine& coordinator() { return coordinator_; }

  // Timestamp of the last committed (fired) event, across every queue; the
  // group-wide analogue of Engine::Now(). This is the horizon lazy metric
  // integrators must be advanced to at teardown (AdvanceAllTo).
  SimTime Now() const { return global_now_; }

  // Sum of events fired across every queue (the bench denominator).
  uint64_t TotalEventsFired() const;

  // Schedules a cross-domain event. Only legal from single-threaded
  // contexts: setup before Run(), inside another coordinator event, or
  // inside a domain event under the merged/lockstep executor. Domain events
  // running under the windowed executor must not call this (worker threads
  // would race on the coordinator queue) — which is exactly why zero-
  // lookahead feedback forces lockstep.
  EventId ScheduleCoordinator(SimTime t, EventFn fn) {
    return coordinator_.ScheduleAt(t, std::move(fn));
  }

  struct RunOptions {
    SimTime time_limit = 0;

    // See ParallelParams::workers. 0 runs everything on the calling thread.
    int workers = 0;

    // Force the merged loop even when workers > 0 (zero-lookahead feedback).
    bool lockstep = false;

    // Window-length cap (ParallelParams::lookahead_us, converted); 0 = none.
    SimDuration max_window = 0;

    // Loop predicate, required: keep running while it returns true. The
    // merged loop evaluates it before every event; the windowed executor
    // evaluates it only at barriers, which is sound because the predicate
    // cannot go false while coordinator arrivals are still pending.
    std::function<bool()> live;

    // Wall-clock cancellation, polled every few thousand events. Under the
    // windowed executor workers poll it concurrently, so it must be
    // thread-safe (the campaign's steady-clock deadline hook is).
    std::function<bool()> should_abort;

    // Fail-fast hook (the invariant checker), polled on the same stride from
    // the merged loop and at windowed barriers; returning false stops the
    // run so the caller can raise the report.
    std::function<bool()> healthy;
  };

  struct RunResult {
    bool aborted = false;  // should_abort fired
  };

  // Executes until `live` goes false, the clock passes time_limit (one event
  // at or past the limit fires, matching the single-engine loop), every
  // queue drains, `healthy` goes false, or `should_abort` fires.
  RunResult Run(const RunOptions& options);

  // Advances every clock (domains and coordinator) to at least `t`; called
  // with Now() before harvesting metrics so lazy integrators all integrate
  // to the same horizon the shared-clock engine would have reached.
  void AdvanceAllTo(SimTime t);

 private:
  class Pool;

  RunResult RunMerged(const RunOptions& options);
  RunResult RunWindowed(const RunOptions& options);
  void EnsurePool(int workers);

  std::vector<std::unique_ptr<Engine>> domains_;
  Engine coordinator_;
  SimTime global_now_ = 0;
  std::unique_ptr<Pool> pool_;
};

}  // namespace nestsim

#endif  // NESTSIM_SRC_SIM_PARALLEL_H_
