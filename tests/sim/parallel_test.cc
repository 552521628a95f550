// DomainGroup (src/sim/parallel.h): the canonical (timestamp, domain id,
// insertion seq) total order, merged-vs-windowed equivalence, and the
// executor controls (lockstep, lookahead caps, abort, fail-fast).

#include "src/sim/parallel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/sim/engine.h"
#include "src/sim/random.h"
#include "src/sim/time.h"

namespace nestsim {
namespace {

TEST(EngineClockTest, NextEventTimeReportsTheEarliestPendingEvent) {
  Engine engine;
  EXPECT_EQ(engine.NextEventTime(), Engine::kNoEvent);

  engine.ScheduleAt(30, [] {});
  const EventId early = engine.ScheduleAt(10, [] {});
  EXPECT_EQ(engine.NextEventTime(), 10);

  // Cancelling the head lazily reclaims it.
  engine.Cancel(early);
  EXPECT_EQ(engine.NextEventTime(), 30);

  EXPECT_TRUE(engine.Step());
  EXPECT_EQ(engine.Now(), 30);
  EXPECT_EQ(engine.NextEventTime(), Engine::kNoEvent);
}

TEST(EngineClockTest, AdvanceToMovesTheClockWithoutFiring) {
  Engine engine;
  bool fired = false;
  engine.ScheduleAt(50, [&fired] { fired = true; });
  engine.AdvanceTo(40);
  EXPECT_EQ(engine.Now(), 40);
  EXPECT_FALSE(fired);
  EXPECT_EQ(engine.NextEventTime(), 50);
}

// Runs `options` against a group built by `build`, which appends "<who>@<t>"
// labels to `log` from every event. Returns the log. The log is only written
// from contexts the canonical order serializes (all tests below use either
// the merged loop or coordinator-instant events), so it is race-free and
// must come out identical at every worker count.
using GroupBuilder = std::function<void(DomainGroup&, std::vector<std::string>&)>;

std::vector<std::string> RunGroup(int domains, const GroupBuilder& build, int workers,
                                  bool lockstep = false, SimDuration max_window = 0) {
  DomainGroup group(domains);
  std::vector<std::string> log;
  build(group, log);
  DomainGroup::RunOptions options;
  options.time_limit = 1 * kSecond;
  options.workers = workers;
  options.lockstep = lockstep;
  options.max_window = max_window;
  options.live = [] { return true; };
  DomainGroup::RunResult result = group.Run(options);
  EXPECT_FALSE(result.aborted);
  return log;
}

std::string Label(const char* who, SimTime t) {
  return std::string(who) + "@" + std::to_string(t);
}

// Same timestamp across three domains and the coordinator: the canonical
// order fires domains in id order, the coordinator last.
TEST(DomainGroupOrderTest, EqualTimestampsFireDomainsInIdOrderThenCoordinator) {
  const GroupBuilder build = [](DomainGroup& group, std::vector<std::string>& log) {
    // Scheduled in scrambled order: insertion order must not matter across
    // queues, only within one queue.
    group.domain(2).ScheduleAt(100, [&log] { log.push_back(Label("d2", 100)); });
    group.ScheduleCoordinator(100, [&log] { log.push_back(Label("coord", 100)); });
    group.domain(0).ScheduleAt(100, [&log] { log.push_back(Label("d0", 100)); });
    group.domain(1).ScheduleAt(100, [&log] { log.push_back(Label("d1", 100)); });
  };
  const std::vector<std::string> expected = {"d0@100", "d1@100", "d2@100", "coord@100"};
  // The merged loop — serial, or wholesale on a pool thread under lockstep —
  // fires one event at a time, so one shared log sees the full order.
  EXPECT_EQ(RunGroup(3, build, /*workers=*/0), expected);
  EXPECT_EQ(RunGroup(3, build, /*workers=*/2, /*lockstep=*/true), expected);

  // The windowed pool fires domain events at t == window_end inside the
  // parallel window, concurrently across domains: each domain logs to its
  // own vector, merged after the run. What the pool promises is each
  // domain's own events, and the coordinator after every domain event at its
  // instant (it counts them when it fires).
  for (const int workers : {2, 4}) {
    DomainGroup group(3);
    std::vector<std::vector<std::string>> logs(3);
    size_t domain_events_before_coord = 0;
    group.domain(2).ScheduleAt(100, [&logs] { logs[2].push_back(Label("d2", 100)); });
    group.ScheduleCoordinator(100, [&logs, &domain_events_before_coord] {
      for (const auto& log : logs) {
        domain_events_before_coord += log.size();
      }
    });
    group.domain(0).ScheduleAt(100, [&logs] { logs[0].push_back(Label("d0", 100)); });
    group.domain(1).ScheduleAt(100, [&logs] { logs[1].push_back(Label("d1", 100)); });
    DomainGroup::RunOptions options;
    options.time_limit = 1 * kSecond;
    options.workers = workers;
    options.live = [] { return true; };
    EXPECT_FALSE(group.Run(options).aborted);
    std::vector<std::string> merged;
    for (const auto& log : logs) {
      merged.insert(merged.end(), log.begin(), log.end());
    }
    EXPECT_EQ(merged, (std::vector<std::string>{"d0@100", "d1@100", "d2@100"}))
        << workers << " workers";
    EXPECT_EQ(domain_events_before_coord, 3u) << workers << " workers";
  }
}

// Within one queue, same-timestamp events keep insertion order (the seq
// component of the canonical order).
TEST(DomainGroupOrderTest, InsertionSeqBreaksTiesWithinOneDomain) {
  const GroupBuilder build = [](DomainGroup& group, std::vector<std::string>& log) {
    group.domain(0).ScheduleAt(5, [&log] { log.push_back("first"); });
    group.domain(0).ScheduleAt(5, [&log] { log.push_back("second"); });
    group.domain(0).ScheduleAt(5, [&log] { log.push_back("third"); });
  };
  const std::vector<std::string> expected = {"first", "second", "third"};
  EXPECT_EQ(RunGroup(2, build, /*workers=*/0), expected);
  EXPECT_EQ(RunGroup(2, build, /*workers=*/4), expected);
}

// A coordinator event that fans work out to domains at its own timestamp:
// the spawned domain events fire before the next coordinator event at that
// instant (domains sort below the coordinator at equal time), so a
// same-instant second arrival observes the first arrival's effects.
TEST(DomainGroupOrderTest, SameInstantFanoutInterleavesBeforeTheNextCoordinatorEvent) {
  const GroupBuilder build = [](DomainGroup& group, std::vector<std::string>& log) {
    group.ScheduleCoordinator(40, [&group, &log] {
      log.push_back("arrival1");
      group.domain(0).ScheduleAt(40, [&log] { log.push_back("inject-d0"); });
      group.domain(1).ScheduleAt(40, [&log] { log.push_back("inject-d1"); });
    });
    group.ScheduleCoordinator(40, [&log] { log.push_back("arrival2"); });
  };
  const std::vector<std::string> expected = {"arrival1", "inject-d0", "inject-d1", "arrival2"};
  EXPECT_EQ(RunGroup(2, build, /*workers=*/0), expected);
  EXPECT_EQ(RunGroup(2, build, /*workers=*/2), expected);
  EXPECT_EQ(RunGroup(2, build, /*workers=*/8), expected);
}

// Clock semantics at a cross-domain event: every domain clock reaches the
// coordinator timestamp before the event runs (lazy integrators read those
// clocks), and Now() tracks the last fired event.
TEST(DomainGroupTest, DomainClocksReachTheCoordinatorTimestampBeforeItFires) {
  for (const int workers : {0, 2}) {
    DomainGroup group(2);
    SimTime d0_at_arrival = -1;
    SimTime d1_at_arrival = -1;
    group.domain(0).ScheduleAt(10, [] {});
    group.ScheduleCoordinator(25, [&] {
      d0_at_arrival = group.domain(0).Now();
      d1_at_arrival = group.domain(1).Now();
    });
    DomainGroup::RunOptions options;
    options.time_limit = 1 * kSecond;
    options.workers = workers;
    options.live = [] { return true; };
    group.Run(options);
    EXPECT_EQ(d0_at_arrival, 25) << workers << " workers";
    EXPECT_EQ(d1_at_arrival, 25) << workers << " workers";
    EXPECT_EQ(group.Now(), 25) << workers << " workers";
    EXPECT_EQ(group.TotalEventsFired(), 2u) << workers << " workers";
  }
}

TEST(DomainGroupTest, TimeLimitFiresOneEventAtOrPastTheLimitLikeTheSerialLoop) {
  for (const int workers : {0, 4}) {
    DomainGroup group(2);
    std::vector<std::string> log;
    group.domain(0).ScheduleAt(10, [&log] { log.push_back("before"); });
    group.domain(1).ScheduleAt(200, [&log] { log.push_back("at-limit"); });
    group.domain(0).ScheduleAt(300, [&log] { log.push_back("never"); });
    DomainGroup::RunOptions options;
    options.time_limit = 200;
    options.workers = workers;
    options.live = [] { return true; };
    group.Run(options);
    const std::vector<std::string> expected = {"before", "at-limit"};
    EXPECT_EQ(log, expected) << workers << " workers";
  }
}

TEST(DomainGroupTest, ShouldAbortStopsTheRunAndMarksTheResult) {
  for (const int workers : {0, 2}) {
    DomainGroup group(2);
    // Enough events that every executor's polling stride trips.
    for (int i = 0; i < 10000; ++i) {
      group.domain(i % 2).ScheduleAt(i + 1, [] {});
    }
    std::atomic<bool> abort{true};
    DomainGroup::RunOptions options;
    options.time_limit = 1 * kSecond;
    options.workers = workers;
    options.live = [] { return true; };
    options.should_abort = [&abort] { return abort.load(); };
    const DomainGroup::RunResult result = group.Run(options);
    EXPECT_TRUE(result.aborted) << workers << " workers";
  }
}

TEST(DomainGroupTest, UnhealthyStopsTheRunWithoutAborting) {
  for (const int workers : {0, 2}) {
    DomainGroup group(1);
    for (int i = 0; i < 10000; ++i) {
      group.domain(0).ScheduleAt(i + 1, [] {});
    }
    DomainGroup::RunOptions options;
    options.time_limit = 1 * kSecond;
    options.workers = workers;
    options.live = [] { return true; };
    options.healthy = [] { return false; };
    const DomainGroup::RunResult result = group.Run(options);
    EXPECT_FALSE(result.aborted) << workers << " workers";
    EXPECT_GT(group.domain(0).pending_events(), 0u) << workers << " workers";
  }
}

// A domain event that throws: the exception leaves Run() on every executor
// (serial, windowed pool, lockstep pool, and a one-domain group on the pool,
// which is how a single-machine run executes at workers > 0), and the group
// with its worker pool still destructs cleanly.
TEST(DomainGroupTest, ExceptionInADomainEventPropagatesOutOfRun) {
  struct Case {
    int domains;
    int workers;
    bool lockstep;
  };
  for (const Case c : {Case{2, 0, false}, Case{2, 2, false}, Case{2, 2, true}, Case{1, 2, false}}) {
    SCOPED_TRACE(std::to_string(c.domains) + " domains, " + std::to_string(c.workers) +
                 " workers, lockstep " + std::to_string(c.lockstep));
    auto group = std::make_unique<DomainGroup>(c.domains);
    group->domain(0).ScheduleAt(10, [] {});
    group->domain(c.domains - 1).ScheduleAt(50, [] { throw std::runtime_error("boom"); });
    // A later coordinator event opens a window spanning the throw.
    group->ScheduleCoordinator(100, [] {});
    DomainGroup::RunOptions options;
    options.time_limit = 1 * kSecond;
    options.workers = c.workers;
    options.lockstep = c.lockstep;
    options.live = [] { return true; };
    try {
      group->Run(options);
      ADD_FAILURE() << "Run() returned normally";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "boom");
    }
    group.reset();
  }
}

// The randomized property behind the acceptance bar: a pre-drawn traffic
// plan (coordinator arrivals fanning service chains into random domains,
// each chain rescheduling itself domain-locally) executed under every
// combination of worker count, sync mode, and lookahead cap must produce
// the identical per-domain event history, final clock, and event count.
TEST(DomainGroupPropertyTest, EveryExecutorProducesTheSerialHistory) {
  constexpr int kDomains = 4;

  struct Arrival {
    SimTime time = 0;
    int domain = 0;
    int chain = 0;      // events in the local service chain
    SimDuration gap = 0;  // spacing between chain events
  };

  for (uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed);
    std::vector<Arrival> plan;
    SimTime t = 0;
    for (int i = 0; i < 200; ++i) {
      // Clustered timestamps: ~1/4 of arrivals share the previous instant,
      // fuzzing the same-instant drain; the rest fuzz window boundaries with
      // gaps from 0 to ~3 ms.
      if (i == 0 || !rng.NextBool(0.25)) {
        t += static_cast<SimDuration>(rng.NextBounded(3 * kMillisecond));
      }
      Arrival a;
      a.time = t;
      a.domain = static_cast<int>(rng.NextBounded(kDomains));
      a.chain = 1 + static_cast<int>(rng.NextBounded(5));
      a.gap = 1 + static_cast<SimDuration>(rng.NextBounded(500 * kMicrosecond));
      plan.push_back(a);
    }

    struct History {
      std::vector<std::vector<std::string>> domain_log;
      SimTime end = 0;
      uint64_t events = 0;
    };
    auto execute = [&plan](int workers, bool lockstep, SimDuration max_window) {
      DomainGroup group(kDomains);
      History h;
      h.domain_log.resize(kDomains);
      // One log per domain: a domain's events are serialized by construction
      // (one worker pumps a domain per window), so appends never race.
      std::function<void(int, int, int, SimDuration)> chain_step =
          [&](int domain, int id, int remaining, SimDuration gap) {
            Engine& engine = group.domain(domain);
            h.domain_log[static_cast<size_t>(domain)].push_back(
                Label(("c" + std::to_string(id)).c_str(), engine.Now()));
            if (remaining > 0) {
              engine.ScheduleAfter(gap, [&chain_step, domain, id, remaining, gap] {
                chain_step(domain, id, remaining - 1, gap);
              });
            }
          };
      for (size_t i = 0; i < plan.size(); ++i) {
        const Arrival& a = plan[i];
        const int id = static_cast<int>(i);
        group.ScheduleCoordinator(a.time, [&group, &chain_step, a, id] {
          group.domain(a.domain).ScheduleAt(group.coordinator().Now(), [&chain_step, a, id] {
            chain_step(a.domain, id, a.chain - 1, a.gap);
          });
        });
      }
      DomainGroup::RunOptions options;
      options.time_limit = 10 * kSecond;
      options.workers = workers;
      options.lockstep = lockstep;
      options.max_window = max_window;
      options.live = [] { return true; };
      group.Run(options);
      h.end = group.Now();
      h.events = group.TotalEventsFired();
      return h;
    };

    const History reference = execute(/*workers=*/0, /*lockstep=*/false, /*max_window=*/0);
    ASSERT_GT(reference.events, 200u);
    for (const int workers : {1, 2, 4, 8}) {
      for (const bool lockstep : {false, true}) {
        // 37 us sits below most arrival gaps (heartbeat-dominated windows);
        // 700 us spans several chain steps per window.
        for (const SimDuration max_window :
             {SimDuration{0}, 37 * kMicrosecond, 700 * kMicrosecond}) {
          const History h = execute(workers, lockstep, max_window);
          EXPECT_EQ(h.domain_log, reference.domain_log)
              << "seed " << seed << ", " << workers << " workers, lockstep " << lockstep
              << ", max_window " << max_window;
          EXPECT_EQ(h.end, reference.end) << "seed " << seed;
          EXPECT_EQ(h.events, reference.events) << "seed " << seed;
        }
      }
    }
  }
}

}  // namespace
}  // namespace nestsim
