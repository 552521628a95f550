#include "src/sim/engine.h"

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

namespace nestsim {
namespace {

TEST(EngineTest, ClockStartsAtZero) {
  Engine engine;
  EXPECT_EQ(engine.Now(), 0);
}

TEST(EngineTest, StepAdvancesClockToEventTime) {
  Engine engine;
  engine.ScheduleAt(100, [] {});
  EXPECT_TRUE(engine.Step());
  EXPECT_EQ(engine.Now(), 100);
}

TEST(EngineTest, StepOnEmptyReturnsFalse) {
  Engine engine;
  EXPECT_FALSE(engine.Step());
  EXPECT_EQ(engine.Now(), 0);
}

TEST(EngineTest, ScheduleAfterIsRelative) {
  Engine engine;
  engine.ScheduleAt(50, [] {});
  engine.Step();
  SimTime fired_at = -1;
  engine.ScheduleAfter(25, [&] { fired_at = engine.Now(); });
  engine.Step();
  EXPECT_EQ(fired_at, 75);
}

TEST(EngineTest, RunUntilStopsAtDeadline) {
  Engine engine;
  int fired = 0;
  for (SimTime t = 10; t <= 100; t += 10) {
    engine.ScheduleAt(t, [&] { ++fired; });
  }
  engine.RunUntil(50);
  EXPECT_EQ(fired, 5);
  EXPECT_EQ(engine.Now(), 50);
}

TEST(EngineTest, RunUntilAdvancesClockEvenWithoutEvents) {
  Engine engine;
  engine.RunUntil(1234);
  EXPECT_EQ(engine.Now(), 1234);
}

TEST(EngineTest, RunUntilIdleDrainsEverything) {
  Engine engine;
  int fired = 0;
  engine.ScheduleAt(1, [&] {
    ++fired;
    engine.ScheduleAfter(1, [&] { ++fired; });
  });
  EXPECT_EQ(engine.RunUntilIdle(), 2u);
  EXPECT_EQ(fired, 2);
  EXPECT_TRUE(engine.Idle());
}

TEST(EngineTest, RunUntilIdleRespectsMaxEvents) {
  Engine engine;
  // A self-perpetuating event: the guard must stop it.
  std::function<void()> again = [&] { engine.ScheduleAfter(1, again); };
  engine.ScheduleAt(0, again);
  EXPECT_EQ(engine.RunUntilIdle(100), 100u);
}

TEST(EngineTest, CancelPreventsFiring) {
  Engine engine;
  bool fired = false;
  const EventId id = engine.ScheduleAt(10, [&] { fired = true; });
  EXPECT_TRUE(engine.Cancel(id));
  engine.RunUntilIdle();
  EXPECT_FALSE(fired);
}

TEST(EngineTest, EventsFiredCounter) {
  Engine engine;
  for (int i = 0; i < 7; ++i) {
    engine.ScheduleAt(i, [] {});
  }
  engine.RunUntilIdle();
  EXPECT_EQ(engine.events_fired(), 7u);
}

TEST(EngineTest, EventsScheduledDuringStepRun) {
  Engine engine;
  std::vector<int> order;
  engine.ScheduleAt(10, [&] {
    order.push_back(1);
    engine.ScheduleAt(10, [&] { order.push_back(2); });  // same instant, later order
  });
  engine.ScheduleAt(20, [&] { order.push_back(3); });
  engine.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EngineTest, PendingEventsCount) {
  Engine engine;
  engine.ScheduleAt(5, [] {});
  engine.ScheduleAt(6, [] {});
  EXPECT_EQ(engine.pending_events(), 2u);
  engine.Step();
  EXPECT_EQ(engine.pending_events(), 1u);
}

// A stream of timestamped events with ties among themselves and with events
// pushed before the reservation, after it, and from inside a fired event.
// Run eagerly (every stream event pushed at reservation time) or lazily (one
// pending at the reserved rank, the next scheduled when it fires).
std::vector<std::string> RunStream(bool lazy) {
  Engine engine;
  std::vector<std::string> log;
  auto note = [&](const std::string& what) {
    log.push_back(what + "@" + std::to_string(engine.Now()));
  };
  const std::vector<SimTime> stream = {10, 20, 20, 20, 30, 40};
  for (const SimTime t : {10, 20, 30}) {
    engine.ScheduleAt(t, [&note] { note("before"); });
  }
  const uint64_t rank = lazy ? engine.ReserveRank() : 0;
  size_t next = 0;
  std::function<void()> fire = [&] {
    const size_t i = next++;
    note("stream" + std::to_string(i));
    if (i == 1) {
      engine.ScheduleAt(engine.Now(), [&note] { note("spawned"); });
    }
    if (lazy && next < stream.size()) {
      engine.ScheduleAtRank(stream[next], rank, [&fire] { fire(); });
    }
  };
  if (lazy) {
    engine.ScheduleAtRank(stream[0], rank, [&fire] { fire(); });
  } else {
    for (const SimTime t : stream) {
      engine.ScheduleAt(t, [&fire] { fire(); });
    }
  }
  for (const SimTime t : {20, 30, 40}) {
    engine.ScheduleAt(t, [&note] { note("after"); });
  }
  engine.RunUntilIdle();
  return log;
}

TEST(EngineTest, ReservedRankFiresWhereAnEagerPushWould) {
  const std::vector<std::string> eager = RunStream(/*lazy=*/false);
  const std::vector<std::string> lazy = RunStream(/*lazy=*/true);
  EXPECT_EQ(lazy, eager);
  // At each instant: events pushed before the reservation, then the stream,
  // then everything pushed after it — including the event a stream part
  // spawned at 20, which trails the parts still to come at 20.
  EXPECT_EQ(eager, (std::vector<std::string>{
                       "before@10", "stream0@10", "before@20", "stream1@20", "stream2@20",
                       "stream3@20", "after@20", "spawned@20", "before@30", "stream4@30",
                       "after@30", "stream5@40", "after@40"}));
}

}  // namespace
}  // namespace nestsim
