#include "src/kernel/pelt.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <thread>
#include <vector>

#include "src/sim/random.h"

namespace nestsim {
namespace {

TEST(PeltTest, StartsAtZero) {
  PeltSignal signal;
  EXPECT_DOUBLE_EQ(signal.raw(), 0.0);
  EXPECT_DOUBLE_EQ(signal.ValueAt(100 * kMillisecond), 0.0);
}

TEST(PeltTest, SaturatesTowardOneWhenAlwaysActive) {
  PeltSignal signal;
  for (int i = 1; i <= 100; ++i) {
    signal.Update(i * 10 * kMillisecond, 1.0);
  }
  EXPECT_GT(signal.raw(), 0.99);
  EXPECT_LE(signal.raw(), 1.0);
}

TEST(PeltTest, HalfLifeIsRespected) {
  PeltSignal signal;
  signal.Set(0, 1.0);
  EXPECT_NEAR(signal.ValueAt(PeltSignal::kHalfLife), 0.5, 1e-9);
  EXPECT_NEAR(signal.ValueAt(2 * PeltSignal::kHalfLife), 0.25, 1e-9);
}

TEST(PeltTest, UpdateWithInactivityDecays) {
  PeltSignal signal;
  signal.Set(0, 0.8);
  signal.Update(PeltSignal::kHalfLife, 0.0);
  EXPECT_NEAR(signal.raw(), 0.4, 1e-9);
}

TEST(PeltTest, PartialActivityConverges) {
  // Alternating busy/idle in equal shares converges near 0.5.
  PeltSignal signal;
  SimTime t = 0;
  for (int i = 0; i < 500; ++i) {
    t += kMillisecond;
    signal.Update(t, 1.0);
    t += kMillisecond;
    signal.Update(t, 0.0);
  }
  EXPECT_NEAR(signal.raw(), 0.5, 0.03);
}

TEST(PeltTest, ZeroElapsedIsNoop) {
  PeltSignal signal;
  signal.Set(10, 0.6);
  signal.Update(10, 1.0);
  EXPECT_DOUBLE_EQ(signal.raw(), 0.6);
}

TEST(PeltTest, ValueAtDoesNotMutate) {
  PeltSignal signal;
  signal.Set(0, 1.0);
  (void)signal.ValueAt(64 * kMillisecond);
  EXPECT_DOUBLE_EQ(signal.raw(), 1.0);
  EXPECT_EQ(signal.last_update(), 0);
}

TEST(PeltTest, SetOverridesState) {
  PeltSignal signal;
  signal.Set(5 * kMillisecond, 0.42);
  EXPECT_DOUBLE_EQ(signal.raw(), 0.42);
  EXPECT_EQ(signal.last_update(), 5 * kMillisecond);
}

// A signal at 1.0 decayed over dt holds exactly its decay factor: 1.0 * d.
uint64_t FactorBits(PeltSignal& signal, SimTime from, SimDuration dt) {
  signal.Set(from, 1.0);
  signal.Update(from + dt, 0.0);
  return std::bit_cast<uint64_t>(signal.raw());
}

uint64_t Exp2Bits(SimDuration dt) { return std::bit_cast<uint64_t>(pelt_detail::Exp2Decay(dt)); }

// Many signals share the per-signal memo, the thread's shared memo and the
// millisecond table; whichever path serves a dt, the factor must be the very
// double Exp2Decay computes. Runs of equal dt (the shared memo's hits) are
// interleaved with fresh ragged dts, whole milliseconds and repeats of a
// signal's own last dt.
void CheckInterleavedFactors(uint64_t seed) {
  Rng rng(seed);
  std::vector<PeltSignal> signals(16);
  std::vector<SimDuration> pool;
  for (int i = 0; i < 6; ++i) {
    pool.push_back(1 + static_cast<SimDuration>(rng.NextBounded(50 * kMillisecond)));
  }
  pool.push_back(4 * kMillisecond);     // table hit
  pool.push_back(2000 * kMillisecond);  // whole ms, past the table
  SimTime now = 0;
  for (int step = 0; step < 4000; ++step) {
    const SimDuration dt = rng.NextDouble() < 0.8
                               ? pool[rng.NextBounded(pool.size())]
                               : 1 + static_cast<SimDuration>(rng.NextBounded(kMillisecond));
    const int run = 1 + static_cast<int>(rng.NextBounded(signals.size()));
    for (int i = 0; i < run; ++i) {
      PeltSignal& signal = signals[rng.NextBounded(signals.size())];
      ASSERT_EQ(FactorBits(signal, now, dt), Exp2Bits(dt)) << "seed " << seed << " dt " << dt;
    }
    now += 1 + static_cast<SimTime>(rng.NextBounded(kMillisecond));
  }
}

TEST(PeltTest, SharedDecayMemoIsBitIdenticalToExp2) { CheckInterleavedFactors(1); }

// The shared memo is per thread: two threads hammering different dt sets at
// once must never see each other's factors (the TSan job also checks there
// is no data race).
TEST(PeltTest, SharedDecayMemoIsPerThread) {
  std::vector<std::thread> threads;
  for (uint64_t seed : {100, 101}) {
    threads.emplace_back([seed] { CheckInterleavedFactors(seed); });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
}

}  // namespace
}  // namespace nestsim
