#include "src/hw/hardware.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

namespace nestsim {
namespace {

// A small fixture with a governor-free hardware model (hardware runs free,
// i.e. autonomy drives everything) on the 5218.
class HardwareTest : public ::testing::Test {
 protected:
  HardwareTest() : hw_(&engine_, MachineByName("intel-5218-2s")) {}

  void StartWithRequest(double request_ghz) {
    hw_.set_freq_request_fn([request_ghz](int) { return request_ghz; });
    hw_.Start();
  }

  Engine engine_;
  HardwareModel hw_;
};

TEST_F(HardwareTest, StartsAtMinFrequency) {
  EXPECT_DOUBLE_EQ(hw_.FreqGhz(0), 1.0);
}

TEST_F(HardwareTest, BusyCoreClimbsToSingleCoreTurbo) {
  StartWithRequest(1.0);
  hw_.SetThreadBusy(0, true);
  engine_.RunUntil(100 * kMillisecond);
  EXPECT_NEAR(hw_.FreqGhz(0), 3.9, 0.01);
}

TEST_F(HardwareTest, ArrivalGrantIsImmediate) {
  StartWithRequest(1.0);
  engine_.RunUntil(50 * kMillisecond);  // settle idle
  hw_.SetThreadBusy(0, true);
  // The instant P-state grant applies without waiting for an update period.
  EXPECT_GT(hw_.FreqGhz(0), 2.0);
}

TEST_F(HardwareTest, LadderCapsManyBusyCores) {
  StartWithRequest(3.9);
  const auto& firsts = hw_.topology().FirstThreadsOnSocket(0);
  for (int i = 0; i < 13; ++i) {
    hw_.SetThreadBusy(firsts[i], true);
  }
  engine_.RunUntil(100 * kMillisecond);
  // 13 active cores on a 5218 socket: cap 2.8 (Table 3).
  for (int i = 0; i < 13; ++i) {
    EXPECT_LE(hw_.FreqGhz(firsts[i]), 2.8 + 1e-9);
  }
}

TEST_F(HardwareTest, TurboLicensePersistsBrieflyAfterIdle) {
  StartWithRequest(3.9);
  const auto& firsts = hw_.topology().FirstThreadsOnSocket(0);
  for (int i = 0; i < 6; ++i) {
    hw_.SetThreadBusy(firsts[i], true);
  }
  engine_.RunUntil(20 * kMillisecond);
  EXPECT_EQ(hw_.TurboLicensesOnSocket(0), 6);
  // Going idle keeps the license for turbo_license_window.
  hw_.SetThreadBusy(firsts[5], false);
  engine_.RunUntil(engine_.Now() + 1 * kMillisecond);
  EXPECT_EQ(hw_.TurboLicensesOnSocket(0), 6);
  engine_.RunUntil(engine_.Now() + 10 * kMillisecond);
  EXPECT_EQ(hw_.TurboLicensesOnSocket(0), 5);
}

TEST_F(HardwareTest, IdleCoreDriftsBackToMin) {
  StartWithRequest(3.9);
  hw_.SetThreadBusy(0, true);
  engine_.RunUntil(50 * kMillisecond);
  hw_.SetThreadBusy(0, false);
  engine_.RunUntil(engine_.Now() + 300 * kMillisecond);
  EXPECT_NEAR(hw_.FreqGhz(0), 1.0, 0.01);
}

TEST_F(HardwareTest, RecentlyIdleCoreStaysWarm) {
  StartWithRequest(3.9);
  hw_.SetThreadBusy(0, true);
  engine_.RunUntil(50 * kMillisecond);
  const double warm = hw_.FreqGhz(0);
  hw_.SetThreadBusy(0, false);
  engine_.RunUntil(engine_.Now() + 1 * kMillisecond);  // < idle_decay_delay
  EXPECT_NEAR(hw_.FreqGhz(0), warm, 0.1);
}

TEST_F(HardwareTest, SmtSharingReducesEffectiveSpeed) {
  StartWithRequest(3.9);
  const int cpu = 0;
  const int sibling = hw_.topology().SiblingOf(cpu);
  hw_.SetThreadBusy(cpu, true);
  engine_.RunUntil(20 * kMillisecond);
  const double alone = hw_.EffectiveSpeedGhz(cpu);
  hw_.SetThreadBusy(sibling, true);
  const double shared = hw_.EffectiveSpeedGhz(cpu);
  EXPECT_NEAR(shared / alone, hw_.spec().smt_throughput, 0.01);
}

TEST_F(HardwareTest, SpeedChangeCallbackOnSiblingActivity) {
  StartWithRequest(3.9);
  std::vector<int> changed;
  hw_.set_speed_change_fn([&](int cpu) { changed.push_back(cpu); });
  hw_.SetThreadBusy(0, true);
  changed.clear();
  hw_.SetThreadBusy(hw_.topology().SiblingOf(0), true);
  // The already-busy thread 0 must be told its speed changed.
  EXPECT_NE(std::find(changed.begin(), changed.end(), 0), changed.end());
}

TEST_F(HardwareTest, EnergyIsMonotonic) {
  StartWithRequest(2.0);
  double last = hw_.EnergyJoules();
  for (int i = 0; i < 10; ++i) {
    engine_.RunUntil(engine_.Now() + 10 * kMillisecond);
    const double now = hw_.EnergyJoules();
    EXPECT_GE(now, last);
    last = now;
  }
}

TEST_F(HardwareTest, BusyMachineDrawsMoreThanIdle) {
  StartWithRequest(3.9);
  engine_.RunUntil(20 * kMillisecond);
  const double idle_watts = hw_.TotalPowerWatts();
  for (int cpu : hw_.topology().FirstThreadsOnSocket(0)) {
    hw_.SetThreadBusy(cpu, true);
  }
  engine_.RunUntil(engine_.Now() + 20 * kMillisecond);
  EXPECT_GT(hw_.TotalPowerWatts(), idle_watts * 1.5);
}

TEST_F(HardwareTest, IdleSocketDrawsPackageIdle) {
  StartWithRequest(3.9);
  engine_.RunUntil(100 * kMillisecond);
  EXPECT_DOUBLE_EQ(hw_.SocketPowerWatts(1), hw_.spec().package_idle_watts);
}

TEST_F(HardwareTest, TickSampleIsStaleWhileIdle) {
  StartWithRequest(3.9);
  // Never-busy core shows the warm-boot nominal sample.
  EXPECT_DOUBLE_EQ(hw_.FreqAtLastTickGhz(4), hw_.spec().nominal_freq_ghz);

  hw_.SetThreadBusy(0, true);
  engine_.RunUntil(40 * kMillisecond);
  hw_.SampleTick();
  const double sampled = hw_.FreqAtLastTickGhz(0);
  EXPECT_GT(sampled, 3.5);
  // Core goes idle and decays, but the sample does not move.
  hw_.SetThreadBusy(0, false);
  engine_.RunUntil(engine_.Now() + 200 * kMillisecond);
  hw_.SampleTick();
  EXPECT_DOUBLE_EQ(hw_.FreqAtLastTickGhz(0), sampled);
  EXPECT_LT(hw_.FreqGhz(0), sampled);
}

TEST_F(HardwareTest, ActiveCountTracksBusyPhysicalCores) {
  StartWithRequest(1.0);
  EXPECT_EQ(hw_.ActivePhysCoresOnSocket(0), 0);
  hw_.SetThreadBusy(0, true);
  hw_.SetThreadBusy(hw_.topology().SiblingOf(0), true);  // same physical core
  EXPECT_EQ(hw_.ActivePhysCoresOnSocket(0), 1);
  hw_.SetThreadBusy(1, true);
  EXPECT_EQ(hw_.ActivePhysCoresOnSocket(0), 2);
  hw_.SetThreadBusy(0, false);
  EXPECT_EQ(hw_.ActivePhysCoresOnSocket(0), 2);  // sibling still busy
}

TEST_F(HardwareTest, RedundantBusyTransitionsAreNoops) {
  StartWithRequest(1.0);
  hw_.SetThreadBusy(0, true);
  hw_.SetThreadBusy(0, true);
  EXPECT_EQ(hw_.ActivePhysCoresOnSocket(0), 1);
  hw_.SetThreadBusy(0, false);
  hw_.SetThreadBusy(0, false);
  EXPECT_EQ(hw_.ActivePhysCoresOnSocket(0), 0);
}

TEST(HardwareE7Test, SpeedStepReactsSlowly) {
  Engine engine;
  HardwareModel hw(&engine, MachineByName("intel-e78870v4-4s"));
  hw.set_freq_request_fn([](int) { return 1.2; });  // governor asks nothing
  hw.Start();
  hw.SetThreadBusy(0, true);
  engine.RunUntil(3 * kMillisecond);
  // With a 10 ms decision quantum and weak autonomy, 3 ms of activity has not
  // raised the frequency much.
  EXPECT_LT(hw.FreqGhz(0), 1.8);
}

TEST(HardwareE7Test, SustainedActivityEventuallyReachesTurbo) {
  Engine engine;
  HardwareModel hw(&engine, MachineByName("intel-e78870v4-4s"));
  hw.set_freq_request_fn([](int) { return 1.2; });
  hw.Start();
  hw.SetThreadBusy(0, true);
  engine.RunUntil(300 * kMillisecond);
  // Even pre-HWP hardware turbo-boosts a continuously busy core — the E7's
  // signature is the *slow approach* (see SpeedStepReactsSlowly), not a
  // lower ceiling.
  EXPECT_NEAR(hw.FreqGhz(0), 3.0, 0.05);
}

TEST(HardwareE7Test, HighRequestReachesTurbo) {
  Engine engine;
  HardwareModel hw(&engine, MachineByName("intel-e78870v4-4s"));
  hw.set_freq_request_fn([](int) { return 3.0; });
  hw.Start();
  hw.SetThreadBusy(0, true);
  engine.RunUntil(300 * kMillisecond);
  EXPECT_NEAR(hw.FreqGhz(0), 3.0, 0.01);
}

// Table 3 against the live DVFS model: with the first n physical cores of
// socket 0 busy and the hardware running free, after 200 ms no busy core
// exceeds the ladder's cap for n active cores, and the hottest reaches it.
// One case per machine preset and active-core count: 1-4, then every 4 up to
// the socket's core count.
using LadderCase = std::pair<std::string, int>;  // machine, active cores

class TurboLadderTest : public ::testing::TestWithParam<LadderCase> {};

TEST_P(TurboLadderTest, SettledFrequencyMatchesTheLadder) {
  const auto& [machine, active] = GetParam();
  const MachineSpec& spec = MachineByName(machine);
  Engine engine;
  HardwareModel hw(&engine, spec);
  hw.Start();
  const auto& firsts = hw.topology().FirstThreadsOnSocket(0);
  for (int i = 0; i < active; ++i) {
    hw.SetThreadBusy(firsts[i], true);
  }
  engine.RunUntil(200 * kMillisecond);
  const double cap = spec.turbo.CapGhz(active);
  double hottest = 0.0;
  for (int i = 0; i < active; ++i) {
    EXPECT_LE(hw.FreqGhz(firsts[i]), cap + 1e-9) << "core " << i;
    hottest = std::max(hottest, hw.FreqGhz(firsts[i]));
  }
  EXPECT_NEAR(hottest, cap, 1e-9);
}

std::vector<LadderCase> LadderCases() {
  std::vector<LadderCase> cases;
  for (const std::string& machine : MachineNames()) {
    const int cores = MachineByName(machine).physical_cores_per_socket;
    for (int n = 1; n <= cores; n = n < 4 ? n + 1 : n + 4) {
      cases.emplace_back(machine, n);
    }
  }
  return cases;
}

std::string LadderCaseName(const ::testing::TestParamInfo<LadderCase>& info) {
  std::string name = info.param.first + "_" + std::to_string(info.param.second);
  std::replace(name.begin(), name.end(), '-', '_');
  return name;
}

INSTANTIATE_TEST_SUITE_P(Table3, TurboLadderTest, ::testing::ValuesIn(LadderCases()),
                         LadderCaseName);

}  // namespace
}  // namespace nestsim
