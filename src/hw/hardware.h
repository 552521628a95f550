// The hardware model: per-core frequency selection, SMT throughput sharing,
// and socket energy accounting.
//
// Responsibility split (paper §2.3): the OS governor *requests* a frequency
// floor; the hardware chooses the actual frequency from the request, the
// number of active physical cores on the socket (turbo ladder, paper
// Table 3), and how long the core has been idle. The kernel informs this
// model about thread activity and asks it for execution speeds; whenever a
// running CPU's effective speed changes, the model fires a callback so the
// kernel can recompute in-flight completion times.

#ifndef NESTSIM_SRC_HW_HARDWARE_H_
#define NESTSIM_SRC_HW_HARDWARE_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/hw/machine_spec.h"
#include "src/hw/topology.h"
#include "src/sim/engine.h"
#include "src/sim/time.h"

namespace nestsim {

class HardwareModel {
 public:
  // Returns the governor's requested frequency floor (GHz) for a logical CPU.
  using FreqRequestFn = std::function<double(int cpu)>;
  // Invoked when the effective speed of a busy logical CPU changed.
  using SpeedChangeFn = std::function<void(int cpu)>;
  // Invoked whenever a physical core's frequency moves (ramps, instant
  // arrival grants, idle decay) — busy or not. Observability only; the kernel
  // forwards it to KernelObserver::OnCoreFreqChange.
  using FreqChangeFn = std::function<void(int phys_core, double freq_ghz)>;

  HardwareModel(Engine* engine, const MachineSpec& spec);
  HardwareModel(const HardwareModel&) = delete;
  HardwareModel& operator=(const HardwareModel&) = delete;

  const Topology& topology() const { return topology_; }
  const MachineSpec& spec() const { return spec_; }

  void set_freq_request_fn(FreqRequestFn fn) { freq_request_fn_ = std::move(fn); }
  // Governor-imposed hard frequency ceiling (GHz; 0 = none) for a CPU. Unlike
  // the request (a floor), the ceiling clamps the autonomous turbo/activity
  // boost — the budget governor's RAPL-style lever. Left unset on uncapped
  // runs, so TargetGhz stays byte-identical there.
  void set_freq_cap_fn(FreqRequestFn fn) { freq_cap_fn_ = std::move(fn); }
  void set_speed_change_fn(SpeedChangeFn fn) { speed_change_fn_ = std::move(fn); }
  void set_freq_change_fn(FreqChangeFn fn) { freq_change_fn_ = std::move(fn); }

  // Schedules the periodic frequency re-evaluation. Call once, after the
  // callbacks are wired.
  void Start();

  // Marks a hardware thread busy (running a task, or spinning in the Nest
  // idle loop) or idle. Updates the socket's active-core count, both
  // siblings' effective speeds, and the energy meter.
  void SetThreadBusy(int cpu, bool busy);

  // Re-evaluates one physical core's frequency immediately (e.g. the kernel
  // kicks the hardware on task placement, as schedutil does on enqueue).
  void KickCpu(int cpu);

  // Current frequency of the CPU's physical core, GHz.
  double FreqGhz(int cpu) const { return cores_[topology_.PhysCoreOf(cpu)].freq_ghz; }

  // Frequency observed at the most recent scheduler tick (what Smove's
  // heuristic can see, paper §2.2/§5.2).
  double FreqAtLastTickGhz(int cpu) const {
    return cores_[topology_.PhysCoreOf(cpu)].freq_at_tick_ghz;
  }

  // The kernel calls this once per scheduler tick to latch per-core
  // frequencies for FreqAtLastTickGhz.
  void SampleTick();

  // freq * SMT factor: the execution speed a task on `cpu` gets right now.
  // Inline: queried on every compute-segment start and speed change.
  double EffectiveSpeedGhz(int cpu) const {
    const CoreState& core = cores_[topology_.PhysCoreOf(cpu)];
    double factor = 1.0;
    const int sibling = topology_.SiblingOf(cpu);
    if (sibling >= 0 && thread_busy_[cpu] && thread_busy_[sibling]) {
      factor = spec_.smt_throughput;
    }
    return core.freq_ghz * factor;
  }

  bool ThreadBusy(int cpu) const { return thread_busy_[cpu]; }
  int ActivePhysCoresOnSocket(int socket) const { return socket_active_[socket]; }

  // Physical cores on the socket holding a turbo license: busy, or idle for
  // less than spec().turbo_license_window (still in a shallow C-state).
  // Memo hit is the overwhelmingly common case; keep it inline.
  int TurboLicensesOnSocket(int socket) const {
    const SimTime now = engine_->Now();
    const TurboMemo& memo = turbo_memo_[socket];
    if (memo.gen == socket_busy_gen_[socket] && now >= memo.valid_from &&
        now < memo.valid_until) {
      return memo.licenses;
    }
    return CountTurboLicenses(socket);
  }

  // Total CPU energy consumed so far, accumulated to Now().
  double EnergyJoules();

  // Instantaneous power draw of one socket, watts. Served from the
  // piecewise-constant memo when valid (see PowerMemo below).
  double SocketPowerWatts(int socket) const {
    const SimTime now = engine_->Now();
    const PowerMemo& memo = power_memo_[socket];
    if (memo.gen == socket_power_gen_[socket] && now >= memo.valid_from &&
        now < memo.valid_until) {
      return memo.watts;
    }
    return ComputeSocketPower(socket);
  }

  // Simulation clock, for governors that keep windowed state (BudgetGovernor).
  SimTime Now() const { return engine_->Now(); }

  // Instantaneous power of the whole package set.
  double TotalPowerWatts() const {
    double watts = 0.0;
    for (int s = 0; s < topology_.num_sockets(); ++s) {
      watts += SocketPowerWatts(s);
    }
    return watts;
  }

 private:
  struct CoreState {
    double freq_ghz = 0.0;
    double freq_at_tick_ghz = 0.0;
    int busy_threads = 0;
    SimTime idle_since = 0;      // valid when busy_threads == 0
    SimTime last_freq_update = 0;
    // EMA of C0 residency; drives the hardware's autonomous frequency floor.
    double activity_ema = 0.0;
  };

  // Moves one core's frequency toward its current target, given the elapsed
  // time since its last update. Fires speed-change callbacks on change. A
  // settled core first replays the periodic sweeps it skipped.
  void UpdateCoreFreq(int phys);
  // Folds `elapsed_ms` of the core's current busy state into its activity
  // EMA; the one expression both the update and the replay use.
  void FoldActivity(CoreState& core, double elapsed_ms);
  double TargetGhz(int phys) const;
  void PeriodicUpdate();
  // Long idle, at the floor frequency: every later sweep would only decay
  // its activity EMA by one period (the target stays at the floor, and no
  // callback fires) until SetThreadBusy or KickCpu touches it again.
  bool Settled(const CoreState& core) const {
    return core.busy_threads == 0 && core.freq_ghz == spec_.min_freq_ghz &&
           engine_->Now() - core.idle_since >= spec_.idle_decay_delay;
  }
  bool Awake(int phys) const { return (awake_[phys / 64] >> (phys % 64)) & 1; }
  void NotifySpeedChange(int phys);
  void NotifyFreqChange(int phys);
  int CountTurboLicenses(int socket) const;   // slow path; fills turbo_memo_
  double ComputeSocketPower(int socket) const;  // slow path; fills power_memo_

  // Integrates power over [last_energy_update_, now); must run before any
  // state change that affects power.
  void AccumulateEnergy() {
    const SimTime now = engine_->Now();
    if (now <= last_energy_update_) {
      return;
    }
    energy_joules_ += TotalPowerWatts() * ToSeconds(now - last_energy_update_);
    last_energy_update_ = now;
  }

  Engine* engine_;
  MachineSpec spec_;
  Topology topology_;
  FreqRequestFn freq_request_fn_;
  FreqRequestFn freq_cap_fn_;
  SpeedChangeFn speed_change_fn_;
  FreqChangeFn freq_change_fn_;

  std::vector<CoreState> cores_;      // indexed by physical core
  // Bitset of the physical cores the periodic sweep visits: all but the
  // settled ones. A core leaves at the sweep where it settles, with its
  // last_freq_update on that sweep's instant, and rejoins at its next
  // UpdateCoreFreq, which replays the skipped sweeps first.
  std::vector<uint64_t> awake_;
  std::vector<char> thread_busy_;     // indexed by logical cpu
  std::vector<int> socket_active_;    // active physical cores per socket

  // TurboLicensesOnSocket scans every core on the socket; TargetGhz calls it
  // for each core it updates, so a periodic sweep is quadratic in socket
  // width. The count is piecewise constant: it only changes when a core flips
  // busy<->idle (bumps socket_busy_gen_) or a shallow-idle license window
  // expires — so cache it with its validity interval, like PowerMemo below.
  struct TurboMemo {
    SimTime valid_from = 0;
    SimTime valid_until = 0;  // exclusive; earliest shallow-idle expiry
    uint64_t gen = 0;
    int licenses = 0;
  };
  mutable std::vector<TurboMemo> turbo_memo_;  // indexed by socket
  std::vector<uint64_t> socket_busy_gen_;      // bumped on 0<->1 transitions

  // SocketPowerWatts is evaluated at every energy-accumulation point — one or
  // more times per scheduling event — and scans every core on the socket.
  // But power is piecewise constant: it only moves when a core's frequency
  // changes, a core flips busy<->idle, or a shallow-idle license window
  // expires. Cache the computed watts with its validity interval; within it a
  // fresh scan would re-derive the bit-identical double, so the energy
  // integral is unchanged.
  struct PowerMemo {
    double watts = 0.0;
    SimTime valid_from = 0;
    SimTime valid_until = 0;  // exclusive; first shallow-idle window expiry
    uint64_t gen = 0;
  };
  mutable std::vector<PowerMemo> power_memo_;  // indexed by socket
  // Bumped on busy flips, idle_since moves, and every freq_ghz change.
  std::vector<uint64_t> socket_power_gen_;

  // One-entry memo for the activity-EMA decay in UpdateCoreFreq: nearly all
  // updates happen a whole freq_update_period apart, so the same elapsed_ms
  // (and hence the bit-identical exp2 result) repeats constantly.
  double ema_memo_ms_ = -1.0;
  double ema_memo_decay_ = 1.0;

  SimTime last_energy_update_ = 0;
  double energy_joules_ = 0.0;
  bool started_ = false;
};

}  // namespace nestsim

#endif  // NESTSIM_SRC_HW_HARDWARE_H_
