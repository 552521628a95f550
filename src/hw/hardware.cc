#include "src/hw/hardware.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <limits>

namespace nestsim {

namespace {
// Frequency changes below this threshold do not trigger completion-time
// recomputation; they are folded into the next update instead.
constexpr double kSpeedChangeEpsilonGhz = 0.02;
}  // namespace

HardwareModel::HardwareModel(Engine* engine, const MachineSpec& spec)
    : engine_(engine),
      spec_(spec),
      topology_(spec.num_sockets, spec.physical_cores_per_socket, spec.threads_per_core),
      cores_(topology_.num_physical_cores()),
      awake_((static_cast<size_t>(topology_.num_physical_cores()) + 63) / 64, ~uint64_t{0}),
      thread_busy_(topology_.num_cpus(), 0),
      socket_active_(topology_.num_sockets(), 0),
      turbo_memo_(topology_.num_sockets()),
      socket_busy_gen_(topology_.num_sockets(), 0),
      power_memo_(topology_.num_sockets()),
      socket_power_gen_(topology_.num_sockets(), 0) {
  for (CoreState& core : cores_) {
    core.freq_ghz = spec_.min_freq_ghz;
    // Stale frequency observations start at nominal: the paper's runs follow
    // warmups, so never-yet-sampled cores look "fine" to Smove.
    core.freq_at_tick_ghz = spec_.nominal_freq_ghz;
    core.idle_since = engine_->Now();
    core.last_freq_update = engine_->Now();
  }
  last_energy_update_ = engine_->Now();
}

void HardwareModel::Start() {
  assert(!started_);
  started_ = true;
  engine_->ScheduleAfter(spec_.freq_update_period, [this] { PeriodicUpdate(); });
}

void HardwareModel::PeriodicUpdate() {
  AccumulateEnergy();
  // Awake cores in ascending order, as a sweep over every core would visit
  // them. A core that a callback wakes mid-sweep was just updated at this
  // instant, so visiting it again would change nothing.
  const int num_phys = topology_.num_physical_cores();
  for (size_t word = 0; word < awake_.size(); ++word) {
    for (uint64_t bits = awake_[word]; bits != 0; bits &= bits - 1) {
      const int phys = static_cast<int>(word * 64) + std::countr_zero(bits);
      if (phys >= num_phys) {
        break;
      }
      UpdateCoreFreq(phys);
      if (Settled(cores_[phys])) {
        awake_[word] &= ~(uint64_t{1} << (phys % 64));
      }
    }
  }
  engine_->ScheduleAfter(spec_.freq_update_period, [this] { PeriodicUpdate(); });
}

int HardwareModel::CountTurboLicenses(int socket) const {
  const SimTime now = engine_->Now();
  TurboMemo& memo = turbo_memo_[socket];
  const int base = socket * topology_.physical_cores_per_socket();
  int licenses = 0;
  // The count holds until the earliest shallow-idle license expires; busy
  // cores and already-expired idle cores cannot change the count without a
  // busy transition, which bumps socket_busy_gen_ and invalidates the memo.
  SimTime valid_until = std::numeric_limits<SimTime>::max();
  for (int i = 0; i < topology_.physical_cores_per_socket(); ++i) {
    const CoreState& core = cores_[base + i];
    if (core.busy_threads > 0) {
      ++licenses;
    } else if (now - core.idle_since < spec_.turbo_license_window) {
      ++licenses;
      valid_until = std::min(valid_until, core.idle_since + spec_.turbo_license_window);
    }
  }
  memo.valid_from = now;
  memo.valid_until = valid_until;
  memo.gen = socket_busy_gen_[socket];
  memo.licenses = licenses;
  return licenses;
}

double HardwareModel::TargetGhz(int phys) const {
  const CoreState& core = cores_[phys];
  const int socket = phys / topology_.physical_cores_per_socket();
  if (core.busy_threads == 0) {
    const SimDuration idle_for = engine_->Now() - core.idle_since;
    if (idle_for >= spec_.idle_decay_delay) {
      return spec_.min_freq_ghz;  // reached via the slow idle drift below
    }
    // Recently idle: hold near the current frequency (but within the cap) so
    // a task returning quickly finds the core still warm.
    const double idle_cap = spec_.turbo.CapGhz(std::max(1, TurboLicensesOnSocket(socket) + 1));
    return std::clamp(core.freq_ghz, spec_.min_freq_ghz, idle_cap);
  }
  // The ladder counts every core still holding a turbo license — this is how
  // task dispersal lowers the ceiling for everyone even when only one or two
  // tasks run at any instant.
  const int licenses = std::max(1, TurboLicensesOnSocket(socket));
  const double cap = spec_.turbo.CapGhz(licenses);

  double request = spec_.min_freq_ghz;
  if (freq_request_fn_) {
    const std::vector<int>& threads = topology_.CpusOfPhysCore(phys);
    for (int cpu : threads) {
      if (thread_busy_[cpu]) {
        request = std::max(request, freq_request_fn_(cpu));
      }
    }
  } else {
    request = cap;  // no governor wired: hardware runs free
  }
  // Autonomous boost: sustained C0 activity pulls a busy core from the
  // governor's request toward the turbo cap (the hardware alone decides the
  // turbo range, paper §2.3). The arrival floor makes a newly busy core jump
  // to roughly nominal right away; the climb to the cap follows the activity
  // EMA, saturating at the knee. SpeedStep-era parts differ through their
  // sluggish EMA and coarse update quantum, not a lower ceiling.
  constexpr double kKnee = 0.75;
  const double activity =
      std::min(1.0, std::max(core.activity_ema, spec_.arrival_activity_floor) / kKnee);
  const double base =
      spec_.min_freq_ghz + spec_.autonomy_weight * activity * (cap - spec_.min_freq_ghz);
  const double boosted = std::max(request, base) +
                         activity * (cap - std::max(request, base)) * spec_.autonomy_weight;
  double target = std::clamp(std::max(request, boosted), spec_.min_freq_ghz, cap);
  // A governor ceiling (power cap) binds even the autonomous boost — the PCU
  // obeys a RAPL clamp where it ignores a low P-state request.
  if (freq_cap_fn_) {
    const double gov_cap = freq_cap_fn_(topology_.CpusOfPhysCore(phys)[0]);
    if (gov_cap > 0.0 && gov_cap < target) {
      target = std::max(spec_.min_freq_ghz, gov_cap);
    }
  }
  return target;
}

void HardwareModel::FoldActivity(CoreState& core, double elapsed_ms) {
  double decay;
  if (elapsed_ms == ema_memo_ms_) {
    decay = ema_memo_decay_;
  } else {
    const double dt = elapsed_ms * static_cast<double>(kMillisecond);
    decay = std::exp2(-dt / static_cast<double>(spec_.activity_halflife));
    ema_memo_ms_ = elapsed_ms;
    ema_memo_decay_ = decay;
  }
  const double busy_now = core.busy_threads > 0 ? 1.0 : 0.0;
  core.activity_ema = core.activity_ema * decay + busy_now * (1.0 - decay);
}

void HardwareModel::UpdateCoreFreq(int phys) {
  CoreState& core = cores_[phys];
  const SimTime now = engine_->Now();
  if (!Awake(phys)) {
    // Replay the sweeps skipped since the core settled: each decayed the
    // idle EMA by one whole period (none once it reached 0) and moved
    // last_freq_update to its instant.
    awake_[phys / 64] |= uint64_t{1} << (phys % 64);
    const SimDuration period = spec_.freq_update_period;
    const int64_t skipped = (now - core.last_freq_update) / period;
    const double period_ms = ToMilliseconds(period);
    for (int64_t i = 0; i < skipped && core.activity_ema != 0.0; ++i) {
      FoldActivity(core, period_ms);
    }
    core.last_freq_update += skipped * period;
  }
  const double elapsed_ms = ToMilliseconds(now - core.last_freq_update);
  core.last_freq_update = now;
  if (elapsed_ms <= 0.0) {
    return;
  }
  // Absorbing state: a long-idle core with a fully drained activity EMA
  // sitting at the floor frequency computes EMA' == +0.0, target == min, and
  // moves nothing — only the timestamp (already advanced) matters. This makes
  // the periodic sweep O(1) for the never-used cores of a lightly loaded
  // machine.
  if (core.busy_threads == 0 && core.activity_ema == 0.0 &&
      core.freq_ghz == spec_.min_freq_ghz && now - core.idle_since >= spec_.idle_decay_delay) {
    return;
  }
  // Fold the elapsed interval into the C0-residency EMA before targeting.
  FoldActivity(core, elapsed_ms);
  const double target = TargetGhz(phys);
  const double old = core.freq_ghz;
  // Downward moves are asymmetric: busy cores barely downshift (the PCU holds
  // a running core's P-state — what warm spinning exploits), recently idle
  // cores drop at the fast rate, long-idle cores drift down gently.
  double down_rate = spec_.ramp_down_ghz_per_ms;
  if (core.busy_threads > 0) {
    down_rate = spec_.busy_downshift_ghz_per_ms;
  } else if (now - core.idle_since >= spec_.idle_decay_delay) {
    down_rate = spec_.idle_drift_ghz_per_ms;
  }
  if (target > core.freq_ghz) {
    core.freq_ghz = std::min(target, core.freq_ghz + spec_.ramp_up_ghz_per_ms * elapsed_ms);
  } else if (target < core.freq_ghz) {
    core.freq_ghz = std::max(target, core.freq_ghz - down_rate * elapsed_ms);
  }
  if (core.freq_ghz != old) {
    NotifyFreqChange(phys);
  }
  if (std::abs(core.freq_ghz - old) > kSpeedChangeEpsilonGhz) {
    NotifySpeedChange(phys);
  }
}

void HardwareModel::NotifyFreqChange(int phys) {
  // Socket power depends on busy cores' frequencies only — an idle core
  // contributes shallow_idle_watts or nothing regardless of its frequency,
  // so idle decay drift doesn't invalidate the power memo. (Busy flips bump
  // the generation in SetThreadBusy.)
  if (cores_[phys].busy_threads > 0) {
    ++socket_power_gen_[phys / topology_.physical_cores_per_socket()];
  }
  if (freq_change_fn_) {
    freq_change_fn_(phys, cores_[phys].freq_ghz);
  }
}

void HardwareModel::NotifySpeedChange(int phys) {
  if (!speed_change_fn_) {
    return;
  }
  for (int cpu : topology_.CpusOfPhysCore(phys)) {
    if (thread_busy_[cpu]) {
      speed_change_fn_(cpu);
    }
  }
}

void HardwareModel::SetThreadBusy(int cpu, bool busy) {
  if (thread_busy_[cpu] == static_cast<char>(busy)) {
    return;
  }
  AccumulateEnergy();
  const int phys = topology_.PhysCoreOf(cpu);
  const int socket = topology_.SocketOf(cpu);
  CoreState& core = cores_[phys];

  // Settle the core's frequency over the elapsed interval before the activity
  // state changes; otherwise a long-idle core would ramp as if it had been
  // busy the whole time.
  UpdateCoreFreq(phys);

  thread_busy_[cpu] = static_cast<char>(busy);
  const int was_busy_threads = core.busy_threads;
  core.busy_threads += busy ? 1 : -1;
  assert(core.busy_threads >= 0 && core.busy_threads <= topology_.threads_per_core());

  if (was_busy_threads == 0 && core.busy_threads == 1) {
    ++socket_active_[socket];
    ++socket_busy_gen_[socket];  // license predicate flipped for this core
    ++socket_power_gen_[socket];
    // Instant P-state grant on wake: the PCU raises a newly busy core to the
    // arrival floor — or the governor's standing request (the `performance`
    // governor keeps even idle cores' requested P-state at nominal) — within
    // tens of microseconds; the climb to the cap then follows the activity
    // EMA at update granularity.
    const double cap = spec_.turbo.CapGhz(std::max(1, TurboLicensesOnSocket(socket)));
    double floor_ghz = spec_.min_freq_ghz + spec_.autonomy_weight *
                                                spec_.arrival_activity_floor *
                                                (cap - spec_.min_freq_ghz);
    if (freq_request_fn_) {
      floor_ghz = std::max(floor_ghz, freq_request_fn_(cpu));
    }
    double instant = std::clamp(floor_ghz, spec_.min_freq_ghz, cap);
    if (freq_cap_fn_) {
      const double gov_cap = freq_cap_fn_(cpu);
      if (gov_cap > 0.0 && gov_cap < instant) {
        instant = std::max(spec_.min_freq_ghz, gov_cap);
      }
    }
    if (instant > core.freq_ghz) {
      core.freq_ghz = instant;
      NotifyFreqChange(phys);
      NotifySpeedChange(phys);
    }
  } else if (was_busy_threads == 1 && core.busy_threads == 0) {
    --socket_active_[socket];
    ++socket_busy_gen_[socket];  // idle_since moved; the window restarted
    ++socket_power_gen_[socket];
    core.idle_since = engine_->Now();
  }

  // The sibling's SMT factor changed; let the kernel recompute its span.
  const int sibling = topology_.SiblingOf(cpu);
  if (sibling >= 0 && thread_busy_[sibling] && speed_change_fn_) {
    speed_change_fn_(sibling);
  }
}

void HardwareModel::KickCpu(int cpu) {
  AccumulateEnergy();
  UpdateCoreFreq(topology_.PhysCoreOf(cpu));
}

void HardwareModel::SampleTick() {
  // Frequency observation (aperf/mperf-style) only advances while a core
  // executes instructions. An idle core therefore keeps showing the stale
  // value from its last busy tick — the reason Smove's "is the chosen core
  // slow?" test rarely fires on Speed Shift machines (paper Â§5.2).
  for (CoreState& core : cores_) {
    if (core.busy_threads > 0) {
      core.freq_at_tick_ghz = core.freq_ghz;
    }
  }
}

double HardwareModel::ComputeSocketPower(int socket) const {
  const SimTime now = engine_->Now();
  PowerMemo& memo = power_memo_[socket];
  double watts;
  // Until when does this result hold? A generation bump invalidates early;
  // otherwise only a shallow-idle core's license window running out changes
  // the sum.
  SimTime valid_until = std::numeric_limits<SimTime>::max();
  if (socket_active_[socket] == 0) {
    watts = spec_.package_idle_watts;
  } else {
    // Shared voltage rail: the fastest active core on the socket sets V
    // (paper §5.2: "the CPU energy consumption is determined by the
    // consumption of the highest frequency core on the socket").
    double hot_ghz = spec_.min_freq_ghz;
    const int base_phys = socket * topology_.physical_cores_per_socket();
    for (int i = 0; i < topology_.physical_cores_per_socket(); ++i) {
      const CoreState& core = cores_[base_phys + i];
      if (core.busy_threads > 0) {
        hot_ghz = std::max(hot_ghz, core.freq_ghz);
      }
    }
    const double volts = spec_.volt_base + spec_.volt_per_ghz * hot_ghz;
    watts = spec_.uncore_watts;
    for (int i = 0; i < topology_.physical_cores_per_socket(); ++i) {
      const CoreState& core = cores_[base_phys + i];
      if (core.busy_threads > 0) {
        watts += spec_.core_dyn_coeff * core.freq_ghz * volts * volts;
      } else if (now - core.idle_since < spec_.turbo_license_window) {
        watts += spec_.shallow_idle_watts;  // shallow C-state
        valid_until = std::min(valid_until, core.idle_since + spec_.turbo_license_window);
      }
    }
  }
  memo.watts = watts;
  memo.valid_from = now;
  memo.valid_until = valid_until;
  memo.gen = socket_power_gen_[socket];
  return watts;
}

double HardwareModel::EnergyJoules() {
  AccumulateEnergy();
  return energy_joules_;
}

}  // namespace nestsim
