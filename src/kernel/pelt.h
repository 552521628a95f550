// PELT-style exponentially decaying utilisation/load signals.
//
// Linux's Per-Entity Load Tracking sums geometrically decayed 1 ms windows
// with a ~32 ms half-life. We keep the same half-life but integrate in
// continuous time: over an interval of length dt where the entity was active
// a fraction r of the time,
//   avg' = avg * d + r * (1 - d),   d = 2^(-dt / half_life).
//
// Two things matter for reproducing the paper:
//  * a *recently* idle CPU still shows residual utilisation, so CFS's
//    fork-time "idlest CPU" choice disfavours warm cores (paper §2.1);
//  * schedutil's frequency request follows this signal (paper §2.3).

#ifndef NESTSIM_SRC_KERNEL_PELT_H_
#define NESTSIM_SRC_KERNEL_PELT_H_

#include <array>

#include "src/sim/time.h"

namespace nestsim {

namespace pelt_detail {

// 2^(-dt / PeltSignal::kHalfLife) via std::exp2 — the slow path, out of line.
double Exp2Decay(SimDuration dt);

// Decay factors for dt = 0, 1, 2, ... milliseconds. 1024 ms ~= 2^-32 of the
// signal; longer gaps are rare enough to pay the exp2. Built once at startup
// (pelt.cc) with the identical exp2 expression, so table hits return the very
// same doubles the direct computation would.
inline constexpr int kMsTableSize = 1024;
struct DecayMsTable {
  DecayMsTable();
  std::array<double, kMsTableSize> factor;
};
extern const DecayMsTable kDecayMsTable;

// The last ragged (dt -> factor) pair computed by any signal on this thread.
// After a placement scan updates every CPU's utilisation at one instant, they
// all share last_update, so the next scan decays them all by the same dt:
// one exp2 serves the whole machine. thread_local because PDES workers run
// machines on different threads; constinit so reads need no init guard;
// inline so every translation unit sees the definition (an extern
// declaration sends each access through a TLS wrapper that UBSan flags).
struct SharedDecayMemo {
  SimDuration dt = 0;
  double factor = 1.0;
};
inline thread_local constinit SharedDecayMemo tls_decay_memo;

}  // namespace pelt_detail

class PeltSignal {
 public:
  PeltSignal() = default;

  // Folds the interval [last_update, now) into the average. `active_fraction`
  // is the fraction of that interval the entity was running (0..1). Inline:
  // the policies' placement scans call this for every candidate CPU, and most
  // calls hit the dt == 0 or fully-drained early-outs.
  void Update(SimTime now, double active_fraction) {
    const SimDuration dt = now - last_update_;
    if (dt > 0) {
      // 0 * d + 0 * (1 - d) == +0.0 exactly, so a fully drained signal
      // staying inactive only needs its timestamp moved — the common case for
      // the many idle CPUs a tick touches.
      if (avg_ == 0.0 && active_fraction == 0.0) {
        last_update_ = now;
        return;
      }
      const double d = DecayFactor(dt);
      avg_ = avg_ * d + active_fraction * (1.0 - d);
      last_update_ = now;
    }
  }

  // The signal decayed to `now`, assuming inactivity since the last Update.
  // Does not modify state.
  double ValueAt(SimTime now) const {
    if (avg_ == 0.0) {
      return avg_;  // 0 * 2^x == +0.0 for any finite x
    }
    const SimDuration dt = now - last_update_;
    if (dt <= 0) {
      return avg_;  // DecayFactor would be exactly 1.0
    }
    return avg_ * DecayFactor(dt);
  }

  // The raw signal at the time of the last Update.
  double raw() const { return avg_; }
  SimTime last_update() const { return last_update_; }

  // Forces the signal (used when migrating a task's utilisation).
  void Set(SimTime now, double value) {
    avg_ = value;
    last_update_ = now;
  }

  static constexpr SimDuration kHalfLife = 32 * kMillisecond;

 private:
  // 2^(-dt / half_life), with three exp2-free fast paths that return the
  // very same doubles: the whole-millisecond table above (idle CPUs update on
  // 4 ms tick boundaries, so most dts are ms multiples), a one-entry memo of
  // this signal's last ragged dt, and the thread's shared one-entry memo
  // (tls_decay_memo) of the last ragged dt any signal computed. All three are
  // filled with the identical exp2 expression of a pure function of dt, so a
  // hit can never change a result — composing powers y^a * y^b instead would
  // change the low bits and break the byte-identical golden baselines.
  double DecayFactor(SimDuration dt) const {
    if (dt <= 0) {
      return 1.0;
    }
    if (dt % kMillisecond == 0) {
      const SimDuration ms = dt / kMillisecond;
      if (ms < pelt_detail::kMsTableSize) {
        return pelt_detail::kDecayMsTable.factor[static_cast<size_t>(ms)];
      }
    }
    if (dt == memo_dt_) {
      return memo_decay_;
    }
    pelt_detail::SharedDecayMemo& shared = pelt_detail::tls_decay_memo;
    if (dt == shared.dt) {
      return shared.factor;
    }
    const double decay = pelt_detail::Exp2Decay(dt);
    memo_dt_ = dt;
    memo_decay_ = decay;
    shared = {dt, decay};
    return decay;
  }

  double avg_ = 0.0;
  SimTime last_update_ = 0;
  mutable SimDuration memo_dt_ = 0;
  mutable double memo_decay_ = 1.0;
};

}  // namespace nestsim

#endif  // NESTSIM_SRC_KERNEL_PELT_H_
