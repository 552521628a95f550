#include "src/workloads/requests.h"

#include <cmath>

namespace nestsim {

const char* ArrivalKindName(ArrivalKind kind) {
  switch (kind) {
    case ArrivalKind::kPoisson:
      return "poisson";
    case ArrivalKind::kBursty:
      return "bursty";
  }
  return "?";
}

bool ArrivalKindFromName(const std::string& name, ArrivalKind* out) {
  if (name == "poisson") {
    *out = ArrivalKind::kPoisson;
    return true;
  }
  if (name == "bursty") {
    *out = ArrivalKind::kBursty;
    return true;
  }
  return false;
}

RequestStream::RequestStream(RequestSpec spec, Rng rng) : spec_(std::move(spec)), rng_(rng) {
  // Arrivals by thinning: draw candidates from a homogeneous Poisson process
  // at the *peak* rate, then accept each with the ratio of the instantaneous
  // rate to the peak. The candidate stream (and thus every draw) depends only
  // on the spec and the seed, never on simulation state.
  const double peak_rate =
      spec_.arrivals == ArrivalKind::kBursty ? spec_.rate_per_s * spec_.burst_factor
                                             : spec_.rate_per_s;
  if (peak_rate <= 0.0 || spec_.duration_s <= 0.0) {
    done_ = true;
  } else {
    mean_gap_s_ = 1.0 / peak_rate;
  }
}

bool RequestStream::Next(RequestPart* part) {
  if (subs_left_ > 0) {
    const int f = spec_.fanout - --subs_left_;  // 1..fanout
    // The builder's name only labels a loop-pairing abort, and request
    // programs have no loops: a literal spares a copy of the part name.
    ProgramBuilder sub("request");
    sub.ComputeMs(rng_.NextLogNormal(spec_.fanout_service_ms, spec_.service_sigma));
    *part = {arrival_, requests_ - 1, f, std::move(sub).Build(),
             base_ + ".s" + std::to_string(f)};
    return true;
  }
  constexpr double kPi = 3.14159265358979323846;
  while (!done_) {
    t_ += rng_.NextExponential(mean_gap_s_);
    if (t_ >= spec_.duration_s) {
      done_ = true;
      break;
    }
    double accept = 1.0;
    if (spec_.arrivals == ArrivalKind::kBursty) {
      const double phase = std::fmod(t_, spec_.burst_every_s);
      if (phase >= spec_.burst_len_s) {
        accept /= spec_.burst_factor;  // outside the burst: baseline rate
      }
    }
    if (spec_.diurnal_depth > 0.0) {
      accept *= 1.0 - spec_.diurnal_depth * 0.5 *
                          (1.0 + std::cos(2.0 * kPi * t_ / spec_.diurnal_period_s));
    }
    if (!rng_.NextBool(accept)) {
      continue;
    }

    arrival_ = SecondsF(t_);
    const uint64_t req = requests_++;
    base_ = spec_.name + "-req" + std::to_string(req);
    ProgramBuilder parent("request");
    parent.ComputeMs(rng_.NextLogNormal(spec_.service_ms, spec_.service_sigma));
    if (spec_.io_pause_ms > 0.0) {
      parent.Sleep(MillisecondsF(rng_.NextExponential(spec_.io_pause_ms)))
          .ComputeMs(rng_.NextLogNormal(spec_.service_ms * 0.3, spec_.service_sigma));
    }
    subs_left_ = spec_.fanout;
    *part = {arrival_, req, 0, std::move(parent).Build(), base_};
    return true;
  }
  return false;
}

RequestPlan RequestWorkload::BuildPlan(Rng& rng) const {
  RequestStream stream(spec_, rng);
  RequestPlan plan;
  RequestPart part;
  while (stream.Next(&part)) {
    plan.parts.push_back(std::move(part));
  }
  plan.requests = stream.requests();
  rng = stream.rng();
  return plan;
}

void RequestWorkload::Setup(Kernel& kernel, Rng& rng) const {
  kernel.StreamInjections(
      [stream = RequestStream(spec_, rng.Fork())](Kernel::Injection* next) mutable {
        RequestPart part;
        if (!stream.Next(&part)) {
          return false;
        }
        *next = {part.arrival, std::move(part.program), std::move(part.name)};
        return true;
      },
      tag());
}

}  // namespace nestsim
