// Open-loop request/response workloads (the cluster serving layer's traffic).
//
// Unlike the closed-loop server tests (src/workloads/server.h), arrivals here
// are *open loop*: requests land at times drawn from a Poisson or bursty
// process regardless of how fast the machine drains them, so latency is
// measured against offered load instead of self-throttling with it. Each
// request is a short detached task (optionally with microservice-style
// fan-out parts) injected through the scheduler's fork path via
// Kernel::StreamInjections.
//
// All randomness comes from one RequestStream, which owns its own forked
// generator and yields parts in arrival order, drawing each part only when
// it is asked for. Nothing in the simulation touches that generator, so the
// same seed yields the same traffic whether the stream feeds one machine
// (Workload::Setup) or is routed across a cluster (src/cluster/) — the
// router's choice cannot perturb the draws — and drawing lazily gives the
// same parts as drawing the whole trace up front (BuildPlan).

#ifndef NESTSIM_SRC_WORKLOADS_REQUESTS_H_
#define NESTSIM_SRC_WORKLOADS_REQUESTS_H_

#include <string>
#include <vector>

#include "src/core/workload.h"
#include "src/kernel/program.h"
#include "src/sim/random.h"
#include "src/sim/time.h"

namespace nestsim {

enum class ArrivalKind {
  kPoisson,  // homogeneous Poisson at rate_per_s
  kBursty,   // rate_per_s baseline with periodic bursts at rate * burst_factor
};

const char* ArrivalKindName(ArrivalKind kind);
bool ArrivalKindFromName(const std::string& name, ArrivalKind* out);

struct RequestSpec {
  std::string name = "requests";
  double rate_per_s = 200.0;  // mean offered load (baseline rate for bursty)
  ArrivalKind arrivals = ArrivalKind::kPoisson;
  double duration_s = 1.0;  // arrivals stop after this horizon

  // Bursty arrivals: every burst_every_s seconds the rate jumps to
  // rate_per_s * burst_factor for burst_len_s seconds.
  double burst_every_s = 0.5;
  double burst_len_s = 0.1;
  double burst_factor = 4.0;

  // Per-request service script: lognormal compute with optional I/O pause.
  double service_ms = 0.5;  // median
  double service_sigma = 0.5;
  double io_pause_ms = 0.0;  // 0 = none

  // Microservice fan-out: each request additionally spawns this many
  // sub-request parts (independent tasks; on a cluster the router may place
  // them on other machines). End-to-end latency covers all parts.
  int fanout = 0;
  double fanout_service_ms = 0.2;

  // Diurnal modulation: thin the arrival process by
  //   1 - depth/2 * (1 + cos(2*pi*t/period)), so the rate dips to
  // rate * (1 - depth) at t = 0 and recovers to the full rate at period/2.
  double diurnal_depth = 0.0;  // 0 disables, in [0, 1]
  double diurnal_period_s = 1.0;
};

// One injectable task: the parent request (part 0) or a fan-out sub.
struct RequestPart {
  SimTime arrival = 0;
  uint64_t request = 0;  // request index, 0-based
  int part = 0;          // 0 = parent, 1..fanout = subs
  ProgramPtr program;
  std::string name;
};

struct RequestPlan {
  std::vector<RequestPart> parts;  // arrival order (request-major)
  uint64_t requests = 0;           // parent count (offered load)
};

// The traffic trace of one RequestSpec, drawn one part at a time: a
// thinning cursor over candidate arrivals plus the fan-out cursor of the
// current request. Parts come in plan order, each drawn from `rng` exactly
// as the whole-trace loop would draw it, so draining a stream gives
// BuildPlan's parts.
class RequestStream {
 public:
  RequestStream(RequestSpec spec, Rng rng);

  // Fills *part with the next part and returns true, or returns false once
  // the arrival horizon is reached (and on every later call).
  bool Next(RequestPart* part);

  // Parents drawn so far; the offered load once Next returned false.
  uint64_t requests() const { return requests_; }

  // The generator, advanced past every draw so far.
  const Rng& rng() const { return rng_; }

 private:
  RequestSpec spec_;
  Rng rng_;
  double mean_gap_s_ = 0.0;  // between candidates, at the peak rate
  double t_ = 0.0;           // last candidate arrival, seconds
  bool done_ = false;
  uint64_t requests_ = 0;
  // The current request, while its fan-out subs are still to come.
  SimTime arrival_ = 0;
  std::string base_;
  int subs_left_ = 0;
};

class RequestWorkload : public Workload {
 public:
  explicit RequestWorkload(RequestSpec spec) : spec_(std::move(spec)) {}

  std::string name() const override { return "requests-" + spec_.name; }

  // Single-machine path: streams the traffic into one kernel
  // (Kernel::StreamInjections). Draws exactly one Fork() from `rng`, like
  // every other workload's Setup.
  void Setup(Kernel& kernel, Rng& rng) const override;

  // The whole traffic trace at once: a drained RequestStream on `rng`, which
  // is advanced past every draw. The cluster runner streams the same parts
  // from the same forked generator Setup uses.
  RequestPlan BuildPlan(Rng& rng) const;

  const RequestSpec& spec() const { return spec_; }

 private:
  RequestSpec spec_;
};

}  // namespace nestsim

#endif  // NESTSIM_SRC_WORKLOADS_REQUESTS_H_
