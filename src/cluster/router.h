// Pluggable request routers (load balancers) for the cluster serving layer.
//
// A router picks the machine for each arriving request part. It is consulted
// at arrival time — not when the traffic is drawn — so load-aware
// policies see live simulation state. Routers must be deterministic functions
// of that state: given the same arrival sequence and machine states they make
// the same choices, which keeps cluster runs bit-reproducible.

#ifndef NESTSIM_SRC_CLUSTER_ROUTER_H_
#define NESTSIM_SRC_CLUSTER_ROUTER_H_

#include <memory>
#include <string>
#include <vector>

#include "src/hw/hardware.h"
#include "src/kernel/kernel.h"

namespace nestsim {

class RequestRouter {
 public:
  virtual ~RequestRouter() = default;

  // The registry key ("round-robin", ...); used by specs, docs and reports.
  virtual const char* name() const = 0;

  // Chooses a machine index in [0, kernels.size()). `kernels` and `hardware`
  // are parallel arrays, one entry per machine.
  virtual int Route(const std::vector<Kernel*>& kernels,
                    const std::vector<HardwareModel*>& hardware) = 0;
};

// Builds a router by name; nullptr on unknown names. Known routers:
//   passthrough   always machine 0 (the 1-machine equivalence baseline)
//   round-robin   arrival i goes to machine i % N
//   least-loaded  machine with the fewest runnable tasks (lowest index ties)
//   power-aware   machine drawing the least socket power (lowest index ties)
std::unique_ptr<RequestRouter> MakeRouter(const std::string& name);

// Every router key, in registry order.
std::vector<std::string> RouterNames();

}  // namespace nestsim

#endif  // NESTSIM_SRC_CLUSTER_ROUTER_H_
