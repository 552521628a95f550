// The cluster serving layer: N machines behind a load balancer.
//
// A ClusterModel instantiates N MachineRuns (src/core/machine_run.h: own
// hardware, policy, governor, kernel and observers each), one per PDES
// domain of a DomainGroup (src/sim/parallel.h, docs/PARALLEL.md). The only
// cross-machine traffic (arrivals with their router decision, replica-quorum
// reaps) rides the group's coordinator timeline, and events execute in the
// canonical (timestamp, domain id, seq) order at any worker count, so the
// fleet is bit-reproducible from one seed.
//
// RunClusterExperiment runs the fleet through the body RunExperiment runs one
// machine through (RunMachines, MachineRun::Finish) and adds only the fleet
// parts: open-loop RequestWorkload arrivals routed by a RequestRouter and
// injected through the scheduler's fork path, machine crashes, the replica
// quorum, and fleet-wide serving metrics (arrival to last-part exit). So a
// 1-machine "passthrough" cluster is digest-identical to RunExperiment on the
// same workload; the differential test in tests/cluster/ holds this.

#ifndef NESTSIM_SRC_CLUSTER_CLUSTER_H_
#define NESTSIM_SRC_CLUSTER_CLUSTER_H_

#include <memory>
#include <string>
#include <vector>

#include "src/core/experiment.h"
#include "src/core/machine_run.h"
#include "src/core/workload.h"
#include "src/kernel/kernel.h"
#include "src/sim/parallel.h"

namespace nestsim {

struct ClusterSpec {
  int machines = 2;
  std::string router = "round-robin";
};

class ClusterModel {
 public:
  // Builds `machines` identical stacks of config.machine with the standard
  // observer set, machine i on domain i of `group` (which must have at least
  // `machines` domains). `config` must outlive the model.
  ClusterModel(DomainGroup* group, const ExperimentConfig& config, int machines);

  int size() const { return static_cast<int>(machines_.size()); }
  MachineRun& machine(int i) { return *machines_[i]; }

  // Parallel per-machine views handed to routers.
  const std::vector<Kernel*>& kernels() const { return kernels_; }
  const std::vector<HardwareModel*>& hardware() const { return hardware_; }

 private:
  std::vector<std::unique_ptr<MachineRun>> machines_;
  std::vector<Kernel*> kernels_;
  std::vector<HardwareModel*> hardware_;
};

// Runs one seeded cluster simulation. `workload` must be a RequestWorkload
// (the open-loop "requests" family); throws std::runtime_error otherwise, or
// when cluster.router is unknown, or on an invariant violation. The returned
// result aggregates machine metrics (energy and counters summed, underload
// averaged, makespan = fleet-wide last exit) and fills result.cluster with
// the serving metrics.
ExperimentResult RunClusterExperiment(const ClusterSpec& cluster, const ExperimentConfig& config,
                                      const Workload& workload);

}  // namespace nestsim

#endif  // NESTSIM_SRC_CLUSTER_CLUSTER_H_
