// Scheduling-domain hierarchy (paper §2.1).
//
// On the modelled machines the levels, highest to lowest, are:
//   NUMA — all CPUs; its groups are the sockets,
//   DIE  — the CPUs of one socket; its groups are the physical cores,
//   SMT  — the CPUs of one physical core; its groups are single CPUs.
// Each CPU is associated with the chain of domains containing it. CFS's fork
// path descends this hierarchy group by group.

#ifndef NESTSIM_SRC_KERNEL_DOMAINS_H_
#define NESTSIM_SRC_KERNEL_DOMAINS_H_

#include <vector>

#include "src/hw/topology.h"
#include "src/kernel/cpu_mask.h"

namespace nestsim {

enum class DomainLevel { kSmt = 0, kDie = 1, kNuma = 2 };

struct SchedGroup {
  std::vector<int> cpus;
  CpuMask mask;  // the same CPUs, for O(1) membership and idle counts
};

struct SchedDomain {
  DomainLevel level;
  std::vector<int> span;          // all CPUs covered by this domain
  std::vector<SchedGroup> groups;  // one group per child domain
};

class DomainTree {
 public:
  // Throws std::length_error when `topo` has more CPUs than a CpuMask holds.
  explicit DomainTree(const Topology& topo);

  // The machine-wide domain (NUMA level, or DIE when there is one socket).
  const SchedDomain& Top() const { return domains_[top_index_]; }

  // The domain at `level` containing `cpu`. Returns nullptr if the machine
  // does not materialise that level (e.g. NUMA on a mono-socket machine).
  const SchedDomain* DomainFor(int cpu, DomainLevel level) const;

  // The child domain of `domain` whose span contains `cpu`, descending one
  // level. Returns nullptr at the bottom.
  const SchedDomain* ChildContaining(const SchedDomain& domain, int cpu) const;

  const std::vector<SchedDomain>& all() const { return domains_; }

 private:
  const Topology* topo_;
  std::vector<SchedDomain> domains_;
  int top_index_ = -1;
  // [level][entity index] -> index into domains_; entity is socket for kDie,
  // physical core for kSmt, 0 for kNuma.
  std::vector<std::vector<int>> index_;
};

}  // namespace nestsim

#endif  // NESTSIM_SRC_KERNEL_DOMAINS_H_
