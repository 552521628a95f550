#include "src/kernel/domains.h"

#include <utility>

namespace nestsim {

namespace {

SchedGroup MakeGroup(std::vector<int> cpus) {
  SchedGroup group;
  group.cpus = std::move(cpus);
  for (int cpu : group.cpus) {
    group.mask.Set(cpu);
  }
  return group;
}

}  // namespace

DomainTree::DomainTree(const Topology& topo) : topo_(&topo) {
  RequireCpuMaskCapacity(topo.num_cpus());
  index_.assign(3, {});

  // SMT domains: one per physical core; groups are single CPUs.
  index_[static_cast<int>(DomainLevel::kSmt)].resize(topo.num_physical_cores());
  for (int phys = 0; phys < topo.num_physical_cores(); ++phys) {
    SchedDomain d;
    d.level = DomainLevel::kSmt;
    d.span = topo.CpusOfPhysCore(phys);
    for (int cpu : d.span) {
      d.groups.push_back(MakeGroup({cpu}));
    }
    index_[static_cast<int>(DomainLevel::kSmt)][phys] = static_cast<int>(domains_.size());
    domains_.push_back(std::move(d));
  }

  // DIE domains: one per socket; groups are physical cores.
  index_[static_cast<int>(DomainLevel::kDie)].resize(topo.num_sockets());
  for (int socket = 0; socket < topo.num_sockets(); ++socket) {
    SchedDomain d;
    d.level = DomainLevel::kDie;
    d.span = topo.CpusOnSocket(socket);
    for (int first : topo.FirstThreadsOnSocket(socket)) {
      d.groups.push_back(MakeGroup(topo.CpusOfPhysCore(topo.PhysCoreOf(first))));
    }
    index_[static_cast<int>(DomainLevel::kDie)][socket] = static_cast<int>(domains_.size());
    domains_.push_back(std::move(d));
  }

  // NUMA domain: whole machine, one group per socket. Only materialised on
  // multi-socket machines, as in Linux.
  if (topo.num_sockets() > 1) {
    SchedDomain d;
    d.level = DomainLevel::kNuma;
    for (int cpu = 0; cpu < topo.num_cpus(); ++cpu) {
      d.span.push_back(cpu);
    }
    for (int socket = 0; socket < topo.num_sockets(); ++socket) {
      d.groups.push_back(MakeGroup(topo.CpusOnSocket(socket)));
    }
    index_[static_cast<int>(DomainLevel::kNuma)].push_back(static_cast<int>(domains_.size()));
    top_index_ = static_cast<int>(domains_.size());
    domains_.push_back(std::move(d));
  } else {
    top_index_ = index_[static_cast<int>(DomainLevel::kDie)][0];
  }
}

const SchedDomain* DomainTree::DomainFor(int cpu, DomainLevel level) const {
  switch (level) {
    case DomainLevel::kSmt:
      return &domains_[index_[0][topo_->PhysCoreOf(cpu)]];
    case DomainLevel::kDie:
      return &domains_[index_[1][topo_->SocketOf(cpu)]];
    case DomainLevel::kNuma:
      if (index_[2].empty()) {
        return nullptr;
      }
      return &domains_[index_[2][0]];
  }
  return nullptr;
}

const SchedDomain* DomainTree::ChildContaining(const SchedDomain& domain, int cpu) const {
  switch (domain.level) {
    case DomainLevel::kNuma:
      return DomainFor(cpu, DomainLevel::kDie);
    case DomainLevel::kDie:
      return DomainFor(cpu, DomainLevel::kSmt);
    case DomainLevel::kSmt:
      return nullptr;
  }
  return nullptr;
}

}  // namespace nestsim
