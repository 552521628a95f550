#include "src/workloads/nas.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

namespace nestsim {

namespace {

NasSpec Kern(const std::string& name, double iter_ms, int iterations, double jitter) {
  NasSpec s;
  s.kernel_name = name;
  s.iter_compute_ms = iter_ms;
  s.iterations = iterations;
  s.jitter = jitter;
  return s;
}

}  // namespace

NasSpec NasWorkload::KernelSpec(const std::string& kernel_name) {
  // Iteration counts/sizes chosen so CFS-schedutil makespans land near 1/10
  // of the paper's Figure 12 numbers (2-socket 6130) and the barrier density
  // matches each kernel's character (EP coarse, IS/MG fine, LU medium).
  if (kernel_name == "bt") {
    return Kern("bt", 5.2, 600, 0.02);
  }
  if (kernel_name == "cg") {
    return Kern("cg", 1.1, 750, 0.03);
  }
  if (kernel_name == "ep") {
    return Kern("ep", 29.0, 10, 0.01);
  }
  if (kernel_name == "ft") {
    return Kern("ft", 9.5, 80, 0.02);
  }
  if (kernel_name == "is") {
    return Kern("is", 0.65, 110, 0.04);
  }
  if (kernel_name == "lu") {
    return Kern("lu", 1.2, 1800, 0.03);
  }
  if (kernel_name == "mg") {
    return Kern("mg", 0.55, 520, 0.04);
  }
  if (kernel_name == "sp") {
    return Kern("sp", 2.3, 1030, 0.03);
  }
  if (kernel_name == "ua") {
    return Kern("ua", 1.6, 1520, 0.03);
  }
  std::fprintf(stderr, "nestsim: unknown NAS kernel '%s'\n", kernel_name.c_str());
  std::abort();
}

std::vector<std::string> NasWorkload::KernelNames() {
  return {"bt", "cg", "ep", "ft", "is", "lu", "mg", "sp", "ua"};
}

void NasWorkload::Setup(Kernel& kernel, Rng& rng) const {
  Rng wl_rng = rng.Fork();
  const int threads = spec_.threads > 0 ? spec_.threads : kernel.topology().num_cpus();
  const int barrier_id = 1;
  kernel.CreateBarrier(barrier_id, threads);

  ProgramBuilder master(spec_.kernel_name + "-master");
  master.ComputeMs(spec_.serial_setup_ms);
  for (int t = 0; t < threads; ++t) {
    // Per-worker imbalance is fixed across iterations (domain decomposition),
    // plus the master participates as worker 0 in real OpenMP; we keep a
    // dedicated master for simplicity.
    // A wide jitter can draw below zero; such a worker has no compute.
    const double worker_ms =
        std::max(0.0, spec_.iter_compute_ms * (1.0 + wl_rng.NextNormal(0.0, spec_.jitter)));
    ProgramBuilder worker(spec_.kernel_name + "-worker");
    worker.Loop(spec_.iterations)
        .ComputeMs(worker_ms)
        .Barrier(barrier_id)
        .EndLoop();
    master.Fork(worker.Build());
  }
  master.JoinChildren();
  kernel.SpawnInitial(master.Build(), spec_.kernel_name, tag(), /*cpu=*/0);
}

}  // namespace nestsim
