// Canonical table printers for paper-style reports: the header banner,
// machine banners and speedup cells every scenario table style
// (src/scenario/runner.cc) prints.

#ifndef NESTSIM_SRC_SCENARIO_REPORT_H_
#define NESTSIM_SRC_SCENARIO_REPORT_H_

#include <cstdio>
#include <string>

#include "src/hw/machine_spec.h"

namespace nestsim {

inline void PrintHeader(const std::string& what, const std::string& description) {
  std::printf("==============================================================\n");
  std::printf("%s\n%s\n", what.c_str(), description.c_str());
  std::printf("==============================================================\n");
}

inline void PrintMachineBanner(const MachineSpec& spec) {
  std::printf("\n--- %s (%s, %dx%dx%d) ---\n", spec.name.c_str(), spec.cpu_model.c_str(),
              spec.num_sockets, spec.physical_cores_per_socket, spec.threads_per_core);
}

// "+12.3%" with a marker when outside the paper's ±5% noise band.
inline std::string FormatSpeedup(double pct) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%+6.1f%%%s", pct, pct > 5.0 ? " *" : (pct < -5.0 ? " !" : "  "));
  return buf;
}

}  // namespace nestsim

#endif  // NESTSIM_SRC_SCENARIO_REPORT_H_
