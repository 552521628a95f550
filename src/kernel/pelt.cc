#include "src/kernel/pelt.h"

#include <cmath>

namespace nestsim {
namespace pelt_detail {

double Exp2Decay(SimDuration dt) {
  return std::exp2(-static_cast<double>(dt) / static_cast<double>(PeltSignal::kHalfLife));
}

DecayMsTable::DecayMsTable() {
  for (int n = 0; n < kMsTableSize; ++n) {
    factor[static_cast<size_t>(n)] = Exp2Decay(static_cast<SimDuration>(n) * kMillisecond);
  }
}

const DecayMsTable kDecayMsTable;

}  // namespace pelt_detail
}  // namespace nestsim
