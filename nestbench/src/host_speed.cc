#include "nestbench/src/host_speed.h"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <queue>
#include <random>
#include <utility>
#include <vector>

#include "nestbench/src/traced_stack.h"

namespace nestbench {

namespace {

// One random cycle through 2^18 slots: next[i] is the slot after i.
std::vector<uint32_t> MakeCycle() {
  std::vector<uint32_t> order(1u << 18);
  for (uint32_t i = 0; i < order.size(); ++i) {
    order[i] = i;
  }
  std::mt19937_64 rng(99);
  std::shuffle(order.begin(), order.end(), rng);
  std::vector<uint32_t> next(order.size());
  for (size_t i = 0; i < order.size(); ++i) {
    next[order[i]] = order[(i + 1) % order.size()];
  }
  return next;
}

}  // namespace

double ProbeSeconds() {
  static const std::vector<uint32_t> next = MakeCycle();
  const uint64_t t0 = NowNs();
  std::priority_queue<uint64_t, std::vector<uint64_t>, std::greater<>> heap;
  uint64_t x = 88172645463325252ull;
  uint64_t sum = 0;
  uint32_t slot = 0;
  for (int i = 0; i < 500000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    heap.push(x >> 20);
    if (heap.size() > 4096) {
      sum += heap.top();
      heap.pop();
    }
    slot = next[slot];
    sum += slot;
  }
  // Keeps the loop's result observable so it cannot be optimised away.
  static volatile uint64_t sink = 0;
  sink = sink + sum;
  return static_cast<double>(NowNs() - t0) * 1e-9;
}

}  // namespace nestbench
