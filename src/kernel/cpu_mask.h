// Fixed-size CPU bitmask.
//
// The kernel tracks which CPUs are idle and which have waiting tasks. Those
// sets used to be a std::set<int>, which put a red-black-tree walk (and a
// node allocation) on the enqueue/dequeue path; a four-word bitmask makes
// membership updates single-bit stores, emptiness a word OR, and iteration a
// countr_zero loop that visits CPUs in ascending order — the same order the
// std::set iterated, which load balancing depends on. The placement paths
// use the same masks for scheduling-group idle counts (popcount of an AND)
// and for Nest's rotated nest searches (NextFrom).

#ifndef NESTSIM_SRC_KERNEL_CPU_MASK_H_
#define NESTSIM_SRC_KERNEL_CPU_MASK_H_

#include <bit>
#include <cstdint>
#include <stdexcept>
#include <string>

namespace nestsim {

class CpuMask {
 public:
  // The largest machine in src/hw/machine_spec.cc, intel-8153-8s, has exactly
  // 256 CPUs: there is no headroom. A wider topology is refused up front
  // (RequireCpuMaskCapacity) rather than written out of bounds.
  static constexpr int kMaxCpus = 256;

  void Set(int cpu) { words_[Word(cpu)] |= Bit(cpu); }
  void Clear(int cpu) { words_[Word(cpu)] &= ~Bit(cpu); }
  void Assign(int cpu, bool value) {
    if (value) {
      Set(cpu);
    } else {
      Clear(cpu);
    }
  }

  bool Test(int cpu) const { return (words_[Word(cpu)] & Bit(cpu)) != 0; }

  bool Any() const { return (words_[0] | words_[1] | words_[2] | words_[3]) != 0; }
  bool Empty() const { return !Any(); }

  int Count() const {
    return std::popcount(words_[0]) + std::popcount(words_[1]) + std::popcount(words_[2]) +
           std::popcount(words_[3]);
  }

  // The first member at or after `start` (0 <= start <= kMaxCpus), wrapping
  // past the last CPU to the lowest member; -1 when the mask is empty.
  // Clearing each visited member and restarting from it + 1 walks the mask
  // in the rotated numerical order the placement scans use.
  int NextFrom(int start) const {
    const int next = NextAtOrAfter(start);
    return next >= 0 ? next : NextAtOrAfter(0);
  }

  CpuMask operator&(const CpuMask& other) const {
    CpuMask out;
    for (int w = 0; w < kWords; ++w) {
      out.words_[w] = words_[w] & other.words_[w];
    }
    return out;
  }

  // Complement over all kMaxCpus bits, including CPUs the machine does not
  // have; AND it with a machine-bounded mask before counting or iterating.
  CpuMask operator~() const {
    CpuMask out;
    for (int w = 0; w < kWords; ++w) {
      out.words_[w] = ~words_[w];
    }
    return out;
  }

  // Ascending-order iteration: for (int cpu : mask) { ... }
  class Iterator {
   public:
    Iterator(const uint64_t* words, int word) : words_(words), word_(word) { Advance(); }

    int operator*() const { return word_ * 64 + std::countr_zero(current_); }

    Iterator& operator++() {
      current_ &= current_ - 1;  // clear lowest set bit
      Advance();
      return *this;
    }

    bool operator!=(const Iterator& other) const {
      return word_ != other.word_ || current_ != other.current_;
    }

   private:
    void Advance() {
      while (current_ == 0 && word_ < kWords) {
        if (++word_ < kWords) {
          current_ = words_[word_];
        }
      }
    }

    const uint64_t* words_;
    int word_;
    uint64_t current_ = 0;
  };

  Iterator begin() const { return Iterator(words_, -1); }
  Iterator end() const { return Iterator(words_, kWords); }

 private:
  static constexpr int kWords = 4;
  static int Word(int cpu) { return cpu >> 6; }
  static uint64_t Bit(int cpu) { return uint64_t{1} << (cpu & 63); }

  // The first member at or after `start`, without wrapping; -1 if none.
  int NextAtOrAfter(int start) const {
    if (start >= kMaxCpus) {
      return -1;
    }
    int word = Word(start);
    uint64_t bits = words_[word] & (~uint64_t{0} << (start & 63));
    while (bits == 0) {
      if (++word == kWords) {
        return -1;
      }
      bits = words_[word];
    }
    return word * 64 + std::countr_zero(bits);
  }

  uint64_t words_[kWords] = {0, 0, 0, 0};
};

// Throws std::length_error, naming both counts, when a machine of `num_cpus`
// CPUs does not fit a CpuMask. Called before any mask is filled from a
// topology, so an oversized machine fails at Kernel construction instead of
// writing past the mask.
inline void RequireCpuMaskCapacity(int num_cpus) {
  if (num_cpus > CpuMask::kMaxCpus) {
    throw std::length_error("machine has " + std::to_string(num_cpus) +
                            " CPUs, more than the " + std::to_string(CpuMask::kMaxCpus) +
                            " a CpuMask holds (CpuMask::kMaxCpus)");
  }
}

}  // namespace nestsim

#endif  // NESTSIM_SRC_KERNEL_CPU_MASK_H_
