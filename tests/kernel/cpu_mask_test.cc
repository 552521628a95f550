#include "src/kernel/cpu_mask.h"

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "src/sim/random.h"

namespace nestsim {
namespace {

std::vector<int> Collect(const CpuMask& mask) {
  std::vector<int> out;
  for (int cpu : mask) {
    out.push_back(cpu);
  }
  return out;
}

TEST(CpuMaskTest, StartsEmpty) {
  CpuMask mask;
  EXPECT_TRUE(mask.Empty());
  EXPECT_FALSE(mask.Any());
  EXPECT_EQ(mask.Count(), 0);
  EXPECT_EQ(Collect(mask), std::vector<int>{});
}

TEST(CpuMaskTest, SetTestClearAtWordBoundaries) {
  // The mask is four 64-bit words; exercise the first/last bit of each word.
  CpuMask mask;
  const std::vector<int> boundary = {0, 63, 64, 127, 128, 191, 192, 255};
  for (int cpu : boundary) {
    EXPECT_FALSE(mask.Test(cpu));
    mask.Set(cpu);
    EXPECT_TRUE(mask.Test(cpu)) << "cpu " << cpu;
  }
  EXPECT_EQ(mask.Count(), static_cast<int>(boundary.size()));
  EXPECT_EQ(Collect(mask), boundary);  // ascending order across words
  for (int cpu : boundary) {
    mask.Clear(cpu);
    EXPECT_FALSE(mask.Test(cpu)) << "cpu " << cpu;
  }
  EXPECT_TRUE(mask.Empty());
}

TEST(CpuMaskTest, SetIsIdempotent) {
  CpuMask mask;
  mask.Set(5);
  mask.Set(5);
  EXPECT_EQ(mask.Count(), 1);
  mask.Clear(5);
  EXPECT_TRUE(mask.Empty());
  mask.Clear(5);  // clearing a clear bit is a no-op
  EXPECT_TRUE(mask.Empty());
}

TEST(CpuMaskTest, AssignMatchesSetAndClear) {
  CpuMask mask;
  mask.Assign(42, true);
  EXPECT_TRUE(mask.Test(42));
  mask.Assign(42, false);
  EXPECT_FALSE(mask.Test(42));
  EXPECT_TRUE(mask.Empty());
}

TEST(CpuMaskTest, IterationSkipsEmptyWords) {
  CpuMask mask;
  mask.Set(200);  // only the last word is populated
  EXPECT_EQ(Collect(mask), std::vector<int>{200});
}

// The mask replaced std::set<int> in the kernel; load balancing depends on
// identical membership and identical (ascending) iteration order. Drive both
// through random Set/Clear/Assign and require them to stay indistinguishable.
TEST(CpuMaskTest, RandomizedDifferentialAgainstStdSet) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    Rng rng(seed);
    CpuMask mask;
    std::set<int> model;
    for (int step = 0; step < 4000; ++step) {
      const int cpu = static_cast<int>(rng.NextBounded(CpuMask::kMaxCpus));
      const double roll = rng.NextDouble();
      if (roll < 0.4) {
        mask.Set(cpu);
        model.insert(cpu);
      } else if (roll < 0.8) {
        mask.Clear(cpu);
        model.erase(cpu);
      } else {
        const bool value = rng.NextDouble() < 0.5;
        mask.Assign(cpu, value);
        if (value) {
          model.insert(cpu);
        } else {
          model.erase(cpu);
        }
      }
      ASSERT_EQ(mask.Test(cpu), model.count(cpu) != 0) << "seed " << seed << " step " << step;
      ASSERT_EQ(mask.Count(), static_cast<int>(model.size()));
      ASSERT_EQ(mask.Any(), !model.empty());
      ASSERT_EQ(mask.Empty(), model.empty());
      if (step % 64 == 0) {
        // Full sweep: membership of every cpu plus iteration order.
        for (int c = 0; c < CpuMask::kMaxCpus; ++c) {
          ASSERT_EQ(mask.Test(c), model.count(c) != 0) << "cpu " << c;
        }
        ASSERT_EQ(Collect(mask), std::vector<int>(model.begin(), model.end()));
      }
    }
    ASSERT_EQ(Collect(mask), std::vector<int>(model.begin(), model.end()));
  }
}

TEST(CpuMaskTest, NextFromWrapsAtWordAndMaskEnds) {
  CpuMask mask;
  EXPECT_EQ(mask.NextFrom(0), -1);
  EXPECT_EQ(mask.NextFrom(CpuMask::kMaxCpus), -1);
  mask.Set(63);
  mask.Set(64);
  mask.Set(255);
  EXPECT_EQ(mask.NextFrom(0), 63);
  EXPECT_EQ(mask.NextFrom(63), 63);
  EXPECT_EQ(mask.NextFrom(64), 64);  // next word
  EXPECT_EQ(mask.NextFrom(65), 255);  // skips two empty words
  EXPECT_EQ(mask.NextFrom(255), 255);
  EXPECT_EQ(mask.NextFrom(CpuMask::kMaxCpus), 63);  // one past the end wraps
  mask.Clear(255);
  EXPECT_EQ(mask.NextFrom(65), 63);  // wraps past the mask end
}

TEST(CpuMaskTest, ComplementAndIntersection) {
  CpuMask die;
  for (int cpu = 16; cpu < 80; ++cpu) {
    die.Set(cpu);
  }
  CpuMask nest;
  for (int cpu : {0, 20, 79, 80, 200}) {
    nest.Set(cpu);
  }
  EXPECT_EQ(Collect(nest & die), (std::vector<int>{20, 79}));
  EXPECT_EQ(Collect(nest & ~die), (std::vector<int>{0, 80, 200}));
  EXPECT_EQ((~CpuMask()).Count(), CpuMask::kMaxCpus);
  EXPECT_TRUE((die & ~die).Empty());
}

// Rotated walk as the Nest searches do it: clear each visited member and
// restart from it + 1.
std::vector<int> RotatedWalk(CpuMask mask, int start) {
  std::vector<int> out;
  for (int cpu = mask.NextFrom(start); cpu >= 0; cpu = mask.NextFrom(cpu + 1)) {
    mask.Clear(cpu);
    out.push_back(cpu);
  }
  return out;
}

// NextFrom, &, ~ and the rotated walk against a std::set reference on random
// masks, with starts at and around every word boundary.
TEST(CpuMaskTest, RandomizedNextFromAndOperatorsAgainstStdSet) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed);
    for (int round = 0; round < 200; ++round) {
      CpuMask a;
      CpuMask b;
      std::set<int> sa;
      std::set<int> sb;
      // Sparse and dense masks, sometimes confined to one word.
      const double density = rng.NextDouble() < 0.5 ? 0.02 : 0.5;
      const int hi = rng.NextDouble() < 0.25 ? 64 : CpuMask::kMaxCpus;
      for (int cpu = 0; cpu < hi; ++cpu) {
        if (rng.NextDouble() < density) {
          a.Set(cpu);
          sa.insert(cpu);
        }
        if (rng.NextDouble() < 0.5) {
          b.Set(cpu);
          sb.insert(cpu);
        }
      }
      std::set<int> and_ref;
      std::set<int> and_not_ref;
      for (int cpu : sa) {
        (sb.count(cpu) != 0 ? and_ref : and_not_ref).insert(cpu);
      }
      ASSERT_EQ(Collect(a & b), std::vector<int>(and_ref.begin(), and_ref.end()));
      ASSERT_EQ(Collect(a & ~b), std::vector<int>(and_not_ref.begin(), and_not_ref.end()));
      ASSERT_EQ((~a).Count(), CpuMask::kMaxCpus - static_cast<int>(sa.size()));

      std::vector<int> starts = {0, 1, 62, 63, 64, 65, 127, 128, 191, 192, 254, 255,
                                 CpuMask::kMaxCpus};
      starts.push_back(static_cast<int>(rng.NextBounded(CpuMask::kMaxCpus)));
      for (int start : starts) {
        auto it = sa.lower_bound(start);
        const int expect = it != sa.end() ? *it : (sa.empty() ? -1 : *sa.begin());
        ASSERT_EQ(a.NextFrom(start), expect) << "seed " << seed << " start " << start;
        std::vector<int> rotated(sa.lower_bound(start), sa.end());
        rotated.insert(rotated.end(), sa.begin(), sa.lower_bound(start));
        ASSERT_EQ(RotatedWalk(a, start), rotated) << "seed " << seed << " start " << start;
      }
    }
  }
}

}  // namespace
}  // namespace nestsim
