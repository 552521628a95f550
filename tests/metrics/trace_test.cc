#include "src/metrics/trace.h"

#include <gtest/gtest.h>

#include "src/cfs/cfs_policy.h"
#include "src/governors/governors.h"
#include "tests/testing/test_machine.h"

namespace nestsim {
namespace {

struct TraceRig {
  explicit TraceRig(size_t max_segments = 2'000'000)
      : hw(&engine, FixedFreqMachine(1, 4, 1, 1.0)),
        kernel(&engine, &hw, &cfs, &governor),
        recorder(&kernel, max_segments) {
    kernel.AddObserver(&recorder);
    kernel.Start();
  }

  void Run() {
    while (kernel.live_tasks() > 0) {
      ASSERT_TRUE(engine.Step());
    }
  }

  Engine engine;
  HardwareModel hw;
  CfsPolicy cfs;
  PerformanceGovernor governor;
  Kernel kernel;
  TraceRecorder recorder;
};

TEST(TraceTest, RecordsOneSegmentPerStint) {
  TraceRig rig;
  ProgramBuilder b("t");
  b.Compute(2e6).Sleep(Milliseconds(1)).Compute(3e6);
  const int tid = rig.kernel.SpawnInitial(b.Build(), "t", 0, 0)->tid;
  rig.Run();
  const auto segments = rig.recorder.Finish(rig.engine.Now());
  // Two compute stints (segments may be split by speed changes; at fixed
  // frequency they are not).
  ASSERT_EQ(segments.size(), 2u);
  EXPECT_EQ(segments[0].tid, tid);
  EXPECT_EQ(segments[0].end - segments[0].start, 2 * kMillisecond);
  EXPECT_EQ(segments[1].end - segments[1].start, 3 * kMillisecond);
  EXPECT_DOUBLE_EQ(segments[0].freq_ghz, 1.0);
}

TEST(TraceTest, SegmentsSortedByStart) {
  TraceRig rig;
  for (int i = 0; i < 4; ++i) {
    ProgramBuilder b("t");
    b.Compute(1e6).Sleep(Milliseconds(1)).Compute(1e6);
    rig.kernel.SpawnInitial(b.Build(), "t" + std::to_string(i), 0, i);
  }
  rig.Run();
  const auto segments = rig.recorder.Finish(rig.engine.Now());
  for (size_t i = 1; i < segments.size(); ++i) {
    EXPECT_GE(segments[i].start, segments[i - 1].start);
  }
}

TEST(TraceTest, RespectsSegmentCap) {
  TraceRig rig(/*max_segments=*/3);
  for (int i = 0; i < 4; ++i) {
    ProgramBuilder b("t");
    b.Compute(1e6).Sleep(Milliseconds(1)).Compute(1e6);
    rig.kernel.SpawnInitial(b.Build(), "t" + std::to_string(i), 0, i);
  }
  rig.Run();
  // Eight stints happened; only the first three fit under the cap.
  const auto segments = rig.recorder.Finish(rig.engine.Now());
  EXPECT_EQ(segments.size(), 3u);
}

TEST(TraceTest, FinishClosesOpenSegmentMidRun) {
  TraceRig rig;
  ProgramBuilder b("t");
  b.Compute(5e6);  // 5 ms at the fixed 1 GHz
  Task* t = rig.kernel.SpawnInitial(b.Build(), "t", 0, 0);
  while (rig.kernel.live_tasks() > 0 && rig.engine.Now() < 2 * kMillisecond) {
    ASSERT_TRUE(rig.engine.Step());
  }
  ASSERT_GT(rig.kernel.live_tasks(), 0);  // still mid-compute
  const SimTime now = rig.engine.Now();
  const auto segments = rig.recorder.Finish(now);
  ASSERT_EQ(segments.size(), 1u);
  EXPECT_EQ(segments[0].tid, t->tid);
  EXPECT_EQ(segments[0].end, now);
  EXPECT_GT(segments[0].end, segments[0].start);
}

TEST(TraceTest, SummarizeReportsBusyShare) {
  TraceRig rig;
  ProgramBuilder b("t");
  b.Compute(5e6);
  rig.kernel.SpawnInitial(b.Build(), "t", 0, 2);
  rig.Run();
  const auto segments = rig.recorder.Finish(rig.engine.Now());
  const std::string summary = TraceRecorder::Summarize(segments, 0, 10 * kMillisecond);
  EXPECT_NE(summary.find("core   2"), std::string::npos);
  EXPECT_NE(summary.find("50.0%"), std::string::npos);  // 5 ms of a 10 ms window
}

TEST(TraceTest, SummarizeClipsToWindow) {
  TraceRig rig;
  ProgramBuilder b("t");
  b.Compute(8e6);
  rig.kernel.SpawnInitial(b.Build(), "t", 0, 0);
  rig.Run();
  const auto segments = rig.recorder.Finish(rig.engine.Now());
  const std::string summary = TraceRecorder::Summarize(segments, 0, 4 * kMillisecond);
  // Clipped to the 4 ms window, the core is 100% busy.
  EXPECT_NE(summary.find("100.0%"), std::string::npos);
}

}  // namespace
}  // namespace nestsim
