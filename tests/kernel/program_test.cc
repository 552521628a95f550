#include "src/kernel/program.h"

#include <gtest/gtest.h>

namespace nestsim {
namespace {

TEST(ProgramBuilderTest, EmptyProgram) {
  ProgramPtr p = ProgramBuilder("empty").Build();
  EXPECT_TRUE(p->ops.empty());
}

TEST(ProgramBuilderTest, ComputeWorkUnits) {
  ProgramBuilder b("c");
  b.Compute(5e6);
  ProgramPtr p = b.Build();
  ASSERT_EQ(p->ops.size(), 1u);
  EXPECT_EQ(p->ops[0].kind, OpKind::kCompute);
  EXPECT_DOUBLE_EQ(p->ops[0].work, 5e6);
}

TEST(ProgramBuilderTest, ZeroComputeIsDropped) {
  ProgramBuilder b("c");
  b.Compute(0.0).ComputeMs(0.0);
  EXPECT_TRUE(b.Build()->ops.empty());
}

TEST(ProgramBuilderTest, ComputeMsAtScalesWithFrequency) {
  ProgramBuilder b("c");
  b.ComputeMsAt(2.0, 3.0);  // 2 ms at 3 GHz = 6e6 GHz-ns
  EXPECT_DOUBLE_EQ(b.Build()->ops[0].work, 6e6);
}

TEST(ProgramBuilderTest, ComputeMsUsesCalibrationFrequency) {
  ProgramBuilder b("c");
  b.ComputeMs(1.0);
  EXPECT_DOUBLE_EQ(b.Build()->ops[0].work, 1e6 * ProgramBuilder::kCalibrationGhz);
}

TEST(ProgramBuilderTest, FluentChainBuildsAllOps) {
  ProgramBuilder child("child");
  child.ComputeMs(1.0);
  ProgramBuilder b("main");
  b.ComputeMs(0.5)
      .Sleep(Milliseconds(2))
      .Fork(child.Build())
      .JoinChildren()
      .Barrier(3)
      .Send(4)
      .Recv(4)
      .Exit();
  ProgramPtr p = b.Build();
  ASSERT_EQ(p->ops.size(), 8u);
  EXPECT_EQ(p->ops[0].kind, OpKind::kCompute);
  EXPECT_EQ(p->ops[1].kind, OpKind::kSleep);
  EXPECT_EQ(p->ops[1].duration, Milliseconds(2));
  EXPECT_EQ(p->ops[2].kind, OpKind::kFork);
  ASSERT_NE(p->ops[2].child, nullptr);
  EXPECT_EQ(p->ops[3].kind, OpKind::kJoinChildren);
  EXPECT_EQ(p->ops[3].id, 0);
  EXPECT_EQ(p->ops[4].kind, OpKind::kBarrier);
  EXPECT_EQ(p->ops[4].id, 3);
  EXPECT_EQ(p->ops[5].kind, OpKind::kSend);
  EXPECT_EQ(p->ops[6].kind, OpKind::kRecv);
  EXPECT_EQ(p->ops[7].kind, OpKind::kExit);
}

TEST(ProgramBuilderTest, JoinThreshold) {
  ProgramBuilder b("j");
  b.JoinChildren(3);
  EXPECT_EQ(b.Build()->ops[0].id, 3);
}

TEST(ProgramBuilderTest, LoopsBalance) {
  ProgramBuilder b("loop");
  b.Loop(10).ComputeMs(1.0).EndLoop();
  ProgramPtr p = b.Build();
  ASSERT_EQ(p->ops.size(), 3u);
  EXPECT_EQ(p->ops[0].kind, OpKind::kLoopBegin);
  EXPECT_EQ(p->ops[0].count, 10);
  EXPECT_EQ(p->ops[2].kind, OpKind::kLoopEnd);
}

TEST(ProgramBuilderDeathTest, UnbalancedLoopAborts) {
  EXPECT_DEATH(
      {
        ProgramBuilder b("bad");
        b.Loop(2).ComputeMs(1.0);
        b.Build();
      },
      "unbalanced Loop");
}

TEST(ProgramBuilderDeathTest, EndLoopWithoutLoopAborts) {
  EXPECT_DEATH(
      {
        ProgramBuilder b("bad");
        b.EndLoop();
      },
      "EndLoop without Loop");
}

TEST(TotalWorkTest, SumsComputeOps) {
  ProgramBuilder b("w");
  b.Compute(100).Sleep(kMillisecond).Compute(200);
  EXPECT_DOUBLE_EQ(TotalWork(*b.Build()), 300.0);
}

TEST(TotalWorkTest, LoopsMultiply) {
  ProgramBuilder b("w");
  b.Loop(5).Compute(10).EndLoop();
  EXPECT_DOUBLE_EQ(TotalWork(*b.Build()), 50.0);
}

TEST(TotalWorkTest, NestedLoopsMultiply) {
  ProgramBuilder b("w");
  b.Loop(3).Loop(4).Compute(2).EndLoop().Compute(1).EndLoop();
  EXPECT_DOUBLE_EQ(TotalWork(*b.Build()), 3 * (4 * 2 + 1));
}

TEST(TotalWorkTest, DescendsIntoForkedChildren) {
  ProgramBuilder child("child");
  child.Compute(7);
  ProgramBuilder b("w");
  b.Compute(1).Fork(child.Build()).Fork(ProgramBuilder("e").Compute(2).Build());
  EXPECT_DOUBLE_EQ(TotalWork(*b.Build()), 10.0);
}

TEST(TotalWorkTest, ForkInsideLoopMultiplies) {
  ProgramBuilder child("child");
  child.Compute(3);
  ProgramBuilder b("w");
  b.Loop(4).Fork(child.Build()).JoinChildren().EndLoop();
  EXPECT_DOUBLE_EQ(TotalWork(*b.Build()), 12.0);
}

}  // namespace
}  // namespace nestsim
