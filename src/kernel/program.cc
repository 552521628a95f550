#include "src/kernel/program.h"

#include <cassert>
#include <cstdio>
#include <cstdlib>

namespace nestsim {

ProgramBuilder& ProgramBuilder::Compute(double work_ghz_ns) {
  assert(work_ghz_ns >= 0.0);
  if (work_ghz_ns > 0.0) {
    Op op;
    op.kind = OpKind::kCompute;
    op.work = work_ghz_ns;
    ops_.push_back(op);
  }
  return *this;
}

ProgramBuilder& ProgramBuilder::ComputeMsAt(double ms, double ghz) {
  return Compute(ms * 1e6 * ghz);
}

ProgramBuilder& ProgramBuilder::Sleep(SimDuration d) {
  assert(d >= 0);
  Op op;
  op.kind = OpKind::kSleep;
  op.duration = d;
  ops_.push_back(op);
  return *this;
}

ProgramBuilder& ProgramBuilder::Fork(ProgramPtr child) {
  assert(child != nullptr);
  Op op;
  op.kind = OpKind::kFork;
  op.child = std::move(child);
  ops_.push_back(op);
  return *this;
}

ProgramBuilder& ProgramBuilder::JoinChildren(int remaining) {
  assert(remaining >= 0);
  Op op;
  op.kind = OpKind::kJoinChildren;
  op.id = remaining;
  ops_.push_back(op);
  return *this;
}

ProgramBuilder& ProgramBuilder::Barrier(int barrier_id) {
  Op op;
  op.kind = OpKind::kBarrier;
  op.id = barrier_id;
  ops_.push_back(op);
  return *this;
}

ProgramBuilder& ProgramBuilder::Send(int channel_id) {
  Op op;
  op.kind = OpKind::kSend;
  op.id = channel_id;
  ops_.push_back(op);
  return *this;
}

ProgramBuilder& ProgramBuilder::Recv(int channel_id) {
  Op op;
  op.kind = OpKind::kRecv;
  op.id = channel_id;
  ops_.push_back(op);
  return *this;
}

ProgramBuilder& ProgramBuilder::Loop(int count) {
  assert(count >= 0);
  Op op;
  op.kind = OpKind::kLoopBegin;
  op.count = count;
  ops_.push_back(op);
  ++open_loops_;
  return *this;
}

ProgramBuilder& ProgramBuilder::EndLoop() {
  if (open_loops_ <= 0) {
    std::fprintf(stderr, "nestsim: EndLoop without Loop in program '%s'\n", name_.c_str());
    std::abort();
  }
  Op op;
  op.kind = OpKind::kLoopEnd;
  ops_.push_back(op);
  --open_loops_;
  return *this;
}

ProgramBuilder& ProgramBuilder::Exit() {
  Op op;
  op.kind = OpKind::kExit;
  ops_.push_back(op);
  return *this;
}

void ProgramBuilder::CheckBalanced() const {
  if (open_loops_ != 0) {
    std::fprintf(stderr, "nestsim: unbalanced Loop in program '%s'\n", name_.c_str());
    std::abort();
  }
}

ProgramPtr ProgramBuilder::Build() const& {
  CheckBalanced();
  // Snapshot, not move: a builder stays usable, so callers can Build() the
  // same program for several tasks.
  auto program = std::make_shared<Program>();
  program->ops = ops_;
  return program;
}

ProgramPtr ProgramBuilder::Build() && {
  CheckBalanced();
  auto program = std::make_shared<Program>();
  program->ops = std::move(ops_);
  return program;
}

namespace {

// Walks ops in [begin, end), returning total work; loops multiply.
double WorkInRange(const std::vector<Op>& ops, size_t begin, size_t end) {
  double total = 0.0;
  size_t i = begin;
  while (i < end) {
    const Op& op = ops[i];
    switch (op.kind) {
      case OpKind::kCompute:
        total += op.work;
        ++i;
        break;
      case OpKind::kFork:
        total += TotalWork(*op.child);
        ++i;
        break;
      case OpKind::kLoopBegin: {
        // Find the matching kLoopEnd.
        int depth = 1;
        size_t j = i + 1;
        for (; j < end && depth > 0; ++j) {
          if (ops[j].kind == OpKind::kLoopBegin) {
            ++depth;
          } else if (ops[j].kind == OpKind::kLoopEnd) {
            --depth;
          }
        }
        total += op.count * WorkInRange(ops, i + 1, j - 1);
        i = j;
        break;
      }
      default:
        ++i;
        break;
    }
  }
  return total;
}

}  // namespace

double TotalWork(const Program& program) {
  return WorkInRange(program.ops, 0, program.ops.size());
}

}  // namespace nestsim
