// Open-loop request traffic (src/workloads/requests.h): the lazily drawn
// RequestStream against a copy of the whole-trace loop it replaced, and the
// bounded event queue that drawing lazily buys on one machine.

#include "src/workloads/requests.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <ostream>
#include <string>
#include <vector>

#include "src/core/machine_run.h"

namespace nestsim {
namespace {

// The whole-trace loop RequestWorkload::BuildPlan ran before parts were
// drawn lazily, kept verbatim as the reference the stream must reproduce.
RequestPlan EagerPlan(const RequestSpec& spec, Rng& rng) {
  RequestPlan plan;
  const double peak_rate = spec.arrivals == ArrivalKind::kBursty
                               ? spec.rate_per_s * spec.burst_factor
                               : spec.rate_per_s;
  if (peak_rate <= 0.0 || spec.duration_s <= 0.0) {
    return plan;
  }
  const double mean_gap_s = 1.0 / peak_rate;
  constexpr double kPi = 3.14159265358979323846;
  double t = 0.0;
  while (true) {
    t += rng.NextExponential(mean_gap_s);
    if (t >= spec.duration_s) {
      break;
    }
    double accept = 1.0;
    if (spec.arrivals == ArrivalKind::kBursty) {
      const double phase = std::fmod(t, spec.burst_every_s);
      if (phase >= spec.burst_len_s) {
        accept /= spec.burst_factor;
      }
    }
    if (spec.diurnal_depth > 0.0) {
      accept *= 1.0 - spec.diurnal_depth * 0.5 *
                          (1.0 + std::cos(2.0 * kPi * t / spec.diurnal_period_s));
    }
    if (!rng.NextBool(accept)) {
      continue;
    }
    const SimTime arrival = SecondsF(t);
    const uint64_t req = plan.requests++;
    const std::string base = spec.name + "-req" + std::to_string(req);
    ProgramBuilder parent(base);
    parent.ComputeMs(rng.NextLogNormal(spec.service_ms, spec.service_sigma));
    if (spec.io_pause_ms > 0.0) {
      parent.Sleep(MillisecondsF(rng.NextExponential(spec.io_pause_ms)))
          .ComputeMs(rng.NextLogNormal(spec.service_ms * 0.3, spec.service_sigma));
    }
    plan.parts.push_back({arrival, req, 0, parent.Build(), base});
    for (int f = 0; f < spec.fanout; ++f) {
      ProgramBuilder sub(base + ".s" + std::to_string(f + 1));
      sub.ComputeMs(rng.NextLogNormal(spec.fanout_service_ms, spec.service_sigma));
      plan.parts.push_back({arrival, req, f + 1, sub.Build(), base + ".s" + std::to_string(f + 1)});
    }
  }
  return plan;
}

void ExpectSamePart(const RequestPart& a, const RequestPart& b) {
  EXPECT_EQ(a.arrival, b.arrival);
  EXPECT_EQ(a.request, b.request);
  EXPECT_EQ(a.part, b.part);
  EXPECT_EQ(a.name, b.name);
  ASSERT_NE(a.program, nullptr);
  ASSERT_NE(b.program, nullptr);
  ASSERT_EQ(a.program->ops.size(), b.program->ops.size());
  for (size_t i = 0; i < a.program->ops.size(); ++i) {
    const Op& x = a.program->ops[i];
    const Op& y = b.program->ops[i];
    EXPECT_EQ(x.kind, y.kind);
    EXPECT_EQ(x.work, y.work);  // bit-exact: the same draws
    EXPECT_EQ(x.duration, y.duration);
  }
}

struct StreamCase {
  const char* label;
  RequestSpec spec;
};

void PrintTo(const StreamCase& c, std::ostream* os) { *os << c.label; }

RequestSpec Base() {
  RequestSpec spec;
  spec.name = "t";
  spec.rate_per_s = 3000.0;
  spec.duration_s = 0.2;
  return spec;
}

std::vector<StreamCase> StreamCases() {
  std::vector<StreamCase> cases;
  cases.push_back({"poisson", Base()});
  RequestSpec bursty = Base();
  bursty.arrivals = ArrivalKind::kBursty;
  bursty.burst_every_s = 0.05;
  bursty.burst_len_s = 0.01;
  cases.push_back({"bursty", bursty});
  RequestSpec diurnal = Base();
  diurnal.diurnal_depth = 0.7;
  diurnal.diurnal_period_s = 0.1;
  cases.push_back({"diurnal", diurnal});
  RequestSpec io = Base();
  io.io_pause_ms = 1.0;
  cases.push_back({"io", io});
  RequestSpec fanout = Base();
  fanout.fanout = 3;
  fanout.io_pause_ms = 0.5;
  cases.push_back({"fanout", fanout});
  return cases;
}

class RequestStreamShapeTest : public ::testing::TestWithParam<StreamCase> {};

TEST_P(RequestStreamShapeTest, MatchesBuildPlanAndTheWholeTraceLoop) {
  const RequestSpec& spec = GetParam().spec;
  Rng eager_rng(11), plan_rng(11);
  const RequestPlan eager = EagerPlan(spec, eager_rng);
  const RequestPlan plan = RequestWorkload(spec).BuildPlan(plan_rng);
  // BuildPlan leaves the caller's generator where the whole-trace loop did.
  EXPECT_EQ(plan_rng.NextU64(), eager_rng.NextU64());

  RequestStream stream(spec, Rng(11));
  std::vector<RequestPart> streamed;
  RequestPart part;
  while (stream.Next(&part)) {
    streamed.push_back(part);
  }
  EXPECT_FALSE(stream.Next(&part));  // stays exhausted

  ASSERT_GT(eager.parts.size(), 0u);
  EXPECT_EQ(plan.requests, eager.requests);
  EXPECT_EQ(stream.requests(), eager.requests);
  ASSERT_EQ(plan.parts.size(), eager.parts.size());
  ASSERT_EQ(streamed.size(), eager.parts.size());
  for (size_t i = 0; i < eager.parts.size(); ++i) {
    SCOPED_TRACE("part " + std::to_string(i));
    ExpectSamePart(streamed[i], eager.parts[i]);
    ExpectSamePart(plan.parts[i], eager.parts[i]);
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, RequestStreamShapeTest, ::testing::ValuesIn(StreamCases()),
                         [](const ::testing::TestParamInfo<StreamCase>& info) {
                           return std::string(info.param.label);
                         });

TEST(RequestStreamTest, EmptyTrafficYieldsNothing) {
  RequestSpec spec = Base();
  spec.duration_s = 0.0;
  RequestStream stream(spec, Rng(1));
  RequestPart part;
  EXPECT_FALSE(stream.Next(&part));
  EXPECT_EQ(stream.requests(), 0u);
}

// The high-water marks of the event queue and of the tasks the kernel still
// holds (non-null tasks() slots) on one machine, with the number of parts
// injected: with arrivals streamed and exited tasks reclaimed, both track
// the machine's concurrency, not the length of the trace.
struct QueuePeak {
  size_t pending_max = 0;
  size_t held_max = 0;
  int tasks = 0;
};

QueuePeak RunAndMeasure(double duration_s) {
  ExperimentConfig config;
  config.machine = "intel-6130-2s";
  config.scheduler = SchedulerKind::kNest;
  config.seed = 3;
  RequestSpec spec = Base();
  spec.rate_per_s = 4000.0;
  spec.duration_s = duration_s;
  spec.fanout = 2;
  const RequestWorkload workload(spec);

  Engine engine;
  MachineModel machine(&engine, MachineByName(config.machine), config);
  machine.kernel.Start();
  Rng rng(config.seed);
  workload.Setup(machine.kernel, rng);
  QueuePeak peak;
  size_t first_held = 0;  // every slot below it is reclaimed
  while (machine.kernel.live_tasks() > 0 || machine.kernel.pending_injections() > 0) {
    EXPECT_TRUE(engine.Step());
    peak.pending_max = std::max(peak.pending_max, engine.pending_events());
    const TaskTable& tasks = machine.kernel.tasks();
    while (first_held < tasks.size() && tasks[first_held] == nullptr) {
      ++first_held;
    }
    size_t held = 0;
    for (size_t i = first_held; i < tasks.size(); ++i) {
      held += tasks[i] != nullptr ? 1 : 0;
    }
    peak.held_max = std::max(peak.held_max, held);
  }
  peak.tasks = static_cast<int>(machine.kernel.tasks().size());
  return peak;
}

TEST(RequestStreamTest, PendingEventsStayFlatInSimulatedDuration) {
  const QueuePeak short_run = RunAndMeasure(1.0);
  const QueuePeak long_run = RunAndMeasure(4.0);
  EXPECT_GT(long_run.tasks, 3 * short_run.tasks);
  // Both peaks (26 and 30 events when this was written) stay below one
  // event per CPU of the 64-CPU machine: the queue holds in-flight work and
  // the next arrival, where a whole-trace push queued every one of the short
  // run's ~12k parts at once.
  const size_t bound = 64;
  EXPECT_LT(short_run.pending_max, bound);
  EXPECT_LT(long_run.pending_max, bound);
  // Exited tasks are freed, so the kernel holds 25 and 27 tasks at its peak
  // (when this was written), not the ~48k the 4 s run creates.
  EXPECT_LT(short_run.held_max, bound);
  EXPECT_LT(long_run.held_max, bound);
}

}  // namespace
}  // namespace nestsim
