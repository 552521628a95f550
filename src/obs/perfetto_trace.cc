#include "src/obs/perfetto_trace.h"

#include <algorithm>
#include <cstdio>

#include "src/obs/json_check.h"

namespace nestsim {

namespace {

// {"task":"<name>","tid":<tid> with the object left open for more fields.
std::string OpenTaskArgs(const Task& task) {
  std::string args = "{\"task\":";
  AppendJsonQuoted(args, task.name);
  args += ",\"tid\":";
  args += std::to_string(task.tid);
  return args;
}

std::string TaskArgs(const Task& task) { return OpenTaskArgs(task) + '}'; }

// Microseconds with nanosecond precision, the unit chrome trace JSON expects.
void AppendMicros(std::string& out, SimTime ns) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.3f", static_cast<double>(ns) / 1000.0);
  out += buf;
}

}  // namespace

PerfettoTraceWriter::PerfettoTraceWriter(Kernel* kernel, size_t max_events)
    : kernel_(kernel), max_events_(max_events) {
  const Topology& topo = kernel_->topology();
  open_stint_.resize(topo.num_cpus());
  open_spin_.resize(topo.num_cpus());

  // Track metadata first: three synthetic processes, one thread per CPU.
  auto meta = [this](int pid, int tid, const char* what, const std::string& value) {
    TraceEvent ev;
    ev.ph = 'M';
    ev.pid = pid;
    ev.tid = tid;
    ev.name = what;
    ev.args = "{\"name\":";
    AppendJsonQuoted(ev.args, value);
    ev.args += '}';
    events_.push_back(std::move(ev));
  };
  meta(kPidCpu, 0, "process_name", "cpu activity");
  meta(kPidFreq, 0, "process_name", "core frequency (GHz)");
  meta(kPidSocket, 0, "process_name", "socket power & turbo");
  meta(kPidCache, 0, "process_name", "cache warmth");
  for (int cpu = 0; cpu < topo.num_cpus(); ++cpu) {
    meta(kPidCpu, cpu, "thread_name", "cpu " + std::to_string(cpu));
  }

  // Seed every frequency counter track so the plot starts at the true value
  // instead of the first change.
  const SimTime now = kernel_->engine().Now();
  for (int phys = 0; phys < topo.num_physical_cores(); ++phys) {
    const int cpu = topo.CpusOfPhysCore(phys).front();
    PushCounter(now, kPidFreq, "core" + std::to_string(phys), "GHz",
                kernel_->hw().FreqGhz(cpu));
  }
}

void PerfettoTraceWriter::Push(TraceEvent ev) {
  if (finished_) {
    return;
  }
  if (events_.size() >= max_events_) {
    ++dropped_;
    return;
  }
  events_.push_back(std::move(ev));
}

void PerfettoTraceWriter::PushCounter(SimTime now, int pid, const std::string& track,
                                      const char* unit_key, double value) {
  TraceEvent ev;
  ev.ts = now;
  ev.ph = 'C';
  ev.pid = pid;
  ev.name = track;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "{\"%s\":%.4f}", unit_key, value);
  ev.args = buf;
  Push(std::move(ev));
}

void PerfettoTraceWriter::OnContextSwitch(SimTime now, int cpu, const Task* prev,
                                          const Task* next) {
  OpenSlice& stint = open_stint_[cpu];
  if (prev != nullptr && stint.active) {
    TraceEvent ev;
    ev.ts = stint.start;
    ev.dur = now - stint.start;
    ev.ph = 'X';
    ev.pid = kPidCpu;
    ev.tid = cpu;
    ev.name = std::move(stint.name);
    ev.args = std::move(stint.args);
    Push(std::move(ev));
  }
  stint.active = false;
  if (next != nullptr) {
    stint.active = true;
    stint.start = now;
    stint.name = next->name.empty() ? "tid " + std::to_string(next->tid) : next->name;
    stint.args = TaskArgs(*next);
  }
}

void PerfettoTraceWriter::OnTaskPlaced(SimTime now, const Task& task, int cpu, bool is_fork) {
  TraceEvent ev;
  ev.ts = now;
  ev.ph = 'i';
  ev.pid = kPidCpu;
  ev.tid = cpu;
  ev.name = std::string("place:") + PlacementPathName(task.placement_path);
  std::string args = OpenTaskArgs(task);
  args += ",\"fork\":";
  args += is_fork ? "true" : "false";
  args += '}';
  ev.args = std::move(args);
  Push(std::move(ev));

  // Flow arrow from selection to the enqueue that lands placement_latency
  // later — the §3.4 collision window made visible.
  const uint64_t id = next_flow_id_++;
  if (static_cast<size_t>(task.tid) >= pending_flow_.size()) {
    pending_flow_.resize(task.tid + 1, 0);
  }
  pending_flow_[task.tid] = id;
  TraceEvent flow;
  flow.ts = now;
  flow.ph = 's';
  flow.pid = kPidCpu;
  flow.tid = cpu;
  flow.flow_id = id;
  flow.name = "place-enqueue";
  Push(std::move(flow));
}

void PerfettoTraceWriter::OnTaskEnqueued(SimTime now, const Task& task, int cpu) {
  if (static_cast<size_t>(task.tid) >= pending_flow_.size() || pending_flow_[task.tid] == 0) {
    return;  // requeue/migration enqueues carry no placement flow
  }
  const uint64_t id = pending_flow_[task.tid];
  pending_flow_[task.tid] = 0;
  TraceEvent ev;
  ev.ts = now;
  ev.ph = 'i';
  ev.pid = kPidCpu;
  ev.tid = cpu;
  ev.name = "enqueue";
  ev.args = TaskArgs(task);
  Push(std::move(ev));
  TraceEvent flow;
  flow.ts = now;
  flow.ph = 'f';
  flow.pid = kPidCpu;
  flow.tid = cpu;
  flow.flow_id = id;
  flow.name = "place-enqueue";
  Push(std::move(flow));
}

void PerfettoTraceWriter::OnReservationCollision(SimTime now, const Task& task, int cpu) {
  TraceEvent ev;
  ev.ts = now;
  ev.ph = 'i';
  ev.pid = kPidCpu;
  ev.tid = cpu;
  ev.name = "collision";
  ev.args = TaskArgs(task);
  Push(std::move(ev));
}

void PerfettoTraceWriter::OnTaskMigrated(SimTime now, const Task& task, int from_cpu,
                                         int to_cpu, MigrationReason reason) {
  TraceEvent ev;
  ev.ts = now;
  ev.ph = 'i';
  ev.pid = kPidCpu;
  ev.tid = to_cpu;
  ev.name = std::string("migrate:") + MigrationReasonName(reason);
  std::string args = OpenTaskArgs(task);
  args += ",\"from\":";
  args += std::to_string(from_cpu);
  args += ",\"to\":";
  args += std::to_string(to_cpu);
  args += '}';
  ev.args = std::move(args);
  Push(std::move(ev));
}

void PerfettoTraceWriter::OnNestEvent(SimTime now, NestEventKind kind, int cpu) {
  TraceEvent ev;
  ev.ts = now;
  ev.ph = 'i';
  ev.pid = kPidCpu;
  ev.tid = cpu;
  ev.name = std::string("nest:") + NestEventKindName(kind);
  Push(std::move(ev));
}

void PerfettoTraceWriter::OnIdleSpinStart(SimTime now, int cpu, int max_ticks) {
  OpenSlice& spin = open_spin_[cpu];
  spin.active = true;
  spin.start = now;
  spin.name = "idle-spin";
  spin.args = "{\"max_ticks\":" + std::to_string(max_ticks);
}

void PerfettoTraceWriter::OnIdleSpinEnd(SimTime now, int cpu, bool became_busy) {
  OpenSlice& spin = open_spin_[cpu];
  if (!spin.active) {
    return;
  }
  spin.active = false;
  TraceEvent ev;
  ev.ts = spin.start;
  ev.dur = now - spin.start;
  ev.ph = 'X';
  ev.pid = kPidCpu;
  ev.tid = cpu;
  ev.name = std::move(spin.name);
  ev.args = std::move(spin.args) + (became_busy ? ",\"became_busy\":true}" : ",\"became_busy\":false}");
  Push(std::move(ev));
}

void PerfettoTraceWriter::OnCoreFreqChange(SimTime now, int phys_core, double freq_ghz) {
  PushCounter(now, kPidFreq, "core" + std::to_string(phys_core), "GHz", freq_ghz);
}

void PerfettoTraceWriter::OnCacheEvent(SimTime now, const Task& task, CacheEventKind kind,
                                       int cpu, double warmth) {
  TraceEvent ev;
  ev.ts = now;
  ev.ph = 'i';
  ev.pid = kPidCpu;
  ev.tid = cpu;
  ev.name = std::string("cache:") + CacheEventKindName(kind);
  std::string args = OpenTaskArgs(task);
  char warmth_buf[32];
  std::snprintf(warmth_buf, sizeof(warmth_buf), ",\"warmth\":%.4f}", warmth);
  args += warmth_buf;
  ev.args = std::move(args);
  Push(std::move(ev));

  // Cross-die events ride along with the warm/cold classification of the
  // same resume; only the classification samples the counter track.
  if (kind != CacheEventKind::kCrossDieMigration) {
    const int socket = kernel_->topology().SocketOf(cpu);
    PushCounter(now, kPidCache, "llc" + std::to_string(socket) + " resume warmth", "warmth",
                warmth);
  }
}

void PerfettoTraceWriter::OnFaultEvent(SimTime now, FaultEventKind kind, int cpu,
                                       const Task* task) {
  TraceEvent ev;
  ev.ts = now;
  ev.ph = 'i';
  ev.pid = kPidCpu;
  ev.tid = cpu >= 0 ? cpu : 0;  // machine-level events land on cpu0's track
  ev.name = std::string("fault:") + FaultEventKindName(kind);
  if (task != nullptr) {
    ev.args = TaskArgs(*task);
  }
  Push(std::move(ev));
}

void PerfettoTraceWriter::OnBudgetState(SimTime now, int socket, double headroom_w,
                                        bool throttled) {
  (void)throttled;  // visible as the headroom dipping below zero
  PushCounter(now, kPidSocket, "socket" + std::to_string(socket) + " budget headroom W", "W",
              headroom_w);
}

void PerfettoTraceWriter::OnTick(SimTime now) {
  const Topology& topo = kernel_->topology();
  HardwareModel& hw = kernel_->hw();
  for (int s = 0; s < topo.num_sockets(); ++s) {
    PushCounter(now, kPidSocket, "socket" + std::to_string(s) + " W", "W",
                hw.SocketPowerWatts(s));
    PushCounter(now, kPidSocket, "socket" + std::to_string(s) + " turbo licenses", "licenses",
                static_cast<double>(hw.TurboLicensesOnSocket(s)));
  }
}

void PerfettoTraceWriter::Finish(SimTime end) {
  if (finished_) {
    return;
  }
  for (int cpu = 0; cpu < static_cast<int>(open_stint_.size()); ++cpu) {
    OpenSlice& stint = open_stint_[cpu];
    if (stint.active) {
      TraceEvent ev;
      ev.ts = stint.start;
      ev.dur = end > stint.start ? end - stint.start : 0;
      ev.ph = 'X';
      ev.pid = kPidCpu;
      ev.tid = cpu;
      ev.name = std::move(stint.name);
      ev.args = std::move(stint.args);
      Push(std::move(ev));
      stint.active = false;
    }
    OpenSlice& spin = open_spin_[cpu];
    if (spin.active) {
      TraceEvent ev;
      ev.ts = spin.start;
      ev.dur = end > spin.start ? end - spin.start : 0;
      ev.ph = 'X';
      ev.pid = kPidCpu;
      ev.tid = cpu;
      ev.name = std::move(spin.name);
      ev.args = std::move(spin.args) + ",\"became_busy\":false}";
      Push(std::move(ev));
      spin.active = false;
    }
  }
  finished_ = true;
  // Stable so same-timestamp events keep emission order; metadata stays first.
  std::stable_sort(events_.begin(), events_.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     const bool a_meta = a.ph == 'M';
                     const bool b_meta = b.ph == 'M';
                     if (a_meta != b_meta) {
                       return a_meta;
                     }
                     return a.ts < b.ts;
                   });
}

std::string PerfettoTraceWriter::Serialize() const {
  std::string out = "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  bool first = true;
  for (const TraceEvent& ev : events_) {
    if (!first) {
      out += ',';
    }
    first = false;
    out += "{\"name\":";
    AppendJsonQuoted(out, ev.name);
    out += ",\"ph\":\"";
    out += ev.ph;
    out += "\",\"pid\":";
    out += std::to_string(ev.pid);
    out += ",\"tid\":";
    out += std::to_string(ev.tid);
    if (ev.ph != 'M') {
      out += ",\"ts\":";
      AppendMicros(out, ev.ts);
    }
    if (ev.ph == 'X') {
      out += ",\"dur\":";
      AppendMicros(out, ev.dur);
    }
    if (ev.ph == 'i') {
      out += ",\"s\":\"t\"";
    }
    if (ev.ph == 's' || ev.ph == 'f') {
      out += ",\"id\":";
      out += std::to_string(ev.flow_id);
      if (ev.ph == 'f') {
        out += ",\"bp\":\"e\"";
      }
    }
    if (!ev.args.empty()) {
      out += ",\"args\":";
      out += ev.args;
    }
    out += '}';
  }
  out += "]}";
  return out;
}

bool PerfettoTraceWriter::WriteFile(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  const std::string doc = Serialize();
  const size_t written = std::fwrite(doc.data(), 1, doc.size(), f);
  const int close_rc = std::fclose(f);
  return written == doc.size() && close_rc == 0;
}

}  // namespace nestsim
