#include "src/scenario/registry.h"

#include <cstdlib>

#include "src/workloads/configure.h"
#include "src/workloads/dacapo.h"
#include "src/workloads/micro.h"
#include "src/workloads/multi.h"
#include "src/workloads/nas.h"
#include "src/workloads/phoronix.h"
#include "src/workloads/requests.h"
#include "src/workloads/server.h"

namespace nestsim {

const std::vector<std::string>* WorkloadFamily::FindGroup(const std::string& group) const {
  for (const auto& [name, rows] : groups) {
    if (name == group) {
      return &rows;
    }
  }
  return nullptr;
}

namespace {

bool Contains(const std::vector<std::string>& names, const std::string& name) {
  for (const std::string& n : names) {
    if (n == name) {
      return true;
    }
  }
  return false;
}

// "synthetic-<i>" → i, or -1. Used by the phoronix family for Table 4's
// synthetic population.
int SyntheticIndex(const std::string& row) {
  const std::string prefix = "synthetic-";
  if (row.size() <= prefix.size() || row.compare(0, prefix.size(), prefix) != 0) {
    return -1;
  }
  const std::string digits = row.substr(prefix.size());
  for (const char c : digits) {
    if (c < '0' || c > '9') {
      return -1;
    }
  }
  return std::atoi(digits.c_str());
}

// Guards a builder body: true when `err` grew since `before` (the row is
// invalid and the builder must return nullptr).
bool Grew(const ScenarioError& err, size_t before) { return err.errors.size() != before; }

// Reads an optional "preset" param naming the spec to start from.
template <typename SpecT>
void TakePresetBase(SpecReader& reader, const std::vector<std::string>& presets,
                    SpecT (*factory)(const std::string&), SpecT* spec) {
  std::string preset;
  if (reader.TakeString("preset", &preset)) {
    if (Contains(presets, preset)) {
      *spec = factory(preset);
    } else {
      reader.AddError("unknown preset \"" + preset + "\" (known: " + JoinNames(presets) + ")");
    }
  }
}

std::unique_ptr<Workload> BuildConfigure(const std::string& row, const JsonValue* params,
                                         const std::string& path, ScenarioError& err) {
  const size_t before = err.errors.size();
  ConfigureSpec spec;
  const auto names = ConfigureWorkload::PackageNames();
  if (Contains(names, row)) {
    spec = ConfigureWorkload::PackageSpec(row);
  } else if (params == nullptr) {
    err.Add(path, "\"" + row + "\" is not a configure package (known: " + JoinNames(names) +
                      "); custom rows need \"params\"");
    return nullptr;
  }
  if (params != nullptr) {
    SpecReader reader(*params, path, err);
    TakePresetBase(reader, names, &ConfigureWorkload::PackageSpec, &spec);
    spec.package = row;
    reader.TakeInt("num_tests", &spec.num_tests, 1, 1000000);
    reader.TakeDouble("parent_overhead_ms", &spec.parent_overhead_ms, 0.0, 1e4);
    reader.TakeDouble("post_fork_overhead_ms", &spec.post_fork_overhead_ms, 0.0, 1e4);
    reader.TakeDouble("child_work_ms", &spec.child_work_ms, 0.0, 1e5);
    reader.TakeDouble("child_sigma", &spec.child_sigma, 0.0, 4.0);
    reader.TakeDouble("pipeline_prob", &spec.pipeline_prob, 0.0, 1.0);
    reader.TakeDouble("concurrent_prob", &spec.concurrent_prob, 0.0, 1.0);
    reader.TakeDouble("long_test_prob", &spec.long_test_prob, 0.0, 1.0);
    reader.Finish();
  }
  if (Grew(err, before)) {
    return nullptr;
  }
  return std::make_unique<ConfigureWorkload>(spec);
}

std::unique_ptr<Workload> BuildDacapo(const std::string& row, const JsonValue* params,
                                      const std::string& path, ScenarioError& err) {
  const size_t before = err.errors.size();
  DacapoSpec spec;
  const auto names = DacapoWorkload::AppNames();
  if (Contains(names, row)) {
    spec = DacapoWorkload::AppSpec(row);
  } else if (params == nullptr) {
    err.Add(path, "\"" + row + "\" is not a dacapo application (known: " + JoinNames(names) +
                      "); custom rows need \"params\"");
    return nullptr;
  }
  if (params != nullptr) {
    SpecReader reader(*params, path, err);
    TakePresetBase(reader, names, &DacapoWorkload::AppSpec, &spec);
    spec.app = row;
    reader.TakeInt("workers", &spec.workers, 0, 100000);
    reader.TakeDouble("compute_ms", &spec.compute_ms, 0.0, 1e5);
    reader.TakeDouble("sigma", &spec.sigma, 0.0, 4.0);
    reader.TakeDouble("sleep_ms", &spec.sleep_ms, 0.0, 1e5);
    reader.TakeInt("iterations", &spec.iterations, 1, 1000000);
    reader.TakeDouble("lock_fraction", &spec.lock_fraction, 0.0, 1.0);
    reader.TakeInt("lock_tokens", &spec.lock_tokens, 0, 100000);
    reader.TakeBool("churn", &spec.churn);
    reader.TakeInt("churn_batches", &spec.churn_batches, 0, 100000);
    reader.TakeInt("churn_iterations", &spec.churn_iterations, 1, 1000000);
    reader.TakeInt("aux_threads", &spec.aux_threads, 0, 100000);
    reader.TakeDouble("aux_compute_ms", &spec.aux_compute_ms, 0.0, 1e5);
    reader.TakeDouble("aux_period_ms", &spec.aux_period_ms, 1e-3, 1e6);
    reader.Finish();
  }
  if (Grew(err, before)) {
    return nullptr;
  }
  return std::make_unique<DacapoWorkload>(spec);
}

std::unique_ptr<Workload> BuildNas(const std::string& row, const JsonValue* params,
                                   const std::string& path, ScenarioError& err) {
  const size_t before = err.errors.size();
  NasSpec spec;
  const auto names = NasWorkload::KernelNames();
  if (Contains(names, row)) {
    spec = NasWorkload::KernelSpec(row);
  } else if (params == nullptr) {
    err.Add(path, "\"" + row + "\" is not a NAS kernel (known: " + JoinNames(names) +
                      "); custom rows need \"params\"");
    return nullptr;
  }
  if (params != nullptr) {
    SpecReader reader(*params, path, err);
    TakePresetBase(reader, names, &NasWorkload::KernelSpec, &spec);
    spec.kernel_name = row;
    reader.TakeDouble("iter_compute_ms", &spec.iter_compute_ms, 0.0, 1e5);
    reader.TakeInt("iterations", &spec.iterations, 1, 1000000);
    reader.TakeDouble("jitter", &spec.jitter, 0.0, 1.0);
    reader.TakeInt("threads", &spec.threads, 0, 100000);
    reader.TakeDouble("serial_setup_ms", &spec.serial_setup_ms, 0.0, 1e6);
    reader.Finish();
  }
  if (Grew(err, before)) {
    return nullptr;
  }
  return std::make_unique<NasWorkload>(spec);
}

std::unique_ptr<Workload> BuildPhoronix(const std::string& row, const JsonValue* params,
                                        const std::string& path, ScenarioError& err) {
  const size_t before = err.errors.size();
  PhoronixSpec spec;
  const auto names = PhoronixWorkload::Figure13TestNames();
  const int synthetic = SyntheticIndex(row);
  if (Contains(names, row)) {
    spec = PhoronixWorkload::TestSpec(row);
  } else if (synthetic >= 0) {
    spec = PhoronixWorkload::SyntheticSpec(synthetic);
  } else if (params == nullptr) {
    err.Add(path, "\"" + row + "\" is not a phoronix test (known: " + JoinNames(names) +
                      ", synthetic-<i>); custom rows need \"params\"");
    return nullptr;
  }
  if (params != nullptr) {
    SpecReader reader(*params, path, err);
    TakePresetBase(reader, names, &PhoronixWorkload::TestSpec, &spec);
    spec.test = row;
    std::string style;
    if (reader.TakeEnum("style", &style,
                        {"pool", "openmp", "pipeline", "full_parallel", "serial_bursts"})) {
      spec.style = style == "pool"            ? PhoronixStyle::kPool
                   : style == "openmp"        ? PhoronixStyle::kOpenMp
                   : style == "pipeline"      ? PhoronixStyle::kPipeline
                   : style == "full_parallel" ? PhoronixStyle::kFullParallel
                                              : PhoronixStyle::kSerialBursts;
    }
    reader.TakeInt("threads", &spec.threads, 0, 100000);
    reader.TakeDouble("item_ms", &spec.item_ms, 0.0, 1e5);
    reader.TakeDouble("sigma", &spec.sigma, 0.0, 4.0);
    reader.TakeInt("items", &spec.items, 1, 1000000);
    reader.TakeDouble("gap_ms", &spec.gap_ms, 0.0, 1e5);
    reader.Finish();
  }
  if (Grew(err, before)) {
    return nullptr;
  }
  return std::make_unique<PhoronixWorkload>(spec);
}

std::unique_ptr<Workload> BuildServer(const std::string& row, const JsonValue* params,
                                      const std::string& path, ScenarioError& err) {
  const size_t before = err.errors.size();
  ServerSpec spec;
  const auto names = ServerWorkload::TestNames();
  if (Contains(names, row)) {
    spec = ServerWorkload::TestSpec(row);
  } else if (params == nullptr) {
    err.Add(path, "\"" + row + "\" is not a server test (known: " + JoinNames(names) +
                      "); custom rows need \"params\"");
    return nullptr;
  }
  if (params != nullptr) {
    SpecReader reader(*params, path, err);
    TakePresetBase(reader, names, &ServerWorkload::TestSpec, &spec);
    spec.name = row;
    std::string style;
    if (reader.TakeEnum("style", &style, {"thread_per_request", "event_loop", "key_value_store"})) {
      spec.style = style == "thread_per_request" ? ServerStyle::kThreadPerRequest
                   : style == "event_loop"       ? ServerStyle::kEventLoop
                                                 : ServerStyle::kKeyValueStore;
    }
    reader.TakeInt("workers", &spec.workers, 1, 100000);
    reader.TakeInt("clients", &spec.clients, 1, 100000);
    reader.TakeInt("requests_per_client", &spec.requests_per_client, 1, 1000000);
    reader.TakeDouble("service_ms", &spec.service_ms, 0.0, 1e5);
    reader.TakeDouble("service_sigma", &spec.service_sigma, 0.0, 4.0);
    reader.TakeDouble("io_pause_ms", &spec.io_pause_ms, 0.0, 1e5);
    reader.TakeDouble("client_think_ms", &spec.client_think_ms, 0.0, 1e5);
    reader.Finish();
  }
  if (Grew(err, before)) {
    return nullptr;
  }
  return std::make_unique<ServerWorkload>(spec);
}

std::unique_ptr<Workload> BuildRequests(const std::string& row, const JsonValue* params,
                                        const std::string& path, ScenarioError& err) {
  const size_t before = err.errors.size();
  RequestSpec spec;
  spec.name = row;
  if (params != nullptr) {
    SpecReader reader(*params, path, err);
    reader.TakeDouble("rate_per_s", &spec.rate_per_s, 1e-3, 1e6);
    std::string arrivals;
    if (reader.TakeEnum("arrivals", &arrivals, {"poisson", "bursty"})) {
      ArrivalKindFromName(arrivals, &spec.arrivals);
    }
    reader.TakeDouble("duration_s", &spec.duration_s, 1e-3, 1e4);
    reader.TakeDouble("burst_every_s", &spec.burst_every_s, 1e-3, 1e4);
    reader.TakeDouble("burst_len_s", &spec.burst_len_s, 1e-3, 1e4);
    reader.TakeDouble("burst_factor", &spec.burst_factor, 1.0, 1e3);
    reader.TakeDouble("service_ms", &spec.service_ms, 0.0, 1e5);
    reader.TakeDouble("service_sigma", &spec.service_sigma, 0.0, 4.0);
    reader.TakeDouble("io_pause_ms", &spec.io_pause_ms, 0.0, 1e5);
    reader.TakeInt("fanout", &spec.fanout, 0, 64);
    reader.TakeDouble("fanout_service_ms", &spec.fanout_service_ms, 0.0, 1e5);
    reader.TakeDouble("diurnal_depth", &spec.diurnal_depth, 0.0, 1.0);
    reader.TakeDouble("diurnal_period_s", &spec.diurnal_period_s, 1e-3, 1e4);
    reader.Finish();
  }
  if (Grew(err, before)) {
    return nullptr;
  }
  return std::make_unique<RequestWorkload>(spec);
}

std::unique_ptr<Workload> BuildHackbench(const std::string& row, const JsonValue* params,
                                         const std::string& path, ScenarioError& err) {
  (void)row;
  const size_t before = err.errors.size();
  HackbenchSpec spec;
  if (params != nullptr) {
    SpecReader reader(*params, path, err);
    reader.TakeInt("groups", &spec.groups, 1, 10000);
    reader.TakeInt("fan", &spec.fan, 1, 10000);
    reader.TakeInt("loops", &spec.loops, 1, 1000000);
    reader.Finish();
  }
  if (Grew(err, before)) {
    return nullptr;
  }
  return std::make_unique<HackbenchWorkload>(spec);
}

std::unique_ptr<Workload> BuildSchbench(const std::string& row, const JsonValue* params,
                                        const std::string& path, ScenarioError& err) {
  (void)row;
  const size_t before = err.errors.size();
  SchbenchSpec spec;
  if (params != nullptr) {
    SpecReader reader(*params, path, err);
    reader.TakeInt("message_threads", &spec.message_threads, 1, 10000);
    reader.TakeInt("workers_per_thread", &spec.workers_per_thread, 1, 10000);
    reader.TakeInt("rounds", &spec.rounds, 1, 1000000);
    reader.TakeDouble("work_ms", &spec.work_ms, 0.0, 1e5);
    reader.Finish();
  }
  if (Grew(err, before)) {
    return nullptr;
  }
  return std::make_unique<SchbenchWorkload>(spec);
}

std::unique_ptr<Workload> BuildMulti(const std::string& row, const JsonValue* params,
                                     const std::string& path, ScenarioError& err) {
  (void)row;
  const size_t before = err.errors.size();
  if (params == nullptr) {
    err.Add(path, "family \"multi\" needs \"params\" with a \"members\" array");
    return nullptr;
  }
  SpecReader reader(*params, path, err);
  const JsonValue* members = reader.Take("members");
  reader.Finish();
  // One member is that workload's solo run under the tag machinery: the
  // corun table (§5.6 multi-app) prints it next to the co-run rows.
  if (members == nullptr || !members->is_array() || members->items.empty()) {
    err.Add(path, "\"members\" must be a non-empty array of member objects");
    return nullptr;
  }
  auto multi = std::make_unique<MultiAppWorkload>();
  for (size_t i = 0; i < members->items.size(); ++i) {
    const std::string mpath = path + "/members[" + std::to_string(i) + "]";
    SpecReader member_reader(members->items[i], mpath, err);
    std::string family_name;
    member_reader.TakeString("family", &family_name, /*required=*/true);
    std::string preset;
    const bool has_preset = member_reader.TakeString("preset", &preset);
    const JsonValue* member_params = member_reader.Take("params");
    member_reader.Finish();
    if (family_name == "multi") {
      err.Add(mpath, "members cannot nest another \"multi\"");
      continue;
    }
    const WorkloadFamily* family = FindWorkloadFamily(family_name);
    if (family == nullptr) {
      if (!family_name.empty()) {
        err.Add(mpath, "unknown workload family \"" + family_name +
                           "\" (known: " + JoinNames(WorkloadFamilyNames()) + ")");
      }
      continue;
    }
    if (member_params != nullptr && !member_params->is_object()) {
      err.Add(mpath, std::string("\"params\" must be an object, got ") +
                         JsonTypeName(member_params->type));
      continue;
    }
    const std::string member_row = has_preset ? preset : family_name;
    std::unique_ptr<Workload> member =
        family->build(member_row, member_params, mpath, err);
    if (member != nullptr) {
      multi->Add(std::move(member));
    }
  }
  if (Grew(err, before)) {
    return nullptr;
  }
  return multi;
}

std::vector<WorkloadFamily> MakeFamilies() {
  std::vector<WorkloadFamily> families;

  {
    WorkloadFamily f;
    f.name = "configure";
    f.summary = "software-configure scripts: fork-dense probe tasks (Figs. 2-7)";
    f.presets = ConfigureWorkload::PackageNames();
    f.groups = {{"all", f.presets}};
    f.is_preset = [presets = f.presets](const std::string& row) { return Contains(presets, row); };
    f.build = BuildConfigure;
    families.push_back(std::move(f));
  }
  {
    WorkloadFamily f;
    f.name = "dacapo";
    f.summary = "DaCapo-style Java applications: workers, locks, churn, GC gangs (Figs. 8-11)";
    f.presets = DacapoWorkload::AppNames();
    f.groups = {{"all", f.presets}};
    f.is_preset = [presets = f.presets](const std::string& row) { return Contains(presets, row); };
    f.build = BuildDacapo;
    families.push_back(std::move(f));
  }
  {
    WorkloadFamily f;
    f.name = "nas";
    f.summary = "NAS-style HPC kernels: one barriered worker per CPU (Fig. 12)";
    f.presets = NasWorkload::KernelNames();
    f.groups = {{"all", f.presets}};
    f.is_preset = [presets = f.presets](const std::string& row) { return Contains(presets, row); };
    f.build = BuildNas;
    families.push_back(std::move(f));
  }
  {
    WorkloadFamily f;
    f.name = "phoronix";
    f.summary = "Phoronix-multicore styles: pool/openmp/pipeline/... (Fig. 13, Table 4)";
    f.presets = PhoronixWorkload::Figure13TestNames();
    std::vector<std::string> table4;
    table4.reserve(222);
    for (int i = 0; i < 222; ++i) {
      table4.push_back(i < static_cast<int>(f.presets.size()) ? f.presets[i]
                                                              : "synthetic-" + std::to_string(i));
    }
    f.groups = {{"all", f.presets}, {"fig13", f.presets}, {"table4", std::move(table4)}};
    f.is_preset = [presets = f.presets](const std::string& row) {
      return Contains(presets, row) || SyntheticIndex(row) >= 0;
    };
    f.build = BuildPhoronix;
    families.push_back(std::move(f));
  }
  {
    WorkloadFamily f;
    f.name = "server";
    f.summary = "request/response services under closed-loop clients (§5.6)";
    f.presets = ServerWorkload::TestNames();
    f.groups = {{"all", f.presets}};
    f.is_preset = [presets = f.presets](const std::string& row) { return Contains(presets, row); };
    f.build = BuildServer;
    families.push_back(std::move(f));
  }
  {
    WorkloadFamily f;
    f.name = "requests";
    f.summary = "open-loop request traffic: Poisson/bursty arrivals, tail latency (cluster)";
    f.is_preset = [](const std::string& row) { return row == "requests"; };
    f.build = BuildRequests;
    families.push_back(std::move(f));
  }
  {
    WorkloadFamily f;
    f.name = "hackbench";
    f.summary = "wakeup-dominated messaging stress (hackbench -g -l)";
    f.is_preset = [](const std::string& row) { return row == "hackbench"; };
    f.build = BuildHackbench;
    families.push_back(std::move(f));
  }
  {
    WorkloadFamily f;
    f.name = "schbench";
    f.summary = "tail wakeup-latency benchmark (message threads + workers)";
    f.is_preset = [](const std::string& row) { return row == "schbench"; };
    f.build = BuildSchbench;
    families.push_back(std::move(f));
  }
  {
    WorkloadFamily f;
    f.name = "multi";
    f.summary = "composition: several members run concurrently, tagged per member";
    f.is_preset = [](const std::string& row) {
      (void)row;
      return false;  // always needs params.members
    };
    f.build = BuildMulti;
    families.push_back(std::move(f));
  }
  return families;
}

}  // namespace

const std::vector<WorkloadFamily>& WorkloadFamilies() {
  static const std::vector<WorkloadFamily>* families =
      new std::vector<WorkloadFamily>(MakeFamilies());
  return *families;
}

const WorkloadFamily* FindWorkloadFamily(const std::string& name) {
  for (const WorkloadFamily& f : WorkloadFamilies()) {
    if (f.name == name) {
      return &f;
    }
  }
  return nullptr;
}

std::vector<std::string> WorkloadFamilyNames() {
  std::vector<std::string> names;
  for (const WorkloadFamily& f : WorkloadFamilies()) {
    names.push_back(f.name);
  }
  return names;
}

}  // namespace nestsim
