// Whole-binary output checks for the tool CLIs: the table a scenario prints
// is the same at any campaign worker count, the JSONL sinks and Perfetto
// capture write parseable JSON, and model training is byte-reproducible.
// Like cli_exit_codes_test.cc these spawn the real binaries.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "src/obs/json_check.h"

#ifndef NESTSIM_RUN_BIN
#error "NESTSIM_RUN_BIN must be defined by the build"
#endif
#ifndef NESTSIM_EXPORT_BIN
#error "NESTSIM_EXPORT_BIN must be defined by the build"
#endif

namespace nestsim {
namespace {

const std::string kRun = NESTSIM_RUN_BIN;
const std::string kExport = NESTSIM_EXPORT_BIN;
const std::string kScenarios = std::string(NESTSIM_REPO_DIR) + "/scenarios/";

// Every run starts from a clean slate: the developer's repetition override,
// JSONL sink and trace directory must not leak in. `env` adds assignments.
std::string Hermetic(const std::string& env) {
  return "env NESTSIM_REPS= NESTSIM_JSONL= NESTSIM_TRACE= " + env + " ";
}

// Runs `command` and returns its stdout; stderr (progress lines) is dropped.
std::string Stdout(const std::string& command, int* exit_code) {
  std::string out;
  std::FILE* pipe = popen((command + " 2>/dev/null").c_str(), "r");
  EXPECT_NE(pipe, nullptr) << command;
  if (pipe == nullptr) {
    return out;
  }
  char buf[4096];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), pipe)) > 0) {
    out.append(buf, n);
  }
  const int status = pclose(pipe);
  *exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return out;
}

std::string ReadFile(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

// A fresh directory under the test temp dir, removed when the test ends.
class TempDir {
 public:
  explicit TempDir(const std::string& name)
      : path_(std::filesystem::path(::testing::TempDir()) /
              (name + "-" + std::to_string(::getpid()))) {
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~TempDir() { std::filesystem::remove_all(path_); }
  const std::filesystem::path& path() const { return path_; }

 private:
  std::filesystem::path path_;
};

TEST(NestsimRunOutputTest, TablesAreIdenticalAtOneAndEightWorkers) {
  for (const std::string stem : {"fig4", "cluster_util_sweep"}) {
    const std::string scenario = kScenarios + stem + ".json";
    int serial_rc = -1;
    int pooled_rc = -1;
    const std::string serial =
        Stdout(Hermetic("NESTSIM_JOBS=1") + kRun + " " + scenario, &serial_rc);
    const std::string pooled =
        Stdout(Hermetic("NESTSIM_JOBS=8") + kRun + " " + scenario, &pooled_rc);
    EXPECT_EQ(serial_rc, 0) << stem;
    EXPECT_EQ(pooled_rc, 0) << stem;
    EXPECT_NE(serial.find("---"), std::string::npos) << stem << " printed no table:\n" << serial;
    EXPECT_EQ(serial, pooled) << stem;
  }
}

TEST(NestsimRunOutputTest, TraceCaptureWritesParseablePerfettoJson) {
  const TempDir dir("nestsim-fig2-traces");
  int rc = -1;
  Stdout(Hermetic("NESTSIM_TRACE=" + dir.path().string()) + kRun + " --no-table " + kScenarios +
             "fig2.json",
         &rc);
  EXPECT_EQ(rc, 0);
  int files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir.path())) {
    ++files;
    JsonValue trace;
    std::string error;
    EXPECT_TRUE(JsonParse(ReadFile(entry.path()), &trace, &error))
        << entry.path() << ": " << error;
  }
  EXPECT_GE(files, 1);
}

// Every line of `path` parses as JSON; returns the line count.
int ExpectJsonLines(const std::filesystem::path& path) {
  std::ifstream in(path);
  std::string line;
  int lines = 0;
  while (std::getline(in, line)) {
    ++lines;
    JsonValue record;
    std::string error;
    EXPECT_TRUE(JsonParse(line, &record, &error)) << path << ":" << lines << ": " << error;
  }
  return lines;
}

TEST(NestsimRunOutputTest, JsonlSinkWritesOneParseableRecordPerJob) {
  const TempDir dir("nestsim-jsonl");
  for (const std::string stem : {"smoke", "cluster_smoke", "cache_ablation", "fault_blast_radius",
                                 "energy_cap"}) {
    const std::filesystem::path jsonl = dir.path() / (stem + ".jsonl");
    int rc = -1;
    Stdout(Hermetic("NESTSIM_JSONL=" + jsonl.string()) + kRun + " --no-table " + kScenarios +
               stem + ".json",
           &rc);
    EXPECT_EQ(rc, 0) << stem;
    EXPECT_GE(ExpectJsonLines(jsonl), 2) << stem;
  }
}

TEST(NestsimExportOutputTest, JsonlExportParsesLineByLine) {
  const TempDir dir("nestsim-export-jsonl");
  const std::filesystem::path rows = dir.path() / "rows.jsonl";
  int rc = -1;
  Stdout(Hermetic("") + kExport + " --format jsonl --out " + rows.string() + " " + kScenarios +
             "predict_headroom.json",
         &rc);
  EXPECT_EQ(rc, 0);
  EXPECT_GT(ExpectJsonLines(rows), 0);
}

TEST(NestsimExportOutputTest, TrainingTwiceGivesByteIdenticalModels) {
  const TempDir dir("nestsim-train");
  const std::filesystem::path first = dir.path() / "a.json";
  const std::filesystem::path second = dir.path() / "b.json";
  for (const auto& model : {first, second}) {
    int rc = -1;
    Stdout(Hermetic("") + kExport + " --out /dev/null --train " + model.string() + " " +
               kScenarios + "predict_headroom.json",
           &rc);
    EXPECT_EQ(rc, 0) << model;
  }
  const std::string text = ReadFile(first);
  EXPECT_EQ(text, ReadFile(second));
  JsonValue model;
  std::string error;
  ASSERT_TRUE(JsonParse(text, &model, &error)) << error << "\n" << text;
  const JsonValue* kind = model.Find("model");
  ASSERT_NE(kind, nullptr) << text;
  EXPECT_EQ(kind->string, "nest-predict-table");
  const JsonValue* buckets = model.Find("buckets");
  ASSERT_NE(buckets, nullptr) << text;
  EXPECT_FALSE(buckets->items.empty() && buckets->members.empty()) << text;
}

}  // namespace
}  // namespace nestsim
