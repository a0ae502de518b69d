// The benchmark's own tests: seeded inputs are reproducible and
// seed-sensitive, the interval union behind trace coverage is right, and
// every workload passes its oracle at a tiny size, traced and untraced.
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

#include <gtest/gtest.h>
#include <unistd.h>

#include "gen.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr WhatIfShape kShape{3, 4, 5};

std::string whatif_bytes(std::uint64_t seed) {
  std::string bytes;
  for (const auto& cell : whatif_cells(seed, kShape)) {
    bytes += encode(cell);
  }
  return bytes;
}

std::string light_bytes(std::uint64_t seed) {
  std::string bytes;
  for (std::uint64_t i = 0; i < 200; ++i) {
    bytes += encode(light_scenario(seed, i));
  }
  return bytes;
}

std::string text_bytes(std::uint64_t seed) {
  std::string bytes;
  for (const std::string& text : plan_texts(seed, 100)) {
    bytes += text;
  }
  return bytes;
}

std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// A scratch directory under the working directory, removed afterwards.
class ScratchDir {
 public:
  ScratchDir()
      : path_(std::filesystem::absolute("perfbench-test-" +
                                        std::to_string(::getpid()))) {
    std::filesystem::create_directories(path_);
  }
  ~ScratchDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  std::string path() const { return path_.string(); }

 private:
  std::filesystem::path path_;
};

TEST(Inputs, SameSeedGivesByteIdenticalInputs) {
  EXPECT_EQ(whatif_bytes(7), whatif_bytes(7));
  EXPECT_EQ(light_bytes(7), light_bytes(7));
  EXPECT_EQ(text_bytes(7), text_bytes(7));
  EXPECT_EQ(whatif_cells(7, kShape).size(), kShape.cells());

  const ScratchDir dir;
  write_light_store(dir.path() + "/a.store", 7, 1000, 64);
  write_light_store(dir.path() + "/b.store", 7, 1000, 64);
  EXPECT_EQ(file_bytes(dir.path() + "/a.store"),
            file_bytes(dir.path() + "/b.store"));
}

TEST(Inputs, DifferentSeedChangesInputs) {
  EXPECT_NE(whatif_bytes(7), whatif_bytes(8));
  EXPECT_NE(light_bytes(7), light_bytes(8));
  EXPECT_NE(text_bytes(7), text_bytes(8));

  const ScratchDir dir;
  write_light_store(dir.path() + "/a.store", 7, 1000, 64);
  write_light_store(dir.path() + "/b.store", 8, 1000, 64);
  EXPECT_NE(file_bytes(dir.path() + "/a.store"),
            file_bytes(dir.path() + "/b.store"));
}

TEST(Inputs, PlanTextsRepeatEarlierPortfolios) {
  const std::vector<std::string> texts = plan_texts(3, 400);
  std::size_t repeats = 0;
  for (std::size_t t = 1; t < texts.size(); ++t) {
    for (std::size_t e = 0; e < t; ++e) {
      if (texts[e] == texts[t]) {
        ++repeats;
        break;
      }
    }
  }
  // kPlanRepeatShare (1/4) of the texts after the first four.
  EXPECT_GT(repeats, 60u);
  EXPECT_LT(repeats, 140u);
}

TEST(Trace, CoveredCountsOverlapsOnceAndClips) {
  // [10, 60) and [80, 90) inside [0, 100); [95, 120) clipped to [95, 100).
  const std::vector<std::pair<std::int64_t, std::int64_t>> intervals = {
      {30, 60}, {10, 40}, {80, 90}, {95, 120}};
  EXPECT_EQ(covered_ns(intervals, 0, 100), 65);
  EXPECT_EQ(covered_ns(intervals, 35, 85), 30);
  EXPECT_EQ(covered_ns({}, 0, 100), 0);
  EXPECT_EQ(layer_of("core.shard.fleet"), "core.shard");
  EXPECT_EQ(layer_of("request"), "");
}

struct WorkloadCase {
  const char* name;
  Report (*run)(const Config&);
};

class TinyWorkload : public ::testing::TestWithParam<WorkloadCase> {};

TEST_P(TinyWorkload, PassesItsOracleUntracedAndTraced) {
  for (const bool traced : {false, true}) {
    const ScratchDir dir;
    Config config;
    config.seed = 11;
    config.seconds = 0.3;
    config.trace = traced;
    config.tiny = true;
    config.work_dir = dir.path();
    config.box = probe_box();
    const Report report = GetParam().run(config);
    for (const std::string& error : report.errors) {
      ADD_FAILURE() << GetParam().name << ": " << error;
    }
    EXPECT_TRUE(report.correct) << GetParam().name;
    EXPECT_EQ(report.failed, 0u) << GetParam().name;
    EXPECT_GT(report.attempted, 0u) << GetParam().name;
    if (traced) {
      const Metric* coverage = report.find("trace.coverage");
      ASSERT_NE(coverage, nullptr) << GetParam().name;
      EXPECT_GT(coverage->value, 0.9) << GetParam().name;
      EXPECT_LT(coverage->value, 1.1) << GetParam().name;
    } else {
      for (const char* metric : {"plans_per_s", "plan_p50_us", "plan_p99_us",
                                 "peak_rss_mb", "cpu_s", "setup_s"}) {
        const Metric* found = report.find(metric);
        ASSERT_NE(found, nullptr) << GetParam().name << " " << metric;
        EXPECT_GT(found->value, 0.0) << GetParam().name << " " << metric;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, TinyWorkload,
    ::testing::Values(WorkloadCase{"whatif_batch", run_whatif_batch},
                      WorkloadCase{"stream_sweep", run_stream_sweep},
                      WorkloadCase{"sharded_sweep", run_sharded_sweep},
                      WorkloadCase{"plan_ini", run_plan_ini}),
    [](const ::testing::TestParamInfo<WorkloadCase>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace perfbench
