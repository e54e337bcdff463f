// Bench harness helpers (bench/bench_common.hpp): print_experiment's
// PMTREE_BENCH_CSV path join (trailing-slash directories must not produce
// "dir//file.csv"-style surprises, and an unwritable directory must warn,
// not silently drop the CSV).
#include "../bench/bench_common.hpp"

#include <gtest/gtest.h>

#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

namespace pmtree::bench {
namespace {

class BenchCsvEnv : public ::testing::Test {
 protected:
  void SetUp() override {
    const char* prior = std::getenv("PMTREE_BENCH_CSV");
    if (prior != nullptr) prior_ = prior;
    dir_ = ::testing::TempDir() + "pmtree_bench_csv_test";
    std::remove((dir_ + "/E99_test.csv").c_str());
    (void)::mkdir(dir_.c_str(), 0755);
  }
  void TearDown() override {
    if (prior_.empty()) {
      ::unsetenv("PMTREE_BENCH_CSV");
    } else {
      ::setenv("PMTREE_BENCH_CSV", prior_.c_str(), 1);
    }
  }
  std::string dir_;
  std::string prior_;
};

TEST_F(BenchCsvEnv, TrailingSlashDirectoryProducesTheSameCsvPath) {
  TableWriter table({"k", "v"});
  table.row(1, 2);

  ::setenv("PMTREE_BENCH_CSV", (dir_ + "/").c_str(), 1);
  print_experiment("E99 test", "csv path join", table);
  std::ifstream with_slash(dir_ + "/E99_test.csv");
  EXPECT_TRUE(with_slash.good()) << "trailing '/' broke the path join";

  std::remove((dir_ + "/E99_test.csv").c_str());
  ::setenv("PMTREE_BENCH_CSV", dir_.c_str(), 1);
  print_experiment("E99 test", "csv path join", table);
  std::ifstream without_slash(dir_ + "/E99_test.csv");
  EXPECT_TRUE(without_slash.good());
}

TEST_F(BenchCsvEnv, MissingDirectoryWarnsOnStderrInsteadOfSilence) {
  TableWriter table({"k", "v"});
  table.row(1, 2);
  ::setenv("PMTREE_BENCH_CSV", (dir_ + "/does_not_exist").c_str(), 1);
  ::testing::internal::CaptureStderr();
  print_experiment("E99 test", "csv warn", table);
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("cannot write"), std::string::npos)
      << "a failed CSV export must be reported, got: " << err;
}

}  // namespace
}  // namespace pmtree::bench
