// A private scratch directory for the running test.
//
// Tests that write files must not share fixed paths: under `ctest -j` every
// test runs in its own process at the same time as the others, so two tests
// writing /tmp/<fixed>/out.txt race. TestTempDir names the directory from the
// test suite, the test name and the process id, creates it, and removes it
// with everything in it when the object is destroyed (the end of the test).
#pragma once

#include <gtest/gtest.h>

#include <unistd.h>

#include <cctype>
#include <filesystem>
#include <string>

namespace gala::testing {

class TestTempDir {
 public:
  TestTempDir() {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    std::string name = "gala_";
    name += info == nullptr ? "no_test" : std::string(info->test_suite_name()) + "." + info->name();
    for (char& ch : name) {
      if (!std::isalnum(static_cast<unsigned char>(ch)) && ch != '.' && ch != '_') ch = '_';
    }
    name += "_" + std::to_string(::getpid());
    dir_ = std::filesystem::temp_directory_path() / name;
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  ~TestTempDir() {
    std::error_code ignored;
    std::filesystem::remove_all(dir_, ignored);
  }

  TestTempDir(const TestTempDir&) = delete;
  TestTempDir& operator=(const TestTempDir&) = delete;

  const std::filesystem::path& dir() const { return dir_; }
  std::string path(const std::string& file) const { return (dir_ / file).string(); }

 private:
  std::filesystem::path dir_;
};

}  // namespace gala::testing
