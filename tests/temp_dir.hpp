// RAII unique temporary directory for tests that write files. ctest runs
// each discovered test in its own process, and a suite's whole-binary
// smoke run alongside them, so fixed file names in a shared directory
// race; a mkdtemp directory per owner cannot. The directory and
// everything in it is removed on destruction.
#pragma once

#include <gtest/gtest.h>
#include <stdlib.h>

#include <filesystem>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace sham::test {

class TempDir {
 public:
  TempDir() {
    std::string pattern = ::testing::TempDir();
    if (pattern.empty() || pattern.back() != '/') pattern += '/';
    pattern += "sham_test_XXXXXX";
    std::vector<char> buffer(pattern.begin(), pattern.end());
    buffer.push_back('\0');
    if (::mkdtemp(buffer.data()) == nullptr) {
      throw std::runtime_error{"TempDir: mkdtemp failed for " + pattern};
    }
    path_ = buffer.data();
  }
  ~TempDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  [[nodiscard]] const std::string& path() const noexcept { return path_; }
  /// Path of file `name` inside the directory.
  [[nodiscard]] std::string file(std::string_view name) const {
    return path_ + "/" + std::string{name};
  }

 private:
  std::string path_;
};

}  // namespace sham::test
