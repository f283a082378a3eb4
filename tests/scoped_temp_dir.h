#ifndef CODES_TESTS_SCOPED_TEMP_DIR_H_
#define CODES_TESTS_SCOPED_TEMP_DIR_H_

// A private directory for tests that write real files: mkdtemp under
// testing::TempDir() (which honours TEST_TMPDIR), so two build trees
// running the same test at once never share a path. Removed, contents
// and all, when the object goes out of scope.

#include <gtest/gtest.h>
#include <stdlib.h>

#include <filesystem>
#include <string>

namespace codes {

class ScopedTempDir {
 public:
  ScopedTempDir() {
    std::string pattern = testing::TempDir() + "codes_test_XXXXXX";
    if (mkdtemp(pattern.data()) != nullptr) path_ = pattern;
    EXPECT_FALSE(path_.empty()) << "mkdtemp failed under "
                                << testing::TempDir();
  }
  ~ScopedTempDir() {
    std::error_code ec;
    if (!path_.empty()) std::filesystem::remove_all(path_, ec);
  }
  ScopedTempDir(const ScopedTempDir&) = delete;
  ScopedTempDir& operator=(const ScopedTempDir&) = delete;

  /// Path of `name` inside the directory.
  std::string File(const std::string& name) const {
    return path_ + "/" + name;
  }

 private:
  std::string path_;
};

}  // namespace codes

#endif  // CODES_TESTS_SCOPED_TEMP_DIR_H_
