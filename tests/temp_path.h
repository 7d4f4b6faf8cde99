#ifndef SKETCHTREE_TESTS_TEMP_PATH_H_
#define SKETCHTREE_TESTS_TEMP_PATH_H_

#include <gtest/gtest.h>
#include <unistd.h>

#include <string>

namespace sketchtree {

/// A scratch path in the test temp directory, prefixed with the process
/// id. gtest_discover_tests runs every test as its own process, so
/// tests running concurrently (ctest -j, or two build trees sharing one
/// temp directory) never share a file.
inline std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + std::to_string(getpid()) + "_" + name;
}

/// TempPath named after the running test.
inline std::string TestTempPath(const std::string& prefix,
                                const std::string& suffix = "") {
  return TempPath(
      prefix +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() +
      suffix);
}

}  // namespace sketchtree

#endif  // SKETCHTREE_TESTS_TEMP_PATH_H_
