#ifndef TPCDS_TESTS_TEST_SCRATCH_H_
#define TPCDS_TESTS_TEST_SCRATCH_H_

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>

namespace tpcds {

/// A fresh scratch path under the test temp directory, unique to this
/// process; anything left at it is removed first. ctest runs every test
/// case as its own process, concurrently under -j, so a fixed name would
/// let one case remove or rewrite checkpoint and WAL files that another
/// case has mapped or is reading.
inline std::string TestScratchPath(const std::string& leaf) {
  std::string path = ::testing::TempDir() + leaf + "_" +
                     std::to_string(::getpid());
  std::filesystem::remove_all(path);
  return path;
}

}  // namespace tpcds

#endif  // TPCDS_TESTS_TEST_SCRATCH_H_
