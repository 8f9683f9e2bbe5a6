/**
 * @file
 * Scratch files and directories for tests. ctest points TEST_TMPDIR
 * (and so testing::TempDir()) at a directory inside the build tree
 * (tests/CMakeLists.txt), so two build trees never share a path; a
 * TempPath removes what it names, and everything below it, when it
 * goes out of scope, so a run leaves nothing behind.
 */

#ifndef MPOS_TESTS_TEMP_PATH_HH
#define MPOS_TESTS_TEMP_PATH_HH

#include <filesystem>
#include <string>
#include <system_error>

#include <gtest/gtest.h>

namespace mpos::test
{

class TempPath
{
  public:
    enum Kind { File, Dir };

    /** leaf under testing::TempDir(). Whatever an interrupted earlier
     *  run left there is removed first; a Dir is created empty. */
    TempPath(const std::string &leaf, Kind kind)
        : path(testing::TempDir() + leaf)
    {
        std::filesystem::remove_all(path);
        if (kind == Dir)
            std::filesystem::create_directories(path);
    }

    ~TempPath()
    {
        std::error_code ec;
        std::filesystem::remove_all(path, ec);
    }

    TempPath(const TempPath &) = delete;
    TempPath &operator=(const TempPath &) = delete;

    const std::string path;
};

} // namespace mpos::test

#endif // MPOS_TESTS_TEMP_PATH_HH
