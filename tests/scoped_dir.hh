/**
 * @file
 * A test's scratch directory: a path under testing::TempDir() unique to
 * the process, emptied when the test starts and removed with everything
 * under it when the test's scope ends, whether the test passed or not.
 */

#ifndef RC_TESTS_SCOPED_DIR_HH
#define RC_TESTS_SCOPED_DIR_HH

#include <filesystem>
#include <string>
#include <system_error>

#include <gtest/gtest.h>
#include <unistd.h>

namespace rc
{

class ScopedDir
{
  public:
    /** `<TempDir><name>-<pid>`; any leftover from an earlier run of a
     *  process with the same pid is removed first. */
    explicit ScopedDir(const std::string &name)
        : dir(std::string(::testing::TempDir()) + name + "-" +
              std::to_string(::getpid()))
    {
        remove();
    }

    ~ScopedDir() { remove(); }

    ScopedDir(const ScopedDir &) = delete;
    ScopedDir &operator=(const ScopedDir &) = delete;

    /** The directory (the code under test creates it). */
    const std::string &path() const { return dir; }

  private:
    void remove() const
    {
        std::error_code ec;
        std::filesystem::remove_all(dir, ec);
    }

    std::string dir;
};

} // namespace rc

#endif // RC_TESTS_SCOPED_DIR_HH
