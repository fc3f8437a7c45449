/**
 * @file
 * TempDir -- a fresh data directory under /tmp for the server tests,
 * removed with everything in it (shard files, decision log, PORT
 * file) when the guard leaves its scope by any path, an ASSERT_*
 * return included. Declare it before the Server that uses it, so it
 * outlives the server. A forked server child leaves with std::_Exit,
 * which runs no destructors, so only the parent removes the
 * directory.
 */

#ifndef LP_TESTS_TEMP_DIR_HH
#define LP_TESTS_TEMP_DIR_HH

#include <gtest/gtest.h>

#include <stdlib.h>

#include <filesystem>
#include <string>

struct TempDir
{
    /** Creates /tmp/<prefix>-XXXXXX. */
    explicit TempDir(const std::string &prefix = "lpserver-test")
    {
        std::string tmpl = "/tmp/" + prefix + "-XXXXXX";
        const char *d = ::mkdtemp(tmpl.data());
        EXPECT_NE(d, nullptr);
        path = d ? d : "";
    }

    ~TempDir()
    {
        if (!path.empty())
            std::filesystem::remove_all(path);
    }

    TempDir(const TempDir &) = delete;
    TempDir &operator=(const TempDir &) = delete;

    std::string path;
};

#endif // LP_TESTS_TEMP_DIR_HH
