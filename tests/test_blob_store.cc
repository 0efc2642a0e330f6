/**
 * @file
 * BlobStore tests, run against both on-disk layouts that use it (the
 * result cache's memo-*.bin + cache.index and the feed cache's
 * feed-*.bin + feed.index): startup recovery adopts and counts an
 * unindexed blob, sweeps stale staging files (the old fixed `.tmp` and
 * the per-process, per-call unique ones), keeps lease lock files and
 * leaves an index naming exactly the blobs; and eight threads storing
 * one digest at once leave one intact blob.
 */

#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "scoped_dir.hh"
#include "snapshot/blob_store.hh"

namespace rc
{
namespace
{

struct Layout
{
    const char *prefix;
    const char *index;
    const char *header;
};

const Layout kLayouts[] = {
    {"memo", "cache.index", "# rc result cache index v1\n"},
    {"feed", "feed.index", "# rc feed cache index v1\n"},
};

bool
exists(const std::string &path)
{
    struct stat st;
    return ::stat(path.c_str(), &st) == 0;
}

void
writeRaw(const std::string &path, const std::string &bytes)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr) << path;
    std::fputs(bytes.c_str(), f);
    std::fclose(f);
}

std::string
readRaw(const std::string &path)
{
    std::string out;
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return out;
    char buf[4096];
    std::size_t got;
    while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0)
        out.append(buf, got);
    std::fclose(f);
    return out;
}

std::set<std::string>
listDir(const std::string &dir)
{
    std::set<std::string> names;
    DIR *d = ::opendir(dir.c_str());
    if (!d)
        return names;
    while (struct dirent *ent = ::readdir(d)) {
        const std::string name = ent->d_name;
        if (name != "." && name != "..")
            names.insert(name);
    }
    ::closedir(d);
    return names;
}

FileFill
fillWith(const std::string &bytes)
{
    return [bytes](std::FILE *f) {
        std::fwrite(bytes.data(), 1, bytes.size(), f);
    };
}

TEST(BlobStoreTest, RecoveryAdoptsSweepsKeepsLocksAndCompactsTheIndex)
{
    constexpr std::uint64_t indexed = 0x1111222233334444ull;
    constexpr std::uint64_t unindexed = 0xaaaabbbbccccddddull;
    constexpr std::uint64_t neverLanded = 0x0123456789abcdefull;
    for (const Layout &layout : kLayouts) {
        SCOPED_TRACE(layout.prefix);
        const ScopedDir scratch("blob-recover");
        const std::string &dir = scratch.path();
        const std::string index = dir + "/" + layout.index;
        std::string lockPath, fixedTmp, uniqueTmp, indexTmp;
        {
            BlobStore store(dir, layout.prefix, layout.index,
                            layout.header);
            EXPECT_EQ(store.recovered(), 0u);
            ASSERT_TRUE(store.put(indexed, fillWith("indexed blob")));
            // A lease that was taken and released leaves its lock file.
            ASSERT_NE(store.lease(indexed), nullptr);
            lockPath = store.path(indexed) + ".lock";
            // What a killed process leaves behind: a blob whose rename
            // landed but whose index append did not, and staging files
            // of writes that never landed.
            writeRaw(store.path(unindexed), "unindexed blob");
            fixedTmp = store.path(neverLanded) + ".tmp";
            uniqueTmp = store.path(neverLanded) + ".4242.7.tmp";
            indexTmp = index + ".4242.8.tmp";
            writeRaw(fixedTmp, "half a write");
            writeRaw(uniqueTmp, "half a write");
            writeRaw(indexTmp, "half an index");
        }
        ASSERT_TRUE(exists(lockPath));

        BlobStore store(dir, layout.prefix, layout.index, layout.header);
        EXPECT_EQ(store.recovered(), 1u) << "the unindexed blob is adopted";
        EXPECT_EQ(store.size(), 2u);
        EXPECT_TRUE(store.contains(indexed));
        EXPECT_TRUE(store.contains(unindexed));
        EXPECT_FALSE(store.contains(neverLanded));
        EXPECT_FALSE(exists(fixedTmp)) << "stale fixed tmp not swept";
        EXPECT_FALSE(exists(uniqueTmp)) << "stale unique tmp not swept";
        EXPECT_FALSE(exists(indexTmp)) << "stale index staging not swept";
        EXPECT_TRUE(exists(lockPath)) << "a lock file must survive";
        EXPECT_EQ(readRaw(store.path(indexed)), "indexed blob");

        // The compacted index names exactly the blobs, under its header.
        EXPECT_EQ(readDigestLines(index, "entry"),
                  (std::unordered_set<std::uint64_t>{indexed, unindexed}));
        EXPECT_EQ(readRaw(index).rfind(layout.header, 0), 0u);
        const std::set<std::string> expected = {
            std::string(layout.prefix) + "-" + digestHex(indexed) + ".bin",
            std::string(layout.prefix) + "-" + digestHex(unindexed) +
                ".bin",
            std::string(layout.prefix) + "-" + digestHex(indexed) +
                ".bin.lock",
            layout.index,
        };
        EXPECT_EQ(listDir(dir), expected) << "no staging file may remain";
    }
}

TEST(BlobStoreTest, EightThreadsPuttingOneDigestLeaveOneIntactBlob)
{
    constexpr std::uint64_t digest = 0x5eed5eed5eed5eedull;
    constexpr int writers = 8;
    constexpr std::size_t chunk = 4096, chunks = 64;
    for (const Layout &layout : kLayouts) {
        SCOPED_TRACE(layout.prefix);
        const ScopedDir scratch("blob-race");
        const std::string &dir = scratch.path();
        BlobStore store(dir, layout.prefix, layout.index, layout.header);
        std::vector<std::thread> threads;
        bool stored[writers] = {};
        for (int t = 0; t < writers; ++t) {
            threads.emplace_back([&, t] {
                // Many flushed chunks per writer, so writers sharing a
                // staging file would interleave into a torn blob.
                const std::string block(chunk, static_cast<char>('a' + t));
                stored[t] = store.put(digest, [&](std::FILE *f) {
                    for (std::size_t i = 0; i < chunks; ++i) {
                        std::fwrite(block.data(), 1, block.size(), f);
                        std::fflush(f);
                    }
                });
            });
        }
        for (std::thread &th : threads)
            th.join();
        for (int t = 0; t < writers; ++t)
            EXPECT_TRUE(stored[t]) << "writer " << t;

        const std::string blob = readRaw(store.path(digest));
        ASSERT_EQ(blob.size(), chunk * chunks);
        EXPECT_EQ(blob.find_first_not_of(blob.front()), std::string::npos)
            << "the blob mixes several writers' bytes";
        EXPECT_EQ(store.size(), 1u);
        EXPECT_EQ(listDir(dir),
                  (std::set<std::string>{std::string(layout.prefix) + "-" +
                                             digestHex(digest) + ".bin",
                                         layout.index}));
        EXPECT_EQ(readDigestLines(dir + "/" + layout.index, "entry"),
                  (std::unordered_set<std::uint64_t>{digest}));
    }
}

} // namespace
} // namespace rc
