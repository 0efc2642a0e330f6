/**
 * @file
 * One crash-safe, content-addressed blob directory: the result cache
 * and the feed cache keep their blobs in a BlobStore, and the poison
 * index and Serializer::writeFile use its free helpers.  What a blob
 * holds, and how a reader verifies it, stays with the cache that owns
 * it.
 *
 * Layout: `<prefix>-<digest16hex>.bin` blobs, their
 * `<prefix>-<digest16hex>.bin.lock` lease files, and an index file of
 * one `entry digest=<hex>` line per stored blob under a header line.
 * The index is bookkeeping for post-mortems; blobs are the truth.
 *
 * Opening a store runs recovery: blobs the index never named (the
 * rename landed, the append did not) are adopted and counted, `*.tmp`
 * staging files of killed writers are deleted, lock files are left
 * alone (a live process may hold one, and replacing a held lock file's
 * inode would split the mutual exclusion), and the index is rewritten
 * compacted.
 */

#ifndef RC_SNAPSHOT_BLOB_STORE_HH
#define RC_SNAPSHOT_BLOB_STORE_HH

#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_set>
#include <vector>

namespace rc
{

/** FNV-1a 64 digest of @p bytes (every cache key's digest). */
std::uint64_t fnv1a64(const std::vector<std::uint8_t> &bytes);

/** 16-hex-digit spelling of a digest (blob names, index lines, logs). */
std::string digestHex(std::uint64_t digest);

/** The index line `<tag> digest=<hex>\n` that readDigestLines() parses. */
std::string digestLine(const char *tag, std::uint64_t digest);

/** Writes a file's contents to an open stream; may throw SimError. */
using FileFill = std::function<void(std::FILE *)>;

/**
 * Write @p path atomically: @p fill writes a staging sibling named
 * `<path>.<pid>.<call>.tmp`, which is fsync'd and renamed over
 * @p path, so a crash never tears @p path and no other writer, thread
 * or process, can clobber the staging file.  On any failure the
 * staging file is unlinked and SimError(Snapshot), or whatever @p fill
 * threw, propagates.
 */
void writeFileAtomically(const std::string &path, const FileFill &fill);

/**
 * Append @p line to the index file @p path under flock, writing
 * @p header first when the file is empty, and fsync it.  A failure
 * only warns: an index is bookkeeping, never the truth.
 */
void appendLocked(const std::string &path, const std::string &header,
                  const std::string &line);

/**
 * The digests of every `<tag> digest=<hex>` line of @p path.  Other
 * lines (the header, a torn tail) are skipped; a missing file yields
 * the empty set.
 */
std::unordered_set<std::uint64_t> readDigestLines(const std::string &path,
                                                  const char *tag);

/** One key's exclusive flock lease; unlocks and closes on destruction. */
class BlobLease
{
  public:
    ~BlobLease();
    BlobLease(const BlobLease &) = delete;
    BlobLease &operator=(const BlobLease &) = delete;

  private:
    friend class BlobStore;
    explicit BlobLease(int fd) : fd(fd) {}
    int fd;
};

/** A directory of `<prefix>-<digest16>.bin` blobs; thread-safe. */
class BlobStore
{
  public:
    /**
     * Open (creating if needed) @p dir, whose blobs are named after
     * @p prefix and listed in the index file @p index under @p header,
     * and run recovery.  Throws SimError(Io) when the directory cannot
     * be created or scanned.
     */
    BlobStore(std::string dir, std::string prefix, std::string index,
              std::string header);

    const std::string &directory() const { return dir; }

    /** Blob path for @p digest. */
    std::string path(std::uint64_t digest) const;

    /** Whether a blob for @p digest is believed present. */
    bool contains(std::uint64_t digest) const;

    /** Number of blobs believed present. */
    std::size_t size() const;

    /** Blobs adopted at open because the index did not name them. */
    std::uint64_t recovered() const { return adopted; }

    /**
     * Write @p digest's blob atomically through @p fill, then append it
     * to the index.  @return false, after a warning, when the blob
     * could not be written: a lost store only costs a recompute.
     */
    bool put(std::uint64_t digest, const FileFill &fill);

    /** Unlink @p digest's blob (it failed its reader's checks). */
    void drop(std::uint64_t digest);

    /**
     * Take @p digest's exclusive flock lease (blocking).  Writers of a
     * cold key take it before computing, so two processes racing one
     * key serialize: the first computes and stores, the second wakes
     * to a warm blob.  Purely an efficiency protocol: a nullptr return
     * (the lock file is unusable) just means both compute.
     */
    std::unique_ptr<BlobLease> lease(std::uint64_t digest);

    /** Rewrite the index compacted: exactly the blobs believed present. */
    void persistIndex();

  private:
    const std::string dir;
    const std::string prefix;
    const std::string indexPath;
    const std::string header;
    std::uint64_t adopted = 0;
    mutable std::mutex mu;
    std::unordered_set<std::uint64_t> known; //!< guarded by mu
};

} // namespace rc

#endif // RC_SNAPSHOT_BLOB_STORE_HH
