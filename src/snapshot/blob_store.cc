#include "snapshot/blob_store.hh"

#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <cstring>

#include <dirent.h>
#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include "common/filelock.hh"
#include "common/log.hh"

namespace rc
{

namespace
{

/** Parse the digest out of "<prefix>-<16 hex>.bin" (false on anything
 *  else, including .lock and .tmp siblings). */
bool
digestFromBlobName(const std::string &name, const std::string &prefix,
                   std::uint64_t &digest)
{
    const std::size_t hexAt = prefix.size() + 1;
    if (name.size() != hexAt + 16 + 4 || name.rfind(prefix + "-", 0) != 0 ||
        name.compare(hexAt + 16, 4, ".bin") != 0)
        return false;
    const std::string hex = name.substr(hexAt, 16);
    char *end = nullptr;
    digest = std::strtoull(hex.c_str(), &end, 16);
    return end != nullptr && *end == '\0';
}

} // namespace

std::uint64_t
fnv1a64(const std::vector<std::uint8_t> &bytes)
{
    std::uint64_t h = 0xcbf29ce484222325ull; // FNV-1a 64 offset basis
    for (const std::uint8_t b : bytes) {
        h ^= b;
        h *= 0x100000001b3ull;
    }
    return h;
}

std::string
digestHex(std::uint64_t digest)
{
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(digest));
    return buf;
}

std::string
digestLine(const char *tag, std::uint64_t digest)
{
    return std::string(tag) + " digest=" + digestHex(digest) + "\n";
}

void
writeFileAtomically(const std::string &path, const FileFill &fill)
{
    static std::atomic<std::uint64_t> calls{0};
    const std::string tmp = path + "." + std::to_string(::getpid()) + "." +
                            std::to_string(calls.fetch_add(1)) + ".tmp";
    std::FILE *f = std::fopen(tmp.c_str(), "wb");
    if (!f)
        throwSimError(SimError::Kind::Snapshot,
                      "cannot open '%s' for writing: %s", tmp.c_str(),
                      std::strerror(errno));
    bool wrote = false;
    try {
        fill(f);
        wrote = std::fflush(f) == 0 && std::ferror(f) == 0 &&
                ::fsync(::fileno(f)) == 0;
    } catch (...) {
        std::fclose(f);
        ::unlink(tmp.c_str());
        throw;
    }
    std::fclose(f);
    if (!wrote) {
        ::unlink(tmp.c_str());
        throwSimError(SimError::Kind::Snapshot, "short write persisting '%s'",
                      tmp.c_str());
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        const int err = errno;
        ::unlink(tmp.c_str());
        throwSimError(SimError::Kind::Snapshot,
                      "cannot rename '%s' into place: %s", tmp.c_str(),
                      std::strerror(err));
    }
}

void
appendLocked(const std::string &path, const std::string &header,
             const std::string &line)
{
    std::FILE *f = std::fopen(path.c_str(), "ab");
    if (!f) {
        warn("cannot open index '%s': %s", path.c_str(),
             std::strerror(errno));
        return;
    }
    try {
        // flock orders this append against other processes sharing the
        // file; readers tolerate a torn tail anyway, but well-formed
        // records make post-mortems readable.  Testing emptiness under
        // the lock writes the header exactly once.
        ScopedFileLock flock(::fileno(f));
        struct stat st{};
        if (::fstat(::fileno(f), &st) == 0 && st.st_size == 0)
            std::fputs(header.c_str(), f);
        std::fputs(line.c_str(), f);
        std::fflush(f);
        ::fsync(::fileno(f));
    } catch (const SimError &err) {
        warn("append to index '%s' skipped: %s", path.c_str(), err.what());
    }
    std::fclose(f);
}

std::unordered_set<std::uint64_t>
readDigestLines(const std::string &path, const char *tag)
{
    std::unordered_set<std::uint64_t> digests;
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return digests;
    const std::string format = std::string(tag) + " digest=%llx";
    char line[128];
    while (std::fgets(line, sizeof(line), f)) {
        unsigned long long digest = 0;
        if (std::sscanf(line, format.c_str(), &digest) == 1)
            digests.insert(digest);
    }
    std::fclose(f);
    return digests;
}

BlobLease::~BlobLease()
{
    ::flock(fd, LOCK_UN);
    ::close(fd);
}

BlobStore::BlobStore(std::string dir_, std::string prefix_,
                     std::string index_, std::string header_)
    : dir(std::move(dir_)), prefix(std::move(prefix_)),
      indexPath(dir + "/" + index_), header(std::move(header_))
{
    if (::mkdir(dir.c_str(), 0777) != 0 && errno != EEXIST)
        throwSimError(SimError::Kind::Io, "cannot create directory '%s': %s",
                      dir.c_str(), std::strerror(errno));
    const std::unordered_set<std::uint64_t> indexed =
        readDigestLines(indexPath, "entry");
    DIR *d = ::opendir(dir.c_str());
    if (!d)
        throwSimError(SimError::Kind::Io, "cannot scan directory '%s': %s",
                      dir.c_str(), std::strerror(errno));
    std::vector<std::string> staleTmp;
    while (struct dirent *ent = ::readdir(d)) {
        const std::string name = ent->d_name;
        if (name.size() > 4 && name.compare(name.size() - 4, 4, ".tmp") == 0) {
            staleTmp.push_back(dir + "/" + name);
            continue;
        }
        std::uint64_t digest = 0;
        if (!digestFromBlobName(name, prefix, digest))
            continue;
        known.insert(digest);
        if (!indexed.count(digest))
            ++adopted;
    }
    ::closedir(d);
    for (const std::string &tmp : staleTmp)
        ::unlink(tmp.c_str());
    persistIndex();
}

std::string
BlobStore::path(std::uint64_t digest) const
{
    return dir + "/" + prefix + "-" + digestHex(digest) + ".bin";
}

bool
BlobStore::contains(std::uint64_t digest) const
{
    std::lock_guard<std::mutex> lock(mu);
    return known.count(digest) != 0;
}

std::size_t
BlobStore::size() const
{
    std::lock_guard<std::mutex> lock(mu);
    return known.size();
}

bool
BlobStore::put(std::uint64_t digest, const FileFill &fill)
{
    try {
        writeFileAtomically(path(digest), fill);
    } catch (const SimError &err) {
        warn("cannot persist blob %s-%s: %s", prefix.c_str(),
             digestHex(digest).c_str(), err.what());
        return false;
    }
    appendLocked(indexPath, header, digestLine("entry", digest));
    std::lock_guard<std::mutex> lock(mu);
    known.insert(digest);
    return true;
}

void
BlobStore::drop(std::uint64_t digest)
{
    ::unlink(path(digest).c_str());
    std::lock_guard<std::mutex> lock(mu);
    known.erase(digest);
}

std::unique_ptr<BlobLease>
BlobStore::lease(std::uint64_t digest)
{
    const std::string lockPath = path(digest) + ".lock";
    const int fd = ::open(lockPath.c_str(), O_CREAT | O_RDWR, 0666);
    if (fd < 0) {
        warn("cannot open key lock '%s': %s", lockPath.c_str(),
             std::strerror(errno));
        return nullptr;
    }
    int rc;
    do {
        rc = ::flock(fd, LOCK_EX);
    } while (rc != 0 && errno == EINTR);
    if (rc != 0) {
        warn("cannot lock key '%s': %s", lockPath.c_str(),
             std::strerror(errno));
        ::close(fd);
        return nullptr;
    }
    return std::unique_ptr<BlobLease>(new BlobLease(fd));
}

void
BlobStore::persistIndex()
{
    std::unordered_set<std::uint64_t> snapshot;
    {
        std::lock_guard<std::mutex> lock(mu);
        snapshot = known;
    }
    try {
        writeFileAtomically(indexPath, [&](std::FILE *f) {
            std::fputs(header.c_str(), f);
            for (const std::uint64_t digest : snapshot)
                std::fputs(digestLine("entry", digest).c_str(), f);
        });
    } catch (const SimError &err) {
        warn("cannot land the compacted index '%s': %s", indexPath.c_str(),
             err.what());
    }
}

} // namespace rc
