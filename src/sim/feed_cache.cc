#include "sim/feed_cache.hh"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <limits.h>
#include <type_traits>

#include <dirent.h>
#include <fcntl.h>
#include <sys/file.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include "common/filelock.hh"
#include "common/log.hh"
#include "sim/fanout.hh"
#include "snapshot/serializer.hh"

namespace rc
{

static_assert(std::is_trivially_copyable_v<StepRecord>,
              "StepRecords are stored and mapped as raw bytes");

namespace
{

constexpr char kMagic[8] = {'R', 'C', 'F', 'E', 'E', 'D', '1', '\0'};
constexpr std::uint32_t kFeedVersion = 1;
//! Fixed header: magic, version, record size, file size, arrays
//! off/len/hash, meta off/len, endian tag, CRC32 of the preceding 68.
constexpr std::uint64_t kHeaderBytes = 72;
//! Arrays start here (first 64-byte boundary past the header) and every
//! per-core array is re-aligned to 64 so mapped loads never straddle.
constexpr std::uint64_t kArraysAlign = 64;
constexpr std::uint32_t kEndianTag = 0x01020304;
constexpr const char *kIndexName = "feed.index";
constexpr const char *kIndexHeader = "# rc feed cache index v1\n";

// Fixed header field offsets (bytes).
constexpr std::size_t kOffVersion = 8;
constexpr std::size_t kOffRecordBytes = 12;
constexpr std::size_t kOffFileBytes = 16;
constexpr std::size_t kOffArraysOff = 24;
constexpr std::size_t kOffArraysBytes = 32;
constexpr std::size_t kOffArraysHash = 40;
constexpr std::size_t kOffMetaOff = 48;
constexpr std::size_t kOffMetaBytes = 56;
constexpr std::size_t kOffEndianTag = 64;
constexpr std::size_t kOffHeaderCrc = 68;

std::uint64_t
align64(std::uint64_t v)
{
    return (v + (kArraysAlign - 1)) & ~(kArraysAlign - 1);
}

void
st32(std::uint8_t *p, std::uint32_t v)
{
    p[0] = static_cast<std::uint8_t>(v);
    p[1] = static_cast<std::uint8_t>(v >> 8);
    p[2] = static_cast<std::uint8_t>(v >> 16);
    p[3] = static_cast<std::uint8_t>(v >> 24);
}

void
st64(std::uint8_t *p, std::uint64_t v)
{
    st32(p, static_cast<std::uint32_t>(v));
    st32(p + 4, static_cast<std::uint32_t>(v >> 32));
}

std::uint32_t
ld32(const std::uint8_t *p)
{
    return static_cast<std::uint32_t>(p[0]) |
           static_cast<std::uint32_t>(p[1]) << 8 |
           static_cast<std::uint32_t>(p[2]) << 16 |
           static_cast<std::uint32_t>(p[3]) << 24;
}

std::uint64_t
ld64(const std::uint8_t *p)
{
    return static_cast<std::uint64_t>(ld32(p)) |
           static_cast<std::uint64_t>(ld32(p + 4)) << 32;
}

/** Streaming form of feedHash64; every update must be word-granular
 *  (the blob layout only ever produces multiple-of-8 spans). */
struct FeedHasher
{
    std::uint64_t h = 0x9e3779b97f4a7c15ull;
    std::uint64_t total = 0;

    void words(const void *data, std::size_t len)
    {
        RC_ASSERT((len & 7) == 0, "feed hash spans must be word-granular");
        const std::uint8_t *p = static_cast<const std::uint8_t *>(data);
        std::uint64_t acc = h;
        for (std::size_t i = 0; i < len; i += 8) {
            std::uint64_t w;
            std::memcpy(&w, p + i, 8);
            acc ^= w;
            acc *= 0xff51afd7ed558ccdull;
            acc ^= acc >> 33;
        }
        h = acc;
        total += len;
    }

    std::uint64_t done() const
    {
        std::uint64_t x = h ^ (total * 0x100000001b3ull);
        x *= 0xc4ceb9fe1a85ec53ull;
        x ^= x >> 29;
        return x;
    }
};

std::uint64_t
fnv1aBytes(const std::vector<std::uint8_t> &bytes)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const std::uint8_t b : bytes) {
        h ^= b;
        h *= 0x100000001b3ull;
    }
    return h;
}

/** Parse the 16-hex digest out of "feed-<digest>.bin" (false on
 *  anything else, including .lock and .tmp siblings). */
bool
digestFromBlobName(const std::string &name, std::uint64_t &digest)
{
    if (name.size() != 4 + 1 + 16 + 4 || name.rfind("feed-", 0) != 0 ||
        name.substr(name.size() - 4) != ".bin")
        return false;
    char *end = nullptr;
    const std::string hex = name.substr(5, 16);
    digest = std::strtoull(hex.c_str(), &end, 16);
    return end != nullptr && *end == '\0';
}

void
fwriteAll(std::FILE *f, const void *data, std::size_t len,
          const char *path)
{
    if (len != 0 && std::fwrite(data, 1, len, f) != len)
        throwSimError(SimError::Kind::Io,
                      "short write to feed blob '%s': %s", path,
                      std::strerror(errno));
}

} // namespace

void
putFrontEndConfig(Serializer &s, const SystemConfig &c)
{
    s.putU32(c.numCores);
    s.putU64(c.priv.l1Bytes);
    s.putU32(c.priv.l1Ways);
    s.putU64(c.priv.l1Latency);
    s.putU64(c.priv.l2Bytes);
    s.putU32(c.priv.l2Ways);
    s.putU64(c.priv.l2Latency);
    s.putBool(c.prefetch.enable);
    s.putU32(c.prefetch.degree);
    s.putU32(c.prefetch.tableEntries);
    s.putU32(c.prefetch.regionShift);
    s.putU32(c.prefetch.minConfidence);
}

FeedKey
feedKeyOf(const SystemConfig &cfg, const Mix &mix, std::uint64_t seed,
          std::uint32_t scale, std::uint64_t warmup,
          std::uint64_t measure)
{
    Serializer s;
    s.beginSection("feedkey");
    s.beginSection("front");
    putFrontEndConfig(s, cfg);
    s.putU64(cfg.seed);
    s.putU32(cfg.capacityScale);
    s.endSection("front");
    s.beginSection("mix");
    s.putU64(mix.apps.size());
    for (const std::string &app : mix.apps)
        s.putString(app);
    s.endSection("mix");
    s.beginSection("opt");
    s.putU64(seed);
    s.putU32(scale);
    s.putU64(warmup);
    s.putU64(measure);
    s.endSection("opt");
    s.endSection("feedkey");
    // The canonical form is the section-framed payload alone, shorn of
    // the snapshot container header and trailing CRC (the same
    // convention as the service's canonicalBytes()).
    const std::vector<std::uint8_t> img = s.image();
    FeedKey key;
    key.bytes.assign(img.begin() + 12, img.end() - 4);
    key.digest = fnv1aBytes(key.bytes);
    return key;
}

std::string
feedDigestHex(std::uint64_t digest)
{
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(digest));
    return buf;
}

std::uint64_t
feedHash64(const void *data, std::size_t len)
{
    FeedHasher h;
    const std::size_t whole = len & ~static_cast<std::size_t>(7);
    h.words(data, whole);
    if (len & 7) {
        // Zero-pad a trailing partial word (never produced by the blob
        // writer, but keeps the function total for arbitrary input).
        std::uint64_t w = 0;
        std::memcpy(&w, static_cast<const std::uint8_t *>(data) + whole,
                    len & 7);
        h.words(&w, 8);
    }
    return h.done();
}

// --------------------------------------------------------------------
// FeedBlob

FeedBlob::~FeedBlob()
{
    if (base)
        ::munmap(const_cast<std::uint8_t *>(base), mapLen);
}

std::shared_ptr<const FeedBlob>
FeedBlob::open(const std::string &path)
{
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0)
        throwSimError(SimError::Kind::Snapshot,
                      "cannot open feed blob '%s': %s", path.c_str(),
                      std::strerror(errno));
    struct stat st{};
    if (::fstat(fd, &st) != 0) {
        const int err = errno;
        ::close(fd);
        throwSimError(SimError::Kind::Snapshot,
                      "cannot stat feed blob '%s': %s", path.c_str(),
                      std::strerror(err));
    }
    const std::uint64_t size = static_cast<std::uint64_t>(st.st_size);
    if (size < kHeaderBytes) {
        ::close(fd);
        throwSimError(SimError::Kind::Snapshot,
                      "feed blob '%s' is shorter than its header",
                      path.c_str());
    }
    void *m = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
    const int maperr = errno;
    ::close(fd);
    if (m == MAP_FAILED)
        throwSimError(SimError::Kind::Snapshot,
                      "cannot map feed blob '%s': %s", path.c_str(),
                      std::strerror(maperr));

    // From here the shared_ptr owns the mapping: any validation throw
    // below unwinds through ~FeedBlob and unmaps.
    std::shared_ptr<FeedBlob> blob(new FeedBlob());
    blob->origin = path;
    blob->base = static_cast<const std::uint8_t *>(m);
    blob->mapLen = static_cast<std::size_t>(size);
    const std::uint8_t *h = blob->base;

    if (std::memcmp(h, kMagic, sizeof(kMagic)) != 0)
        throwSimError(SimError::Kind::Snapshot,
                      "'%s' is not an RCFEED1 feed blob", path.c_str());
    if (ld32(h + kOffHeaderCrc) != crc32(h, kOffHeaderCrc))
        throwSimError(SimError::Kind::Snapshot,
                      "feed blob '%s' fails its header CRC",
                      path.c_str());
    const std::uint32_t version = ld32(h + kOffVersion);
    if (version != kFeedVersion)
        throwSimError(SimError::Kind::Snapshot,
                      "feed blob '%s' carries format version %u, "
                      "expected %u",
                      path.c_str(), version, kFeedVersion);
    if (ld32(h + kOffRecordBytes) != sizeof(StepRecord))
        throwSimError(SimError::Kind::Snapshot,
                      "feed blob '%s' was written with %u-byte records, "
                      "this build uses %zu",
                      path.c_str(), ld32(h + kOffRecordBytes),
                      sizeof(StepRecord));
    if (ld32(h + kOffEndianTag) != kEndianTag)
        throwSimError(SimError::Kind::Snapshot,
                      "feed blob '%s' has foreign endianness",
                      path.c_str());
    if (ld64(h + kOffFileBytes) != size)
        throwSimError(SimError::Kind::Snapshot,
                      "feed blob '%s' is %llu bytes, header claims %llu",
                      path.c_str(),
                      static_cast<unsigned long long>(size),
                      static_cast<unsigned long long>(
                          ld64(h + kOffFileBytes)));
    const std::uint64_t arraysOff = ld64(h + kOffArraysOff);
    const std::uint64_t arraysBytes = ld64(h + kOffArraysBytes);
    const std::uint64_t metaOff = ld64(h + kOffMetaOff);
    const std::uint64_t metaBytes = ld64(h + kOffMetaBytes);
    if (arraysOff < kHeaderBytes || arraysOff + arraysBytes > size ||
        arraysOff + arraysBytes < arraysOff || metaOff < arraysOff ||
        metaOff + metaBytes > size || metaOff + metaBytes < metaOff)
        throwSimError(SimError::Kind::Snapshot,
                      "feed blob '%s' declares out-of-bounds regions",
                      path.c_str());
    if (feedHash64(h + arraysOff, arraysBytes) != ld64(h + kOffArraysHash))
        throwSimError(SimError::Kind::Snapshot,
                      "feed blob '%s' fails its arrays-region hash",
                      path.c_str());

    // The meta region is a complete snapshot container with its own
    // CRC; the Deserializer constructor validates it up front.
    Deserializer d(std::vector<std::uint8_t>(h + metaOff,
                                             h + metaOff + metaBytes));
    d.beginSection("feedmeta");
    blob->keyDigest = d.getU64();
    {
        const std::string key = d.getString();
        blob->key.assign(key.begin(), key.end());
    }
    const std::uint32_t cores = d.getU32();
    if (cores == 0 || cores > 1024)
        throwSimError(SimError::Kind::Snapshot,
                      "feed blob '%s' claims %u cores", path.c_str(),
                      cores);
    blob->cores.resize(cores);
    const auto arrayAt = [&](std::uint64_t off, std::uint64_t bytes,
                             const char *what) -> const std::uint8_t * {
        if (off < arraysOff || off + bytes > arraysOff + arraysBytes ||
            off + bytes < off || (off & 7) != 0)
            throwSimError(SimError::Kind::Snapshot,
                          "feed blob '%s': %s array out of bounds",
                          path.c_str(), what);
        return h + off;
    };
    for (std::uint32_t c = 0; c < cores; ++c) {
        CoreView &view = blob->cores[c];
        d.beginSection("core");
        view.label = d.getString();
        view.count = d.getU64();
        view.llcCount = d.getU64();
        const std::uint64_t recOff = d.getU64();
        const std::uint64_t aOff = d.getU64();
        const std::uint64_t iOff = d.getU64();
        const std::uint64_t llcOff = d.getU64();
        if (view.llcCount > view.count)
            throwSimError(SimError::Kind::Snapshot,
                          "feed blob '%s': core %u has more LLC-bound "
                          "records than records",
                          path.c_str(), c);
        view.recs = reinterpret_cast<const StepRecord *>(
            arrayAt(recOff, view.count * sizeof(StepRecord), "record"));
        view.cumA = reinterpret_cast<const std::uint64_t *>(
            arrayAt(aOff, view.count * 8, "cumA"));
        view.cumI = reinterpret_cast<const std::uint64_t *>(
            arrayAt(iOff, view.count * 8, "cumI"));
        view.llc = reinterpret_cast<const std::uint64_t *>(
            arrayAt(llcOff, view.llcCount * 8, "llc index"));
        const auto loadSnaps = [&](std::vector<Snap> &out) {
            const std::uint64_t n = d.getU64();
            if (n > (view.count / 64) + 16)
                throwSimError(SimError::Kind::Snapshot,
                              "feed blob '%s': implausible snapshot "
                              "count %llu",
                              path.c_str(),
                              static_cast<unsigned long long>(n));
            out.resize(static_cast<std::size_t>(n));
            for (Snap &snap : out) {
                snap.idx = d.getU64();
                const std::string image = d.getString();
                snap.image.assign(image.begin(), image.end());
            }
        };
        loadSnaps(view.streamSnaps);
        loadSnaps(view.hierSnaps);
        d.endSection("core");
    }
    d.endSection("feedmeta");
    return blob;
}

// --------------------------------------------------------------------
// FeedCache

FeedCache::FeedCache(const std::string &dir) : dir(dir)
{
    if (::mkdir(dir.c_str(), 0777) != 0 && errno != EEXIST)
        throwSimError(SimError::Kind::Io,
                      "cannot create feed cache directory '%s': %s",
                      dir.c_str(), std::strerror(errno));
    recover();
}

std::shared_ptr<FeedCache>
FeedCache::open(const std::string &dir)
{
    // One instance per canonical directory for the whole process, so
    // the harness, benches and daemon stats all observe one counter
    // set (and share blob mappings) no matter who opened it first.
    static std::mutex regMu;
    static std::unordered_map<std::string, std::shared_ptr<FeedCache>>
        registry;
    std::lock_guard<std::mutex> lock(regMu);
    char buf[PATH_MAX];
    if (::realpath(dir.c_str(), buf)) {
        const auto it = registry.find(buf);
        if (it != registry.end())
            return it->second;
    }
    auto cache = std::make_shared<FeedCache>(dir); // creates the dir
    std::string canon = dir;
    if (::realpath(dir.c_str(), buf))
        canon = buf;
    const auto it = registry.find(canon);
    if (it != registry.end())
        return it->second;
    registry.emplace(canon, cache);
    return cache;
}

std::string
FeedCache::blobPath(std::uint64_t digest) const
{
    return dir + "/feed-" + feedDigestHex(digest) + ".bin";
}

void
FeedCache::recover()
{
    // Same discipline as the result cache: blobs are the source of
    // truth, unindexed blobs are adopted, stale tmps of a killed writer
    // are swept, and the index is rewritten compacted.  Lock files are
    // left alone — a live process may hold them, and replacing a held
    // lock file's inode would split the mutual exclusion.
    std::unordered_set<std::uint64_t> indexed;
    {
        std::FILE *f = std::fopen((dir + "/" + kIndexName).c_str(), "rb");
        if (f) {
            char line[128];
            while (std::fgets(line, sizeof(line), f)) {
                unsigned long long digest = 0;
                if (std::sscanf(line, "entry digest=%llx", &digest) == 1)
                    indexed.insert(digest);
            }
            std::fclose(f);
        }
    }

    DIR *d = ::opendir(dir.c_str());
    if (!d)
        throwSimError(SimError::Kind::Io,
                      "cannot scan feed cache directory '%s': %s",
                      dir.c_str(), std::strerror(errno));
    std::vector<std::string> staleTmp;
    while (struct dirent *ent = ::readdir(d)) {
        const std::string name = ent->d_name;
        if (name.size() > 4 && name.substr(name.size() - 4) == ".tmp") {
            staleTmp.push_back(dir + "/" + name);
            continue;
        }
        std::uint64_t digest = 0;
        if (!digestFromBlobName(name, digest))
            continue;
        known.insert(digest);
        if (!indexed.count(digest))
            ++counters.recovered;
    }
    ::closedir(d);
    for (const std::string &tmp : staleTmp)
        ::unlink(tmp.c_str());
    persistIndex();
}

std::shared_ptr<const FeedBlob>
FeedCache::lookup(const FeedKey &key)
{
    {
        std::lock_guard<std::mutex> lock(mu);
        if (!known.count(key.digest)) {
            ++counters.misses;
            return nullptr;
        }
        const auto it = resident.find(key.digest);
        if (it != resident.end()) {
            if (std::shared_ptr<const FeedBlob> blob = it->second.lock()) {
                if (blob->keyBytes() == key.bytes) {
                    ++counters.hits;
                    return blob;
                }
                // Digest collision against a valid resident blob.
                ++counters.misses;
                return nullptr;
            }
            resident.erase(it);
        }
    }
    const std::string path = blobPath(key.digest);
    std::shared_ptr<const FeedBlob> blob;
    try {
        blob = FeedBlob::open(path);
        if (blob->digest() != key.digest)
            throwSimError(SimError::Kind::Snapshot,
                          "feed blob '%s' carries a foreign digest",
                          path.c_str());
    } catch (const SimError &) {
        // Torn, truncated, bit-flipped or stale-format blob: drop it
        // and let the caller recompute.  Never a wrong stream.
        ::unlink(path.c_str());
        std::lock_guard<std::mutex> lock(mu);
        known.erase(key.digest);
        resident.erase(key.digest);
        ++counters.corruptDropped;
        ++counters.misses;
        return nullptr;
    }
    if (blob->keyBytes() != key.bytes) {
        // A digest collision, not corruption: the blob is some other
        // key's valid entry.  Miss without unlinking it.
        std::lock_guard<std::mutex> lock(mu);
        ++counters.misses;
        return nullptr;
    }
    std::lock_guard<std::mutex> lock(mu);
    resident[key.digest] = blob;
    ++counters.hits;
    return blob;
}

FeedKeyLease::~FeedKeyLease()
{
    if (fd >= 0) {
        ::flock(fd, LOCK_UN);
        ::close(fd);
    }
}

std::unique_ptr<FeedKeyLease>
FeedCache::lockKey(std::uint64_t digest)
{
    const std::string path = blobPath(digest) + ".lock";
    const int fd = ::open(path.c_str(), O_CREAT | O_RDWR, 0666);
    if (fd < 0) {
        warn("feed cache: cannot open key lock '%s': %s", path.c_str(),
             std::strerror(errno));
        return nullptr;
    }
    int rc;
    do {
        rc = ::flock(fd, LOCK_EX);
    } while (rc != 0 && errno == EINTR);
    if (rc != 0) {
        ::close(fd);
        warn("feed cache: cannot lock key '%s': %s", path.c_str(),
             std::strerror(errno));
        return nullptr;
    }
    auto lease = std::unique_ptr<FeedKeyLease>(new FeedKeyLease());
    lease->fd = fd;
    return lease;
}

void
FeedCache::store(const FeedKey &key, const FanoutFeed &feed)
{
    RC_ASSERT(feed.capturing(),
              "feed-cache store needs a capture-mode feed");
    const std::string path = blobPath(key.digest);
    const std::string tmp =
        path + "." + std::to_string(::getpid()) + ".tmp";

    std::FILE *f = std::fopen(tmp.c_str(), "wb");
    if (!f) {
        warn("feed cache: cannot persist %s: %s",
             feedDigestHex(key.digest).c_str(), std::strerror(errno));
        return;
    }
    bool ok = false;
    try {
        const std::uint32_t cores = feed.numCores();
        const std::uint64_t arraysOff = align64(kHeaderBytes);

        // Lay the arrays region out up front so the meta section can
        // carry absolute offsets.
        struct CoreLayout
        {
            std::uint64_t count = 0, llcCount = 0;
            std::uint64_t recOff = 0, aOff = 0, iOff = 0, llcOff = 0;
        };
        std::vector<CoreLayout> lay(cores);
        std::uint64_t off = arraysOff;
        for (std::uint32_t c = 0; c < cores; ++c) {
            const FanoutFeed::PerCore &pc = feed.per[c];
            RC_ASSERT(pc.base == 0,
                      "capture-mode feed was trimmed; cannot store");
            CoreLayout &l = lay[c];
            l.count = pc.generated;
            l.llcCount = pc.llcIdx.size();
            l.recOff = align64(off);
            off = l.recOff + l.count * sizeof(StepRecord);
            l.aOff = align64(off);
            off = l.aOff + l.count * 8;
            l.iOff = align64(off);
            off = l.iOff + l.count * 8;
            l.llcOff = align64(off);
            off = l.llcOff + l.llcCount * 8;
        }
        const std::uint64_t arraysBytes = off - arraysOff;
        const std::uint64_t metaOff = off;

        // Meta region: a complete snapshot container of its own.
        Serializer meta;
        meta.beginSection("feedmeta");
        meta.putU64(key.digest);
        meta.putString(
            std::string(key.bytes.begin(), key.bytes.end()));
        meta.putU32(cores);
        for (std::uint32_t c = 0; c < cores; ++c) {
            const FanoutFeed::PerCore &pc = feed.per[c];
            const CoreLayout &l = lay[c];
            meta.beginSection("core");
            meta.putString(feed.labels[c]);
            meta.putU64(l.count);
            meta.putU64(l.llcCount);
            meta.putU64(l.recOff);
            meta.putU64(l.aOff);
            meta.putU64(l.iOff);
            meta.putU64(l.llcOff);
            meta.putU64(pc.snaps.size());
            for (const FanoutFeed::StreamSnap &snap : pc.snaps) {
                meta.putU64(snap.idx);
                meta.putString(std::string(snap.image.begin(),
                                           snap.image.end()));
            }
            meta.putU64(pc.hsnaps.size());
            for (const FanoutFeed::HierSnap &snap : pc.hsnaps) {
                meta.putU64(snap.idx);
                meta.putString(std::string(snap.image.begin(),
                                           snap.image.end()));
            }
            meta.endSection("core");
        }
        meta.endSection("feedmeta");
        const std::vector<std::uint8_t> metaImg = meta.image();

        // Placeholder header + padding, then the arrays (hashed as
        // written, padding included), then meta; the sealed header is
        // patched in last.  One zero buffer serves the header
        // placeholder and every (shorter than kArraysAlign) pad.
        static const std::uint8_t
            zeros[std::max(kHeaderBytes, kArraysAlign)] = {};
        fwriteAll(f, zeros, kHeaderBytes, tmp.c_str());
        fwriteAll(f, zeros, arraysOff - kHeaderBytes, tmp.c_str());
        FeedHasher hash;
        std::uint64_t pos = arraysOff;
        const auto pad = [&](std::uint64_t to) {
            RC_ASSERT(to >= pos && to - pos < kArraysAlign,
                      "feed blob layout drifted while writing");
            fwriteAll(f, zeros, to - pos, tmp.c_str());
            hash.words(zeros, to - pos);
            pos = to;
        };
        const auto emit = [&](const void *data, std::uint64_t bytes) {
            fwriteAll(f, data, bytes, tmp.c_str());
            hash.words(data, bytes);
            pos += bytes;
        };
        for (std::uint32_t c = 0; c < cores; ++c) {
            const FanoutFeed::PerCore &pc = feed.per[c];
            const CoreLayout &l = lay[c];
            pad(l.recOff);
            // Capture mode never trims, so the ring's power-of-2 slot
            // mapping is the identity over [0, generated) and the ring
            // IS the flat record array.
            emit(pc.ring.data(), l.count * sizeof(StepRecord));
            pad(l.aOff);
            emit(pc.cumA.data(), l.count * 8);
            pad(l.iOff);
            emit(pc.cumI.data(), l.count * 8);
            pad(l.llcOff);
            const std::vector<std::uint64_t> llc(pc.llcIdx.begin(),
                                                 pc.llcIdx.end());
            emit(llc.data(), l.llcCount * 8);
        }
        RC_ASSERT(pos == metaOff, "feed blob arrays region drifted");
        fwriteAll(f, metaImg.data(), metaImg.size(), tmp.c_str());

        std::uint8_t hdr[kHeaderBytes];
        std::memcpy(hdr, kMagic, sizeof(kMagic));
        st32(hdr + kOffVersion, kFeedVersion);
        st32(hdr + kOffRecordBytes, sizeof(StepRecord));
        st64(hdr + kOffFileBytes, metaOff + metaImg.size());
        st64(hdr + kOffArraysOff, arraysOff);
        st64(hdr + kOffArraysBytes, arraysBytes);
        st64(hdr + kOffArraysHash, hash.done());
        st64(hdr + kOffMetaOff, metaOff);
        st64(hdr + kOffMetaBytes, metaImg.size());
        st32(hdr + kOffEndianTag, kEndianTag);
        st32(hdr + kOffHeaderCrc, crc32(hdr, kOffHeaderCrc));
        if (std::fseek(f, 0, SEEK_SET) != 0)
            throwSimError(SimError::Kind::Io,
                          "cannot rewind feed blob '%s'", tmp.c_str());
        fwriteAll(f, hdr, kHeaderBytes, tmp.c_str());
        if (std::fflush(f) != 0 || ::fsync(::fileno(f)) != 0)
            throwSimError(SimError::Kind::Io,
                          "cannot flush feed blob '%s': %s", tmp.c_str(),
                          std::strerror(errno));
        ok = true;
    } catch (const SimError &err) {
        // Failing to persist costs a future front-end recompute,
        // nothing else.
        warn("feed cache: cannot persist %s: %s",
             feedDigestHex(key.digest).c_str(), err.what());
    }
    std::fclose(f);
    if (!ok || std::rename(tmp.c_str(), path.c_str()) != 0) {
        ::unlink(tmp.c_str());
        if (ok)
            warn("feed cache: cannot land blob '%s': %s", path.c_str(),
                 std::strerror(errno));
        return;
    }
    appendIndex(key.digest);
    std::lock_guard<std::mutex> lock(mu);
    known.insert(key.digest);
    ++counters.stores;
}

void
FeedCache::appendIndex(std::uint64_t digest)
{
    const std::string path = dir + "/" + kIndexName;
    const bool fresh = ::access(path.c_str(), F_OK) != 0;
    std::FILE *f = std::fopen(path.c_str(), "ab");
    if (!f) {
        warn("feed cache: cannot open index '%s': %s", path.c_str(),
             std::strerror(errno));
        return;
    }
    char line[64];
    std::snprintf(line, sizeof(line), "entry digest=%s\n",
                  feedDigestHex(digest).c_str());
    try {
        // flock orders this append against other processes sharing the
        // directory; recovery tolerates a torn tail anyway, but
        // well-formed records make post-mortems readable.
        ScopedFileLock flock(::fileno(f));
        if (fresh)
            std::fputs(kIndexHeader, f);
        std::fputs(line, f);
        std::fflush(f);
        ::fsync(::fileno(f));
    } catch (const SimError &err) {
        warn("feed cache: index append skipped: %s", err.what());
    }
    std::fclose(f);
}

void
FeedCache::persistIndex()
{
    std::unordered_set<std::uint64_t> snapshot;
    {
        std::lock_guard<std::mutex> lock(mu);
        snapshot = known;
    }
    const std::string path = dir + "/" + kIndexName;
    // pid-unique tmp (same convention as blob tmps, so recovery sweeps
    // it): two processes compacting at once must not clobber each
    // other's staging file — either rename landing is correct.
    const std::string tmp =
        path + "." + std::to_string(::getpid()) + ".tmp";
    std::FILE *f = std::fopen(tmp.c_str(), "wb");
    if (!f) {
        warn("feed cache: cannot rewrite index '%s': %s", path.c_str(),
             std::strerror(errno));
        return;
    }
    std::fputs(kIndexHeader, f);
    for (const std::uint64_t digest : snapshot)
        std::fprintf(f, "entry digest=%s\n",
                     feedDigestHex(digest).c_str());
    const bool ok = std::fflush(f) == 0 && ::fsync(::fileno(f)) == 0;
    std::fclose(f);
    if (!ok || std::rename(tmp.c_str(), path.c_str()) != 0) {
        ::unlink(tmp.c_str());
        warn("feed cache: cannot land the compacted index '%s'",
             path.c_str());
    }
}

std::size_t
FeedCache::size() const
{
    std::lock_guard<std::mutex> lock(mu);
    return known.size();
}

FeedCacheStats
FeedCache::stats() const
{
    std::lock_guard<std::mutex> lock(mu);
    return counters;
}

// --------------------------------------------------------------------
// Layout-aware blob corruption (fault injection)

void
feedTruncateBlob(const std::string &path)
{
    struct stat st{};
    if (::stat(path.c_str(), &st) != 0)
        throwSimError(SimError::Kind::Io,
                      "cannot stat feed blob '%s': %s", path.c_str(),
                      std::strerror(errno));
    // Cut mid-arrays: past the header (so the failure exercises the
    // region bounds check, not the trivial short-file path) but well
    // short of the meta region.
    const off_t keep =
        std::max<off_t>(static_cast<off_t>(kHeaderBytes) + 8,
                        st.st_size / 2);
    if (::truncate(path.c_str(), keep) != 0)
        throwSimError(SimError::Kind::Io,
                      "cannot truncate feed blob '%s': %s", path.c_str(),
                      std::strerror(errno));
}

void
feedFlipBlobByte(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "r+b");
    if (!f)
        throwSimError(SimError::Kind::Io,
                      "cannot open feed blob '%s': %s", path.c_str(),
                      std::strerror(errno));
    std::uint8_t hdr[kHeaderBytes];
    if (std::fread(hdr, 1, kHeaderBytes, f) != kHeaderBytes) {
        std::fclose(f);
        throwSimError(SimError::Kind::Io,
                      "cannot read feed blob header '%s'", path.c_str());
    }
    const std::uint64_t arraysOff = ld64(hdr + kOffArraysOff);
    const std::uint64_t arraysBytes = ld64(hdr + kOffArraysBytes);
    const long target =
        static_cast<long>(arraysOff + arraysBytes / 2);
    std::uint8_t b = 0;
    const bool ok = std::fseek(f, target, SEEK_SET) == 0 &&
                    std::fread(&b, 1, 1, f) == 1 &&
                    std::fseek(f, target, SEEK_SET) == 0 &&
                    (b ^= 0x40, std::fwrite(&b, 1, 1, f) == 1) &&
                    std::fflush(f) == 0;
    std::fclose(f);
    if (!ok)
        throwSimError(SimError::Kind::Io,
                      "cannot flip a payload byte in '%s'", path.c_str());
}

void
feedStaleVersionBlob(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "r+b");
    if (!f)
        throwSimError(SimError::Kind::Io,
                      "cannot open feed blob '%s': %s", path.c_str(),
                      std::strerror(errno));
    std::uint8_t hdr[kHeaderBytes];
    if (std::fread(hdr, 1, kHeaderBytes, f) != kHeaderBytes) {
        std::fclose(f);
        throwSimError(SimError::Kind::Io,
                      "cannot read feed blob header '%s'", path.c_str());
    }
    // Bump the version word and RE-SEAL the header CRC, so the reader's
    // rejection can only come from the version check itself — the
    // stale-format path, not the corruption path.
    st32(hdr + kOffVersion, kFeedVersion + 1);
    st32(hdr + kOffHeaderCrc, crc32(hdr, kOffHeaderCrc));
    const bool ok = std::fseek(f, 0, SEEK_SET) == 0 &&
                    std::fwrite(hdr, 1, kHeaderBytes, f) ==
                        kHeaderBytes &&
                    std::fflush(f) == 0;
    std::fclose(f);
    if (!ok)
        throwSimError(SimError::Kind::Io,
                      "cannot rewrite feed blob header '%s'",
                      path.c_str());
}

} // namespace rc
