#include "sim/feed_cache.hh"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <limits.h>
#include <type_traits>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include "common/log.hh"
#include "sim/fanout.hh"
#include "snapshot/serializer.hh"

namespace rc
{

static_assert(std::is_trivially_copyable_v<PackedStep>,
              "records are stored and mapped as raw bytes");

namespace
{

constexpr char kMagic[8] = {'R', 'C', 'F', 'E', 'E', 'D', '1', '\0'};
//! Fixed header: magic, version, record size, file size, arrays
//! off/len/hash, meta off/len, endian tag, CRC32 of the preceding 68.
constexpr std::uint64_t kHeaderBytes = 72;
//! Arrays start here (first 64-byte boundary past the header) and every
//! per-core array is re-aligned to 64 so mapped loads never straddle.
constexpr std::uint64_t kArraysAlign = 64;
constexpr std::uint32_t kEndianTag = 0x01020304;

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
 *  (the blob layout only ever produces multiple-of-8 spans).  A word's
 *  lane is its index in the whole stream mod kFeedHashLanes, so the
 *  value does not depend on how the stream was split into updates. */
struct FeedHasher
{
    static constexpr std::size_t L = kFeedHashLanes;

    std::uint64_t lane[L];
    std::uint64_t total = 0;

    FeedHasher()
    {
        for (std::size_t j = 0; j < L; ++j)
            lane[j] = 0x9e3779b97f4a7c15ull * (j + 1);
    }

    /** One link of a lane's chain; a bijection of acc for fixed w. */
    static std::uint64_t step(std::uint64_t acc, const std::uint8_t *p)
    {
        std::uint64_t w;
        std::memcpy(&w, p, 8);
        acc ^= w;
        acc *= 0xff51afd7ed558ccdull;
        return acc ^ (acc >> 33);
    }

    void words(const void *data, std::size_t len)
    {
        RC_ASSERT((len & 7) == 0, "feed hash spans must be word-granular");
        const std::uint8_t *p = static_cast<const std::uint8_t *>(data);
        std::size_t n = len / 8;
        std::size_t j = (total / 8) % L;
        total += len;
        // Finish the block an earlier update left open...
        for (; n != 0 && j != 0; --n, p += 8, j = (j + 1) % L)
            lane[j] = step(lane[j], p);
        // ...then whole blocks, one word per lane...
        std::uint64_t acc[L];
        std::copy(lane, lane + L, acc);
        for (; n >= L; n -= L, p += 8 * L)
            for (std::size_t k = 0; k < L; ++k)
                acc[k] = step(acc[k], p + 8 * k);
        std::copy(acc, acc + L, lane);
        // ...and open the next one.
        for (std::size_t k = 0; k < n; ++k)
            lane[k] = step(lane[k], p + 8 * k);
    }

    std::uint64_t done() const
    {
        // Each fold is a bijection of the lane folded in, so a change
        // confined to one lane always reaches the result.
        std::uint64_t x = total * 0x100000001b3ull;
        for (std::size_t j = 0; j < L; ++j) {
            x ^= lane[j];
            x *= 0xc4ceb9fe1a85ec53ull;
            x ^= x >> 29;
        }
        return x;
    }
};

void
fwriteAll(std::FILE *f, const void *data, std::size_t len)
{
    if (len != 0 && std::fwrite(data, 1, len, f) != len)
        throwSimError(SimError::Kind::Io, "short write to a feed blob: %s",
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

void
putRunInputs(Serializer &s, const Mix &mix, std::uint64_t seed,
             std::uint32_t scale, std::uint64_t warmup, std::uint64_t measure)
{
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
    putRunInputs(s, mix, seed, scale, warmup, measure);
    s.endSection("feedkey");
    FeedKey key;
    key.bytes = s.payload();
    key.digest = fnv1a64(key.bytes);
    return key;
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
    if (ld32(h + kOffRecordBytes) != sizeof(PackedStep))
        throwSimError(SimError::Kind::Snapshot,
                      "feed blob '%s' was written with %u-byte records, "
                      "this build uses %zu",
                      path.c_str(), ld32(h + kOffRecordBytes),
                      sizeof(PackedStep));
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
    // CRC; the Deserializer validates it in place, and the key, labels
    // and snapshot images are read out of the mapping.
    Deserializer d(std::span<const std::uint8_t>(h + metaOff, metaBytes));
    d.beginSection("feedmeta");
    blob->keyDigest = d.getU64();
    {
        const std::span<const std::uint8_t> key = d.getStringBytes();
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
        view.pcCount = d.getU64();
        const std::uint64_t recOff = d.getU64();
        const std::uint64_t aOff = d.getU64();
        const std::uint64_t iOff = d.getU64();
        const std::uint64_t llcOff = d.getU64();
        const std::uint64_t victimOff = d.getU64();
        const std::uint64_t pcOff = d.getU64();
        if (view.count % FanoutFeed::kChunk != 0 ||
            view.llcCount > view.count || view.pcCount > view.count)
            throwSimError(SimError::Kind::Snapshot,
                          "feed blob '%s': core %u declares inconsistent "
                          "record counts",
                          path.c_str(), c);
        view.recs = reinterpret_cast<const PackedStep *>(
            arrayAt(recOff, view.count * sizeof(PackedStep), "record"));
        view.cumA = reinterpret_cast<const std::uint64_t *>(
            arrayAt(aOff, view.count * 8, "cumA"));
        view.cumI = reinterpret_cast<const std::uint64_t *>(
            arrayAt(iOff, view.count * 8, "cumI"));
        view.llc = reinterpret_cast<const std::uint64_t *>(
            arrayAt(llcOff, view.llcCount * 8, "llc index"));
        view.llcVictim = reinterpret_cast<const std::uint64_t *>(
            arrayAt(victimOff, view.llcCount * 8, "llc victim"));
        view.pcs = reinterpret_cast<const std::uint64_t *>(
            arrayAt(pcOff, view.pcCount * 8, "pc table"));
        // One snapshot per chunk, in order: a replaying feed finds a
        // record's anchor by chunk number.
        const auto loadSnaps = [&](std::vector<Snap> &out) {
            const std::uint64_t n = d.getU64();
            if (n != view.count / FanoutFeed::kChunk)
                throwSimError(SimError::Kind::Snapshot,
                              "feed blob '%s': %llu snapshots for %llu "
                              "chunks",
                              path.c_str(),
                              static_cast<unsigned long long>(n),
                              static_cast<unsigned long long>(
                                  view.count / FanoutFeed::kChunk));
            out.resize(static_cast<std::size_t>(n));
            for (std::uint64_t i = 0; i < n; ++i) {
                Snap &snap = out[i];
                snap.idx = d.getU64();
                snap.image = d.getStringBytes();
                if (snap.idx != i * FanoutFeed::kChunk)
                    throwSimError(SimError::Kind::Snapshot,
                                  "feed blob '%s': snapshot %llu is "
                                  "off its chunk boundary",
                                  path.c_str(),
                                  static_cast<unsigned long long>(i));
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

FeedCache::FeedCache(const std::string &dir)
    : blobs(dir, "feed", "feed.index", "# rc feed cache index v1\n")
{
    counters.recovered = blobs.recovered();
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

std::shared_ptr<const FeedBlob>
FeedCache::lookup(const FeedKey &key)
{
    {
        std::lock_guard<std::mutex> lock(mu);
        if (!blobs.contains(key.digest)) {
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
    const std::string path = blobs.path(key.digest);
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
        blobs.drop(key.digest);
        std::lock_guard<std::mutex> lock(mu);
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

void
FeedCache::store(const FeedKey &key, const FanoutFeed &feed)
{
    RC_ASSERT(feed.capturing(),
              "feed-cache store needs a capture-mode feed");
    // Everything the blob is built from lives inside the fill, so it is
    // freed before put() records the digest.
    const bool stored = blobs.put(key.digest, [&](std::FILE *f) {
        const std::uint32_t cores = feed.numCores();
        const std::uint64_t arraysOff = align64(kHeaderBytes);

        // Lay the arrays region out up front so the meta section can
        // carry absolute offsets.
        struct CoreLayout
        {
            std::uint64_t count = 0, llcCount = 0, pcCount = 0;
            std::uint64_t recOff = 0, aOff = 0, iOff = 0, llcOff = 0;
            std::uint64_t victimOff = 0, pcOff = 0;
        };
        constexpr std::uint64_t kChunk = FanoutFeed::kChunk;
        std::vector<CoreLayout> lay(cores);
        std::uint64_t off = arraysOff;
        for (std::uint32_t c = 0; c < cores; ++c) {
            const FanoutFeed::PerCore &pc = feed.per[c];
            RC_ASSERT(pc.liveFrom == 0 && pc.llcBase == 0,
                      "capture-mode feed was trimmed; cannot store");
            CoreLayout &l = lay[c];
            l.count = pc.generated;
            l.llcCount = pc.llc.size();
            l.pcCount = pc.pcTab.size();
            l.recOff = align64(off);
            off = l.recOff + l.count * sizeof(PackedStep);
            l.aOff = align64(off);
            off = l.aOff + l.count * 8;
            l.iOff = align64(off);
            off = l.iOff + l.count * 8;
            l.llcOff = align64(off);
            off = l.llcOff + l.llcCount * 8;
            l.victimOff = align64(off);
            off = l.victimOff + l.llcCount * 8;
            l.pcOff = align64(off);
            off = l.pcOff + l.pcCount * 8;
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
            meta.putU64(l.pcCount);
            meta.putU64(l.recOff);
            meta.putU64(l.aOff);
            meta.putU64(l.iOff);
            meta.putU64(l.llcOff);
            meta.putU64(l.victimOff);
            meta.putU64(l.pcOff);
            for (const bool stream : {true, false}) {
                meta.putU64(pc.chunks.size());
                for (std::size_t n = 0; n < pc.chunks.size(); ++n) {
                    const std::span<const std::uint8_t> image =
                        stream ? pc.chunks[n].streamImage
                               : pc.chunks[n].hierImage;
                    meta.putU64(n * kChunk);
                    meta.putString(
                        std::string(image.begin(), image.end()));
                }
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
        fwriteAll(f, zeros, kHeaderBytes);
        fwriteAll(f, zeros, arraysOff - kHeaderBytes);
        FeedHasher hash;
        std::uint64_t pos = arraysOff;
        const auto pad = [&](std::uint64_t to) {
            RC_ASSERT(to >= pos && to - pos < kArraysAlign,
                      "feed blob layout drifted while writing");
            fwriteAll(f, zeros, to - pos);
            hash.words(zeros, to - pos);
            pos = to;
        };
        const auto emit = [&](const void *data, std::uint64_t bytes) {
            fwriteAll(f, data, bytes);
            hash.words(data, bytes);
            pos += bytes;
        };
        for (std::uint32_t c = 0; c < cores; ++c) {
            const FanoutFeed::PerCore &pc = feed.per[c];
            const CoreLayout &l = lay[c];
            // Capture mode never trims, so the chunks, in order, are
            // the flat arrays.
            pad(l.recOff);
            for (const FanoutFeed::Chunk &ch : pc.chunks)
                emit(ch.recs, kChunk * sizeof(PackedStep));
            pad(l.aOff);
            for (const FanoutFeed::Chunk &ch : pc.chunks)
                emit(ch.cumA, kChunk * 8);
            pad(l.iOff);
            for (const FanoutFeed::Chunk &ch : pc.chunks)
                emit(ch.cumI, kChunk * 8);
            std::vector<std::uint64_t> side(l.llcCount);
            pad(l.llcOff);
            for (std::uint64_t n = 0; n < l.llcCount; ++n)
                side[n] = pc.llc[n].idx;
            emit(side.data(), l.llcCount * 8);
            pad(l.victimOff);
            for (std::uint64_t n = 0; n < l.llcCount; ++n)
                side[n] = pc.llc[n].victim;
            emit(side.data(), l.llcCount * 8);
            pad(l.pcOff);
            emit(pc.pcTab.data(), l.pcCount * 8);
        }
        RC_ASSERT(pos == metaOff, "feed blob arrays region drifted");
        fwriteAll(f, metaImg.data(), metaImg.size());

        std::uint8_t hdr[kHeaderBytes];
        std::memcpy(hdr, kMagic, sizeof(kMagic));
        st32(hdr + kOffVersion, kFeedVersion);
        st32(hdr + kOffRecordBytes, sizeof(PackedStep));
        st64(hdr + kOffFileBytes, metaOff + metaImg.size());
        st64(hdr + kOffArraysOff, arraysOff);
        st64(hdr + kOffArraysBytes, arraysBytes);
        st64(hdr + kOffArraysHash, hash.done());
        st64(hdr + kOffMetaOff, metaOff);
        st64(hdr + kOffMetaBytes, metaImg.size());
        st32(hdr + kOffEndianTag, kEndianTag);
        st32(hdr + kOffHeaderCrc, crc32(hdr, kOffHeaderCrc));
        if (std::fseek(f, 0, SEEK_SET) != 0)
            throwSimError(SimError::Kind::Io, "cannot rewind a feed blob");
        fwriteAll(f, hdr, kHeaderBytes);
    });
    if (!stored)
        return;
    std::lock_guard<std::mutex> lock(mu);
    ++counters.stores;
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
