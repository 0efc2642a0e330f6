/**
 * @file
 * Persistent feed-cache tests: a FanoutCmp replaying records out of a
 * warm RCFEED1 blob must leave every member — including the arena's
 * CRC2-family ports — in exactly the state the cold capturing run
 * reached (same stats, same cycle count, same mid-run checkpoint
 * bytes); the canonical key must be sensitive to everything that shapes
 * the front end and insensitive to SLLC-only config changes; a corrupt
 * blob of every feed FaultClass, a byte flipped in any arrays-hash lane
 * or in the meta region, and a blob of the previous format version must
 * each demote to a verified recompute and be unlinked; and two processes
 * racing one cold key through the flock lease must end with one blob
 * and identical results.
 */

#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <cstdio>
#include <cstdlib>

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "cache/replacement.hh"
#include "scoped_dir.hh"
#include "service/run_request.hh"
#include "sim/cmp.hh"
#include "sim/fanout.hh"
#include "sim/feed_cache.hh"
#include "sim/system_config.hh"
#include "snapshot/serializer.hh"
#include "verify/fault_injector.hh"
#include "workloads/mixes.hh"

namespace
{

using namespace rc;

constexpr Cycle kWarmup = 40'000;
constexpr Cycle kMeasure = 160'000;
constexpr std::uint32_t kScale = 8;
constexpr std::uint64_t kSeed = 42;

Mix
testMix()
{
    Mix mix;
    for (int c = 0; c < 8; ++c)
        mix.apps.push_back(c % 2 == 0 ? "mcf" : "libquantum");
    return mix;
}

StreamFactory
mixFactory()
{
    return [] { return buildMixStreams(testMix(), kSeed, kScale); };
}

/** {conventional, arena ports, reuse, NCID} behind one front end. */
std::vector<SystemConfig>
matrixConfigs()
{
    std::vector<SystemConfig> cfgs;
    cfgs.push_back(conventionalSystem(8.0, ReplKind::LRU, kScale));
    cfgs.push_back(conventionalSystem(8.0, ReplKind::Ship, kScale));
    cfgs.push_back(conventionalSystem(8.0, ReplKind::Redre, kScale));
    cfgs.push_back(reuseSystem(4.0, 1.0, 16, kScale));
    cfgs.push_back(ncidSystem(8.0, 1.0, kScale));
    for (SystemConfig &c : cfgs)
        c.seed = kSeed;
    return cfgs;
}

/** Full-state fingerprint, mirroring tests/test_fanout.cc. */
std::string
fingerprint(const Cmp &sim)
{
    std::ostringstream os;
    sim.llc().stats().dumpJson(os);
    os << "\n";
    for (std::uint32_t i = 0; i < sim.numCores(); ++i) {
        sim.core(i).priv().stats().dumpJson(os);
        os << "\n";
    }
    for (const auto &chan : sim.memory().channels()) {
        chan->stats().dumpJson(os);
        os << "\n";
    }
    for (const auto &mshr : sim.crossbar().mshrs()) {
        mshr->stats().dumpJson(os);
        os << "\n";
    }
    os << "refs=" << sim.referencesProcessed() << " cycles=" << sim.now()
       << "\n";
    return os.str();
}

/** Drive @p fan through the standard warmup+measure window. */
void
runWindow(FanoutCmp &fan, Cycle warmup, Cycle measure)
{
    fan.run(warmup);
    fan.beginMeasurement();
    fan.run(measure);
}

/** All members' fingerprints, concatenated (order = config order). */
std::string
fleetFingerprint(FanoutCmp &fan, std::size_t n)
{
    std::string out;
    for (std::size_t i = 0; i < n; ++i)
        out += fingerprint(fan.member(i));
    return out;
}

/**
 * The harness's fan-out cold/warm protocol in miniature: look up, take the
 * key lease on a miss, re-look-up, then capture-and-store or replay.
 * Returns the fleet fingerprint either way (they must never differ).
 */
std::string
runViaProtocol(const std::string &dir,
               const std::vector<SystemConfig> &cfgs, Cycle warmup,
               Cycle measure, bool *was_warm = nullptr)
{
    FeedCache fc(dir);
    const FeedKey key =
        feedKeyOf(cfgs.front(), testMix(), kSeed, kScale, warmup, measure);
    std::shared_ptr<const FeedBlob> blob = fc.lookup(key);
    std::unique_ptr<BlobLease> lease;
    if (!blob) {
        lease = fc.lockKey(key.digest);
        blob = fc.lookup(key);
    }
    if (was_warm)
        *was_warm = blob != nullptr;
    const bool capture = blob == nullptr;
    FanoutCmp fan(cfgs, mixFactory(), blob, capture);
    runWindow(fan, warmup, measure);
    if (capture)
        fc.store(key, fan.sharedFeed());
    return fleetFingerprint(fan, cfgs.size());
}

// ---------------------------------------------------------------------
// Warm-vs-cold bitwise identity
// ---------------------------------------------------------------------

TEST(FeedCacheTest, WarmReplayBitIdenticalToColdCapture)
{
    const ScopedDir scratch("rc-feed-identity");
    const std::string &dir = scratch.path();
    const std::vector<SystemConfig> cfgs = matrixConfigs();

    FeedCache fc(dir);
    const FeedKey key = feedKeyOf(cfgs.front(), testMix(), kSeed, kScale,
                                  kWarmup, kMeasure);
    EXPECT_EQ(fc.lookup(key), nullptr) << "fresh dir should miss";

    FanoutCmp cold(cfgs, mixFactory(), nullptr, /*capture=*/true);
    runWindow(cold, kWarmup, kMeasure);
    fc.store(key, cold.sharedFeed());
    EXPECT_EQ(fc.size(), 1u);

    const std::shared_ptr<const FeedBlob> blob = fc.lookup(key);
    ASSERT_NE(blob, nullptr) << "stored key must hit";
    EXPECT_EQ(blob->numCores(), cfgs.front().numCores);

    FanoutCmp warm(cfgs, mixFactory(), blob);
    EXPECT_TRUE(warm.sharedFeed().warm());
    EXPECT_FALSE(warm.sharedFeed().capturing());
    runWindow(warm, kWarmup, kMeasure);

    for (std::size_t i = 0; i < cfgs.size(); ++i) {
        EXPECT_EQ(fingerprint(cold.member(i)), fingerprint(warm.member(i)))
            << "member " << i << " diverged when replaying the blob";
    }

    const FeedCacheStats st = fc.stats();
    EXPECT_EQ(st.stores, 1u);
    EXPECT_EQ(st.hits, 1u);
    EXPECT_GE(st.misses, 1u);
}

// ---------------------------------------------------------------------
// Mid-run checkpoints off a warm feed
// ---------------------------------------------------------------------

TEST(FeedCacheTest, WarmCheckpointsByteIdenticalToCold)
{
    const ScopedDir scratch("rc-feed-ckpt");
    const std::string &dir = scratch.path();
    std::vector<SystemConfig> cfgs;
    cfgs.push_back(conventionalSystem(8.0, ReplKind::LRU, kScale));
    cfgs.push_back(reuseSystem(4.0, 1.0, 16, kScale));
    for (SystemConfig &c : cfgs)
        c.seed = kSeed;
    constexpr std::uint64_t kCkptEvery = 30'000;

    auto capture = [](std::vector<std::vector<std::uint8_t>> &dst) {
        return [&dst](const Cmp &c, Cycle) {
            Serializer s;
            c.save(s);
            dst.push_back(s.image());
        };
    };

    FeedCache fc(dir);
    const FeedKey key = feedKeyOf(cfgs.front(), testMix(), kSeed, kScale,
                                  kWarmup, kMeasure);

    std::vector<std::vector<std::vector<std::uint8_t>>> coldCk(cfgs.size());
    FanoutCmp cold(cfgs, mixFactory(), nullptr, /*capture=*/true);
    for (std::size_t i = 0; i < cfgs.size(); ++i)
        cold.member(i).setSnapshotHook(kCkptEvery, capture(coldCk[i]));
    runWindow(cold, kWarmup, kMeasure);
    fc.store(key, cold.sharedFeed());

    const auto blob = fc.lookup(key);
    ASSERT_NE(blob, nullptr);
    std::vector<std::vector<std::vector<std::uint8_t>>> warmCk(cfgs.size());
    FanoutCmp warm(cfgs, mixFactory(), blob);
    for (std::size_t i = 0; i < cfgs.size(); ++i)
        warm.member(i).setSnapshotHook(kCkptEvery, capture(warmCk[i]));
    runWindow(warm, kWarmup, kMeasure);

    for (std::size_t i = 0; i < cfgs.size(); ++i) {
        ASSERT_FALSE(coldCk[i].empty())
            << "checkpoint cadence never fired; raise kMeasure";
        ASSERT_EQ(coldCk[i].size(), warmCk[i].size()) << "member " << i;
        for (std::size_t k = 0; k < coldCk[i].size(); ++k) {
            EXPECT_EQ(coldCk[i][k], warmCk[i][k])
                << "checkpoint " << k << " of member " << i
                << " differs between cold capture and warm replay";
        }
    }
}

// ---------------------------------------------------------------------
// Key derivation
// ---------------------------------------------------------------------

TEST(FeedCacheTest, KeySensitivity)
{
    const SystemConfig conv =
        conventionalSystem(8.0, ReplKind::LRU, kScale);
    const Mix mix = testMix();
    const FeedKey base =
        feedKeyOf(conv, mix, kSeed, kScale, kWarmup, kMeasure);

    // SLLC-only differences share the front end, so they MUST share the
    // key — that sharing is the entire point of the cache.
    for (const SystemConfig &peer :
         {conventionalSystem(8.0, ReplKind::Ship, kScale),
          conventionalSystem(4.0, ReplKind::NRU, kScale),
          reuseSystem(4.0, 1.0, 16, kScale),
          ncidSystem(8.0, 1.0, kScale)}) {
        ASSERT_TRUE(FanoutCmp::samePrivatePrefix(conv, peer));
        const FeedKey k =
            feedKeyOf(peer, mix, kSeed, kScale, kWarmup, kMeasure);
        EXPECT_EQ(k.bytes, base.bytes);
        EXPECT_EQ(k.digest, base.digest);
    }

    // Anything that reshapes reference generation or private-hierarchy
    // classification must change the key.
    auto expectDiffers = [&](const FeedKey &k, const char *what) {
        EXPECT_NE(k.bytes, base.bytes) << what;
        EXPECT_NE(k.digest, base.digest) << what;
    };
    expectDiffers(
        feedKeyOf(conv, mix, kSeed + 1, kScale, kWarmup, kMeasure),
        "seed");
    expectDiffers(feedKeyOf(conv, mix, kSeed, 4, kWarmup, kMeasure),
                  "scale");
    expectDiffers(
        feedKeyOf(conv, mix, kSeed, kScale, kWarmup + 1, kMeasure),
        "warmup");
    expectDiffers(
        feedKeyOf(conv, mix, kSeed, kScale, kWarmup, kMeasure + 1),
        "measure");
    Mix other = mix;
    other.apps[0] = "milc";
    expectDiffers(feedKeyOf(conv, other, kSeed, kScale, kWarmup, kMeasure),
                  "mix");
    SystemConfig bigL2 = conv;
    bigL2.priv.l2Bytes *= 2;
    expectDiffers(
        feedKeyOf(bigL2, mix, kSeed, kScale, kWarmup, kMeasure),
        "private prefix (L2 bytes)");
}

TEST(FeedCacheTest, OnlyFrontEndConfigFieldsKeyTheFeed)
{
    // One entry per SystemConfig field, flagged when the front end
    // (reference generation and the private hierarchy) depends on it.
    struct Field
    {
        const char *name;
        bool front;
        void (*perturb)(SystemConfig &);
    };
    const Field fields[] = {
        {"numCores", true, [](SystemConfig &c) { ++c.numCores; }},
        {"priv.l1Bytes", true, [](SystemConfig &c) { c.priv.l1Bytes *= 2; }},
        {"priv.l1Ways", true, [](SystemConfig &c) { ++c.priv.l1Ways; }},
        {"priv.l1Latency", true, [](SystemConfig &c) { ++c.priv.l1Latency; }},
        {"priv.l2Bytes", true, [](SystemConfig &c) { c.priv.l2Bytes *= 2; }},
        {"priv.l2Ways", true, [](SystemConfig &c) { ++c.priv.l2Ways; }},
        {"priv.l2Latency", true, [](SystemConfig &c) { ++c.priv.l2Latency; }},
        {"prefetch.enable", true,
         [](SystemConfig &c) { c.prefetch.enable = !c.prefetch.enable; }},
        {"prefetch.degree", true,
         [](SystemConfig &c) { ++c.prefetch.degree; }},
        {"prefetch.tableEntries", true,
         [](SystemConfig &c) { c.prefetch.tableEntries *= 2; }},
        {"prefetch.regionShift", true,
         [](SystemConfig &c) { ++c.prefetch.regionShift; }},
        {"prefetch.minConfidence", true,
         [](SystemConfig &c) { ++c.prefetch.minConfidence; }},
        {"xbar.numBanks", false, [](SystemConfig &c) { ++c.xbar.numBanks; }},
        {"xbar.linkLatency", false,
         [](SystemConfig &c) { ++c.xbar.linkLatency; }},
        {"xbar.bankOccupancy", false,
         [](SystemConfig &c) { ++c.xbar.bankOccupancy; }},
        {"xbar.mshrPerBank", false,
         [](SystemConfig &c) { ++c.xbar.mshrPerBank; }},
        {"memory.numChannels", false,
         [](SystemConfig &c) { ++c.memory.numChannels; }},
        {"memory.dram.numBanks", false,
         [](SystemConfig &c) { ++c.memory.dram.numBanks; }},
        {"memory.dram.pageBytes", false,
         [](SystemConfig &c) { c.memory.dram.pageBytes *= 2; }},
        {"memory.dram.rowMissLatency", false,
         [](SystemConfig &c) { ++c.memory.dram.rowMissLatency; }},
        {"memory.dram.rowHitLatency", false,
         [](SystemConfig &c) { ++c.memory.dram.rowHitLatency; }},
        {"memory.dram.rowConflictExtra", false,
         [](SystemConfig &c) { ++c.memory.dram.rowConflictExtra; }},
        {"memory.dram.busCyclesPerLine", false,
         [](SystemConfig &c) { ++c.memory.dram.busCyclesPerLine; }},
        {"memory.dram.bankOccupancy", false,
         [](SystemConfig &c) { ++c.memory.dram.bankOccupancy; }},
        {"llcKind", false, [](SystemConfig &c) { c.llcKind = LlcKind::Ncid; }},
        {"conv.capacityBytes", false,
         [](SystemConfig &c) { c.conv.capacityBytes *= 2; }},
        {"conv.ways", false, [](SystemConfig &c) { ++c.conv.ways; }},
        {"conv.repl", false, [](SystemConfig &c) { c.conv.repl = ReplKind::Ship; }},
        {"conv.numCores", false, [](SystemConfig &c) { ++c.conv.numCores; }},
        {"conv.tagLatency", false,
         [](SystemConfig &c) { ++c.conv.tagLatency; }},
        {"conv.dataLatency", false,
         [](SystemConfig &c) { ++c.conv.dataLatency; }},
        {"conv.interventionLatency", false,
         [](SystemConfig &c) { ++c.conv.interventionLatency; }},
        {"conv.seed", false, [](SystemConfig &c) { ++c.conv.seed; }},
        {"conv.name", false, [](SystemConfig &c) { c.conv.name += "'"; }},
        {"reuse.tagEquivBytes", false,
         [](SystemConfig &c) { c.reuse.tagEquivBytes *= 2; }},
        {"reuse.tagWays", false, [](SystemConfig &c) { ++c.reuse.tagWays; }},
        {"reuse.dataBytes", false,
         [](SystemConfig &c) { c.reuse.dataBytes *= 2; }},
        {"reuse.dataWays", false, [](SystemConfig &c) { ++c.reuse.dataWays; }},
        {"reuse.tagRepl", false,
         [](SystemConfig &c) { c.reuse.tagRepl = ReplKind::LRU; }},
        {"reuse.dataRepl", false,
         [](SystemConfig &c) { c.reuse.dataRepl = ReplKind::LRU; }},
        {"reuse.numCores", false, [](SystemConfig &c) { ++c.reuse.numCores; }},
        {"reuse.tagLatency", false,
         [](SystemConfig &c) { ++c.reuse.tagLatency; }},
        {"reuse.dataLatency", false,
         [](SystemConfig &c) { ++c.reuse.dataLatency; }},
        {"reuse.interventionLatency", false,
         [](SystemConfig &c) { ++c.reuse.interventionLatency; }},
        {"reuse.seed", false, [](SystemConfig &c) { ++c.reuse.seed; }},
        {"reuse.name", false, [](SystemConfig &c) { c.reuse.name += "'"; }},
        {"reuse.usePredictor", false,
         [](SystemConfig &c) { c.reuse.usePredictor = !c.reuse.usePredictor; }},
        {"reuse.predictorEntries", false,
         [](SystemConfig &c) { c.reuse.predictorEntries *= 2; }},
        {"ncid.tagEquivBytes", false,
         [](SystemConfig &c) { c.ncid.tagEquivBytes *= 2; }},
        {"ncid.tagWays", false, [](SystemConfig &c) { ++c.ncid.tagWays; }},
        {"ncid.dataBytes", false,
         [](SystemConfig &c) { c.ncid.dataBytes *= 2; }},
        {"ncid.numCores", false, [](SystemConfig &c) { ++c.ncid.numCores; }},
        {"ncid.tagLatency", false,
         [](SystemConfig &c) { ++c.ncid.tagLatency; }},
        {"ncid.dataLatency", false,
         [](SystemConfig &c) { ++c.ncid.dataLatency; }},
        {"ncid.interventionLatency", false,
         [](SystemConfig &c) { ++c.ncid.interventionLatency; }},
        {"ncid.selectiveFillRate", false,
         [](SystemConfig &c) { c.ncid.selectiveFillRate *= 2; }},
        {"ncid.seed", false, [](SystemConfig &c) { ++c.ncid.seed; }},
        {"ncid.name", false, [](SystemConfig &c) { c.ncid.name += "'"; }},
        {"seed", true, [](SystemConfig &c) { ++c.seed; }},
        {"capacityScale", true, [](SystemConfig &c) { c.capacityScale *= 2; }},
    };

    SystemConfig base = conventionalSystem(8.0, ReplKind::LRU, kScale);
    base.seed = kSeed;
    const auto request = [](const SystemConfig &cfg) {
        svc::RunRequest req;
        req.config = cfg;
        req.mix = testMix();
        req.seed = kSeed;
        req.scale = kScale;
        req.warmup = kWarmup;
        req.measure = kMeasure;
        return req;
    };
    const std::uint64_t baseDigest = svc::requestDigest(request(base));
    const FeedKey baseKey =
        feedKeyOf(base, testMix(), kSeed, kScale, kWarmup, kMeasure);
    for (const Field &field : fields) {
        SystemConfig cfg = base;
        field.perturb(cfg);
        EXPECT_NE(svc::requestDigest(request(cfg)), baseDigest)
            << field.name << " must key the result cache";
        const FeedKey key =
            feedKeyOf(cfg, testMix(), kSeed, kScale, kWarmup, kMeasure);
        EXPECT_EQ(key.bytes != baseKey.bytes, field.front)
            << field.name << (field.front ? " must" : " must not")
            << " key the feed";
        EXPECT_EQ(key.digest != baseKey.digest, field.front) << field.name;
        EXPECT_EQ(FanoutCmp::samePrivatePrefix(base, cfg), !field.front)
            << field.name << (field.front ? " must" : " must not")
            << " split a fan-out group";
    }
}

// ---------------------------------------------------------------------
// Corruption demotion matrix
// ---------------------------------------------------------------------

TEST(FeedCacheTest, CorruptBlobDemotesToVerifiedRecompute)
{
    std::vector<SystemConfig> cfgs;
    cfgs.push_back(conventionalSystem(8.0, ReplKind::LRU, kScale));
    cfgs.push_back(reuseSystem(4.0, 1.0, 16, kScale));
    for (SystemConfig &c : cfgs)
        c.seed = kSeed;
    constexpr Cycle kW = 20'000, kM = 60'000;

    for (const FaultClass cls : {FaultClass::FeedTruncate,
                                 FaultClass::FeedFlip,
                                 FaultClass::FeedVersion}) {
        SCOPED_TRACE(toString(cls));
        EXPECT_TRUE(isServiceFault(cls));
        EXPECT_EQ(detectedBy(cls, LlcKind::Conventional),
                  Invariant::FeedIntegrity);
        EXPECT_EQ(detectedBy(cls, LlcKind::Reuse),
                  Invariant::FeedIntegrity);

        const ScopedDir scratch(std::string("rc-feed-") + toString(cls));
        const std::string &dir = scratch.path();
        const FeedKey key =
            feedKeyOf(cfgs.front(), testMix(), kSeed, kScale, kW, kM);
        std::string pristine;
        {
            FeedCache fc(dir);
            FanoutCmp cold(cfgs, mixFactory(), nullptr, /*capture=*/true);
            runWindow(cold, kW, kM);
            fc.store(key, cold.sharedFeed());
            pristine = fleetFingerprint(cold, cfgs.size());
        }

        FaultInjector injector(kSeed);
        FeedCache fc(dir);
        const std::string path = fc.blobPath(key.digest);
        ASSERT_TRUE(injector.corruptFeedBlob(path, cls));

        // The damaged blob must demote to a miss and be unlinked —
        // never replayed.
        EXPECT_EQ(fc.lookup(key), nullptr);
        EXPECT_EQ(fc.stats().corruptDropped, 1u);
        EXPECT_NE(::access(path.c_str(), F_OK), 0)
            << "corrupt blob left on disk";

        // The demoted key recomputes bit-identically and re-stores.
        bool warm = true;
        const std::string recomputed =
            runViaProtocol(dir, cfgs, kW, kM, &warm);
        EXPECT_FALSE(warm) << "recompute should not have found a blob";
        EXPECT_EQ(recomputed, pristine);
        // A fresh instance (fc's in-memory view predates the re-store):
        // the recompute must have landed a replayable blob.
        FeedCache after(dir);
        EXPECT_NE(after.lookup(key), nullptr)
            << "recompute should have re-stored the blob";
    }
}

std::vector<std::uint8_t>
readBytes(const std::string &path)
{
    std::vector<std::uint8_t> bytes;
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return bytes;
    std::uint8_t buf[1 << 16];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        bytes.insert(bytes.end(), buf, buf + n);
    std::fclose(f);
    return bytes;
}

void
writeBytes(const std::string &path, const std::vector<std::uint8_t> &bytes)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
    std::fclose(f);
}

/** Little-endian header field at @p off (layout: sim/feed_cache.hh). */
std::uint64_t
headerField(const std::vector<std::uint8_t> &blob, std::size_t off,
            int bytes = 8)
{
    std::uint64_t v = 0;
    for (int i = bytes - 1; i >= 0; --i)
        v = v << 8 | blob[off + i];
    return v;
}

// Fixed-header offsets: format version, arrays region offset/length,
// meta region offset/length, and the header CRC over the bytes before it.
constexpr std::size_t kHdrVersion = 8, kHdrArraysOff = 24,
                      kHdrArraysBytes = 32, kHdrMetaOff = 48,
                      kHdrMetaBytes = 56, kHdrCrc = 68;

TEST(FeedCacheTest, EveryHashLaneAndTheMetaRegionAreVerified)
{
    std::vector<SystemConfig> cfgs;
    cfgs.push_back(conventionalSystem(8.0, ReplKind::LRU, kScale));
    cfgs.front().seed = kSeed;
    constexpr Cycle kW = 20'000, kM = 60'000;
    const ScopedDir scratch("rc-feed-lanes");
    const std::string &dir = scratch.path();
    const FeedKey key =
        feedKeyOf(cfgs.front(), testMix(), kSeed, kScale, kW, kM);
    std::string path;
    {
        FeedCache fc(dir);
        FanoutCmp cold(cfgs, mixFactory(), nullptr, /*capture=*/true);
        runWindow(cold, kW, kM);
        fc.store(key, cold.sharedFeed());
        path = fc.blobPath(key.digest);
    }
    const std::vector<std::uint8_t> pristine = readBytes(path);
    ASSERT_GT(pristine.size(), kHdrCrc);
    const std::uint64_t arraysOff = headerField(pristine, kHdrArraysOff);
    const std::uint64_t arraysBytes = headerField(pristine, kHdrArraysBytes);
    const std::uint64_t metaOff = headerField(pristine, kHdrMetaOff);
    const std::uint64_t metaBytes = headerField(pristine, kHdrMetaBytes);
    ASSERT_EQ(arraysBytes % 8, 0u);
    const std::uint64_t words = arraysBytes / 8;
    ASSERT_GT(words, 2 * kFeedHashLanes);
    ASSERT_LE(metaOff + metaBytes, pristine.size());

    // One byte in each of the first kFeedHashLanes words (one per lane,
    // at a different position in each), the middle word, the last word,
    // and the meta region.
    std::vector<std::pair<std::string, std::uint64_t>> flips;
    for (std::size_t k = 0; k < kFeedHashLanes; ++k)
        flips.emplace_back("arrays word " + std::to_string(k),
                           arraysOff + 8 * k + k % 8);
    flips.emplace_back("middle arrays word",
                       arraysOff + 8 * (words / 2) + 3);
    flips.emplace_back("last arrays word", arraysOff + arraysBytes - 1);
    flips.emplace_back("meta region", metaOff + metaBytes / 2);

    {
        // The untouched bytes hit, so each miss below is its flip's.
        writeBytes(path, pristine);
        FeedCache fc(dir);
        EXPECT_NE(fc.lookup(key), nullptr);
    }
    for (const auto &[what, at] : flips) {
        SCOPED_TRACE(what);
        std::vector<std::uint8_t> bytes = pristine;
        bytes[at] ^= 0x10;
        writeBytes(path, bytes);
        FeedCache fc(dir); // adopts the rewritten blob
        ASSERT_EQ(fc.size(), 1u);
        EXPECT_EQ(fc.lookup(key), nullptr);
        EXPECT_EQ(fc.stats().corruptDropped, 1u);
        EXPECT_EQ(fc.stats().misses, 1u);
        EXPECT_NE(::access(path.c_str(), F_OK), 0)
            << "corrupt blob left on disk";
    }
}

/** Store a current blob, reseal it as format version @p stale (only the
 *  version check can reject it then, as it rejects a blob an older
 *  build wrote), and check that it drops and recomputes bit-identically
 *  into a current blob. */
void
expectStaleVersionRecomputes(std::uint32_t stale)
{
    std::vector<SystemConfig> cfgs;
    cfgs.push_back(conventionalSystem(8.0, ReplKind::LRU, kScale));
    cfgs.push_back(reuseSystem(4.0, 1.0, 16, kScale));
    for (SystemConfig &c : cfgs)
        c.seed = kSeed;
    constexpr Cycle kW = 20'000, kM = 60'000;
    const ScopedDir scratch("rc-feed-v" + std::to_string(stale));
    const std::string &dir = scratch.path();
    const FeedKey key =
        feedKeyOf(cfgs.front(), testMix(), kSeed, kScale, kW, kM);
    std::string pristine;
    std::string path;
    {
        FeedCache fc(dir);
        FanoutCmp cold(cfgs, mixFactory(), nullptr, /*capture=*/true);
        runWindow(cold, kW, kM);
        fc.store(key, cold.sharedFeed());
        pristine = fleetFingerprint(cold, cfgs.size());
        path = fc.blobPath(key.digest);
    }

    std::vector<std::uint8_t> bytes = readBytes(path);
    ASSERT_GT(bytes.size(), kHdrCrc + 4);
    ASSERT_EQ(headerField(bytes, kHdrVersion, 4), kFeedVersion);
    bytes[kHdrVersion] = static_cast<std::uint8_t>(stale);
    const std::uint32_t crc = crc32(bytes.data(), kHdrCrc);
    for (int i = 0; i < 4; ++i)
        bytes[kHdrCrc + i] = static_cast<std::uint8_t>(crc >> (8 * i));
    writeBytes(path, bytes);

    {
        FeedCache fc(dir);
        EXPECT_EQ(fc.lookup(key), nullptr);
        EXPECT_EQ(fc.stats().corruptDropped, 1u);
        EXPECT_NE(::access(path.c_str(), F_OK), 0)
            << "stale blob left on disk";
    }
    bool warm = true;
    EXPECT_EQ(runViaProtocol(dir, cfgs, kW, kM, &warm), pristine);
    EXPECT_FALSE(warm) << "the stale blob should not have replayed";
    FeedCache after(dir);
    EXPECT_NE(after.lookup(key), nullptr)
        << "the recompute should have stored a current blob";
}

TEST(FeedCacheTest, VersionOneBlobDropsAndRecomputesBitIdentically)
{
    expectStaleVersionRecomputes(1);
}

/** Version 2 stored 32-byte records with the PC and victim inline. */
TEST(FeedCacheTest, VersionTwoBlobDropsAndRecomputesBitIdentically)
{
    expectStaleVersionRecomputes(2);
}

TEST(FeedCacheTest, InjectorRejectsNonFeedClassesAndMissingBlobs)
{
    FaultInjector injector(kSeed);
    EXPECT_FALSE(injector.corruptFeedBlob("/nonexistent/feed.bin",
                                          FaultClass::FeedFlip));
    EXPECT_FALSE(injector.corruptFeedBlob("/nonexistent/feed.bin",
                                          FaultClass::TagStateFlip));

    // The --inject spellings round-trip like every other class.
    for (const FaultClass cls : {FaultClass::FeedTruncate,
                                 FaultClass::FeedFlip,
                                 FaultClass::FeedVersion}) {
        FaultClass parsed;
        ASSERT_TRUE(faultClassFromName(toString(cls), parsed));
        EXPECT_EQ(parsed, cls);
    }
}

TEST(FeedCacheTest, RecoveryAdoptsAnUnindexedBlobThatThenHits)
{
    const ScopedDir scratch("rc-feed-recover");
    const std::string &dir = scratch.path();
    std::vector<SystemConfig> cfgs;
    cfgs.push_back(conventionalSystem(8.0, ReplKind::LRU, kScale));
    cfgs.front().seed = kSeed;
    constexpr Cycle kW = 20'000, kM = 60'000;
    const FeedKey key =
        feedKeyOf(cfgs.front(), testMix(), kSeed, kScale, kW, kM);
    {
        FeedCache fc(dir);
        FanoutCmp cold(cfgs, mixFactory(), nullptr, /*capture=*/true);
        runWindow(cold, kW, kM);
        fc.store(key, cold.sharedFeed());
        ASSERT_EQ(fc.size(), 1u);
    }
    // Emulate kill -9 after the blob's rename but before its index
    // append, with a killed writer's staging file left behind.
    const std::string stale = dir + "/feed-0123456789abcdef.bin.4242.0.tmp";
    {
        std::FILE *f = std::fopen((dir + "/feed.index").c_str(), "wb");
        ASSERT_NE(f, nullptr);
        std::fputs("# rc feed cache index v1\n", f);
        std::fclose(f);
        f = std::fopen(stale.c_str(), "wb");
        ASSERT_NE(f, nullptr);
        std::fputs("half a write", f);
        std::fclose(f);
    }

    FeedCache fc(dir);
    EXPECT_EQ(fc.stats().recovered, 1u);
    EXPECT_EQ(fc.size(), 1u);
    EXPECT_NE(fc.lookup(key), nullptr) << "the adopted blob must hit";
    EXPECT_EQ(fc.stats().hits, 1u);
    EXPECT_NE(::access(stale.c_str(), F_OK), 0) << "stale tmp not swept";
}

// ---------------------------------------------------------------------
// Two processes racing one cold key
// ---------------------------------------------------------------------

TEST(FeedCacheTest, ColdKeyRaceSerializesViaFlock)
{
    const ScopedDir scratch("rc-feed-race");
    const std::string &dir = scratch.path();
    std::vector<SystemConfig> cfgs;
    cfgs.push_back(conventionalSystem(8.0, ReplKind::LRU, kScale));
    cfgs.push_back(reuseSystem(4.0, 1.0, 16, kScale));
    for (SystemConfig &c : cfgs)
        c.seed = kSeed;
    constexpr Cycle kW = 20'000, kM = 60'000;

    // mkdir up front so both racers open the same directory.
    { FeedCache fc(dir); }
    const std::string childFp = dir + "/child.fp";

    const pid_t pid = ::fork();
    ASSERT_NE(pid, -1);
    if (pid == 0) {
        // Child: run the cold/warm protocol and report its fingerprint;
        // no gtest assertions on this side of the fork.
        const std::string fp = runViaProtocol(dir, cfgs, kW, kM);
        std::FILE *f = std::fopen(childFp.c_str(), "w");
        if (!f)
            ::_exit(2);
        std::fwrite(fp.data(), 1, fp.size(), f);
        std::fclose(f);
        ::_exit(0);
    }

    const std::string parentFp = runViaProtocol(dir, cfgs, kW, kM);
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
        << "child racer failed";

    std::string childResult;
    {
        std::FILE *f = std::fopen(childFp.c_str(), "r");
        ASSERT_NE(f, nullptr);
        char buf[4096];
        std::size_t n;
        while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
            childResult.append(buf, n);
        std::fclose(f);
    }
    EXPECT_EQ(childResult, parentFp)
        << "racers disagreed on the simulated state";

    // However the race went, the dir holds exactly the one blob and a
    // fresh lookup replays it.
    FeedCache fc(dir);
    EXPECT_EQ(fc.size(), 1u);
    const FeedKey key =
        feedKeyOf(cfgs.front(), testMix(), kSeed, kScale, kW, kM);
    EXPECT_NE(fc.lookup(key), nullptr);

    bool warm = false;
    const std::string replayed = runViaProtocol(dir, cfgs, kW, kM, &warm);
    EXPECT_TRUE(warm);
    EXPECT_EQ(replayed, parentFp);
}

} // namespace
