/**
 * @file
 * Checkpoint/restore tests: the snapshot codec itself (framing, CRC,
 * section discipline, corruption rejection), RNG and trace-cursor round
 * trips, and the headline property — saving a full Cmp mid-measurement
 * and restoring it into a fresh system continues to a bit-identical
 * end-of-run, for every SLLC organization and replacement policy.
 */

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "cache/private_cache.hh"
#include "common/log.hh"
#include "common/rng.hh"
#include "sim/cmp.hh"
#include "sim/system_config.hh"
#include "sim/trace_file.hh"
#include "snapshot/serializer.hh"
#include "verify/integrity.hh"
#include "workloads/mixes.hh"

namespace rc
{
namespace
{

std::string
tempPath(const std::string &name)
{
    return std::string(::testing::TempDir()) + name;
}

/** Expect @p fn to throw SimError(Kind::Snapshot). */
template <typename Fn>
void
expectSnapshotError(Fn &&fn)
{
    try {
        fn();
        FAIL() << "expected SimError(Snapshot)";
    } catch (const SimError &err) {
        EXPECT_EQ(err.kind(), SimError::Kind::Snapshot) << err.what();
    }
}

TEST(SnapshotFormat, ScalarRoundTrip)
{
    Serializer s;
    s.beginSection("outer");
    s.putBool(true);
    s.putU8(0xab);
    s.putU32(0xdeadbeef);
    s.putU64(0x0123456789abcdefULL);
    s.putI64(-42);
    s.putDouble(3.25);
    s.beginSection("inner");
    s.putString("hello");
    s.endSection("inner");
    s.endSection("outer");

    Deserializer d(s.image());
    d.beginSection("outer");
    EXPECT_TRUE(d.getBool());
    EXPECT_EQ(d.getU8(), 0xab);
    EXPECT_EQ(d.getU32(), 0xdeadbeefu);
    EXPECT_EQ(d.getU64(), 0x0123456789abcdefULL);
    EXPECT_EQ(d.getI64(), -42);
    EXPECT_EQ(d.getDouble(), 3.25);
    d.beginSection("inner");
    EXPECT_EQ(d.getString(), "hello");
    d.endSection("inner");
    d.endSection("outer");
    EXPECT_EQ(d.payloadCrc(), s.payloadCrc());
}

TEST(SnapshotFormat, VectorRoundTripAndCountMismatch)
{
    const std::vector<std::uint64_t> v64 = {1, 2, 3};
    const std::vector<std::uint32_t> v32 = {7, 8};
    const std::vector<std::uint8_t> v8 = {0xaa, 0xbb, 0xcc, 0xdd};
    Serializer s;
    s.beginSection("vecs");
    saveVec(s, v64);
    saveVec(s, v32);
    saveVec(s, v8);
    s.endSection("vecs");

    {
        Deserializer d(s.image());
        d.beginSection("vecs");
        std::vector<std::uint64_t> a(3);
        std::vector<std::uint32_t> b(2);
        std::vector<std::uint8_t> c(4);
        restoreVec(d, a, "a");
        restoreVec(d, b, "b");
        restoreVec(d, c, "c");
        d.endSection("vecs");
        EXPECT_EQ(a, v64);
        EXPECT_EQ(b, v32);
        EXPECT_EQ(c, v8);
    }
    {
        // A live vector of the wrong size must be rejected, not resized:
        // geometry is construction-derived, never restored.
        Deserializer d(s.image());
        d.beginSection("vecs");
        std::vector<std::uint64_t> wrong(5);
        expectSnapshotError([&] { restoreVec(d, wrong, "wrong"); });
    }
}

TEST(SnapshotFormat, FileRoundTripIsAtomicAndValid)
{
    // A directory of its own, so any *.tmp in it is writeFile's.
    const std::string dir =
        tempPath("snap_roundtrip-" + std::to_string(::getpid()));
    ASSERT_EQ(::mkdir(dir.c_str(), 0777), 0);
    const std::string path = dir + "/snap.bin";
    Serializer s;
    s.beginSection("top");
    s.putU64(99);
    s.endSection("top");
    s.writeFile(path);

    // No staging file (`<path>.<pid>.<n>.tmp`) left after the rename.
    DIR *dp = ::opendir(dir.c_str());
    ASSERT_NE(dp, nullptr);
    while (const dirent *e = ::readdir(dp)) {
        const std::string name = e->d_name;
        EXPECT_FALSE(name.ends_with(".tmp"))
            << "staging file left behind: " << name;
    }
    ::closedir(dp);

    Deserializer d(path);
    d.beginSection("top");
    EXPECT_EQ(d.getU64(), 99u);
    d.endSection("top");
    std::remove(path.c_str());
    ::rmdir(dir.c_str());
}

TEST(SnapshotFormat, CorruptImagesAreRejected)
{
    Serializer s;
    s.beginSection("top");
    s.putU64(1234);
    s.putString("label");
    s.endSection("top");
    const std::vector<std::uint8_t> good = s.image();

    // The owning reader and the one over borrowed bytes decode the same
    // values and agree on the payload CRC.
    {
        Deserializer owning(good);
        Deserializer borrowed{std::span<const std::uint8_t>(good)};
        EXPECT_EQ(borrowed.payloadCrc(), owning.payloadCrc());
        EXPECT_EQ(borrowed.payloadCrc(), s.payloadCrc());
        owning.beginSection("top");
        borrowed.beginSection("top");
        EXPECT_EQ(owning.getU64(), 1234u);
        EXPECT_EQ(borrowed.getU64(), 1234u);
        EXPECT_EQ(owning.getString(), "label");
        const std::span<const std::uint8_t> label = borrowed.getStringBytes();
        EXPECT_EQ(std::string(label.begin(), label.end()), "label");
        // In place: the view points into the caller's bytes.
        EXPECT_GE(label.data(), good.data());
        EXPECT_LT(label.data(), good.data() + good.size());
        owning.endSection("top");
        borrowed.endSection("top");
    }

    // Every defect is rejected by both readers.
    const auto expectRejected = [](const std::vector<std::uint8_t> &img) {
        expectSnapshotError([&] { Deserializer d(img); });
        expectSnapshotError(
            [&] { Deserializer d{std::span<const std::uint8_t>(img)}; });
    };

    // Bad magic.
    auto badMagic = good;
    badMagic[0] ^= 0xff;
    expectRejected(badMagic);

    // Unsupported schema version.
    auto badVersion = good;
    badVersion[8] ^= 0xff;
    expectRejected(badVersion);

    // Payload bit flip breaks the CRC.
    auto badPayload = good;
    badPayload[14] ^= 0x01;
    expectRejected(badPayload);

    // Trailer bit flip breaks the CRC comparison too.
    auto badCrc = good;
    badCrc[badCrc.size() - 1] ^= 0x01;
    expectRejected(badCrc);

    // Truncation: shorter than header+trailer, and mid-payload.
    expectRejected(std::vector<std::uint8_t>(8, 0));
    auto truncated = good;
    truncated.resize(truncated.size() - 5);
    expectRejected(truncated);
}

TEST(SnapshotFormat, OversizedStringLengthIsRejected)
{
    // A CRC-valid image whose string length field runs past the end of
    // its section (here: wraps the offset) must throw, not read or
    // allocate past the image.
    Serializer s;
    s.beginSection("top");
    s.putU64(~std::uint64_t{0});
    s.endSection("top");
    const std::vector<std::uint8_t> image = s.image();
    {
        Deserializer d(image);
        d.beginSection("top");
        expectSnapshotError([&] { d.getString(); });
    }
    {
        Deserializer d{std::span<const std::uint8_t>(image)};
        d.beginSection("top");
        expectSnapshotError([&] { d.getStringBytes(); });
    }
}

TEST(SnapshotFormat, SectionDisciplineIsEnforced)
{
    Serializer s;
    s.beginSection("alpha");
    s.putU64(7);
    s.endSection("alpha");

    // Wrong section name.
    {
        Deserializer d(s.image());
        expectSnapshotError([&] { d.beginSection("beta"); });
    }
    // Reading past the section boundary.
    {
        Deserializer d(s.image());
        d.beginSection("alpha");
        EXPECT_EQ(d.getU64(), 7u);
        expectSnapshotError([&] { d.getU64(); });
    }
    // Leaving a section before consuming it.
    {
        Deserializer d(s.image());
        d.beginSection("alpha");
        expectSnapshotError([&] { d.endSection("alpha"); });
    }
}

/** Bytewise CRC-32 straight from the polynomial, sharing nothing with
 *  the library's tables. */
std::uint32_t
crc32Reference(const std::uint8_t *p, std::size_t len, std::uint32_t crc = 0)
{
    crc = ~crc;
    for (std::size_t i = 0; i < len; ++i) {
        crc ^= p[i];
        for (int k = 0; k < 8; ++k)
            crc = (crc & 1) ? 0xedb88320u ^ (crc >> 1) : crc >> 1;
    }
    return ~crc;
}

std::vector<std::uint8_t>
randomBytes(std::size_t n, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<std::uint8_t> v(n);
    for (std::uint8_t &b : v)
        b = static_cast<std::uint8_t>(rng.next());
    return v;
}

TEST(SnapshotCrc, StandardCheckValue)
{
    EXPECT_EQ(crc32("123456789", 9), 0xCBF43926u);
    EXPECT_EQ(crc32(nullptr, 0), 0u);
}

TEST(SnapshotCrc, MatchesBytewiseAtEveryShortLengthAndAlignment)
{
    const std::vector<std::uint8_t> buf = randomBytes(64 + 8, 11);
    for (std::size_t align = 0; align < 8; ++align)
        for (std::size_t len = 0; len <= 64; ++len)
            EXPECT_EQ(crc32(buf.data() + align, len),
                      crc32Reference(buf.data() + align, len))
                << "offset " << align << ", length " << len;
}

TEST(SnapshotCrc, MatchesBytewiseOnAMegabyteAndWhenChained)
{
    const std::vector<std::uint8_t> buf = randomBytes(1 << 20, 12);
    const std::uint8_t *p = buf.data();
    const std::size_t n = buf.size();
    const std::uint32_t whole = crc32Reference(p, n);
    EXPECT_EQ(crc32(p, n), whole);
    // Chaining through the crc argument, split anywhere, is the same
    // as one call; a nonzero seed matches the reference's.
    for (const std::size_t cut : {std::size_t{0}, std::size_t{1},
                                  std::size_t{7}, std::size_t{8},
                                  std::size_t{9}, std::size_t{4093},
                                  n / 2, n - 1, n})
        EXPECT_EQ(crc32(p + cut, n - cut, crc32(p, cut)), whole)
            << "split at " << cut;
    EXPECT_EQ(crc32(p, 1000, 0xdeadbeefu),
              crc32Reference(p, 1000, 0xdeadbeefu));
}

TEST(SnapshotRng, RawStateResumesTheStream)
{
    Rng a(12345);
    for (int i = 0; i < 17; ++i)
        (void)a.next();
    const std::uint64_t state = a.rawState();
    std::vector<std::uint64_t> expect;
    for (int i = 0; i < 32; ++i)
        expect.push_back(a.next());

    Rng b(999); // deliberately different seed; setRawState overrides it
    b.setRawState(state);
    for (std::size_t i = 0; i < expect.size(); ++i)
        EXPECT_EQ(b.next(), expect[i]);
}

TEST(SnapshotTrace, SeekAndCursorRoundTrip)
{
    const std::string path = tempPath("snap_trace.bin");
    {
        TraceWriter w(path);
        for (std::uint64_t i = 0; i < 50; ++i) {
            MemRef ref;
            ref.addr = 0x1000 + i * 64;
            ref.think = static_cast<std::uint32_t>(i % 7);
            ref.op = (i % 3) == 0 ? MemOp::Write : MemOp::Read;
            w.write(ref);
        }
        w.close();
    }

    TraceReader a(path);
    for (int i = 0; i < 23; ++i)
        (void)a.next();
    EXPECT_EQ(a.consumed(), 23u);

    // seekToRecord lands exactly where sequential reads would.
    TraceReader sought(path);
    sought.seekToRecord(23);
    EXPECT_EQ(sought.consumed(), 23u);
    EXPECT_EQ(sought.next().addr, a.next().addr);

    // Seeking past the file size wraps like replay does.
    TraceReader wrapped(path);
    wrapped.seekToRecord(50 * 2 + 5);
    EXPECT_EQ(wrapped.wraps(), 2u);
    TraceReader slow(path);
    slow.seekToRecord(5);
    EXPECT_EQ(wrapped.next().addr, slow.next().addr);

    // save/restore moves the cursor through the snapshot codec.
    Serializer s;
    s.beginSection("cursor");
    a.save(s);
    s.endSection("cursor");
    TraceReader restored(path);
    Deserializer d(s.image());
    d.beginSection("cursor");
    restored.restore(d);
    d.endSection("cursor");
    EXPECT_EQ(restored.consumed(), a.consumed());
    EXPECT_EQ(restored.next().addr, a.next().addr);
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// The headline property: a mid-measurement snapshot restored into a
// fresh Cmp continues to a bit-identical end of run.
// ---------------------------------------------------------------------------

constexpr Cycle kWarmup = 20'000;
constexpr Cycle kMeasure = 80'000;

struct EndOfRun
{
    double aggregateIpc = 0.0;
    std::vector<double> coreIpc;
    std::vector<MpkiTriple> mpki;
    std::uint64_t refs = 0;
    Cycle horizon = 0;
    std::vector<std::pair<std::string, Counter>> llcStats;
};

EndOfRun
endOfRun(const Cmp &cmp)
{
    EndOfRun e;
    e.aggregateIpc = cmp.aggregateIpc();
    for (CoreId c = 0; c < cmp.numCores(); ++c) {
        e.coreIpc.push_back(cmp.ipc(c));
        e.mpki.push_back(cmp.measuredMpki(c));
    }
    e.refs = cmp.referencesProcessed();
    e.horizon = cmp.now();
    for (const StatSet::Entry &entry : cmp.llc().stats().entries())
        e.llcStats.emplace_back(entry.name, entry.value);
    return e;
}

void
expectSameEnd(const EndOfRun &a, const EndOfRun &b)
{
    EXPECT_EQ(a.aggregateIpc, b.aggregateIpc);
    ASSERT_EQ(a.coreIpc.size(), b.coreIpc.size());
    for (std::size_t c = 0; c < a.coreIpc.size(); ++c) {
        EXPECT_EQ(a.coreIpc[c], b.coreIpc[c]) << "core " << c;
        EXPECT_EQ(a.mpki[c].l1, b.mpki[c].l1) << "core " << c;
        EXPECT_EQ(a.mpki[c].l2, b.mpki[c].l2) << "core " << c;
        EXPECT_EQ(a.mpki[c].llc, b.mpki[c].llc) << "core " << c;
    }
    EXPECT_EQ(a.refs, b.refs);
    EXPECT_EQ(a.horizon, b.horizon);
    ASSERT_EQ(a.llcStats.size(), b.llcStats.size());
    for (std::size_t i = 0; i < a.llcStats.size(); ++i) {
        EXPECT_EQ(a.llcStats[i].first, b.llcStats[i].first);
        EXPECT_EQ(a.llcStats[i].second, b.llcStats[i].second)
            << "counter " << a.llcStats[i].first;
    }
}

/** Last snapshot image the hook captured, plus which phase it saw. */
struct Captured
{
    std::vector<std::uint8_t> image;
    int phase = -1; // 0 = warmup, 1 = measurement
};

/**
 * Run warmup+measure on a fresh Cmp, capturing a snapshot from the
 * periodic hook (exactly like the harness does); then restore the last
 * mid-measurement image into a second fresh Cmp and drive it to the
 * same end the way a resumed run would.
 */
void
checkSaveRestoreProperty(const SystemConfig &sys, const Mix &mix)
{
    Captured cap;
    int phase = 0;

    Cmp a(sys, buildMixStreams(mix, sys.seed, sys.capacityScale));
    a.setSnapshotHook(2'000, [&cap, &phase](const Cmp &c, Cycle) {
        Serializer s;
        c.save(s);
        cap.image = s.image();
        cap.phase = phase;
    });
    a.run(kWarmup);
    a.beginMeasurement();
    phase = 1;
    a.run(kMeasure);
    const EndOfRun ref = endOfRun(a);

    ASSERT_EQ(cap.phase, 1)
        << "no snapshot fired during measurement -- lower the cadence";

    Cmp b(sys, buildMixStreams(mix, sys.seed, sys.capacityScale));
    Deserializer d(cap.image);
    b.restore(d);
    IntegrityChecker(b).enforce(b.now());
    // The snapshot was taken inside run(kMeasure), before the horizon
    // advanced, so replaying the same call reaches the identical end.
    b.run(kMeasure);
    expectSameEnd(endOfRun(b), ref);
}

TEST(SnapshotCmp, ConventionalEveryPolicyResumesBitIdentically)
{
    const Mix mix = makeMixes(1, 8, 31)[0];
    for (const ReplKind kind :
         {ReplKind::LRU, ReplKind::NRU, ReplKind::NRR, ReplKind::Random,
          ReplKind::Clock, ReplKind::SRRIP, ReplKind::BRRIP,
          ReplKind::DRRIP}) {
        SCOPED_TRACE(toString(kind));
        checkSaveRestoreProperty(conventionalSystem(8.0, kind, 8), mix);
    }
}

TEST(SnapshotCmp, ReuseCacheResumesBitIdentically)
{
    const Mix mix = makeMixes(1, 8, 32)[0];
    checkSaveRestoreProperty(reuseSystem(4.0, 1.0, 0, 8), mix);
    // Set-associative data array exercises the fwd/back pointer paths.
    checkSaveRestoreProperty(reuseSystem(4.0, 1.0, 8, 8), mix);
}

TEST(SnapshotCmp, NcidResumesBitIdentically)
{
    const Mix mix = makeMixes(1, 8, 33)[0];
    checkSaveRestoreProperty(ncidSystem(4.0, 1.0, 8), mix);
}

TEST(SnapshotCmp, MismatchedConfigurationIsRejected)
{
    const Mix mix = makeMixes(1, 8, 34)[0];
    const SystemConfig reuse = reuseSystem(4.0, 1.0, 0, 8);
    Cmp a(reuse, buildMixStreams(mix, reuse.seed, reuse.capacityScale));
    a.run(5'000);
    Serializer s;
    a.save(s);

    // A reuse-cache checkpoint must not restore into a conventional
    // system: the meta section catches it before any state moves.
    const SystemConfig conv = baselineSystem(8);
    Cmp b(conv, buildMixStreams(mix, conv.seed, conv.capacityScale));
    Deserializer d(s.image());
    expectSnapshotError([&] { b.restore(d); });
}

TEST(SnapshotCmp, CorruptedCheckpointIsRejected)
{
    const Mix mix = makeMixes(1, 8, 35)[0];
    const SystemConfig sys = baselineSystem(8);
    Cmp a(sys, buildMixStreams(mix, sys.seed, sys.capacityScale));
    a.run(5'000);
    Serializer s;
    a.save(s);
    auto bytes = s.image();
    bytes[bytes.size() / 2] ^= 0x10;
    expectSnapshotError([&] { Deserializer d(bytes); });
}

// ---------------------------------------------------------------------------
// SoA tag arrays: the split tag/valid/payload lanes serialize through a
// translation layer (invalid ways write a zero tag regardless of the
// in-memory sentinel).  save -> restore -> save must reproduce the
// exact bytes, or the translation is asymmetric and the second
// generation of checkpoints diverges from the first.
// ---------------------------------------------------------------------------

TEST(SnapshotSoA, TagStoreDoubleSaveIsByteStable)
{
    TagStore a(CacheGeometry(16, 4), "a");
    // Populate with history: fills, LRU touches and invalidations, so
    // some ways are invalid-with-a-past rather than never-used.
    const auto line = [](std::uint64_t n) { return Addr{n} << 6; };
    for (std::uint64_t n = 0; n < 24; ++n)
        a.fill(line(n * 3 + 1), n % 2 ? PrivState::M : PrivState::S);
    for (std::uint64_t n = 0; n < 24; n += 4)
        a.lookup(line(n * 3 + 1));
    for (std::uint64_t n = 0; n < 24; n += 5)
        a.invalidate(line(n * 3 + 1));

    Serializer s1;
    a.save(s1);

    TagStore b(CacheGeometry(16, 4), "b");
    Deserializer d(s1.image());
    b.restore(d);

    // Behavior carries over: resident lines resident, invalidated gone.
    EXPECT_EQ(a.residentCount(), b.residentCount());
    EXPECT_EQ(b.peek(line(1)) != nullptr, a.peek(line(1)) != nullptr);
    EXPECT_EQ(b.peek(line(16)), nullptr); // line(5*3+1) was invalidated

    Serializer s2;
    b.save(s2);
    EXPECT_EQ(s1.image(), s2.image())
        << "TagStore snapshot is not byte-stable across a round trip";
}

TEST(SnapshotSoA, CmpDoubleSaveIsByteStable)
{
    const Mix mix = makeMixes(1, 8, 37)[0];
    // One system per SLLC organization: covers the private TagStore
    // lanes plus the conventional tag lane, the reuse tag/data lanes
    // and the NCID arrays in a single sweep.
    const SystemConfig systems[] = {
        conventionalSystem(8.0, ReplKind::SRRIP, 8),
        reuseSystem(4.0, 1.0, 8, 8),
        ncidSystem(4.0, 1.0, 8),
    };
    for (const SystemConfig &sys : systems) {
        Cmp a(sys, buildMixStreams(mix, sys.seed, sys.capacityScale));
        a.run(20'000);
        Serializer s1;
        a.save(s1);

        Cmp b(sys, buildMixStreams(mix, sys.seed, sys.capacityScale));
        Deserializer d(s1.image());
        b.restore(d);
        Serializer s2;
        b.save(s2);
        EXPECT_EQ(s1.image(), s2.image())
            << "Cmp snapshot is not byte-stable across a round trip";
    }
}

TEST(SnapshotCmp, AbortFlagThrowsHang)
{
    const Mix mix = makeMixes(1, 8, 36)[0];
    const SystemConfig sys = baselineSystem(8);
    Cmp cmp(sys, buildMixStreams(mix, sys.seed, sys.capacityScale));
    std::atomic<bool> abortFlag{false};
    bool dumped = false;
    cmp.setAbortFlag(&abortFlag, [&dumped](const Cmp &) { dumped = true; });
    std::atomic<std::uint64_t> beat{0};
    cmp.setProgressCounter(&beat);

    cmp.run(5'000);
    EXPECT_GT(beat.load(), 0u);

    abortFlag.store(true);
    try {
        cmp.run(5'000);
        FAIL() << "expected SimError(Hang)";
    } catch (const SimError &err) {
        EXPECT_EQ(err.kind(), SimError::Kind::Hang) << err.what();
    }
    EXPECT_TRUE(dumped);
}

} // namespace
} // namespace rc
