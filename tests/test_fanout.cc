/**
 * @file
 * Bit-identity tests for the single-pass fan-out front end: a
 * FanoutCmp driving {conventional, reuse, NCID} back ends off one
 * shared reference stream must leave every member in exactly the state
 * an independent Cmp run of the same config reaches — same stats, same
 * cycle count, same checkpoint bytes, same telemetry samples.
 *
 * The comparison is full-state: every component StatSet (SLLC, per-core
 * private hierarchies, DRAM channels, crossbar MSHRs) plus the
 * reference and cycle totals.  Conventional and NCID members recall
 * private lines, so these runs exercise the divergence-tracking
 * fallback path, not just pure replay.
 *
 * The watchdog is not a hook: a member wired to a heartbeat and an
 * abort flag (as the harness wires every fan-out job) keeps the burst
 * and express loop, ends bit-identical to an unwatched one, and still
 * throws SimError(Hang) promptly when another thread raises the abort.
 */

#include <atomic>
#include <chrono>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "cache/replacement.hh"
#include "sim/cmp.hh"
#include "sim/fanout.hh"
#include "sim/system_config.hh"
#include "snapshot/serializer.hh"
#include "workloads/mixes.hh"
#include "workloads/parallel.hh"

namespace
{

using namespace rc;

constexpr Cycle kWarmup = 60'000;
constexpr Cycle kMeasure = 240'000;
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

/** The fan-out matrix: every SLLC organization behind one front end. */
std::vector<SystemConfig>
matrixConfigs()
{
    std::vector<SystemConfig> cfgs;
    cfgs.push_back(conventionalSystem(8.0, ReplKind::LRU, kScale));
    cfgs.push_back(conventionalSystem(8.0, ReplKind::DRRIP, kScale));
    {
        SystemConfig c = reuseSystem(4.0, 1.0, 16, kScale);
        c.reuse.tagRepl = ReplKind::SRRIP;
        cfgs.push_back(c);
    }
    cfgs.push_back(reuseSystem(4.0, 1.0, 0, kScale));
    cfgs.push_back(ncidSystem(8.0, 1.0, kScale));
    for (SystemConfig &c : cfgs)
        c.seed = kSeed;
    return cfgs;
}

/** A twelve-config sweep, the width of a CLI fan-out job. */
std::vector<SystemConfig>
twelveConfigs()
{
    std::vector<SystemConfig> cfgs = matrixConfigs();
    cfgs.push_back(conventionalSystem(4.0, ReplKind::SRRIP, kScale));
    cfgs.push_back(conventionalSystem(16.0, ReplKind::LRU, kScale));
    for (double data_mb : {8.0, 4.0, 2.0, 0.5})
        cfgs.push_back(reuseSystem(8.0, data_mb, 16, kScale));
    cfgs.push_back(ncidSystem(4.0, 0.5, kScale));
    for (SystemConfig &c : cfgs)
        c.seed = kSeed;
    return cfgs;
}

/** The watchdog wiring the harness gives every member of a job. */
struct Watch
{
    std::atomic<std::uint64_t> beat{0};
    std::atomic<bool> abort{false};

    void wire(FanoutCmp &fan)
    {
        for (std::size_t i = 0; i < fan.size(); ++i) {
            fan.member(i).setProgressCounter(&beat);
            fan.member(i).setAbortFlag(&abort);
        }
    }
};

/** Full-state fingerprint, mirroring tests/test_kernel_identity.cc. */
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

/** Independent reference run of @p cfg (the ground truth). */
std::string
independentFingerprint(const SystemConfig &cfg)
{
    Cmp sim(cfg, buildMixStreams(testMix(), kSeed, kScale));
    sim.run(kWarmup);
    sim.beginMeasurement();
    sim.run(kMeasure);
    return fingerprint(sim);
}

TEST(Fanout, MatchesIndependentRuns)
{
    const std::vector<SystemConfig> cfgs = matrixConfigs();

    FanoutCmp fan(cfgs, mixFactory());
    fan.run(kWarmup);
    fan.beginMeasurement();
    fan.run(kMeasure);

    for (std::size_t i = 0; i < cfgs.size(); ++i) {
        EXPECT_EQ(independentFingerprint(cfgs[i]),
                  fingerprint(fan.member(i)))
            << "fan-out member " << i
            << " diverged from its independent run";
    }
}

/**
 * Parallel apps share data across cores, so every SLLC organization
 * intervenes on owned lines and invalidates sharers; multiprogrammed
 * mixes never do.  Each member, driven through those downgrades and
 * recalls off the shared front end, must still end in the state of its
 * independent run.
 */
TEST(Fanout, SharedMemoryAppsMatchIndependentRuns)
{
    std::vector<SystemConfig> cfgs = {
        conventionalSystem(8.0, ReplKind::LRU, kScale),
        reuseSystem(4.0, 1.0, 16, kScale), ncidSystem(8.0, 1.0, kScale)};
    for (SystemConfig &c : cfgs)
        c.seed = kSeed;

    for (const char *app : {"canneal", "ocean"}) {
        SCOPED_TRACE(app);
        const AppProfile *profile = findParallelProfile(app);
        ASSERT_NE(profile, nullptr);
        auto streams = [&] {
            return buildParallelStreams(*profile, 8, kSeed, kScale);
        };

        FanoutCmp fan(cfgs, streams);
        fan.run(kWarmup);
        fan.beginMeasurement();
        fan.run(kMeasure);

        for (std::size_t i = 0; i < cfgs.size(); ++i) {
            Cmp sim(cfgs[i], streams());
            sim.run(kWarmup);
            sim.beginMeasurement();
            sim.run(kMeasure);
            const StatSet &llc = fan.member(i).llc().stats();
            EXPECT_GT(llc.lookup("interventions") +
                          llc.lookup("invalidationsSent"),
                      0u)
                << "member " << i << " saw no coherence traffic";
            EXPECT_GT(fan.member(i).feedFallbacks(), 0u) << "member " << i;
            EXPECT_EQ(fingerprint(sim), fingerprint(fan.member(i)))
                << "fan-out member " << i
                << " diverged from its independent run";
        }
    }
}

TEST(Fanout, SingleMemberMatchesIndependent)
{
    SystemConfig cfg = reuseSystem(4.0, 1.0, 16, kScale);
    cfg.seed = kSeed;

    FanoutCmp fan({cfg}, mixFactory());
    fan.run(kWarmup);
    fan.beginMeasurement();
    fan.run(kMeasure);

    EXPECT_EQ(independentFingerprint(cfg), fingerprint(fan.member(0)));
}

/**
 * Mid-run checkpoints of a fan-out member must serialize the same bytes
 * an independent run serializes at the same reference boundaries: the
 * feed reconstructs true stream state for the member's cursor, and the
 * sliced run loop commits horizons exactly like an unsliced one.
 */
TEST(Fanout, CheckpointsMatchIndependent)
{
    const std::vector<SystemConfig> cfgs = matrixConfigs();
    constexpr std::uint64_t kCkptEvery = 40'000;

    auto capture = [](std::vector<std::vector<std::uint8_t>> &dst) {
        return [&dst](const Cmp &c, Cycle) {
            Serializer s;
            c.save(s);
            dst.push_back(s.image());
        };
    };

    std::vector<std::vector<std::vector<std::uint8_t>>> indep(cfgs.size());
    for (std::size_t i = 0; i < cfgs.size(); ++i) {
        Cmp sim(cfgs[i], buildMixStreams(testMix(), kSeed, kScale));
        sim.setSnapshotHook(kCkptEvery, capture(indep[i]));
        sim.run(kWarmup);
        sim.beginMeasurement();
        sim.run(kMeasure);
    }

    std::vector<std::vector<std::vector<std::uint8_t>>> fanned(cfgs.size());
    FanoutCmp fan(cfgs, mixFactory());
    for (std::size_t i = 0; i < cfgs.size(); ++i)
        fan.member(i).setSnapshotHook(kCkptEvery, capture(fanned[i]));
    fan.run(kWarmup);
    fan.beginMeasurement();
    fan.run(kMeasure);

    for (std::size_t i = 0; i < cfgs.size(); ++i) {
        ASSERT_FALSE(indep[i].empty())
            << "checkpoint cadence never fired; raise kMeasure";
        ASSERT_EQ(indep[i].size(), fanned[i].size())
            << "member " << i << " checkpointed a different number of "
            << "times than its independent run";
        for (std::size_t k = 0; k < indep[i].size(); ++k) {
            EXPECT_EQ(indep[i][k], fanned[i][k])
                << "checkpoint " << k << " of member " << i
                << " is not byte-identical to the independent run's";
        }
    }
}

/**
 * Cycle-cadence telemetry sampling observes the same quiescent points
 * with the same stat values whether the member runs fanned out or
 * independently.
 */
TEST(Fanout, TelemetrySamplesMatchIndependent)
{
    const std::vector<SystemConfig> cfgs = matrixConfigs();
    constexpr Cycle kSampleEvery = 30'000;

    auto capture = [](std::vector<std::string> &dst) {
        return [&dst](const Cmp &c, Cycle at) {
            std::ostringstream os;
            os << "at=" << at << " refs=" << c.referencesProcessed()
               << " ";
            c.llc().stats().dumpJson(os);
            dst.push_back(os.str());
        };
    };

    std::vector<std::vector<std::string>> indep(cfgs.size());
    for (std::size_t i = 0; i < cfgs.size(); ++i) {
        Cmp sim(cfgs[i], buildMixStreams(testMix(), kSeed, kScale));
        sim.setSampleHook(kSampleEvery, capture(indep[i]));
        sim.run(kWarmup);
        sim.beginMeasurement();
        sim.run(kMeasure);
    }

    std::vector<std::vector<std::string>> fanned(cfgs.size());
    FanoutCmp fan(cfgs, mixFactory());
    for (std::size_t i = 0; i < cfgs.size(); ++i)
        fan.member(i).setSampleHook(kSampleEvery, capture(fanned[i]));
    fan.run(kWarmup);
    fan.beginMeasurement();
    fan.run(kMeasure);

    for (std::size_t i = 0; i < cfgs.size(); ++i) {
        ASSERT_FALSE(indep[i].empty());
        EXPECT_EQ(indep[i], fanned[i])
            << "telemetry samples of member " << i
            << " diverged from the independent run's";
    }
}

/**
 * Arming the watchdog changes nothing a member computes: a watched and
 * an unwatched twelve-member job end with identical state, replay and
 * fallback counts, and checkpoint images at commit.
 */
TEST(Fanout, WatchedJobMatchesUnwatched)
{
    const std::vector<SystemConfig> cfgs = twelveConfigs();
    ASSERT_EQ(cfgs.size(), 12u);

    FanoutCmp plain(cfgs, mixFactory());
    FanoutCmp watched(cfgs, mixFactory());
    Watch watch;
    watch.wire(watched);
    for (FanoutCmp *fan : {&plain, &watched}) {
        fan->run(kWarmup);
        fan->beginMeasurement();
        fan->run(kMeasure);
    }
    EXPECT_GT(watch.beat.load(), 0u) << "no heartbeat was published";

    for (std::size_t i = 0; i < cfgs.size(); ++i) {
        const Cmp &a = plain.member(i);
        const Cmp &b = watched.member(i);
        EXPECT_EQ(fingerprint(a), fingerprint(b)) << "member " << i;
        EXPECT_EQ(a.feedReplays(), b.feedReplays()) << "member " << i;
        EXPECT_EQ(a.feedFallbacks(), b.feedFallbacks()) << "member " << i;
        Serializer sa;
        a.save(sa);
        Serializer sb;
        b.save(sb);
        EXPECT_EQ(sa.image(), sb.image())
            << "member " << i << " checkpoints differently when watched";
    }
}

/**
 * An abort raised by another thread lands within one scheduling
 * decision of a fan-out job whose cores ride the express lane: the job
 * throws SimError(Hang) long before the run would have ended.
 */
TEST(Fanout, AbortLandsPromptlyOnExpressCores)
{
    using Clock = std::chrono::steady_clock;
    FanoutCmp fan(twelveConfigs(), mixFactory());
    Watch watch;
    watch.wire(fan);

    Clock::time_point raised;
    std::thread raiser([&] {
        // Mid-run: wait for forward progress before pulling the plug.
        const Clock::time_point give_up = Clock::now() +
                                          std::chrono::seconds(10);
        while (watch.beat.load() < 20'000 && Clock::now() < give_up)
            std::this_thread::sleep_for(std::chrono::microseconds(100));
        raised = Clock::now();
        watch.abort.store(true);
    });
    bool hung = false;
    try {
        // Many seconds of simulation if the abort were never seen.
        fan.run(50'000'000);
    } catch (const SimError &err) {
        hung = err.kind() == SimError::Kind::Hang;
    }
    const Clock::time_point caught = Clock::now();
    raiser.join();

    ASSERT_TRUE(hung) << "the job did not throw SimError(Hang)";
    EXPECT_LT(std::chrono::duration<double>(caught - raised).count(), 1.0)
        << "the abort took too long to land";
    std::uint32_t express = 0;
    for (std::size_t i = 0; i < fan.size(); ++i)
        express += fan.member(i).expressCores();
    EXPECT_GT(express, 0u)
        << "no core was on the express lane when the abort landed";
}

/** The grouping predicate the harness keys fan-out batches on. */
TEST(Fanout, SamePrivatePrefixPredicate)
{
    const SystemConfig a = conventionalSystem(8.0, ReplKind::LRU, kScale);
    SystemConfig b = reuseSystem(4.0, 1.0, 16, kScale);
    EXPECT_TRUE(FanoutCmp::samePrivatePrefix(a, b))
        << "SLLC organization must not affect the front-end prefix";

    SystemConfig c = a;
    c.seed = a.seed + 1;
    EXPECT_FALSE(FanoutCmp::samePrivatePrefix(a, c));

    SystemConfig d = a;
    d.priv.l2Bytes *= 2;
    EXPECT_FALSE(FanoutCmp::samePrivatePrefix(a, d));

    SystemConfig e = a;
    e.prefetch.enable = true;
    EXPECT_FALSE(FanoutCmp::samePrivatePrefix(a, e));

    SystemConfig f = a;
    f.capacityScale = a.capacityScale * 2;
    EXPECT_FALSE(FanoutCmp::samePrivatePrefix(a, f));
}

/**
 * The feed keeps only what some member still needs, at 32 bytes a
 * record.
 *
 * Bytes: a live record is a 16-byte PackedStep plus two 8-byte prefix
 * sums, in whole chunks that are always full; the LLC-bound side table
 * adds 16 bytes for each record that reaches the SLLC.  So the window
 * may cost 32 bytes per record plus the side table's share, which the
 * bound below caps at 2 bytes (one record in eight LLC-bound; this
 * memory-bound mix reaches the SLLC on about one in ten).
 *
 * Records: the window during a round that ends at cycle T_r spans from
 * the chunk holding the slowest cursor (never below m_{r-1}, the lowest
 * member cursor when the previous round ended) to at most one chunk past
 * the furthest cursor (never beyond M_r, the highest cursor at T_r).
 * Each run() below is one round, so after every call this records
 * M_r - m_{r-1} per core, and the peak must stay within it plus two
 * chunks.  The spread itself is not bounded: members of different IPC
 * part ways in record index in proportion to simulated time.
 */
TEST(Fanout, FeedWindowStaysBounded)
{
    const std::vector<SystemConfig> cfgs = twelveConfigs();
    FanoutCmp fan(cfgs, mixFactory());
    const FanoutFeed &feed = fan.sharedFeed();
    const std::uint32_t cores = feed.numCores();
    constexpr Cycle kRound = 100'000; // at most one lockstep quantum
    constexpr Cycle kRounds = 10;
    std::vector<std::uint64_t> prevMin(cores, 0), spread(cores, 0);
    for (Cycle r = 0; r < kRounds; ++r) {
        fan.run(kRound);
        for (CoreId c = 0; c < cores; ++c) {
            std::uint64_t lo = fan.cursor(0, c), hi = lo;
            for (std::size_t m = 1; m < fan.size(); ++m) {
                lo = std::min(lo, fan.cursor(m, c));
                hi = std::max(hi, fan.cursor(m, c));
            }
            spread[c] = std::max(spread[c], hi - prevMin[c]);
            prevMin[c] = lo;
        }
    }

    for (CoreId c = 0; c < cores; ++c) {
        SCOPED_TRACE("core " + std::to_string(c));
        const FanoutFeed::WindowPeak &peak = feed.windowPeak(c);
        ASSERT_GT(peak.records, 0u);
        EXPECT_LE(peak.bytes, peak.records * (32 + 2));
        EXPECT_LE(peak.records, spread[c] + 2 * FanoutFeed::kChunk)
            << "cursor spread " << spread[c];
    }
}

} // namespace
