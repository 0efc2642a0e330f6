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

/** Records are trimmed as the lockstep quanta advance: the feed's live
 *  window must stay near the quantum, not grow with the run. */
TEST(Fanout, FeedWindowStaysBounded)
{
    const std::vector<SystemConfig> cfgs = matrixConfigs();
    FanoutCmp fan(cfgs, mixFactory());
    fan.run(kWarmup + kMeasure);

    const FanoutFeed &feed = fan.sharedFeed();
    for (CoreId c = 0; c < feed.numCores(); ++c) {
        EXPECT_GT(feed.generatedCount(c), 0u);
    }
}

} // namespace
