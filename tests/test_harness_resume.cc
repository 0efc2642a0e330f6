/**
 * @file
 * Resumable-sweep and watchdog tests for the bench harness: a journaled
 * sweep relaunched with resume skips finished runs and reloads their
 * results, a sweep killed mid-run restores from its checkpoints to a
 * bit-identical aggregate, a livelocked run is detected, state-dumped
 * and quarantined while its siblings complete, a batch with the
 * watchdog armed ends with its last run, and a quarantine retry with a
 * generation tracker attached reproduces a clean run exactly.
 */

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include <sys/stat.h>
#include <sys/time.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "analysis/liveness.hh"
#include "harness.hh"
#include "sim/system_config.hh"
#include "snapshot/journal.hh"
#include "snapshot/serializer.hh"

namespace rc
{
namespace
{

bench::RunOptions
smokeOptions(std::uint32_t jobs)
{
    bench::RunOptions opt;
    opt.mixCount = 3;
    opt.scale = 8;
    opt.warmup = 20'000;
    opt.measure = 100'000;
    opt.seed = 42;
    opt.jobs = jobs;
    return opt;
}

/** Per-test sweep directory, unique per process so reruns start clean. */
std::string
sweepDir(const std::string &name)
{
    return std::string(::testing::TempDir()) + name + "-" +
           std::to_string(::getpid());
}

/** Drop any journal/blob/checkpoint litter a previous test left. */
void
scrubDir(const std::string &dir)
{
    std::remove((dir + "/sweep.journal").c_str());
    for (int b = 0; b < 4; ++b)
        for (int r = 0; r < 8; ++r)
            for (const char *pat : {"result-b%d-r%d.bin",
                                    "ckpt-b%d-r%d.ckpt",
                                    "hang-b%d-r%d.dump"}) {
                char buf[64];
                std::snprintf(buf, sizeof(buf), pat, b, r);
                std::remove((dir + "/" + buf).c_str());
            }
}

bool
fileExists(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (f)
        std::fclose(f);
    return f != nullptr;
}

void
expectIdentical(const bench::RunResult &a, const bench::RunResult &b)
{
    EXPECT_EQ(a.aggregateIpc, b.aggregateIpc);
    ASSERT_EQ(a.coreIpc.size(), b.coreIpc.size());
    for (std::size_t c = 0; c < a.coreIpc.size(); ++c)
        EXPECT_EQ(a.coreIpc[c], b.coreIpc[c]) << "core " << c;
    ASSERT_EQ(a.mpki.size(), b.mpki.size());
    for (std::size_t c = 0; c < a.mpki.size(); ++c) {
        EXPECT_EQ(a.mpki[c].l1, b.mpki[c].l1) << "core " << c;
        EXPECT_EQ(a.mpki[c].l2, b.mpki[c].l2) << "core " << c;
        EXPECT_EQ(a.mpki[c].llc, b.mpki[c].llc) << "core " << c;
    }
    EXPECT_EQ(a.fracNeverEnteredData, b.fracNeverEnteredData);
    EXPECT_EQ(a.llcAccesses, b.llcAccesses);
    EXPECT_EQ(a.llcMemFetches, b.llcMemFetches);
    EXPECT_EQ(a.dramReads, b.dramReads);
}

/** The same full-RunResult persistence the production sweeps use. */
bench::ResultCodec
makeCodec(std::vector<bench::RunResult> &results)
{
    bench::ResultCodec codec;
    codec.save = [&results](std::size_t i, Serializer &s) {
        const bench::RunResult &r = results[i];
        s.putDouble(r.aggregateIpc);
        s.putU64(r.coreIpc.size());
        for (double v : r.coreIpc)
            s.putDouble(v);
        s.putU64(r.mpki.size());
        for (const MpkiTriple &m : r.mpki) {
            s.putDouble(m.l1);
            s.putDouble(m.l2);
            s.putDouble(m.llc);
        }
        s.putDouble(r.fracNeverEnteredData);
        s.putU64(r.llcAccesses);
        s.putU64(r.llcMemFetches);
        s.putU64(r.dramReads);
    };
    codec.load = [&results](std::size_t i, Deserializer &d) {
        bench::RunResult r;
        r.aggregateIpc = d.getDouble();
        r.coreIpc.resize(d.getU64());
        for (double &v : r.coreIpc)
            v = d.getDouble();
        r.mpki.resize(d.getU64());
        for (MpkiTriple &m : r.mpki) {
            m.l1 = d.getDouble();
            m.l2 = d.getDouble();
            m.llc = d.getDouble();
        }
        r.fracNeverEnteredData = d.getDouble();
        r.llcAccesses = d.getU64();
        r.llcMemFetches = d.getU64();
        r.dramReads = d.getU64();
        results[i] = r;
    };
    return codec;
}

/** Serial reference sweep: no journal, no checkpoints, no watchdog. */
std::vector<bench::RunResult>
referenceSweep(const SystemConfig &sys, const std::vector<Mix> &mixes,
               const bench::RunOptions &base)
{
    auto opt = base;
    opt.jobs = 1;
    opt.sweepDir.clear();
    opt.resume = false;
    opt.checkpointInterval = 0;
    opt.crashAfterRefs = 0;
    bench::resetSweepBatchesForTest();
    std::vector<bench::RunResult> out(mixes.size());
    const auto outcomes =
        bench::forEachRun(mixes.size(), opt, [&](std::size_t i) {
            out[i] = bench::runMix(sys, mixes[i], opt);
        });
    for (const bench::RunOutcome &o : outcomes)
        EXPECT_EQ(o.status, bench::RunStatus::Ok) << o.error;
    return out;
}

TEST(HarnessResume, ParseArgsReadsResumeAndWatchdogFlags)
{
    char arg0[] = "bench";
    char arg1[] = "--sweep-dir=/tmp/sweep-x";
    char arg2[] = "--checkpoint-interval=5000";
    char arg3[] = "--hang-timeout=12.5";
    char *argv[] = {arg0, arg1, arg2, arg3, nullptr};
    const auto opt = bench::parseArgs(4, argv);
    EXPECT_EQ(opt.sweepDir, "/tmp/sweep-x");
    EXPECT_FALSE(opt.resume);
    EXPECT_EQ(opt.checkpointInterval, 5000u);
    EXPECT_DOUBLE_EQ(opt.hangTimeout, 12.5);

    char arg4[] = "--resume=/tmp/sweep-y";
    char *argv2[] = {arg0, arg4, nullptr};
    const auto opt2 = bench::parseArgs(2, argv2);
    EXPECT_TRUE(opt2.resume);
    EXPECT_EQ(opt2.sweepDir, "/tmp/sweep-y");

    // The CLIs get the watchdog on by default; RunOptions built directly
    // (tests) keep it off.
    char *argv3[] = {arg0, nullptr};
    EXPECT_DOUBLE_EQ(bench::parseArgs(1, argv3).hangTimeout, 300.0);
    EXPECT_DOUBLE_EQ(bench::RunOptions{}.hangTimeout, 0.0);
}

TEST(HarnessResume, JournaledRunsAreSkippedAndReloadedOnResume)
{
    bench::setExitOnQuarantine(false);
    const SystemConfig sys = baselineSystem(8);
    const auto mixes = makeMixes(3, 8, 7);
    const auto base = smokeOptions(2);
    const auto ref = referenceSweep(sys, mixes, base);

    const std::string dir = sweepDir("resume-skip");
    scrubDir(dir);

    // First launch: everything runs and is journaled.
    auto first = base;
    first.sweepDir = dir;
    bench::resetSweepBatchesForTest();
    std::vector<bench::RunResult> got(mixes.size());
    const auto codec = makeCodec(got);
    const auto outcomes1 =
        bench::forEachRun(mixes.size(), first, [&](std::size_t i) {
            got[i] = bench::runMix(sys, mixes[i], first);
        }, &codec);
    for (const bench::RunOutcome &o : outcomes1) {
        EXPECT_EQ(o.status, bench::RunStatus::Ok) << o.error;
        EXPECT_FALSE(o.fromJournal);
    }
    EXPECT_EQ(SweepJournal::load(dir).size(), mixes.size());

    // Relaunch with resume: no body runs, every slot reloads from its
    // digest-checked blob, and the aggregate matches the serial sweep.
    auto second = first;
    second.resume = true;
    bench::resetSweepBatchesForTest();
    std::vector<bench::RunResult> reloaded(mixes.size());
    const auto codec2 = makeCodec(reloaded);
    std::vector<char> ran(mixes.size(), 0);
    const auto outcomes2 =
        bench::forEachRun(mixes.size(), second, [&](std::size_t i) {
            ran[i] = 1;
            reloaded[i] = bench::runMix(sys, mixes[i], second);
        }, &codec2);
    for (std::size_t i = 0; i < mixes.size(); ++i) {
        EXPECT_FALSE(ran[i]) << "run " << i << " re-executed";
        EXPECT_EQ(outcomes2[i].status, bench::RunStatus::Ok);
        EXPECT_TRUE(outcomes2[i].fromJournal);
        expectIdentical(reloaded[i], ref[i]);
    }

    // A corrupted result blob must force a re-run, not bad data.
    auto third = second;
    {
        const std::string blob = dir + "/result-b0-r1.bin";
        std::FILE *f = std::fopen(blob.c_str(), "r+b");
        ASSERT_NE(f, nullptr);
        std::fseek(f, 20, SEEK_SET);
        std::fputc(0xff, f);
        std::fclose(f);
    }
    bench::resetSweepBatchesForTest();
    std::vector<bench::RunResult> fixed(mixes.size());
    const auto codec3 = makeCodec(fixed);
    std::vector<char> ran3(mixes.size(), 0);
    const auto outcomes3 =
        bench::forEachRun(mixes.size(), third, [&](std::size_t i) {
            ran3[i] = 1;
            fixed[i] = bench::runMix(sys, mixes[i], third);
        }, &codec3);
    EXPECT_FALSE(ran3[0]);
    EXPECT_TRUE(ran3[1]) << "corrupt blob must re-run its run";
    EXPECT_FALSE(ran3[2]);
    EXPECT_EQ(outcomes3[1].status, bench::RunStatus::Ok);
    EXPECT_FALSE(outcomes3[1].fromJournal);
    for (std::size_t i = 0; i < mixes.size(); ++i)
        expectIdentical(fixed[i], ref[i]);
}

TEST(HarnessResume, CrashedSweepResumesFromCheckpointsBitIdentically)
{
    // The acceptance scenario: a --jobs=4 sweep dies mid-measurement on
    // every run (simulated kill right after a checkpoint lands), is
    // relaunched with resume, restores each run from its checkpoint and
    // produces aggregates bit-identical to an uninterrupted serial
    // sweep.
    bench::setExitOnQuarantine(false);
    const SystemConfig sys = reuseSystem(4.0, 1.0, 0, 8);
    const auto mixes = makeMixes(3, 8, 7);
    const auto base = smokeOptions(4);
    const auto ref = referenceSweep(sys, mixes, base);

    const std::string dir = sweepDir("resume-crash");
    scrubDir(dir);

    auto crashing = base;
    crashing.sweepDir = dir;
    crashing.checkpointInterval = 5'000;
    // ~8.3k references happen in warmup and ~1.3/cycle in measurement,
    // so 40k lands mid-measurement — the checkpoint carries phase 1.
    crashing.crashAfterRefs = 40'000;
    bench::resetSweepBatchesForTest();
    std::vector<bench::RunResult> got(mixes.size());
    const auto codec = makeCodec(got);
    const auto outcomes1 =
        bench::forEachRun(mixes.size(), crashing, [&](std::size_t i) {
            got[i] = bench::runMix(sys, mixes[i], crashing);
        }, &codec);
    for (std::size_t i = 0; i < mixes.size(); ++i) {
        EXPECT_EQ(outcomes1[i].status, bench::RunStatus::Quarantined)
            << outcomes1[i].error;
        EXPECT_TRUE(fileExists(dir + "/ckpt-b0-r" + std::to_string(i) +
                               ".ckpt"))
            << "crashed run " << i << " left no checkpoint";
    }

    // Relaunch: quarantined runs re-execute, restoring mid-measurement
    // state from their checkpoints instead of starting over.
    auto resumed = crashing;
    resumed.resume = true;
    resumed.crashAfterRefs = 0;
    bench::resetSweepBatchesForTest();
    std::vector<bench::RunResult> after(mixes.size());
    const auto codec2 = makeCodec(after);
    const auto outcomes2 =
        bench::forEachRun(mixes.size(), resumed, [&](std::size_t i) {
            after[i] = bench::runMix(sys, mixes[i], resumed);
        }, &codec2);
    for (std::size_t i = 0; i < mixes.size(); ++i) {
        EXPECT_EQ(outcomes2[i].status, bench::RunStatus::Ok)
            << outcomes2[i].error;
        EXPECT_FALSE(outcomes2[i].fromJournal);
        expectIdentical(after[i], ref[i]);
        EXPECT_FALSE(fileExists(dir + "/ckpt-b0-r" + std::to_string(i) +
                                ".ckpt"))
            << "checkpoint of run " << i << " not removed on success";
    }

    // A third launch skips everything: the journal's latest records win.
    bench::resetSweepBatchesForTest();
    std::vector<bench::RunResult> third(mixes.size());
    const auto codec3 = makeCodec(third);
    std::vector<char> ran(mixes.size(), 0);
    bench::forEachRun(mixes.size(), resumed, [&](std::size_t i) {
        ran[i] = 1;
        third[i] = bench::runMix(sys, mixes[i], resumed);
    }, &codec3);
    for (std::size_t i = 0; i < mixes.size(); ++i) {
        EXPECT_FALSE(ran[i]);
        expectIdentical(third[i], ref[i]);
    }
}

TEST(HarnessResume, WatchdogQuarantinesLivelockedRunWhileSiblingsComplete)
{
    bench::setExitOnQuarantine(false);
    const SystemConfig sys = baselineSystem(8);
    const auto mixes = makeMixes(2, 8, 9);

    const std::string dir = sweepDir("resume-hang");
    scrubDir(dir);

    auto opt = smokeOptions(2);
    // Long enough that the livelocked run is still going when the
    // watchdog (100 ms timeout, 25 ms poll) fires.
    opt.measure = 2'000'000;
    opt.hangTimeout = 0.1;
    opt.livelockRun = 1;
    opt.sweepDir = dir;
    bench::resetSweepBatchesForTest();
    std::vector<bench::RunResult> got(mixes.size());
    const auto outcomes =
        bench::forEachRun(mixes.size(), opt, [&](std::size_t i) {
            got[i] = bench::runMix(sys, mixes[i], opt);
        });

    // The healthy sibling completes untouched.
    EXPECT_EQ(outcomes[0].status, bench::RunStatus::Ok)
        << outcomes[0].error;
    EXPECT_GT(got[0].llcAccesses, 0u);

    // The livelocked run: aborted on both attempts, quarantined, with
    // the hang diagnosis in the outcome and a state dump on disk.
    EXPECT_EQ(outcomes[1].status, bench::RunStatus::Quarantined);
    EXPECT_EQ(outcomes[1].attempts, 2u);
    EXPECT_NE(outcomes[1].error.find("no forward progress"),
              std::string::npos)
        << outcomes[1].error;
    const std::string dump = dir + "/hang-b0-r1.dump";
    ASSERT_TRUE(fileExists(dump));
    // The dump is a valid snapshot image (CRC verifies on open).
    Deserializer d(dump);
    d.beginSection("run");
}

/**
 * The watchdog monitor polls every 0.25 s at the CLI default timeout;
 * stopping it must not wait for the next poll, so a batch of trivial
 * runs ends as soon as its last run does.
 */
TEST(HarnessResume, ArmedWatchdogBatchEndsWithItsLastRun)
{
    auto opt = smokeOptions(2);
    opt.hangTimeout = 300.0;
    constexpr int kBatches = 4;
    std::atomic<int> ran{0};
    const auto t0 = std::chrono::steady_clock::now();
    for (int b = 0; b < kBatches; ++b) {
        const auto outcomes = bench::forEachRun(
            2, opt, [&ran](std::size_t) { ran.fetch_add(1); });
        for (const bench::RunOutcome &o : outcomes)
            EXPECT_EQ(o.status, bench::RunStatus::Ok) << o.error;
    }
    const double wall = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
    EXPECT_EQ(ran.load(), 2 * kBatches);
    EXPECT_LT(wall, 0.25)
        << kBatches << " watched batches of trivial runs took " << wall
        << " s: forEachRun waited for the monitor's poll";
}

TEST(HarnessResume, HangDumpRetentionKeepsOnlyTheNewest)
{
    const std::string dir = sweepDir("resume-retention");
    scrubDir(dir);
    ::mkdir(dir.c_str(), 0777);

    // Twelve dumps with strictly increasing, explicitly set mtimes (the
    // clock's granularity is too coarse to rely on), plus bystanders
    // that must never be touched.
    auto makeFile = [&dir](const std::string &name, long mtime) {
        const std::string path = dir + "/" + name;
        std::FILE *f = std::fopen(path.c_str(), "wb");
        ASSERT_NE(f, nullptr) << path;
        std::fputs("dump", f);
        std::fclose(f);
        struct timeval times[2] = {{mtime, 0}, {mtime, 0}};
        ASSERT_EQ(::utimes(path.c_str(), times), 0);
    };
    for (int i = 0; i < 12; ++i)
        makeFile("hang-b0-r" + std::to_string(i) + ".dump",
                 1'000'000 + i);
    makeFile("result-b0-r0.bin", 999);     // not a dump: untouched
    makeFile("hang-unrelated.notdump", 998); // wrong suffix: untouched

    bench::pruneHangDumps(dir, 8); // the RunOptions default
    int dumps = 0;
    for (int i = 0; i < 12; ++i)
        if (fileExists(dir + "/hang-b0-r" + std::to_string(i) + ".dump"))
            ++dumps;
    EXPECT_EQ(dumps, 8);
    // Specifically the newest eight: 0..3 pruned, 4..11 kept.
    for (int i = 0; i < 4; ++i)
        EXPECT_FALSE(
            fileExists(dir + "/hang-b0-r" + std::to_string(i) + ".dump"))
            << "oldest dump " << i << " not pruned";
    for (int i = 4; i < 12; ++i)
        EXPECT_TRUE(
            fileExists(dir + "/hang-b0-r" + std::to_string(i) + ".dump"))
            << "newest dump " << i << " wrongly pruned";
    EXPECT_TRUE(fileExists(dir + "/result-b0-r0.bin"));
    EXPECT_TRUE(fileExists(dir + "/hang-unrelated.notdump"));

    // keep == 0 disables retention entirely.
    bench::pruneHangDumps(dir, 0);
    EXPECT_TRUE(fileExists(dir + "/hang-b0-r11.dump"));

    // Tighter cap prunes further; idempotent at the cap.
    bench::pruneHangDumps(dir, 2);
    bench::pruneHangDumps(dir, 2);
    dumps = 0;
    for (int i = 0; i < 12; ++i)
        if (fileExists(dir + "/hang-b0-r" + std::to_string(i) + ".dump"))
            ++dumps;
    EXPECT_EQ(dumps, 2);
    EXPECT_TRUE(fileExists(dir + "/hang-b0-r11.dump"));
    EXPECT_TRUE(fileExists(dir + "/hang-b0-r10.dump"));

    std::remove((dir + "/hang-unrelated.notdump").c_str());
    std::remove((dir + "/hang-b0-r10.dump").c_str());
    std::remove((dir + "/hang-b0-r11.dump").c_str());
}

TEST(HarnessResume, TrackerRetryAfterTransientFaultIsBitIdentical)
{
    // Satellite of the quarantine path: a retry with a GenerationTracker
    // attached starts from a reset tracker and a fresh Cmp, so a
    // transient fault leaves no trace in either the RunResult or the
    // liveness records.
    bench::setExitOnQuarantine(false);
    const SystemConfig sys = reuseSystem(4.0, 1.0, 0, 8);
    const auto mixes = makeMixes(1, 8, 11);
    auto opt = smokeOptions(1);
    opt.checkInterval = 10'000;

    bench::resetSweepBatchesForTest();
    GenerationTracker clean;
    bench::RunResult ref;
    Cycle refStart = 0, refEnd = 0;
    bench::forEachRun(1, opt, [&](std::size_t) {
        ref = bench::runMix(sys, mixes[0], opt, &clean, &refStart,
                            &refEnd);
    });

    auto poisoned = opt;
    poisoned.injectFault = "dir-drop";
    poisoned.injectRun = 0;
    poisoned.injectOnRetry = false;
    bench::resetSweepBatchesForTest();
    GenerationTracker tracker;
    bench::RunResult got;
    Cycle gotStart = 0, gotEnd = 0;
    const auto outcomes = bench::forEachRun(1, poisoned, [&](std::size_t) {
        got = bench::runMix(sys, mixes[0], poisoned, &tracker, &gotStart,
                            &gotEnd);
    });
    ASSERT_EQ(outcomes[0].status, bench::RunStatus::Retried)
        << outcomes[0].error;

    expectIdentical(got, ref);
    EXPECT_EQ(gotStart, refStart);
    EXPECT_EQ(gotEnd, refEnd);
    EXPECT_EQ(tracker.records().size(), clean.records().size());
    EXPECT_EQ(tracker.totalHits(), clean.totalHits());
}

} // namespace
} // namespace rc
