/**
 * @file
 * Resumable-sweep and watchdog tests for the bench harness: a journaled
 * sweep relaunched with resume skips finished runs and reloads their
 * results from the sweep's result store, a sweep killed mid-run
 * restores from its checkpoints to a bit-identical aggregate, a
 * livelocked run is detected, state-dumped and quarantined while its
 * siblings complete, a batch with the watchdog armed ends with its last
 * run, and a quarantine retry with a generation tracker attached
 * reproduces a clean run exactly.  A journaled grid keeps fan-out and
 * resumes per job.  Stored results and checkpoints are found by the
 * run's request, so a relaunch with other options or configs never
 * reloads them, and one with another grid reloads the cells it shares.
 */

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include <sys/stat.h>
#include <sys/time.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "analysis/liveness.hh"
#include "cache/replacement.hh"
#include "harness.hh"
#include "scoped_dir.hh"
#include "service/result_cache.hh"
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

/** Where grid cell (@p cfg, @p mix) checkpoints under @p opt. */
std::string
checkpointPath(const SystemConfig &cfg, const Mix &mix,
               const bench::RunOptions &opt)
{
    return opt.sweepDir + "/ckpt-" +
           digestHex(svc::requestDigest(bench::runRequest(cfg, mix, opt))) +
           ".ckpt";
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

    const ScopedDir scratch("resume-skip");
    const std::string &dir = scratch.path();

    // First launch: everything runs, is journaled and is stored.
    auto first = base;
    first.sweepDir = dir;
    bench::resetSweepBatchesForTest();
    const auto got = bench::runConfigsOverMixes({sys}, mixes, first);
    const auto records = SweepJournal::load(dir);
    ASSERT_EQ(records.size(), mixes.size());
    for (const JournalRecord &rec : records)
        EXPECT_EQ(rec.status, "ok") << rec.error;
    for (std::size_t m = 0; m < mixes.size(); ++m)
        expectIdentical(got[0][m], ref[m]);

    // Relaunch with resume: no job runs (a run would be journaled), and
    // every cell reloads from the result store.
    auto second = first;
    second.resume = true;
    bench::resetSweepBatchesForTest();
    const auto reloaded = bench::runConfigsOverMixes({sys}, mixes, second);
    EXPECT_EQ(SweepJournal::load(dir).size(), mixes.size())
        << "a stored run re-executed";
    for (std::size_t m = 0; m < mixes.size(); ++m)
        expectIdentical(reloaded[0][m], ref[m]);

    // A corrupted stored result must force a re-run of its own run, not
    // bad data: one more journal record, and the blob is whole again.
    const svc::RunRequest corrupt = bench::runRequest(sys, mixes[1], second);
    const std::string blob = svc::ResultCache(dir + "/results")
                                 .blobPath(svc::requestDigest(corrupt));
    {
        std::FILE *f = std::fopen(blob.c_str(), "r+b");
        ASSERT_NE(f, nullptr) << blob;
        std::fseek(f, 20, SEEK_SET);
        std::fputc(0xff, f);
        std::fclose(f);
    }
    bench::resetSweepBatchesForTest();
    const auto fixed = bench::runConfigsOverMixes({sys}, mixes, second);
    const auto after = SweepJournal::load(dir);
    ASSERT_EQ(after.size(), mixes.size() + 1)
        << "a corrupt stored result must re-run its run and only it";
    EXPECT_EQ(after.back().status, "ok") << after.back().error;
    RunResult restored;
    EXPECT_TRUE(svc::ResultCache(dir + "/results").lookup(corrupt, restored))
        << "the re-run did not store its result again";
    expectIdentical(restored, ref[1]);
    for (std::size_t m = 0; m < mixes.size(); ++m)
        expectIdentical(fixed[0][m], ref[m]);
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

    const ScopedDir scratch("resume-crash");
    const std::string &dir = scratch.path();

    auto crashing = base;
    crashing.sweepDir = dir;
    crashing.checkpointInterval = 5'000;
    // ~8.3k references happen in warmup and ~1.3/cycle in measurement,
    // so 40k lands mid-measurement — the checkpoint carries phase 1.
    crashing.crashAfterRefs = 40'000;
    bench::resetSweepBatchesForTest();
    bench::runConfigsOverMixes({sys}, mixes, crashing);
    const auto records = SweepJournal::load(dir);
    ASSERT_EQ(records.size(), mixes.size());
    for (const JournalRecord &rec : records)
        EXPECT_EQ(rec.status, "quarantined");
    for (std::size_t m = 0; m < mixes.size(); ++m)
        EXPECT_TRUE(fileExists(checkpointPath(sys, mixes[m], crashing)))
            << "crashed run " << m << " left no checkpoint";

    // Relaunch: the quarantined runs stored nothing, so they re-execute,
    // restoring mid-measurement state from their checkpoints instead of
    // starting over.
    auto resumed = crashing;
    resumed.resume = true;
    resumed.crashAfterRefs = 0;
    bench::resetSweepBatchesForTest();
    const auto after = bench::runConfigsOverMixes({sys}, mixes, resumed);
    const auto records2 = SweepJournal::load(dir);
    ASSERT_EQ(records2.size(), 2 * mixes.size());
    for (std::size_t r = mixes.size(); r < records2.size(); ++r)
        EXPECT_EQ(records2[r].status, "ok") << records2[r].error;
    for (std::size_t m = 0; m < mixes.size(); ++m) {
        expectIdentical(after[0][m], ref[m]);
        EXPECT_FALSE(fileExists(checkpointPath(sys, mixes[m], resumed)))
            << "checkpoint of run " << m << " not removed on success";
    }

    // A third launch skips everything: every run is in the store.
    bench::resetSweepBatchesForTest();
    const auto third = bench::runConfigsOverMixes({sys}, mixes, resumed);
    EXPECT_EQ(SweepJournal::load(dir).size(), 2 * mixes.size());
    for (std::size_t m = 0; m < mixes.size(); ++m)
        expectIdentical(third[0][m], ref[m]);
}

/**
 * A relaunch restores a killed run's checkpoint even when it takes no
 * checkpoints itself: --resume=DIR alone picks up where the run
 * stopped, and the run removes the checkpoint once it completes.
 */
TEST(HarnessResume, ResumeWithoutCheckpointIntervalRestores)
{
    bench::setExitOnQuarantine(false);
    const SystemConfig sys = baselineSystem(8);
    const auto mixes = makeMixes(1, 8, 7);
    const auto ref = referenceSweep(sys, mixes, smokeOptions(1));
    const ScopedDir scratch("resume-no-interval");
    const std::string &dir = scratch.path();

    auto crashing = smokeOptions(1);
    crashing.sweepDir = dir;
    crashing.checkpointInterval = 5'000;
    crashing.crashAfterRefs = 40'000;
    bench::resetSweepBatchesForTest();
    bench::runConfigsOverMixes({sys}, mixes, crashing);
    const std::string ckpt = checkpointPath(sys, mixes[0], crashing);
    ASSERT_TRUE(fileExists(ckpt)) << "the crashed run left no checkpoint";

    auto resumed = smokeOptions(1);
    resumed.sweepDir = dir;
    resumed.resume = true;
    bench::resetSweepBatchesForTest();
    const auto got = bench::runConfigsOverMixes({sys}, mixes, resumed);
    expectIdentical(got[0][0], ref[0]);
    EXPECT_FALSE(fileExists(ckpt)) << "the resumed run ignored its checkpoint";
}

/**
 * A stored result is found by its run's request, not by its (batch,
 * run) position: a sweep resumed under another seed has the same
 * positions, and must not reload the first seed's numbers into them.
 */
TEST(HarnessResume, ResumedSweepUnderAnotherSeedReSimulates)
{
    bench::setExitOnQuarantine(false);
    const std::vector<SystemConfig> cfgs = {baselineSystem(8),
                                            reuseSystem(4.0, 1.0, 0, 8)};
    const auto mixes = makeMixes(2, 8, 7);
    const ScopedDir scratch("resume-reseeded");
    const std::string &dir = scratch.path();

    auto first = smokeOptions(2);
    first.sweepDir = dir;
    bench::resetSweepBatchesForTest();
    const auto seed42 = bench::runConfigsOverMixes(cfgs, mixes, first);

    auto reseeded = first;
    reseeded.resume = true;
    reseeded.seed = first.seed + 1;
    bench::resetSweepBatchesForTest();
    const auto got = bench::runConfigsOverMixes(cfgs, mixes, reseeded);

    auto fresh = reseeded;
    fresh.sweepDir.clear();
    fresh.resume = false;
    const auto want = bench::runConfigsOverMixes(cfgs, mixes, fresh);
    ASSERT_NE(want[0][0].aggregateIpc, seed42[0][0].aggregateIpc)
        << "the two seeds must give different numbers for this test to "
           "tell them apart";
    for (std::size_t i = 0; i < cfgs.size(); ++i) {
        for (std::size_t m = 0; m < mixes.size(); ++m) {
            SCOPED_TRACE("config " + std::to_string(i) + " mix " +
                         std::to_string(m));
            expectIdentical(got[i][m], want[i][m]);
        }
    }
}

/**
 * A journaled grid keeps fan-out: one job, and so one journal record,
 * per mix rather than per (config, mix).  Its results match runMix cell
 * for cell, and a resumed relaunch reloads every job from the result
 * store without simulating (a simulated job would append a record).
 */
TEST(HarnessResume, JournaledGridKeepsFanoutAndResumesPerJob)
{
    bench::setExitOnQuarantine(false);
    const std::vector<SystemConfig> cfgs = {
        conventionalSystem(8.0, ReplKind::LRU, 8),
        reuseSystem(4.0, 1.0, 16, 8), ncidSystem(8.0, 1.0, 8)};
    const auto mixes = makeMixes(2, 8, 7);
    const ScopedDir scratch("resume-fanout-grid");
    const std::string &dir = scratch.path();

    auto first = smokeOptions(2);
    first.sweepDir = dir;
    bench::resetSweepBatchesForTest();
    const auto got = bench::runConfigsOverMixes(cfgs, mixes, first);
    const auto records = SweepJournal::load(dir);
    ASSERT_EQ(records.size(), mixes.size())
        << "a journaled grid must run one fan-out job per mix";
    for (const JournalRecord &rec : records)
        EXPECT_EQ(rec.status, "ok") << rec.error;
    for (std::size_t i = 0; i < cfgs.size(); ++i) {
        for (std::size_t m = 0; m < mixes.size(); ++m) {
            SCOPED_TRACE("config " + std::to_string(i) + " mix " +
                         std::to_string(m));
            expectIdentical(got[i][m],
                            bench::runMix(cfgs[i], mixes[m], smokeOptions(1)));
        }
    }

    auto resumed = first;
    resumed.resume = true;
    bench::resetSweepBatchesForTest();
    const auto reloaded = bench::runConfigsOverMixes(cfgs, mixes, resumed);
    EXPECT_EQ(SweepJournal::load(dir).size(), mixes.size())
        << "the resumed grid re-simulated a journaled job";
    for (std::size_t i = 0; i < cfgs.size(); ++i) {
        for (std::size_t m = 0; m < mixes.size(); ++m) {
            SCOPED_TRACE("config " + std::to_string(i) + " mix " +
                         std::to_string(m));
            expectIdentical(reloaded[i][m], got[i][m]);
        }
    }
}

/**
 * A relaunch under another grid reloads the cells the two grids share:
 * the store is keyed by each run's request, so a fan-out job of the
 * first launch stored every member on its own.
 */
TEST(HarnessResume, ResumeUnderAnotherGridReloadsSharedCells)
{
    bench::setExitOnQuarantine(false);
    const SystemConfig rc41 = reuseSystem(4.0, 1.0, 0, 8);
    const auto mixes = makeMixes(2, 8, 7);
    const ScopedDir scratch("resume-regrid");
    const std::string &dir = scratch.path();

    auto first = smokeOptions(2);
    first.sweepDir = dir;
    bench::resetSweepBatchesForTest();
    const auto grid =
        bench::runConfigsOverMixes({baselineSystem(8), rc41}, mixes, first);
    const std::size_t journaled = SweepJournal::load(dir).size();
    ASSERT_GT(journaled, 0u);

    auto resumed = first;
    resumed.resume = true;
    bench::resetSweepBatchesForTest();
    const auto got = bench::runConfigsOverMixes({rc41}, mixes, resumed);
    EXPECT_EQ(SweepJournal::load(dir).size(), journaled)
        << "a cell the first grid stored was simulated again";
    for (std::size_t m = 0; m < mixes.size(); ++m) {
        SCOPED_TRACE("mix " + std::to_string(m));
        expectIdentical(got[0][m], grid[1][m]);
    }
}

/**
 * A checkpoint is found by its run's request digest, and the file
 * carries that digest too: a checkpoint copied over another run's name
 * must not be restored, and the run starts from scratch.
 */
TEST(HarnessResume, CheckpointOfAnotherConfigIsNotRestored)
{
    bench::setExitOnQuarantine(false);
    const SystemConfig base = baselineSystem(8);
    SystemConfig slower = base;
    slower.xbar.linkLatency += 3;
    const auto mixes = makeMixes(1, 8, 7);
    const ScopedDir scratch("resume-foreign-ckpt");
    const std::string &dir = scratch.path();

    auto crashing = smokeOptions(1);
    crashing.sweepDir = dir;
    crashing.checkpointInterval = 5'000;
    crashing.crashAfterRefs = 40'000;
    bench::resetSweepBatchesForTest();
    bench::runConfigsOverMixes({base}, mixes, crashing);
    const std::string baseCkpt = checkpointPath(base, mixes[0], crashing);
    ASSERT_TRUE(fileExists(baseCkpt)) << "the crashed run left no checkpoint";

    // Put the base run's checkpoint where the slower run looks for its
    // own: only the digest inside the file can reject it.
    const std::string slowerCkpt = checkpointPath(slower, mixes[0], crashing);
    ASSERT_EQ(std::rename(baseCkpt.c_str(), slowerCkpt.c_str()), 0);

    auto resumed = crashing;
    resumed.resume = true;
    resumed.crashAfterRefs = 0;
    bench::resetSweepBatchesForTest();
    const bench::RunResult got =
        bench::runConfigsOverMixes({slower}, mixes, resumed)[0][0];
    const bench::RunResult want =
        bench::runMix(slower, mixes[0], smokeOptions(1));
    ASSERT_NE(want.aggregateIpc,
              bench::runMix(base, mixes[0], smokeOptions(1)).aggregateIpc)
        << "the two configs must give different numbers for this test "
           "to tell them apart";
    expectIdentical(got, want);
    EXPECT_FALSE(fileExists(slowerCkpt));
}

TEST(HarnessResume, WatchdogQuarantinesLivelockedRunWhileSiblingsComplete)
{
    bench::setExitOnQuarantine(false);
    const SystemConfig sys = baselineSystem(8);
    const auto mixes = makeMixes(2, 8, 9);

    const ScopedDir scratch("resume-hang");
    const std::string &dir = scratch.path();

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
    const ScopedDir scratch("resume-retention");
    const std::string &dir = scratch.path();
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
    makeFile("ckpt-0123456789abcdef.ckpt", 999); // not a dump: untouched
    makeFile("hang-unrelated.notdump", 998); // wrong suffix: untouched

    bench::pruneHangDumps(dir, 8); // what the harness keeps
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
    EXPECT_TRUE(fileExists(dir + "/ckpt-0123456789abcdef.ckpt"));
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
