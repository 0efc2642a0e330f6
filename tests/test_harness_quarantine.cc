/**
 * @file
 * Crash-isolation tests for the bench harness: a poisoned run in a
 * parallel sweep is retried once and quarantined while its siblings
 * complete with bit-identical statistics, --inject quarantines a whole
 * fan-out job, the per-run outcomes land in the BENCH_harness.json
 * payload, and a process with quarantined runs exits nonzero.
 */

#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "harness.hh"
#include "scoped_dir.hh"
#include "sim/system_config.hh"
#include "snapshot/journal.hh"

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

void
expectIdentical(const bench::RunResult &a, const bench::RunResult &b)
{
    EXPECT_EQ(a.aggregateIpc, b.aggregateIpc);
    ASSERT_EQ(a.coreIpc.size(), b.coreIpc.size());
    for (std::size_t c = 0; c < a.coreIpc.size(); ++c)
        EXPECT_EQ(a.coreIpc[c], b.coreIpc[c]) << "core " << c;
    EXPECT_EQ(a.llcAccesses, b.llcAccesses);
    EXPECT_EQ(a.llcMemFetches, b.llcMemFetches);
    EXPECT_EQ(a.dramReads, b.dramReads);
}

/** Serial reference sweep with no checker and no faults. */
std::vector<bench::RunResult>
referenceSweep(const SystemConfig &sys, const std::vector<Mix> &mixes)
{
    auto opt = smokeOptions(1);
    std::vector<bench::RunResult> out(mixes.size());
    const auto outcomes =
        bench::forEachRun(mixes.size(), opt, [&](std::size_t i) {
            out[i] = bench::runMix(sys, mixes[i], opt);
        });
    for (const bench::RunOutcome &o : outcomes)
        EXPECT_EQ(o.status, bench::RunStatus::Ok);
    return out;
}

TEST(HarnessQuarantine, CheckIntervalLeavesCleanRunsUntouched)
{
    // Zero false positives and zero perturbation: enabling the checker
    // must neither throw nor change any statistic, on either LLC
    // organization.
    bench::setExitOnQuarantine(false);
    const auto mixes = makeMixes(2, 8, 7);
    for (const bool reuse : {false, true}) {
        const SystemConfig sys =
            reuse ? reuseSystem(4.0, 1.0, 0, 8) : baselineSystem(8);
        const auto ref = referenceSweep(sys, mixes);

        auto checked = smokeOptions(2);
        checked.checkInterval = 10'000;
        std::vector<bench::RunResult> got(mixes.size());
        const auto outcomes =
            bench::forEachRun(mixes.size(), checked, [&](std::size_t i) {
                got[i] = bench::runMix(sys, mixes[i], checked);
            });
        for (const bench::RunOutcome &o : outcomes) {
            EXPECT_EQ(o.status, bench::RunStatus::Ok) << o.error;
            EXPECT_EQ(o.attempts, 1u);
        }
        for (std::size_t i = 0; i < mixes.size(); ++i)
            expectIdentical(got[i], ref[i]);
    }
}

TEST(HarnessQuarantine, PoisonedRunIsQuarantinedWhileSiblingsComplete)
{
    bench::setExitOnQuarantine(false);
    const SystemConfig sys = reuseSystem(4.0, 1.0, 0, 8);
    const auto mixes = makeMixes(3, 8, 7);
    const auto ref = referenceSweep(sys, mixes);

    auto poisoned = smokeOptions(2);
    poisoned.checkInterval = 10'000;
    poisoned.injectFault = "dir-drop";
    poisoned.injectRun = 1;
    std::vector<bench::RunResult> got(mixes.size());
    const auto outcomes =
        bench::forEachRun(mixes.size(), poisoned, [&](std::size_t i) {
            got[i] = bench::runMix(sys, mixes[i], poisoned);
        });

    ASSERT_EQ(outcomes.size(), mixes.size());
    EXPECT_EQ(outcomes[0].status, bench::RunStatus::Ok);
    EXPECT_EQ(outcomes[0].attempts, 1u);
    EXPECT_EQ(outcomes[2].status, bench::RunStatus::Ok);
    EXPECT_EQ(outcomes[2].attempts, 1u);

    // The poisoned run: retried once, then quarantined with the
    // integrity diagnosis attached.
    EXPECT_EQ(outcomes[1].index, 1u);
    EXPECT_EQ(outcomes[1].status, bench::RunStatus::Quarantined);
    EXPECT_EQ(outcomes[1].attempts, 2u);
    EXPECT_GT(outcomes[1].wallSeconds, 0.0);
    EXPECT_NE(outcomes[1].error.find("[integrity]"), std::string::npos)
        << outcomes[1].error;

    // Siblings are bit-identical to the clean serial sweep; the
    // quarantined slot keeps its default values.
    expectIdentical(got[0], ref[0]);
    expectIdentical(got[2], ref[2]);
    EXPECT_EQ(got[1].aggregateIpc, 0.0);
    EXPECT_EQ(got[1].llcAccesses, 0u);

    EXPECT_GE(bench::quarantinedRunsTotal(), 1u);
}

/**
 * --inject poisons a whole fan-out job: in a grid, job 1 (mix 1) is
 * retried and quarantined with every config of the mix left at default
 * values, while the other mixes' jobs match a clean grid bit for bit.
 * The job outcomes come from the sweep journal.
 */
TEST(HarnessQuarantine, InjectedFanoutJobIsQuarantinedWhole)
{
    bench::setExitOnQuarantine(false);
    const std::vector<SystemConfig> cfgs = {
        baselineSystem(8), reuseSystem(4.0, 1.0, 0, 8),
        reuseSystem(4.0, 1.0, 16, 8)};
    const auto mixes = makeMixes(3, 8, 7);
    auto clean = smokeOptions(2);
    clean.checkInterval = 10'000;
    const auto ref = bench::runConfigsOverMixes(cfgs, mixes, clean);

    auto poisoned = clean;
    poisoned.injectFault = "dir-drop";
    poisoned.injectRun = 1;
    const ScopedDir sweep("rc-inject-fanout");
    poisoned.sweepDir = sweep.path();
    bench::resetSweepBatchesForTest();
    const auto got = bench::runConfigsOverMixes(cfgs, mixes, poisoned);

    const auto records = SweepJournal::load(poisoned.sweepDir);
    ASSERT_EQ(records.size(), mixes.size()) << "one job per mix expected";
    for (const JournalRecord &rec : records) {
        if (rec.run == 1) {
            EXPECT_EQ(rec.status, "quarantined");
            EXPECT_EQ(rec.attempts, 2u);
            EXPECT_NE(rec.error.find("[integrity]"), std::string::npos)
                << rec.error;
        } else {
            EXPECT_EQ(rec.status, "ok") << "job " << rec.run << ": "
                                        << rec.error;
            EXPECT_EQ(rec.attempts, 1u);
        }
    }
    for (std::size_t i = 0; i < cfgs.size(); ++i) {
        SCOPED_TRACE("config " + std::to_string(i));
        expectIdentical(got[i][0], ref[i][0]);
        expectIdentical(got[i][2], ref[i][2]);
        EXPECT_EQ(got[i][1].aggregateIpc, 0.0);
        EXPECT_EQ(got[i][1].llcAccesses, 0u);
    }
}

TEST(HarnessQuarantine, TransientFaultIsRetriedAndRecovers)
{
    // injectOnRetry = false models a transient corruption: the retry
    // runs clean and must reproduce the reference result exactly.
    bench::setExitOnQuarantine(false);
    const SystemConfig sys = baselineSystem(8);
    const auto mixes = makeMixes(2, 8, 7);
    const auto ref = referenceSweep(sys, mixes);

    auto poisoned = smokeOptions(2);
    poisoned.checkInterval = 10'000;
    poisoned.injectFault = "dir-ghost";
    poisoned.injectRun = 0;
    poisoned.injectOnRetry = false;
    std::vector<bench::RunResult> got(mixes.size());
    const auto outcomes =
        bench::forEachRun(mixes.size(), poisoned, [&](std::size_t i) {
            got[i] = bench::runMix(sys, mixes[i], poisoned);
        });

    EXPECT_EQ(outcomes[0].status, bench::RunStatus::Retried);
    EXPECT_EQ(outcomes[0].attempts, 2u);
    EXPECT_TRUE(outcomes[0].error.empty());
    EXPECT_EQ(outcomes[1].status, bench::RunStatus::Ok);
    for (std::size_t i = 0; i < mixes.size(); ++i)
        expectIdentical(got[i], ref[i]);
}

TEST(HarnessQuarantine, PerfRecordJsonReportsPerRunOutcomes)
{
    bench::setExitOnQuarantine(false);
    const SystemConfig sys = baselineSystem(8);
    const auto mixes = makeMixes(2, 8, 7);
    auto poisoned = smokeOptions(1);
    poisoned.checkInterval = 10'000;
    poisoned.injectFault = "mshr-leak";
    poisoned.injectRun = 1;
    std::vector<bench::RunResult> got(mixes.size());
    bench::forEachRun(mixes.size(), poisoned, [&](std::size_t i) {
        got[i] = bench::runMix(sys, mixes[i], poisoned);
    });

    const std::string json = bench::perfRecordJson();
    for (const char *needle :
         {"\"runs_ok\"", "\"runs_retried\"", "\"runs_quarantined\"",
          "\"runs\": [", "\"status\": \"quarantined\"",
          "\"attempts\": 2", "\"wall_seconds\"", "\"error\": \"",
          "integrity"}) {
        EXPECT_NE(json.find(needle), std::string::npos)
            << needle << " missing from:\n" << json;
    }
}

TEST(HarnessQuarantine, ParseArgsReadsCheckIntervalAndInject)
{
    char arg0[] = "bench";
    char arg1[] = "--check-interval=5000";
    char arg2[] = "--inject=mshr-leak@2";
    char *argv[] = {arg0, arg1, arg2, nullptr};
    const auto opt = bench::parseArgs(3, argv);
    EXPECT_EQ(opt.checkInterval, 5000u);
    EXPECT_EQ(opt.injectFault, "mshr-leak");
    EXPECT_EQ(opt.injectRun, 2u);

    char arg3[] = "--inject=tag-state";
    char *argv2[] = {arg0, arg3, nullptr};
    const auto opt2 = bench::parseArgs(2, argv2);
    EXPECT_EQ(opt2.injectFault, "tag-state");
    EXPECT_EQ(opt2.injectRun, 0u);
}

TEST(HarnessQuarantineDeathTest, UnknownFaultClassIsFatal)
{
    char arg0[] = "bench";
    char arg1[] = "--inject=flux-capacitor";
    char *argv[] = {arg0, arg1, nullptr};
    EXPECT_EXIT(bench::parseArgs(2, argv),
                ::testing::ExitedWithCode(1), "unknown fault class");
}

/** Poisoned serial sweep behind parseArgs, ending in a clean exit(0)
 *  that the atexit quarantine guard must turn into exit(1). */
[[noreturn]] void
poisonedSweepThenCleanExit()
{
    bench::setExitOnQuarantine(true);
    char arg0[] = "bench";
    char arg1[] = "--jobs=1";
    char *argv[] = {arg0, arg1, nullptr};
    bench::parseArgs(2, argv);
    auto opt = smokeOptions(1);
    opt.checkInterval = 10'000;
    opt.injectFault = "dir-drop";
    opt.injectRun = 0;
    const SystemConfig sys = baselineSystem(8);
    const auto mixes = makeMixes(1, 8, 7);
    std::vector<bench::RunResult> got(mixes.size());
    bench::forEachRun(mixes.size(), opt, [&](std::size_t i) {
        got[i] = bench::runMix(sys, mixes[i], opt);
    });
    std::exit(0);
}

TEST(HarnessQuarantineDeathTest, ProcessExitsNonzeroWhenQuarantineRemains)
{
    // End to end: parseArgs installs the guard, a poisoned serial sweep
    // quarantines a run, and the process turns a clean exit(0) into
    // exit(1) after writing the perf record.
    EXPECT_EXIT(poisonedSweepThenCleanExit(),
                ::testing::ExitedWithCode(1), "stayed quarantined");
}

} // namespace
} // namespace rc
