/**
 * @file
 * Determinism and flag-validation tests for the parallel bench harness:
 * the same seed must produce bit-identical RunResults whether the
 * (SystemConfig × Mix) batch runs serially (--jobs=1) or on a pool
 * (--jobs=4), --jobs=0 must be rejected, and so must every malformed
 * numeric flag value.
 */

#include <cstring>
#include <initializer_list>
#include <iterator>
#include <ostream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "harness.hh"
#include "sim/system_config.hh"

namespace rc
{
namespace
{

/** Short windows keep the smoke runs fast; still long enough that the
 *  caches see real traffic. */
bench::RunOptions
smokeOptions(std::uint32_t jobs)
{
    bench::RunOptions opt;
    opt.mixCount = 2;
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

TEST(HarnessParallel, BaselineRunsBitIdenticalAcrossJobCounts)
{
    const auto serial = smokeOptions(1);
    const auto parallel = smokeOptions(4);
    const auto mixes = makeMixes(serial.mixCount, 8, 7);

    const auto a = bench::runBaselineOverMixes(baselineSystem(serial.scale),
                                               mixes, serial);
    const auto b = bench::runBaselineOverMixes(
        baselineSystem(parallel.scale), mixes, parallel);

    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        expectIdentical(a[i], b[i]);
}

TEST(HarnessParallel, SpeedupSummaryBitIdenticalAcrossJobCounts)
{
    const auto serial = smokeOptions(1);
    const auto parallel = smokeOptions(4);
    const auto mixes = makeMixes(serial.mixCount, 8, 7);
    const auto sys = reuseSystem(4.0, 1.0, 0, serial.scale);

    const auto ra = bench::runConfigsOverMixes(
        {baselineSystem(serial.scale), sys}, mixes, serial);
    const auto rb = bench::runConfigsOverMixes(
        {baselineSystem(parallel.scale), sys}, mixes, parallel);
    const auto a = bench::speedups(ra[1], ra[0]);
    const auto b = bench::speedups(rb[1], rb[0]);

    EXPECT_EQ(a.mean, b.mean);
    EXPECT_EQ(a.min, b.min);
    EXPECT_EQ(a.max, b.max);
    ASSERT_EQ(a.perMix.size(), b.perMix.size());
    for (std::size_t i = 0; i < a.perMix.size(); ++i)
        EXPECT_EQ(a.perMix[i], b.perMix[i]) << "mix " << i;
}

TEST(HarnessParallel, SummaryStatsAreOnePassConsistent)
{
    const auto opt = smokeOptions(2);
    const auto mixes = makeMixes(opt.mixCount, 8, 7);
    const auto res = bench::runConfigsOverMixes(
        {baselineSystem(opt.scale), reuseSystem(4.0, 1.0, 0, opt.scale)},
        mixes, opt);
    const auto s = bench::speedups(res[1], res[0]);
    ASSERT_EQ(s.perMix.size(), mixes.size());
    EXPECT_LE(s.min, s.mean);
    EXPECT_LE(s.mean, s.max);
    for (double v : s.perMix) {
        EXPECT_GE(v, s.min);
        EXPECT_LE(v, s.max);
        EXPECT_GT(v, 0.0);
    }
}

TEST(HarnessParallel, SpeedupRatioGuardsZeroBaseline)
{
    EXPECT_EQ(bench::speedupRatio(1.5, 0.0), 0.0);
    EXPECT_EQ(bench::speedupRatio(1.5, -1.0), 0.0);
    EXPECT_DOUBLE_EQ(bench::speedupRatio(3.0, 2.0), 1.5);
}

/** RunResults carrying only the given aggregate IPCs, one per mix. */
std::vector<bench::RunResult>
withIpcs(std::initializer_list<double> ipcs)
{
    std::vector<bench::RunResult> out;
    for (double v : ipcs) {
        bench::RunResult r;
        r.aggregateIpc = v;
        out.push_back(r);
    }
    return out;
}

TEST(HarnessParallel, SpeedupsSummarizePerMixRatios)
{
    const auto s = bench::speedups(withIpcs({3.0, 1.0, 2.5, 4.0}),
                                   withIpcs({2.0, 2.0, 2.0, 0.0}));
    ASSERT_EQ(s.perMix.size(), 4u);
    EXPECT_DOUBLE_EQ(s.perMix[0], 1.5);
    EXPECT_DOUBLE_EQ(s.perMix[1], 0.5);
    EXPECT_DOUBLE_EQ(s.perMix[2], 1.25);
    EXPECT_EQ(s.perMix[3], 0.0) << "a zero baseline must not divide";
    EXPECT_DOUBLE_EQ(s.mean, (1.5 + 0.5 + 1.25 + 0.0) / 4.0);
    EXPECT_EQ(s.min, 0.0);
    EXPECT_DOUBLE_EQ(s.max, 1.5);

    const auto none = bench::speedups({}, {});
    EXPECT_TRUE(none.perMix.empty());
    EXPECT_EQ(none.mean, 0.0);
    EXPECT_EQ(none.min, 0.0);
    EXPECT_EQ(none.max, 0.0);
}

TEST(HarnessParallelDeathTest, SpeedupsRejectMismatchedRows)
{
    EXPECT_DEATH(bench::speedups(withIpcs({1.0}), withIpcs({1.0, 2.0})),
                 "1 results against 2 baseline results");
}

TEST(HarnessParallel, EffectiveJobsResolvesAutoAndExplicit)
{
    bench::RunOptions opt;
    opt.jobs = 0;
    EXPECT_GE(bench::effectiveJobs(opt), 1u);
    opt.jobs = 3;
    EXPECT_EQ(bench::effectiveJobs(opt), 3u);
}

TEST(HarnessParallelDeathTest, RejectsJobsZero)
{
    char arg0[] = "bench";
    char arg1[] = "--jobs=0";
    char *argv[] = {arg0, arg1, nullptr};
    EXPECT_EXIT(bench::parseArgs(2, argv),
                ::testing::ExitedWithCode(1), "--jobs must be >= 1");
}

TEST(HarnessParallelDeathTest, UnknownFlagPrintsUsage)
{
    char arg0[] = "bench";
    char arg1[] = "--bogus";
    char *argv[] = {arg0, arg1, nullptr};
    EXPECT_EXIT(bench::parseArgs(2, argv),
                ::testing::ExitedWithCode(1), "--jobs=N");
}

/** A malformed value for one numeric flag, and the message it dies with. */
struct MalformedFlag
{
    const char *name; //!< test-name suffix
    const char *arg;
    const char *message;
};

/** A flag prints as its argument, so each test name is the same string
 *  on every build (gtest prints a struct it cannot print by its bytes,
 *  pointers included). */
void
PrintTo(const MalformedFlag &flag, std::ostream *os)
{
    *os << flag.arg;
}

/** parseArgs itself prints the usage and dies: no simulation starts. */
void
expectDiesInParseArgs(const MalformedFlag &flag)
{
    std::string arg = flag.arg;
    char arg0[] = "bench";
    char *argv[] = {arg0, arg.data(), nullptr};
    EXPECT_EXIT(bench::parseArgs(2, argv), ::testing::ExitedWithCode(1),
                std::string("usage: .*") + flag.message);
}

/** A malformed value for a flag every run reads (--mixes, --scale, the
 *  windows, --seed, --jobs). */
class HarnessRunFlagsDeathTest
    : public ::testing::TestWithParam<MalformedFlag>
{
};

TEST_P(HarnessRunFlagsDeathTest, DiesInParseArgs)
{
    expectDiesInParseArgs(GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    MalformedNumbers, HarnessRunFlagsDeathTest,
    ::testing::Values(
        MalformedFlag{"mixes", "--mixes=-1",
                      "--mixes needs an unsigned decimal"},
        MalformedFlag{"scale", "--scale=4294967296",
                      "--scale needs an unsigned decimal in range"},
        MalformedFlag{"warmup", "--warmup=1e6",
                      "--warmup needs an unsigned decimal"},
        MalformedFlag{"measure", "--measure=-1",
                      "--measure needs an unsigned decimal"},
        MalformedFlag{"seed", "--seed=abc",
                      "--seed needs an unsigned decimal"},
        MalformedFlag{"jobs", "--jobs=2x",
                      "--jobs needs an unsigned decimal"}),
    [](const ::testing::TestParamInfo<MalformedFlag> &info) {
        return std::string(info.param.name);
    });

class HarnessFlagsDeathTest : public ::testing::TestWithParam<MalformedFlag>
{
};

TEST_P(HarnessFlagsDeathTest, DiesInParseArgs)
{
    expectDiesInParseArgs(GetParam());
}

/** The sweep and integrity flags. */
INSTANTIATE_TEST_SUITE_P(
    MalformedNumbers, HarnessFlagsDeathTest,
    ::testing::Values(
        MalformedFlag{"check_interval", "--check-interval=",
                      "--check-interval needs an unsigned decimal"},
        MalformedFlag{"checkpoint_interval", "--checkpoint-interval=1.5",
                      "--checkpoint-interval needs an unsigned decimal"},
        MalformedFlag{"sample_interval",
                      "--sample-interval=18446744073709551616",
                      "--sample-interval needs an unsigned decimal in range"},
        MalformedFlag{"hang_timeout", "--hang-timeout=abc",
                      "--hang-timeout needs a finite number >= 0"},
        MalformedFlag{"inject_index", "--inject=dir-drop@x",
                      "--inject needs an unsigned decimal"}),
    [](const ::testing::TestParamInfo<MalformedFlag> &info) {
        return std::string(info.param.name);
    });

/** Every numeric spelling the docs, CI and the benchmark use parses. */
TEST(HarnessParallel, ParseArgsReadsEveryDocumentedSpelling)
{
    const char *args[] = {
        "bench", "--mixes=8", "--scale=1", "--warmup=100000",
        "--measure=400000", "--seed=1307", "--jobs=4",
        "--check-interval=100000", "--sweep-dir=sweep",
        "--checkpoint-interval=5000000", "--hang-timeout=12.5",
        "--telemetry-dir=t", "--sample-interval=100000",
        "--inject=dir-drop@3"};
    std::vector<std::string> store(std::begin(args), std::end(args));
    std::vector<char *> argv;
    for (std::string &a : store)
        argv.push_back(a.data());
    const auto opt =
        bench::parseArgs(static_cast<int>(argv.size()), argv.data());
    EXPECT_EQ(opt.mixCount, 8u);
    EXPECT_EQ(opt.scale, 1u);
    EXPECT_EQ(opt.warmup, 100'000u);
    EXPECT_EQ(opt.measure, 400'000u);
    EXPECT_EQ(opt.seed, 1307u);
    EXPECT_EQ(opt.jobs, 4u);
    EXPECT_EQ(opt.checkInterval, 100'000u);
    EXPECT_EQ(opt.checkpointInterval, 5'000'000u);
    EXPECT_DOUBLE_EQ(opt.hangTimeout, 12.5);
    EXPECT_EQ(opt.sampleInterval, 100'000u);
    EXPECT_EQ(opt.injectFault, "dir-drop");
    EXPECT_EQ(opt.injectRun, 3u);

    char arg0[] = "bench";
    char off[] = "--hang-timeout=0";
    char *argv2[] = {arg0, off, nullptr};
    EXPECT_EQ(bench::parseArgs(2, argv2).hangTimeout, 0.0);
}

TEST(HarnessParallel, ParseArgsReadsJobsFlag)
{
    char arg0[] = "bench";
    char arg1[] = "--jobs=4";
    char arg2[] = "--mixes=3";
    char *argv[] = {arg0, arg1, arg2, nullptr};
    const auto opt = bench::parseArgs(3, argv);
    EXPECT_EQ(opt.jobs, 4u);
    EXPECT_EQ(opt.mixCount, 3u);
}

TEST(HarnessParallel, UsageStringDocumentsEveryFlag)
{
    const char *usage = bench::usageString();
    for (const char *flag : {"--mixes=", "--scale=", "--warmup=",
                             "--measure=", "--seed=", "--jobs=",
                             "--check-interval=", "--inject=",
                             "--full", "--help"}) {
        EXPECT_NE(std::strstr(usage, flag), nullptr) << flag;
    }
}

} // namespace
} // namespace rc
