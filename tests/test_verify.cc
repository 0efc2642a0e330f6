/**
 * @file
 * Tests for the verify layer: SimError / RC_CHECK semantics, the
 * per-structure sanity hooks, the whole-system IntegrityChecker, and
 * the checker-vs-FaultInjector matrix (every fault class must be caught
 * by exactly the invariants it advertises).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "cache/mshr.hh"
#include "cache/policies.hh"
#include "coherence/directory.hh"
#include "common/log.hh"
#include "sim/cmp.hh"
#include "verify/fault_injector.hh"
#include "verify/integrity.hh"
#include "workloads/mixes.hh"

namespace rc
{
namespace
{

SystemConfig
tinySystem(LlcKind kind)
{
    switch (kind) {
      case LlcKind::Reuse: return reuseSystem(4, 1, 0, 8);
      case LlcKind::Ncid: return ncidSystem(8, 1, 8);
      case LlcKind::Conventional: break;
    }
    return baselineSystem(8);
}

const char *
kindName(LlcKind kind)
{
    switch (kind) {
      case LlcKind::Reuse: return "reuse";
      case LlcKind::Ncid: return "ncid";
      case LlcKind::Conventional: break;
    }
    return "conventional";
}

bool
contains(const std::string &haystack, const std::string &needle)
{
    return haystack.find(needle) != std::string::npos;
}

// ---------------------------------------------------------------------
// SimError and the RC_CHECK / RC_ASSERT macros
// ---------------------------------------------------------------------

TEST(SimErrorTest, CarriesKindAndTaggedMessage)
{
    bool threw = false;
    try {
        throwSimError(SimError::Kind::Trace, "record %d of '%s'", 7,
                      "demo.rct");
    } catch (const SimError &err) {
        threw = true;
        EXPECT_EQ(err.kind(), SimError::Kind::Trace);
        EXPECT_TRUE(contains(err.what(), "[trace]"));
        EXPECT_TRUE(contains(err.what(), "record 7 of 'demo.rct'"));
    }
    EXPECT_TRUE(threw);
}

TEST(SimErrorTest, KindNames)
{
    EXPECT_STREQ(toString(SimError::Kind::Integrity), "integrity");
    EXPECT_STREQ(toString(SimError::Kind::Protocol), "protocol");
    EXPECT_STREQ(toString(SimError::Kind::Trace), "trace");
    EXPECT_STREQ(toString(SimError::Kind::Config), "config");
}

TEST(SimErrorTest, RcCheckEvaluatesConditionExactlyOnce)
{
    int calls = 0;
    auto pass = [&] {
        ++calls;
        return true;
    };
    RC_CHECK(pass(), SimError::Kind::Protocol, "must pass");
    EXPECT_EQ(calls, 1);

    calls = 0;
    bool threw = false;
    try {
        RC_CHECK(pass() && false, SimError::Kind::Integrity, "value %d",
                 42);
    } catch (const SimError &err) {
        threw = true;
        EXPECT_EQ(err.kind(), SimError::Kind::Integrity);
        EXPECT_TRUE(contains(err.what(), "[integrity]"));
        EXPECT_TRUE(contains(err.what(), "value 42"));
        EXPECT_TRUE(contains(err.what(), "test_verify.cc"));
    }
    EXPECT_TRUE(threw);
    EXPECT_EQ(calls, 1);
}

TEST(SimErrorTest, MacrosBehaveAsSingleStatements)
{
    // An unbraced if/else around either macro must compile and bind the
    // else to the outer if (the do-while(0) contract).
    bool reached_else = false;
    if (false)
        RC_CHECK(false, SimError::Kind::Config, "never evaluated");
    else
        reached_else = true;
    EXPECT_TRUE(reached_else);

    reached_else = false;
    if (false)
        RC_ASSERT(false, "never evaluated");
    else
        reached_else = true;
    EXPECT_TRUE(reached_else);
}

TEST(SimErrorTest, RcAssertEvaluatesConditionExactlyOnce)
{
    int calls = 0;
    auto pass = [&] {
        ++calls;
        return true;
    };
    RC_ASSERT(pass(), "side effects must not be duplicated");
    EXPECT_EQ(calls, 1);
}

TEST(SimErrorDeathTest, RcAssertStillPanics)
{
    // RC_ASSERT stays a hard abort (programmer error), and must be
    // active in every build type now that NDEBUG no longer disables it.
    EXPECT_DEATH(RC_ASSERT(1 + 1 == 3, "math is broken: %d", 7),
                 "math is broken: 7");
}

// ---------------------------------------------------------------------
// Per-structure sanity hooks
// ---------------------------------------------------------------------

TEST(ReplMetadataSanity, EveryPolicyDetectsItsOwnCorruption)
{
    std::string why;

    NruPolicy nru(4, 4);
    EXPECT_TRUE(nru.metadataSane(&why)) << why;
    EXPECT_TRUE(nru.corruptMetadata(2, 1));
    EXPECT_FALSE(nru.metadataSane(&why));
    EXPECT_TRUE(contains(why, "NRU"));

    NrrPolicy nrr(4, 4, 42);
    EXPECT_TRUE(nrr.metadataSane(&why)) << why;
    EXPECT_TRUE(nrr.corruptMetadata(1, 3));
    EXPECT_FALSE(nrr.metadataSane(&why));
    EXPECT_TRUE(contains(why, "NRR"));

    ClockPolicy clock(2, 8);
    EXPECT_TRUE(clock.metadataSane(&why)) << why;
    EXPECT_TRUE(clock.corruptMetadata(1, 0));
    EXPECT_FALSE(clock.metadataSane(&why));
    EXPECT_TRUE(contains(why, "hand"));

    RripPolicy rrip(4, 4, RripPolicy::Mode::SRRIP, 8, 42);
    EXPECT_TRUE(rrip.metadataSane(&why)) << why;
    EXPECT_TRUE(rrip.corruptMetadata(0, 2));
    EXPECT_FALSE(rrip.metadataSane(&why));
    EXPECT_TRUE(contains(why, "RRPV"));
}

TEST(DirectoryEncoding, AcceptsLegalEntries)
{
    std::string why;
    DirectoryEntry e;
    EXPECT_TRUE(e.encodingSane(8, &why)) << why;
    e.addSharer(3);
    EXPECT_TRUE(e.encodingSane(8, &why)) << why;
    e.setOwner(3);
    EXPECT_TRUE(e.encodingSane(8, &why)) << why;
}

TEST(DirectoryEncoding, RejectsGhostPresenceBeyondCoreCount)
{
    std::string why;
    DirectoryEntry e;
    e.addSharer(9); // only 8 cores exist
    EXPECT_FALSE(e.encodingSane(8, &why));
    EXPECT_TRUE(contains(why, "presence"));
}

TEST(DirectoryEncoding, RejectsOutOfRangeOwner)
{
    std::string why;
    DirectoryEntry e;
    e.addSharer(1);
    e.corruptOwnerForTest(8);
    EXPECT_FALSE(e.encodingSane(8, &why));
    EXPECT_TRUE(contains(why, "owner"));
}

TEST(DirectoryEncoding, RejectsOwnerThatIsNotASharer)
{
    std::string why;
    DirectoryEntry e;
    e.addSharer(2);
    e.corruptOwnerForTest(1); // in range, but has no presence bit
    EXPECT_FALSE(e.encodingSane(8, &why));
    EXPECT_TRUE(contains(why, "sharer"));
}

TEST(MshrLeakCounters, DistinguishInFlightFromLeaked)
{
    MshrFile f(4, "test");
    EXPECT_EQ(f.leakedEntries(), 0u);
    EXPECT_EQ(f.inFlightAt(0), 0u);

    ASSERT_EQ(f.request(0x1000, 10, 50), MshrFile::Outcome::Allocated);
    EXPECT_EQ(f.leakedEntries(), 0u); // retires at 50: not a leak
    EXPECT_EQ(f.inFlightAt(20), 1u);
    EXPECT_EQ(f.inFlightAt(60), 0u); // already complete by then

    ASSERT_EQ(f.request(0x2000, 10, neverCycle),
              MshrFile::Outcome::Allocated);
    EXPECT_EQ(f.leakedEntries(), 1u);
    EXPECT_EQ(f.inFlightAt(60), 1u); // a leak never completes
}

// ---------------------------------------------------------------------
// Whole-system checker
// ---------------------------------------------------------------------

TEST(IntegrityChecker, CleanAcrossSeedsAndOrganizations)
{
    // Zero false positives: undisturbed runs over several seeds must
    // stay clean under a periodic check hook and at quiesce, for every
    // LLC organization.
    for (const std::uint64_t seed : {1ull, 7ull, 42ull}) {
        for (const LlcKind kind :
             {LlcKind::Reuse, LlcKind::Conventional, LlcKind::Ncid}) {
            SCOPED_TRACE(std::string(kindName(kind)) + " seed " +
                         std::to_string(seed));
            SystemConfig cfg = tinySystem(kind);
            cfg.seed = seed;
            Cmp cmp(cfg, buildMixStreams(exampleMix(), seed, 8));
            IntegrityChecker checker(cmp);
            std::uint64_t fired = 0;
            cmp.setCheckHook(10'000, [&](const Cmp &, Cycle now) {
                ++fired;
                checker.enforce(now);
            });
            // Long enough that reuse is detected and the data array
            // fills at every seed (data allocation needs a second hit).
            EXPECT_NO_THROW(cmp.run(200'000));
            EXPECT_GT(fired, 0u);
            const IntegrityReport r = checker.checkQuiesce(cmp.now());
            EXPECT_TRUE(r.clean()) << r.summary();
            EXPECT_GT(r.tagsWalked, 0u);
            EXPECT_GT(r.privateWalked, 0u);
            EXPECT_GT(r.mshrWalked, 0u);
            if (kind != LlcKind::Conventional) {
                EXPECT_GT(r.dataWalked, 0u);
            }
            EXPECT_EQ(checker.walks(), fired + 1);
        }
    }
}

TEST(IntegrityChecker, CheckHookCadenceMatchesReferenceCount)
{
    SystemConfig cfg = tinySystem(LlcKind::Reuse);
    Cmp cmp(cfg, buildMixStreams(exampleMix(), 42, 8));
    std::uint64_t fired = 0;
    cmp.setCheckHook(5'000, [&](const Cmp &, Cycle) { ++fired; });
    cmp.run(30'000);
    EXPECT_EQ(fired, cmp.referencesProcessed() / 5'000);
}

TEST(IntegrityChecker, SummaryNamesTheViolatedInvariant)
{
    SystemConfig cfg = tinySystem(LlcKind::Reuse);
    Cmp cmp(cfg, buildMixStreams(exampleMix(), 42, 8));
    cmp.run(50'000);
    IntegrityChecker checker(cmp);
    FaultInjector inj(7);
    const InjectionResult res =
        inj.inject(cmp, FaultClass::OwnerCorrupt);
    ASSERT_TRUE(res.applied) << res.detail;
    const IntegrityReport r = checker.check(cmp.now());
    ASSERT_FALSE(r.clean());
    EXPECT_TRUE(contains(r.summary(), "DirectoryEncoding"));
    EXPECT_EQ(r.countOf(Invariant::DirectoryEncoding),
              r.violations.size());

    bool threw = false;
    try {
        checker.enforce(cmp.now());
    } catch (const SimError &err) {
        threw = true;
        EXPECT_EQ(err.kind(), SimError::Kind::Integrity);
        EXPECT_TRUE(contains(err.what(), "DirectoryEncoding"));
    }
    EXPECT_TRUE(threw);
}

// ---------------------------------------------------------------------
// Checker-vs-injector matrix
// ---------------------------------------------------------------------

TEST(FaultClassNames, RoundTripThroughTheCliSpelling)
{
    for (std::size_t i = 0; i < numFaultClasses; ++i) {
        const auto cls = static_cast<FaultClass>(i);
        FaultClass out = FaultClass::ReplMetadata;
        EXPECT_TRUE(faultClassFromName(toString(cls), out))
            << toString(cls);
        EXPECT_EQ(out, cls);
    }
    FaultClass out;
    EXPECT_FALSE(faultClassFromName("bogus", out));
    EXPECT_FALSE(faultClassFromName("", out));
}

TEST(FaultMatrix, EveryFaultClassIsCaughtByItsAdvertisedInvariant)
{
    for (const LlcKind kind :
         {LlcKind::Reuse, LlcKind::Conventional, LlcKind::Ncid}) {
        for (std::size_t i = 0; i < numFaultClasses; ++i) {
            const auto cls = static_cast<FaultClass>(i);
            SCOPED_TRACE(std::string(kindName(kind)) + "/" +
                         toString(cls));
            SystemConfig cfg = tinySystem(kind);
            Cmp cmp(cfg, buildMixStreams(exampleMix(), 42, 8));
            cmp.run(50'000);
            IntegrityChecker checker(cmp);
            const IntegrityReport before = checker.check(cmp.now());
            ASSERT_TRUE(before.clean()) << before.summary();

            FaultInjector inj(99 + i);
            const InjectionResult res = inj.inject(cmp, cls);
            if (isServiceFault(cls)) {
                // Service-layer faults have no Cmp target; their
                // detection contracts (FrameIntegrity/BlobIntegrity,
                // CrashContainment/PoisonQuarantine) are exercised in
                // test_service.cc and test_daemon.cc.
                EXPECT_FALSE(res.applied);
                continue;
            }
            if (kind == LlcKind::Conventional &&
                cls == FaultClass::OrphanDataBlock) {
                // Coupled tag/data caches cannot orphan a data block.
                EXPECT_FALSE(res.applied);
                continue;
            }
            ASSERT_TRUE(res.applied) << res.detail;
            ASSERT_FALSE(res.expected.empty());

            const IntegrityReport after = checker.check(cmp.now());
            EXPECT_FALSE(after.clean())
                << "undetected fault: " << res.detail;
            // Every advertised invariant fires...
            for (const Invariant inv : res.expected)
                EXPECT_TRUE(after.has(inv))
                    << toString(inv) << " did not fire for '"
                    << res.detail << "'; report: " << after.summary();
            // ...and nothing else does (detection is precise).
            for (const Violation &v : after.violations) {
                const bool expected =
                    std::find(res.expected.begin(), res.expected.end(),
                              v.invariant) != res.expected.end();
                EXPECT_TRUE(expected)
                    << "unexpected " << toString(v.invariant) << ": "
                    << v.detail << " (injected: " << res.detail << ")";
            }
        }
    }
}

TEST(FaultMatrix, InjectionIsDeterministicForAFixedSeed)
{
    auto injectOnce = [](std::uint64_t seed) {
        SystemConfig cfg = tinySystem(LlcKind::Reuse);
        Cmp cmp(cfg, buildMixStreams(exampleMix(), 42, 8));
        cmp.run(50'000);
        FaultInjector inj(seed);
        return inj.inject(cmp, FaultClass::DirectoryDropBit).detail;
    };
    EXPECT_EQ(injectOnce(5), injectOnce(5));
    EXPECT_FALSE(injectOnce(5).empty());
}

TEST(FaultMatrix, MshrLeakIsInvisibleMidFlightButCaughtAtQuiesce)
{
    // A leaked entry is caught even by the mid-run walk (doneAt ==
    // never is unambiguous), and the quiesce walk agrees.
    SystemConfig cfg = tinySystem(LlcKind::Conventional);
    Cmp cmp(cfg, buildMixStreams(exampleMix(), 42, 8));
    cmp.run(50'000);
    IntegrityChecker checker(cmp);
    ASSERT_TRUE(checker.check(cmp.now()).clean());
    FaultInjector inj(3);
    const InjectionResult res = inj.inject(cmp, FaultClass::LeakedMshr);
    ASSERT_TRUE(res.applied) << res.detail;
    EXPECT_TRUE(checker.check(cmp.now()).has(Invariant::MshrLeak));
    EXPECT_TRUE(
        checker.checkQuiesce(cmp.now()).has(Invariant::MshrLeak));
}

} // namespace
} // namespace rc
