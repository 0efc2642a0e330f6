/** @file
 * Parameterized battery over every SLLC organization through the common
 * Sllc interface: the CMP swaps organizations freely, so they must all
 * honour the same contract.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <unordered_map>

#include "cache/conventional_llc.hh"
#include "common/log.hh"
#include "ncid/ncid_cache.hh"
#include "reuse/reuse_cache.hh"

namespace rc
{
namespace
{

enum class Organization
{
    ConvLru,
    ConvDrrip,
    ConvNrr,
    Reuse,
    ReusePredicted,
    ReuseSetAssoc,
    Ncid,
};

const char *
orgName(Organization o)
{
    switch (o) {
      case Organization::ConvLru: return "ConvLru";
      case Organization::ConvDrrip: return "ConvDrrip";
      case Organization::ConvNrr: return "ConvNrr";
      case Organization::Reuse: return "Reuse";
      case Organization::ReusePredicted: return "ReusePredicted";
      case Organization::ReuseSetAssoc: return "ReuseSetAssoc";
      case Organization::Ncid: return "Ncid";
    }
    return "?";
}

class CountingRecaller : public RecallHandler
{
  public:
    bool
    recall(Addr, std::uint32_t mask) override
    {
        recalls += __builtin_popcount(mask);
        return false;
    }

    bool
    downgrade(Addr, std::uint32_t mask) override
    {
        downgrades += __builtin_popcount(mask);
        return true;
    }

    std::uint64_t recalls = 0;
    std::uint64_t downgrades = 0;
};

std::unique_ptr<Sllc>
makeOrg(Organization o, MemCtrl &mem)
{
    switch (o) {
      case Organization::ConvLru:
      case Organization::ConvDrrip:
      case Organization::ConvNrr: {
        ConvLlcConfig cfg;
        cfg.capacityBytes = 64 * 1024;
        cfg.numCores = 8;
        cfg.repl = o == Organization::ConvLru ? ReplKind::LRU
                 : o == Organization::ConvDrrip ? ReplKind::DRRIP
                                                : ReplKind::NRR;
        return std::make_unique<ConventionalLlc>(cfg, mem);
      }
      case Organization::Reuse:
      case Organization::ReusePredicted: {
        ReuseCacheConfig cfg =
            ReuseCacheConfig::standard(64 * 1024, 16 * 1024, 0);
        cfg.usePredictor = o == Organization::ReusePredicted;
        return std::make_unique<ReuseCache>(cfg, mem);
      }
      case Organization::ReuseSetAssoc: {
        ReuseCacheConfig cfg =
            ReuseCacheConfig::standard(64 * 1024, 16 * 1024, 16);
        return std::make_unique<ReuseCache>(cfg, mem);
      }
      case Organization::Ncid: {
        NcidConfig cfg;
        cfg.tagEquivBytes = 64 * 1024;
        cfg.dataBytes = 16 * 1024;
        cfg.numCores = 8;
        return std::make_unique<NcidCache>(cfg, mem);
      }
    }
    return nullptr;
}

class SllcContract : public ::testing::TestWithParam<Organization>
{
  protected:
    SllcContract() : mem(MemCtrlConfig{})
    {
        llc = makeOrg(GetParam(), mem);
        llc->setRecallHandler(&recaller);
    }

    LlcResponse
    req(Addr a, CoreId core, ProtoEvent e, Cycle now = 0)
    {
        return llc->request(LlcRequest{a, core, e, now});
    }

    static Addr line(std::uint64_t n) { return n * lineBytes; }

    MemCtrl mem;
    CountingRecaller recaller;
    std::unique_ptr<Sllc> llc;
};

TEST_P(SllcContract, ColdMissFetchesMemory)
{
    const auto r = req(line(1), 0, ProtoEvent::GETS);
    EXPECT_FALSE(r.tagHit);
    EXPECT_TRUE(r.memFetched);
    EXPECT_GT(r.doneAt, 0u);
    EXPECT_EQ(mem.totalReads(), 1u);
}

TEST_P(SllcContract, RepeatedAccessEventuallyHitsData)
{
    for (int i = 0; i < 4; ++i) {
        req(line(1), 0, ProtoEvent::GETS);
        llc->evictNotify(line(1), 0, false, 0);
    }
    const auto r = req(line(1), 0, ProtoEvent::GETS);
    EXPECT_TRUE(r.tagHit);
    EXPECT_TRUE(r.dataHit) << "4 prior accesses must establish the line";
}

TEST_P(SllcContract, ResponseTimeNeverBeforeRequest)
{
    // A core that owns a line would hit privately and never re-request
    // it at the SLLC; mirror that protocol precondition here.
    std::unordered_map<Addr, CoreId> owner;
    Rng rng(5);
    for (int i = 0; i < 2000; ++i) {
        const Cycle now = i * 7;
        const Addr a = line(rng.below(512));
        const auto core = static_cast<CoreId>(rng.below(8));
        const bool write = rng.chance(0.3);
        if (owner.count(a) && owner[a] == core)
            continue;
        if (write)
            owner[a] = core;
        else
            owner.erase(a);
        const auto r = req(a, core,
                           write ? ProtoEvent::GETX : ProtoEvent::GETS,
                           now);
        EXPECT_GT(r.doneAt, now);
    }
}

TEST_P(SllcContract, WriteRequestsInvalidateSharers)
{
    req(line(1), 0, ProtoEvent::GETS);
    req(line(1), 1, ProtoEvent::GETS);
    const auto before = recaller.recalls;
    req(line(1), 2, ProtoEvent::GETX);
    EXPECT_GT(recaller.recalls, before);
}

TEST_P(SllcContract, UpgradeAfterSharedRead)
{
    req(line(1), 0, ProtoEvent::GETS);
    const auto r = req(line(1), 0, ProtoEvent::UPG);
    EXPECT_TRUE(r.tagHit);
    // An upgrade moves no data: no memory read beyond the initial one.
    EXPECT_EQ(mem.totalReads(), 1u);
}

TEST_P(SllcContract, PerCoreCountersMonotone)
{
    req(line(1), 3, ProtoEvent::GETS);
    req(line(2), 3, ProtoEvent::GETS);
    EXPECT_EQ(llc->accessesBy(3), 2u);
    EXPECT_GE(llc->missesBy(3), 1u);
    EXPECT_LE(llc->missesBy(3), 2u);
    EXPECT_EQ(llc->accessesBy(0), 0u);
}

TEST_P(SllcContract, DescribeNonEmpty)
{
    EXPECT_FALSE(llc->describe().empty());
}

TEST_P(SllcContract, DeterministicReplay)
{
    auto run = [this]() {
        MemCtrl m(MemCtrlConfig{});
        auto cache = makeOrg(GetParam(), m);
        CountingRecaller rec;
        cache->setRecallHandler(&rec);
        Rng rng(99);
        std::unordered_map<Addr, CoreId> owner;
        for (int i = 0; i < 5000; ++i) {
            const Addr a = line(rng.below(2048));
            const auto core = static_cast<CoreId>(rng.below(8));
            const bool write = rng.chance(0.25);
            if (owner.count(a) && owner[a] == core)
                continue;
            if (write)
                owner[a] = core;
            else
                owner.erase(a);
            cache->request(LlcRequest{
                a, core, write ? ProtoEvent::GETX : ProtoEvent::GETS,
                static_cast<Cycle>(i) * 3});
        }
        std::uint64_t sum = 0;
        for (const auto &e : cache->stats().entries())
            sum = sum * 31 + e.value;
        return sum;
    };
    EXPECT_EQ(run(), run());
}

TEST_P(SllcContract, DirtyEvictionsEventuallyReachMemory)
{
    // Write a footprint far beyond the 64 KB tag reach so dirty data is
    // forced out of the hierarchy.
    Rng rng(13);
    std::unordered_map<Addr, CoreId> owner;
    for (int i = 0; i < 20000; ++i) {
        const Addr a = line(rng.below(16384));
        const auto core = static_cast<CoreId>(rng.below(8));
        if (owner.count(a) && owner[a] == core)
            continue;
        req(a, core, ProtoEvent::GETX, static_cast<Cycle>(i) * 5);
        // The private cache evicts the dirty copy right away.
        llc->evictNotify(a, core, true, static_cast<Cycle>(i) * 5 + 1);
        owner.erase(a);
    }
    EXPECT_GT(mem.totalWrites(), 0u);
}

/** Name of the SimError kind @p fn throws; "none" when it throws none. */
template <typename Fn>
std::string
simErrorKind(Fn fn)
{
    try {
        fn();
    } catch (const SimError &err) {
        return toString(err.kind());
    }
    return "none";
}

TEST_P(SllcContract, OwnerRequestingItsOwnLineIsAProtocolError)
{
    // Core 0 owns the line after its GETX, so it would hit privately; a
    // second GETX from it breaks the protocol and must fail the run, not
    // the process.
    req(line(1), 0, ProtoEvent::GETX);
    EXPECT_EQ(simErrorKind([&] { req(line(1), 0, ProtoEvent::GETX); }),
              toString(SimError::Kind::Protocol));
}

TEST_P(SllcContract, EvictionOfAnAbsentLineIsAnIntegrityError)
{
    // Inclusion: a private cache cannot evict a line the SLLC holds no
    // tag for.
    req(line(1), 0, ProtoEvent::GETS);
    EXPECT_EQ(simErrorKind([&] { llc->evictNotify(line(2), 0, false, 0); }),
              toString(SimError::Kind::Integrity));
}

INSTANTIATE_TEST_SUITE_P(
    AllOrganizations, SllcContract,
    ::testing::Values(Organization::ConvLru, Organization::ConvDrrip,
                      Organization::ConvNrr, Organization::Reuse,
                      Organization::ReusePredicted,
                      Organization::ReuseSetAssoc, Organization::Ncid),
    [](const ::testing::TestParamInfo<Organization> &info) {
        return orgName(info.param);
    });

} // namespace
} // namespace rc
