/**
 * @file
 * NCID: Non-inclusive Cache, Inclusive Directory architecture (Zhao et
 * al., CF 2010), as specialized in Section 5.5 of the reuse-cache paper.
 *
 * NCID keeps a conventional-size inclusive tag/directory array while the
 * data array may be smaller.  Unlike the reuse cache, tag and data arrays
 * have the SAME number of sets, so shrinking the data array reduces its
 * associativity (an 8 MBeq 16-way tag array with a 1 MB data array leaves
 * 2 data ways per set).
 *
 * Fill policy follows the NCID selective-allocation evaluation: set
 * dueling selects per thread between
 *  - normal fill: every miss allocates tag and data, inserted MRU;
 *  - selective fill: a random 5% of misses allocate tag and data at MRU,
 *    the other 95% allocate only the tag, inserted at the LRU position.
 * A later hit on a tag-only line fetches the data from memory and
 * allocates it (paying the same double-fetch cost as the reuse cache).
 * Tag and data replacement are both LRU.
 */

#ifndef RC_NCID_NCID_CACHE_HH
#define RC_NCID_NCID_CACHE_HH

#include <memory>
#include <string>

#include "cache/set_dueling.hh"
#include "coherence/sllc_protocol.hh"
#include "common/rng.hh"
#include "mem/memctrl.hh"
#include "reuse/decoupled_sllc.hh"

namespace rc
{

/** NCID configuration. */
struct NcidConfig
{
    std::uint64_t tagEquivBytes = 8ull << 20; //!< tag entries * 64
    std::uint32_t tagWays = 16;
    std::uint64_t dataBytes = 1ull << 20;     //!< data capacity
    std::uint32_t numCores = 8;
    Cycle tagLatency = 2;
    Cycle dataLatency = 8;
    Cycle interventionLatency = 14;
    double selectiveFillRate = 0.05; //!< fraction getting data in
                                     //!< selective mode
    std::uint64_t seed = 1;
    std::string name = "ncid";
};

/** The NCID baseline SLLC. */
class NcidCache : public DecoupledSllc
{
  public:
    /**
     * @param cfg geometry and latencies; data ways are derived as
     *        dataBytes / (64 * tagSets) and must be at least 1.
     * @param mem memory controller (not owned).
     */
    NcidCache(const NcidConfig &cfg, MemCtrl &mem);

    LlcResponse request(const LlcRequest &req) override;
    void evictNotify(Addr line_addr, CoreId core, bool dirty,
                     Cycle now) override;
    void
    setRecallHandler(RecallHandler *handler) override
    {
        proto.setRecallHandler(handler);
    }
    void setObserver(LlcObserver *observer) override { watcher = observer; }
    const StatSet &stats() const override { return statSet; }
    Counter missesBy(CoreId c) const override { return proto.missesBy(c); }
    Counter accessesBy(CoreId c) const override { return proto.accessesBy(c); }
    std::string describe() const override;
    void save(Serializer &s) const override;
    void restore(Deserializer &d) override;

    /** Dueling monitor (tests). */
    const SetDueling &dueling() const { return duel; }

    /** Data-array ways per set after the size reduction. */
    std::uint32_t dataWays() const { return data.geometry().numWays(); }

  private:
    void evictTag(std::uint64_t set, std::uint32_t way, Cycle now);
    void allocData(std::uint64_t set, std::uint32_t way, Cycle now);

    NcidConfig cfg;
    SetDueling duel;
    MemCtrl &mem;
    Rng rng;
    LlcObserver *watcher = nullptr;

    StatSet statSet;
    Counter &accesses;
    Counter &tagMisses;
    Counter &dataHits;
    Counter &tagOnlyHits;
    Counter &selectiveFills;
    Counter &normalFills;
    Counter &tagOnlyFills;
    Counter &dirtyWritebacks;
    Counter &inclusionRecalls;
    Counter &invalidationsSent;
    Counter &interventions;
    SllcProtocol proto;
};

} // namespace rc

#endif // RC_NCID_NCID_CACHE_HH
