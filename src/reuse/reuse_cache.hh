/**
 * @file
 * The reuse cache (paper Section 3): a decoupled tag/data SLLC that only
 * stores the data of lines that have shown reuse.
 *
 * Behaviour summary:
 *  - Tag miss: the line is read from main memory and loaded into the
 *    requesting private cache; only a tag (state TO, no data) is
 *    allocated at the SLLC.
 *  - Tag hit without data (TO): a reuse is detected.  The line is read
 *    again (from memory, or from the private owner when one exists) and
 *    loaded into the private cache and the data array simultaneously.
 *  - Tag hit with data: served from the data array.
 *  - Data-array eviction (DataRepl): the victim's tag remains, its state
 *    reverting to TO; the forward pointer is invalidated by following the
 *    victim's reverse pointer.
 *  - Tag replacement protects private-cache lines and recently reused
 *    lines (NRR), and recalls private copies to preserve inclusion.
 */

#ifndef RC_REUSE_REUSE_CACHE_HH
#define RC_REUSE_REUSE_CACHE_HH

#include <memory>
#include <string>

#include "coherence/sllc_protocol.hh"
#include "mem/memctrl.hh"
#include "reuse/decoupled_sllc.hh"
#include "reuse/reuse_predictor.hh"

namespace rc
{

/** Reuse-cache configuration (RC-x/y of the paper). */
struct ReuseCacheConfig
{
    /**
     * Tag-array capacity expressed as the data capacity of the
     * conventional cache with the same number of tags ("x MBeq"):
     * tag entries = tagEquivBytes / 64.
     */
    std::uint64_t tagEquivBytes = 4ull << 20;
    std::uint32_t tagWays = 16;

    /** Data-array capacity in bytes ("y MB"). */
    std::uint64_t dataBytes = 1ull << 20;

    /** Data-array associativity; 0 selects fully associative. */
    std::uint32_t dataWays = 0;

    ReplKind tagRepl = ReplKind::NRR;
    /** Data replacement: NRU set-associative, Clock fully associative. */
    ReplKind dataRepl = ReplKind::Clock;

    std::uint32_t numCores = 8;
    Cycle tagLatency = 2;
    Cycle dataLatency = 8;
    Cycle interventionLatency = 14;
    std::uint64_t seed = 1;
    std::string name = "reuse";

    /**
     * Optional extension (paper Section 6): consult a bimodal reuse
     * predictor on tag misses and install predicted-reused lines in the
     * data array immediately, skipping the tag-only stage and its second
     * memory fetch.  Off by default (the paper's design).
     */
    bool usePredictor = false;
    std::uint32_t predictorEntries = 16384;

    /**
     * Convenience constructor for the paper's RC-x/y points.
     * @param tag_equiv_bytes tag capacity in MBeq-bytes.
     * @param data_bytes data-array bytes.
     * @param data_ways data associativity (0 = fully associative, which
     *        also selects Clock replacement; otherwise NRU).
     */
    static ReuseCacheConfig standard(std::uint64_t tag_equiv_bytes,
                                     std::uint64_t data_bytes,
                                     std::uint32_t data_ways = 0);
};

/** The paper's decoupled tag/data SLLC. */
class ReuseCache : public DecoupledSllc
{
  public:
    /**
     * @param cfg geometry, policies and latencies.
     * @param mem memory controller servicing fetches (not owned).
     */
    ReuseCache(const ReuseCacheConfig &cfg, MemCtrl &mem);

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

    /**
     * Fraction of tag generations that never allocated a data entry
     * (Table 6 of the paper).  Counts completed generations plus the
     * currently resident ones.
     */
    double fractionNeverEnteredData() const;

  private:
    void evictTag(std::uint64_t set, std::uint32_t way, Cycle now);
    void allocData(std::uint64_t tag_set, std::uint32_t tag_way, Cycle now);

    ReuseCacheConfig cfg;
    MemCtrl &mem;
    std::unique_ptr<ReusePredictor> predictor; //!< optional extension
    LlcObserver *watcher = nullptr;

    StatSet statSet;
    Counter &accesses;
    Counter &tagMisses;
    Counter &tagHitsData;
    Counter &tagHitsTagOnly;
    Counter &reloadsFromMem;
    Counter &upgradeReqs;
    Counter &interventions;
    Counter &invalidationsSent;
    Counter &inclusionRecalls;
    Counter &dirtyWritebacks;
    Counter &tagAllocs;
    Counter &tagEvictions;
    Counter &dataAllocs;
    Counter &dataEvictions;
    Counter &generationsWithData;
    Counter &predictedFills;
    Counter &predictedFillsWasted;
    SllcProtocol proto;
};

} // namespace rc

#endif // RC_REUSE_REUSE_CACHE_HH
