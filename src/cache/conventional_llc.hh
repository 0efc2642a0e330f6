/**
 * @file
 * Conventional inclusive SLLC: the paper's baseline (Table 4).
 *
 * Tag and data are coupled one-to-one, every miss allocates both
 * (non-selective allocation), and a full-map directory keeps the private
 * levels coherent.  Replacement is pluggable: LRU for the baseline,
 * TA-DRRIP and NRR for the Section 5.5 comparisons.
 */

#ifndef RC_CACHE_CONVENTIONAL_LLC_HH
#define RC_CACHE_CONVENTIONAL_LLC_HH

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cache/geometry.hh"
#include "cache/llc_iface.hh"
#include "cache/policy_dispatch.hh"
#include "cache/replacement.hh"
#include "coherence/directory.hh"
#include "coherence/sllc_protocol.hh"
#include "mem/memctrl.hh"

namespace rc
{

/** Conventional SLLC configuration. */
struct ConvLlcConfig
{
    std::uint64_t capacityBytes = 8ull << 20; //!< 8 MB baseline
    std::uint32_t ways = 16;
    ReplKind repl = ReplKind::LRU;
    std::uint32_t numCores = 8;
    Cycle tagLatency = 2;          //!< serial tag-array portion
    Cycle dataLatency = 8;         //!< data-array portion (hit = tag+data)
    Cycle interventionLatency = 14; //!< fetch from a private owner
    std::uint64_t seed = 1;
    std::string name = "llc";
};

/** The baseline inclusive SLLC. */
class ConventionalLlc : public Sllc
{
  public:
    /**
     * @param cfg geometry, policy and latencies.
     * @param mem memory controller servicing misses (not owned).
     */
    ConventionalLlc(const ConvLlcConfig &cfg, MemCtrl &mem);

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
    std::uint64_t dataLinesResident() const override;
    std::uint64_t dataLinesTotal() const override { return geom.numLines(); }
    void save(Serializer &s) const override;
    void restore(Deserializer &d) override;

    /** Directory/state of a resident line (tests); I when absent. */
    LlcState stateOf(Addr line_addr) const;

    /** Directory entry of a resident line (tests); nullptr when absent. */
    const DirectoryEntry *dirOf(Addr line_addr) const;

    /** Geometry in force. */
    const CacheGeometry &geometry() const { return geom; }

    /**
     * Verify layer: visit every resident line with its state and
     * directory entry (no replacement-state side effects).
     */
    void forEachResident(
        const std::function<void(Addr, LlcState, const DirectoryEntry &)>
            &fn) const;

    /** Verify layer: the replacement policy (metadata sanity walks). */
    const ReplacementPolicy &policy() const { return *repl; }

    /** Fault-injection hook: mutable replacement policy. */
    ReplacementPolicy &policyMut() { return *repl; }

    /** Fault-injection hook: mutable directory of a resident line. */
    DirectoryEntry *dirOfMut(Addr line_addr);

    /**
     * Fault-injection hook: overwrite the state of a resident line
     * without any protocol action (e.g. force the reuse-cache-only TO
     * encoding, which is illegal here).
     * @return false when the line is not resident.
     */
    bool corruptStateForTest(Addr line_addr, LlcState state);

  private:
    /**
     * Per-way payload; the tag lives in a separate contiguous lane
     * (`tagLane`) so find() scans packed 64-bit tags instead of
     * striding over directory state.
     */
    struct Entry
    {
        LlcState state = LlcState::I;
        DirectoryEntry dir;
    };

    /** Locate a resident line; on a hit @p way_out names its way. */
    Entry *find(Addr line_addr, std::uint32_t &way_out);
    Entry *find(Addr line_addr);
    const Entry *find(Addr line_addr) const;
    std::uint32_t allocateWay(Addr line_addr, const LlcRequest &req);
    void evictEntry(std::uint64_t set, std::uint32_t way, Cycle now);

    ConvLlcConfig cfg;
    CacheGeometry geom;
    std::vector<std::uint64_t> tagLane; //!< SoA tag lane (the scan key)
    std::vector<Entry> entries;
    std::unique_ptr<ReplacementPolicy> repl;
    PolicyRef fast; //!< devirtualized view of *repl for the hot path
    MemCtrl &mem;
    LlcObserver *watcher = nullptr;

    StatSet statSet;
    Counter &accesses;
    Counter &dataHits;
    Counter &tagMisses;
    Counter &upgradeReqs;
    Counter &interventions;
    Counter &invalidationsSent;
    Counter &inclusionRecalls;
    Counter &dirtyWritebacks;
    SllcProtocol proto;
};

} // namespace rc

#endif // RC_CACHE_CONVENTIONAL_LLC_HH
