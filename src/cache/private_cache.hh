/**
 * @file
 * Private per-core cache hierarchy: L1 instruction, L1 data and a
 * unified write-back L2 that is inclusive of both L1s (Table 4 of the
 * paper: 32 KB 4-way L1 I/D, 256 KB 8-way L2).
 *
 * Coherence state (MSI) and dirtiness live at the L2; the L1s act as
 * latency filters whose contents are always a subset of the L2.
 */

#ifndef RC_CACHE_PRIVATE_CACHE_HH
#define RC_CACHE_PRIVATE_CACHE_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cache/geometry.hh"
#include "cache/line.hh"
#include "coherence/protocol.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace rc
{

/** Sizing and latencies of one core's private hierarchy. */
struct PrivateConfig
{
    std::uint64_t l1Bytes = 32 * 1024;   //!< per L1 (I and D each)
    std::uint32_t l1Ways = 4;
    Cycle l1Latency = 1;
    std::uint64_t l2Bytes = 256 * 1024;
    std::uint32_t l2Ways = 8;
    Cycle l2Latency = 7;
};

/**
 * Simple set-associative tag store with LRU replacement; payload is the
 * MSI state plus a dirty bit (only used by the L2 instance).
 *
 * Storage is structure-of-arrays: the way-scan in lookup()/peek()
 * compares a contiguous tag lane and only touches the payload on a hit.
 * Invalid ways hold a sentinel tag no 40-bit address can produce, so
 * the scan is a single compare per way with no validity load; the
 * validity lane still exists for fills, counting and serialization
 * (snapshots store 0 for invalid slots, exactly as the AoS layout did).
 * The LRU stamps live inline as another lane rather than behind a
 * ReplacementPolicy — the policy is fixed, and the serialized image
 * keeps the exact framing the old LruPolicy member produced.
 */
class TagStore
{
  public:
    /** Payload of one resident line (the tag lives in the tag lane). */
    struct Way
    {
        PrivState state = PrivState::I;
        bool dirty = false;
    };

    /** Result of evicting to make room. */
    struct Eviction
    {
        bool valid = false;    //!< an occupied way was displaced
        Addr lineAddr = 0;
        PrivState state = PrivState::I;
        bool dirty = false;
    };

    TagStore(const CacheGeometry &geometry, const std::string &name);

    /** @return pointer to the resident way, or nullptr on miss.
     *  Hits update LRU. */
    Way *lookup(Addr line_addr);

    /** lookup() returning the way index instead (-1 on a miss); hits
     *  update LRU exactly like lookup(). */
    std::int32_t lookupWay(Addr line_addr);

    /** Peek without touching LRU state. */
    const Way *peek(Addr line_addr) const;

    /**
     * Install @p line_addr with @p state, evicting the LRU way of the
     * target set if it is full.
     * @param way_out optional: the way the line landed in.
     */
    Eviction fill(Addr line_addr, PrivState state,
                  std::uint32_t *way_out = nullptr);

    /** Payload of (set-of(line_addr), way). */
    Way &wayAt(Addr line_addr, std::uint32_t way)
    {
        return payload[geom.setIndex(line_addr) * geom.numWays() + way];
    }

    /** Record a hit at a known way: stamp = ++tick.  Fan-out replay
     *  uses it to repeat a recorded lookup without the scan. */
    void touchAt(Addr line_addr, std::uint32_t way)
    {
        stamp[geom.setIndex(line_addr) * geom.numWays() + way] = ++tick;
    }

    /** Occupant of (set-of(line_addr), way) as an Eviction record
     *  (invalid when the way is free); fan-out replay derives the fill
     *  victim from it before overwriting the way. */
    Eviction occupantAt(Addr line_addr, std::uint32_t way) const;

    /** Install at a known way, silently displacing any occupant:
     *  replays the exact mutation fill() performs once the way is
     *  chosen (tag, payload, valid, stamp = ++tick). */
    void installAt(Addr line_addr, std::uint32_t way, PrivState state);

    /** Drop @p line_addr if present. @return the displaced way info. */
    Eviction invalidate(Addr line_addr);

    /** Number of valid lines (for tests). */
    std::uint64_t residentCount() const;

    /**
     * Verify layer: visit every resident line without touching LRU
     * state (line address reconstructed from tag and set).
     */
    void forEachResident(
        const std::function<void(Addr, const Way &)> &fn) const;

    /** Geometry in force. */
    const CacheGeometry &geometry() const { return geom; }

    /** Checkpoint resident ways, valid bits and replacement metadata. */
    void save(Serializer &s) const;

    /** Restore a save()'d image; throws SimError(Snapshot) on geometry
     *  drift. */
    void restore(Deserializer &d);

  private:
    /** Tag-lane value of an invalid way (beyond any 40-bit address). */
    static constexpr std::uint64_t invalidTag = ~std::uint64_t{0};

    /** LRU victim: first way carrying the strictly smallest stamp. */
    std::uint32_t lruVictim(std::uint64_t set) const;

    CacheGeometry geom;
    std::vector<std::uint64_t> tags;    //!< tag lane (the scan key)
    std::vector<std::uint8_t> valid;    //!< validity lane
    std::vector<Way> payload;           //!< state + dirty per way
    std::vector<std::uint64_t> stamp;   //!< LRU stamp lane
    std::uint64_t tick = 0;             //!< monotonic LRU clock
};

/** What the private hierarchy needs from the outside world for a miss. */
struct PrivateMissAction
{
    bool needLlc = false;       //!< must send `event` to the SLLC
    ProtoEvent event = ProtoEvent::GETS;
    Cycle latency = 0;          //!< private-level latency accumulated
};

/** Outcome class of one private-hierarchy access, as recorded by the
 *  fan-out front end (see sim/fanout.hh). */
enum class StepKind : std::uint8_t
{
    L1IHit,          //!< instruction fetch hit in the L1I
    L1IL2Hit,        //!< L1I miss, L2 hit (fills the L1I shared)
    InstrMiss,       //!< L2 miss on a fetch: GETS to the SLLC
    L1DReadHit,      //!< data read hit in the L1D
    L1DWriteHitM,    //!< write hit, L2 already M (silent dirtying)
    L1DWriteHitUpg,  //!< write hit on an S copy: UPG to the SLLC
    L2ReadHit,       //!< L1D miss, L2 read hit (fills the L1D)
    L2WriteHitM,     //!< L1D miss, L2 write hit in M
    L2HitUpg,        //!< L1D miss, L2 holds S on a write: UPG
    DataMissRead,    //!< L2 miss on a read: GETS
    DataMissWrite,   //!< L2 miss on a write: GETX
};

/**
 * One reference's private-hierarchy outcome in the 16-byte form the
 * fan-out feed stores (sim/fanout.hh): recorded once by the front end
 * and replayed into every back-end replica whose affected sets have not
 * diverged.  The record pins the ways the front end chose so replay
 * skips every tag scan and LRU victim search.  Think time is not kept
 * here (the feed recovers it from its retirement prefix sum), and the
 * issuing PC is an index into the feed's per-core PC table.  The L2
 * fill victim lives in the feed's LLC-bound side table: only fills
 * displace one, and a back end reads it only on such a step.
 */
struct PackedStep
{
    static constexpr std::uint8_t kInstr = 1;       //!< instruction fetch
    static constexpr std::uint8_t kWrite = 2;       //!< MemOp::Write
    static constexpr std::uint8_t kVictim = 4;      //!< the fill displaced an L2 victim
    static constexpr std::uint8_t kUpgL1Hit = 8;    //!< upgrade hit in L1D
    /** The L2 fill victim was dirty.  Shares bit 3 with kUpgL1Hit:
     *  upgrades never displace an L2 victim and fills never hit-upgrade
     *  an L1D copy, so the two kinds cannot both claim the bit. */
    static constexpr std::uint8_t kVictimDirty = 8;
    static constexpr std::uint8_t kFillStateShift = 4; //!< L1 fill state bits

    Addr line = 0;           //!< line-aligned reference address
    std::uint32_t pcIdx = 0; //!< issuing PC: index into the feed's PC table
    StepKind kind = StepKind::L1IHit;
    std::uint8_t flags = 0;
    std::int8_t l1Way = -1; //!< L1 way touched or filled
    std::int8_t l2Way = -1; //!< L2 way touched or filled

    bool isInstr() const { return (flags & kInstr) != 0; }
    MemOp op() const
    {
        return (flags & kWrite) != 0 ? MemOp::Write : MemOp::Read;
    }
    bool hasVictim() const { return (flags & kVictim) != 0; }
    /** Dirtiness of the L2 fill victim (only meaningful with kVictim). */
    bool victimDirty() const { return (flags & kVictimDirty) != 0; }
    /** L1D fill state for L2ReadHit (the L2 copy's state). */
    PrivState fillState() const
    {
        return static_cast<PrivState>(flags >> kFillStateShift);
    }
};

static_assert(sizeof(PackedStep) == 16,
              "the fan-out feed keeps 16 bytes per reference");

/**
 * One core's L1I + L1D + L2.  The CMP simulator calls classify() to learn
 * whether an access completes privately, then (on a miss or upgrade)
 * performs the SLLC transaction itself and completes the access with
 * fill().
 */
class PrivateHierarchy
{
  public:
    PrivateHierarchy(const PrivateConfig &cfg, CoreId core,
                     const std::string &name);

    /**
     * First phase of an access: consult L1/L2.
     * If the access hits with sufficient permission, needLlc is false and
     * `latency` is the complete access latency.  Otherwise the caller
     * must issue `event` (GETS/GETX/UPG) to the SLLC and then call
     * fill()/upgraded().
     *
     * @param line_addr line-aligned address.
     * @param op read or write.
     * @param is_instr instruction fetch (uses the L1I).
     */
    PrivateMissAction classify(Addr line_addr, MemOp op, bool is_instr);

    /**
     * Complete an SLLC fill after a GETS/GETX: installs into L2 and the
     * appropriate L1.
     * @param writable true when the SLLC granted exclusivity (GETX).
     * @param evict_line out: L2 victim that the SLLC must be notified of.
     * @param evict_dirty out: whether that victim was dirty.
     * @return true when an L2 victim was displaced.
     */
    bool fill(Addr line_addr, bool is_instr, bool writable,
              Addr &evict_line, bool &evict_dirty);

    /** Complete an upgrade (UPG): the resident line becomes M and dirty. */
    void upgraded(Addr line_addr);

    /**
     * classify() that additionally fills @p rec with the outcome kind
     * and the ways it touched, for fan-out replay.  State mutations and
     * counters are exactly those of classify().
     */
    PrivateMissAction classifyRecord(Addr line_addr, MemOp op, bool is_instr,
                                     PackedStep &rec);

    /** fill() that records the chosen ways and the victim flags in
     *  @p rec; the victim line itself is @p evict_line. */
    bool fillRecord(Addr line_addr, bool is_instr, bool writable,
                    Addr &evict_line, bool &evict_dirty, PackedStep &rec);

    /** upgraded() that records the L1D way (hit or fill) in @p rec. */
    void upgradedRecord(Addr line_addr, PackedStep &rec);

    /** The PrivateMissAction a recorded step implies (pure function of
     *  the kind and this hierarchy's latencies). */
    PrivateMissAction actionOf(const PackedStep &rec) const;

    /**
     * Replay a recorded classify() against this hierarchy.  Valid only
     * while the sets the record touches are bit-identical to the
     * recording hierarchy's (the caller tracks divergence); mutations,
     * counters and LRU-clock bumps are exactly classify()'s.
     */
    PrivateMissAction applyClassify(const PackedStep &rec);

    /** Replay a recorded fill(); same validity contract.
     *  @param recorded_victim the victim the recording fill displaced
     *         (ignored unless rec.hasVictim()); the replayed fill must
     *         displace the same line. */
    bool applyFill(const PackedStep &rec, Addr recorded_victim,
                   Addr &evict_line, bool &evict_dirty);

    /** Replay a recorded upgraded(); same validity contract. */
    void applyUpgraded(const PackedStep &rec);

    /**
     * Install a prefetched line into the L2 only (no L1 fill, shared
     * state).  No-op when the line is already resident.
     * @param evict_line out: displaced L2 victim, if any.
     * @param evict_dirty out: whether that victim was dirty.
     * @return true when a victim was displaced.
     */
    bool fillPrefetch(Addr line_addr, Addr &evict_line, bool &evict_dirty);

    /**
     * Back-invalidation from the SLLC.
     * @return true iff the dropped copy was dirty.
     */
    bool invalidate(Addr line_addr);

    /**
     * Read-intervention downgrade from the SLLC: an M copy becomes S and
     * its dirty data is surrendered.
     * @return true iff the copy was dirty.
     */
    bool downgrade(Addr line_addr);

    /** Copy present in any private level? (directory cross-check). */
    bool present(Addr line_addr) const;

    /**
     * Verify layer: visit every L2-resident line (the hierarchy's full
     * footprint, since both L1s are inclusive subsets of the L2).
     */
    void forEachL2Resident(
        const std::function<void(Addr, const TagStore::Way &)> &fn) const;

    /**
     * Verify layer: visit every L1-resident line (I and D) for the
     * L1-subset-of-L2 inclusion check.
     * @param fn called with (line, way, is_instr).
     */
    void forEachL1Resident(
        const std::function<void(Addr, const TagStore::Way &, bool)> &fn)
        const;

    /** L2 state of the line (I when absent). */
    PrivState state(Addr line_addr) const;

    /** Counters (l1d/l1i/l2 hits and misses). */
    const StatSet &stats() const { return statSet; }

    /**
     * Demand L1 misses (I + D) without a string lookup; the per-run
     * measurement path reads this once per core per snapshot.
     */
    Counter l1MissTotal() const { return l1iMisses + l1dMisses; }

    /** Demand L2 misses without a string lookup. */
    Counter l2MissTotal() const { return l2Misses; }

    /** Config in force. */
    const PrivateConfig &config() const { return cfg; }

    /** L1 geometry (shared by the I and D stores). */
    const CacheGeometry &l1Geometry() const { return l1i.geometry(); }

    /** L2 geometry. */
    const CacheGeometry &l2Geometry() const { return l2.geometry(); }

    /** Checkpoint L1I/L1D/L2 contents and counters. */
    void save(Serializer &s) const;

    /** Restore a save()'d image. */
    void restore(Deserializer &d);

  private:
    template <bool Rec>
    PrivateMissAction classifyImpl(Addr line_addr, MemOp op, bool is_instr,
                                   PackedStep *rec);
    template <bool Rec>
    bool fillImpl(Addr line_addr, bool is_instr, bool writable,
                  Addr &evict_line, bool &evict_dirty, PackedStep *rec);
    template <bool Rec>
    void upgradedImpl(Addr line_addr, PackedStep *rec);

    PrivateConfig cfg;
    CoreId coreId;

    TagStore l1i;
    TagStore l1d;
    TagStore l2;

    StatSet statSet;
    Counter &l1iHits;
    Counter &l1iMisses;
    Counter &l1dHits;
    Counter &l1dMisses;
    Counter &l2Hits;
    Counter &l2Misses;
    Counter &upgrades;
    Counter &recalls;
    Counter &dirtyRecalls;
};

} // namespace rc

#endif // RC_CACHE_PRIVATE_CACHE_HH
