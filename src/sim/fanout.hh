/**
 * @file
 * Single-pass multi-config simulation: one front end generates the
 * private-hierarchy reference outcome stream once, and N complete
 * SLLC+DRAM back ends consume it in lockstep.
 *
 * The front end (FanoutFeed) owns one set of reference streams and one
 * "virgin" private hierarchy per core — virgin because it completes
 * every L2 miss immediately and is never recalled, having no SLLC
 * behind it.  Each reference becomes a PackedStep pinning the outcome
 * kind and the exact ways touched.  Every member Cmp keeps its own
 * private-hierarchy replicas, SLLC, DRAM, crossbar and stats; a member
 * replays records while the sets a record touches are bit-identical to
 * the virgin hierarchy's, and falls back to the ordinary classify path
 * (marking the disturbed sets diverged) once its own SLLC's recalls or
 * downgrades have made them differ.  Replay and fallback produce
 * bit-identical state and stats either way — the record path merely
 * skips the tag scans and LRU victim searches the front end already
 * performed.
 *
 * On top of replay sits the express lane: while a member core has no
 * diverged sets, private hits cannot affect anything outside the core,
 * so only LLC-bound records interact with shared state.  The feed keeps
 * per-record prefix sums of private-side cycle cost and retirement
 * count plus per-chunk images of the virgin hierarchy, letting a member
 * jump straight from one LLC-bound record to the next in O(1) — private
 * state is left stale and materialized (nearest virgin image + record
 * replay) only when a recall/downgrade lands, divergence begins, or the
 * run() commits.  Because the canonical scheduler order among LLC-bound
 * steps is preserved exactly, express members stay bit-identical to
 * independent runs.
 *
 * FanoutCmp drives its members in cycle quanta, slowest member first,
 * and trims the shared record window after every member's slice; it
 * commits each member's horizon only at the end of a run() call so
 * mid-run hooks observe exactly what an unsliced run() would show.
 */

#ifndef RC_SIM_FANOUT_HH
#define RC_SIM_FANOUT_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "cache/private_cache.hh"
#include "common/log.hh"
#include "sim/cmp.hh"
#include "sim/feed_cache.hh"
#include "sim/system_config.hh"
#include "sim/trace.hh"

namespace rc
{

/** Builds the per-core reference streams for one mix (used once live,
 *  and again when a checkpoint needs a stream image reconstructed). */
using StreamFactory =
    std::function<std::vector<std::unique_ptr<RefStream>>()>;

/**
 * One reference's outcome with everything the feed keeps beside the
 * packed record decoded back in: think time, issuing PC and the L2
 * fill victim.  FanoutFeed::record() builds one on demand for
 * diagnostics; fan-out members read the packed form through step().
 */
struct StepRecord : PackedStep
{
    Addr victimLine = 0;     //!< L2 victim displaced by the fill, if any
    Addr pc = 0;             //!< issuing instruction carried from the MemRef
    std::uint32_t think = 0; //!< think time carried from the MemRef
};

/**
 * The shared fan-out front end: streams + virgin private hierarchies,
 * producing per-core PackedStep sequences on demand.
 *
 * Records are generated lazily in chunks of kChunk as members consume
 * them, and a chunk is freed once every member is past it.  The live
 * window is therefore set by the members' record spread: when run()
 * returns every member stands at the same cycle, and the member with
 * the lowest IPC on a core still needs every record the fastest one has
 * consumed.  Each live record costs 32 bytes: the 16-byte PackedStep
 * and two 8-byte inclusive prefix sums.  Think time comes back out of
 * the retirement prefix sum.  The issuing PC is an index into a
 * per-core PC table: a member whose private sets diverged can miss on
 * any record, not only on the LLC-bound ones, and its SLLC request
 * carries that record's PC.  The L2 fill victim sits in a side table
 * beside the LLC-bound record index, since only a reference that
 * reaches the SLLC (1.2% of them on perfbench's sweep-fanout) can carry
 * one.
 *
 * Every chunk starts with a snapshot of the underlying stream state and
 * of the virgin hierarchy; ReplayStream::save() rebuilds a bit-exact
 * stream image for any record index from its chunk's snapshot, keeping
 * member checkpoints byte-identical to independent runs'.
 */
class FanoutFeed
{
  public:
    /** Records per chunk: the unit of generation, snapshots and trim. */
    static constexpr std::uint64_t kChunk = 4096;

    /** Bytes a live record costs: the packed record plus its two
     *  prefix sums. */
    static constexpr std::uint64_t kBytesPerRecord =
        sizeof(PackedStep) + 2 * sizeof(std::uint64_t);

    /**
     * @param priv private-hierarchy sizing shared by every member.
     * @param factory stream builder; invoked once immediately (unless
     *        replaying from @p blob), and again per checkpointed stream
     *        image.
     * @param blob a validated feed-cache blob to replay from: records,
     *        prefix sums, the LLC-bound side table, the PC table and all
     *        chunk snapshots come zero-copy out of the mapping, and no
     *        stream or virgin-hierarchy simulation happens unless a
     *        member consumes past the blob's horizon (goLive()).
     * @param capture retain every chunk for a later FeedCache::store()
     *        instead of trimming; mutually exclusive with @p blob.
     */
    FanoutFeed(const PrivateConfig &priv, StreamFactory factory,
               std::shared_ptr<const FeedBlob> blob = nullptr,
               bool capture = false);

    ~FanoutFeed();

    /**
     * Packed record @p idx of @p core, generating on demand; @p think
     * receives its think time.  The reference stays valid until the
     * record's chunk is trimmed.
     */
    const PackedStep &step(CoreId core, std::uint64_t idx,
                           std::uint32_t &think)
    {
        PerCore &pc = per[core];
        if (idx >= pc.generated)
            extend(core, idx);
        const Chunk &ch = pc.chunks[idx / kChunk];
        const std::size_t off = idx % kChunk;
        const PackedStep &rec = ch.recs[off];
        const std::uint64_t before = off ? ch.cumI[off - 1] : ch.iBefore;
        think = static_cast<std::uint32_t>(ch.cumI[off] - before -
                                           (rec.isInstr() ? 0 : 1));
        return rec;
    }

    /** Record @p idx of @p core with think time, PC and victim decoded
     *  (generating on demand); for diagnostics, not the step path. */
    StepRecord record(CoreId core, std::uint64_t idx);

    /** Issuing PC of a record of @p core. */
    Addr pcOf(CoreId core, const PackedStep &rec) const
    {
        return per[core].pcs[rec.pcIdx];
    }

    /**
     * L2 fill victim of record @p idx of @p core, which must carry
     * PackedStep::kVictim.  @p llc_cursor is the caller's position in
     * the LLC-bound side table (ReplayStream::llcCursor); it only moves
     * forward, so the lookup is O(1) amortized over a run.
     */
    Addr victimOf(CoreId core, std::uint64_t idx, std::uint64_t &llc_cursor);

    /**
     * Express-lane prefix sums (see Cmp's express mode): every record
     * has a fixed private-side cycle cost `a = think + latency(kind)`
     * (for LLC-bound records, up to the SLLC issue point) and a fixed
     * retirement count `i = think + (isInstr ? 0 : 1)`; cumAIncl/
     * cumIIncl return the running totals through record @p idx.  A
     * member that knows its canonical ready time and cumulative totals
     * at one record index can therefore jump to any later index in
     * O(1), provided no LLC-bound record (whose completion time depends
     * on the member's own SLLC) lies in between.
     */
    std::uint64_t cumAIncl(CoreId core, std::uint64_t idx) const
    {
        return liveChunk(per[core], idx).cumA[idx % kChunk];
    }

    /** Running retirement total through record @p idx (see cumAIncl). */
    std::uint64_t cumIIncl(CoreId core, std::uint64_t idx) const
    {
        return liveChunk(per[core], idx).cumI[idx % kChunk];
    }

    /** Next LLC-bound record of @p core at or after @p cursor, if its
     *  canonical pre-step ready time lands before @p end. */
    struct NextEvent
    {
        bool hasEvent = false;
        std::uint64_t idx = 0;  //!< record index of the LLC-bound step
        Cycle preReady = 0;     //!< core ready time just before it
    };

    /**
     * Find the next LLC-bound record for a core whose canonical state
     * is (@p cursor, @p base_ready) with cumulative cost @p base_cum_a
     * through record cursor-1 (0 when cursor is 0).  Generates records
     * as needed, but never past the point where the core's ready time
     * provably reaches @p end.  @p llc_cursor is as for victimOf().
     */
    NextEvent nextLlcBounded(CoreId core, std::uint64_t cursor,
                             std::uint64_t base_cum_a, Cycle base_ready,
                             Cycle end, std::uint64_t &llc_cursor);

    /** First record index >= @p cursor whose pre-step ready time
     *  reaches @p end (the canonical cursor at a quantum boundary). */
    std::uint64_t cursorAtCycle(CoreId core, std::uint64_t cursor,
                                std::uint64_t base_cum_a,
                                Cycle base_ready, Cycle end);

    /**
     * First record index >= @p cursor scheduled after another core's
     * step at ready time @p key_ready: with @p strict set the boundary
     * is preReady > key_ready (this core wins ready-time ties), without
     * it preReady >= key_ready (the other core wins ties).  Used to pin
     * the canonical position of an express core when a recall from a
     * concurrent step must observe its private state.
     */
    std::uint64_t cursorAtKey(CoreId core, std::uint64_t cursor,
                              std::uint64_t base_cum_a, Cycle base_ready,
                              Cycle key_ready, bool strict);

    /**
     * Rebuild exact private-hierarchy state as of record @p idx into
     * @p hier: restore the virgin-hierarchy image of the chunk holding
     * @p idx and replay the intervening records.  Only valid for a
     * member core that has never diverged from the feed (its state is
     * bit-identical to the virgin hierarchy's at every record index).
     */
    void materializeHier(CoreId core, std::uint64_t idx,
                         PrivateHierarchy &hier) const;

    /** Free the chunks wholly below record @p min_idx (every member is
     *  past them), with their snapshots and LLC-bound side entries. */
    void trim(CoreId core, std::uint64_t min_idx);

    /** Label of @p core's underlying stream. */
    const char *label(CoreId core) const
    {
        return labels[core].c_str();
    }

    /** Number of per-core streams the factory produced. */
    std::uint32_t numCores() const
    {
        return static_cast<std::uint32_t>(per.size());
    }

    /**
     * Serialize @p core's underlying stream exactly as it stood before
     * record @p idx was generated: rebuild a fresh stream, restore the
     * snapshot of the chunk holding @p idx and advance the difference.
     * Called by ReplayStream::save() so member checkpoints carry true
     * stream state.
     */
    void saveStreamAt(CoreId core, std::uint64_t idx, Serializer &s) const;

    /** Records generated so far for @p core (tests/diagnostics).  In
     *  replay mode this starts at the blob's record count. */
    std::uint64_t generatedCount(CoreId core) const
    {
        return per[core].generated;
    }

    /** Peak of the live window of one core: records held in generated
     *  chunks, and the bytes they and the LLC-bound side table take
     *  (blob-backed records and snapshot images not included). */
    struct WindowPeak
    {
        std::uint64_t records = 0;
        std::uint64_t bytes = 0;
    };

    /** Largest live window @p core has reached (tests/diagnostics). */
    const WindowPeak &windowPeak(CoreId core) const
    {
        return per[core].peak;
    }

    /** Replaying from a feed-cache blob? */
    bool warm() const { return blob != nullptr; }

    /** Retaining everything for a FeedCache::store()? */
    bool capturing() const { return capture; }

    /** Blob records available to @p core without any simulation. */
    std::uint64_t warmCount(CoreId core) const
    {
        return per[core].flatCount;
    }

  private:
    friend class FeedCache; // store() serializes the captured window

    /** Storage of one generated chunk. */
    struct ChunkStore
    {
        PackedStep recs[kChunk];
        std::uint64_t cumA[kChunk]; //!< inclusive private-side cycles
        std::uint64_t cumI[kChunk]; //!< inclusive retirement counts
        std::vector<std::uint8_t> streamImage; //!< before recs[0]
        std::vector<std::uint8_t> hierImage;   //!< before recs[0]
    };

    /** Chunk @c n holds records [n * kChunk, (n + 1) * kChunk).  Its
     *  arrays and snapshot images point into @c own for a generated
     *  chunk, or into the blob mapping; all are null once trimmed. */
    struct Chunk
    {
        const PackedStep *recs = nullptr;
        const std::uint64_t *cumA = nullptr;
        const std::uint64_t *cumI = nullptr;
        std::uint64_t iBefore = 0; //!< retirement total before recs[0]
        //! Stream state and virgin hierarchy before recs[0]
        //! (Serializer::image() bytes).
        std::span<const std::uint8_t> streamImage;
        std::span<const std::uint8_t> hierImage;
        std::unique_ptr<ChunkStore> own;
    };

    /** One LLC-bound record: its index and the L2 victim its fill
     *  displaced (0 when none). */
    struct LlcEntry
    {
        std::uint64_t idx = 0;
        Addr victim = 0;
    };

    struct PerCore
    {
        PerCore() = default;
        PerCore(PerCore &&) = default;
        PerCore(const PerCore &) = delete; // chunks own their storage

        std::uint64_t generated = 0; //!< next index to generate
        //! Chunks by number; [liveFrom, generated / kChunk) are
        //! generated here and freed by trim(), and the blob's chunks
        //! below flatCount / kChunk are never freed.
        std::vector<Chunk> chunks;
        std::uint64_t liveFrom = 0;
        std::uint64_t aTotal = 0; //!< running total feeding cumA
        std::uint64_t iTotal = 0; //!< running total feeding cumI
        /** Replay mode: the blob's records [0, flatCount) and its
         *  LLC-bound side table, ordinals [0, flatLlcCount). */
        const std::uint64_t *flatLlc = nullptr;
        const std::uint64_t *flatVictim = nullptr;
        std::uint64_t flatCount = 0;
        std::uint64_t flatLlcCount = 0;
        //! Generated LLC-bound records, from ordinal llcBase on.
        std::deque<LlcEntry> llc;
        std::uint64_t llcBase = 0;
        //! PC table: pcs[pcIdx] (the blob's array until goLive()).
        const Addr *pcs = nullptr;
        std::vector<Addr> pcTab;
        //! Open-addressed index into pcTab (entry + 1; 0 = empty).
        std::vector<std::uint32_t> pcSlots;
        WindowPeak peak;
    };

    /** Generate whole chunks until @p idx exists. */
    void extend(CoreId core, std::uint64_t idx);

    /**
     * Replay mode only: a member consumed past the blob's horizon, so
     * rebuild live front-end state for @p core — fresh streams from the
     * factory, the stream restored from the blob's newest snapshot and
     * advanced, the virgin hierarchy re-materialized by record replay,
     * and the PC table copied out of the blob — then generation
     * continues exactly as a cold run would.
     */
    void goLive(CoreId core);

    /** PC table index of @p pc_value, appending it when new. */
    static std::uint32_t internPc(PerCore &pc, Addr pc_value);

    /** Chunk holding @p idx, which must exist and not be trimmed. */
    static const Chunk &liveChunk(const PerCore &pc, std::uint64_t idx)
    {
        RC_ASSERT(idx < pc.generated && pc.chunks[idx / kChunk].recs,
                  "record %llu outside the live window (generated %llu)",
                  static_cast<unsigned long long>(idx),
                  static_cast<unsigned long long>(pc.generated));
        return pc.chunks[idx / kChunk];
    }

    /** Number of the chunk whose snapshots anchor record @p idx
     *  (idx <= generated): the chunk holding it, or the last one for
     *  idx == generated. */
    static std::uint64_t anchorChunk(const PerCore &pc, std::uint64_t idx);

    /** Record index of LLC-bound ordinal @p n. */
    static std::uint64_t llcIdxAt(const PerCore &pc, std::uint64_t n)
    {
        return n < pc.flatLlcCount ? pc.flatLlc[n]
                                   : pc.llc[n - pc.llcBase].idx;
    }

    /** L2 victim of LLC-bound ordinal @p n. */
    static Addr llcVictimAt(const PerCore &pc, std::uint64_t n)
    {
        return n < pc.flatLlcCount ? pc.flatVictim[n]
                                   : pc.llc[n - pc.llcBase].victim;
    }

    /** LLC-bound records generated so far (ordinals in use). */
    static std::uint64_t llcTotal(const PerCore &pc)
    {
        return pc.llcBase + pc.llc.size();
    }

    /** Ordinal of the first LLC-bound record at or after @p idx,
     *  walking forward from the hint @p n (an ordinal no greater than
     *  the answer), and storing the answer back into it. */
    static std::uint64_t llcOrdinal(const PerCore &pc, std::uint64_t idx,
                                    std::uint64_t &n);

    /** The same, by binary search (no hint). */
    static std::uint64_t llcLowerBound(const PerCore &pc,
                                       std::uint64_t idx);

    /** Prefix sum through @p idx, which must be live. */
    static std::uint64_t cumAt(const PerCore &pc, std::uint64_t idx)
    {
        return pc.chunks[idx / kChunk].cumA[idx % kChunk];
    }

    /** Canonical pre-step ready time of record @p j for a core at
     *  (@p cursor, @p base_ready, @p base_cum_a); j >= cursor and
     *  [cursor, j) all private-complete. */
    static Cycle preReadyOf(const PerCore &pc, std::uint64_t cursor,
                            std::uint64_t base_cum_a, Cycle base_ready,
                            std::uint64_t j)
    {
        return j == cursor
                   ? base_ready
                   : base_ready + (cumAt(pc, j - 1) - base_cum_a);
    }

    /** First index in [cursor, limit] whose pre-step ready time passes
     *  @p bound (`>` when strict, else `>=`). */
    static std::uint64_t firstAtOrPast(const PerCore &pc,
                                       std::uint64_t cursor,
                                       std::uint64_t base_cum_a,
                                       Cycle base_ready,
                                       std::uint64_t limit, Cycle bound,
                                       bool strict);

    PrivateConfig privCfg;
    StreamFactory factory;
    std::vector<std::unique_ptr<RefStream>> streams;
    std::vector<std::unique_ptr<PrivateHierarchy>> virgin;
    std::vector<std::string> labels;
    std::vector<PerCore> per;
    //! Replay source; owning it keeps the mapping alive for the flat
    //! pointers above.
    std::shared_ptr<const FeedBlob> blob;
    bool capture = false;
};

/**
 * Stand-in RefStream a fan-out member core is constructed with.  The
 * member's run loop reads StepRecords straight from the feed (never
 * next()); the stream exists so checkpoints of member systems carry the
 * same per-core stream sections as independent runs.  The consumption
 * cursor lives here so Cmp::save() can serialize stream state at the
 * exact reference boundary the member has reached.
 */
class ReplayStream final : public RefStream
{
  public:
    ReplayStream(FanoutFeed &feed_, CoreId core_)
        : feed(feed_), coreId(core_)
    {
    }

    /** Never called in fan-out mode; reaching it is a driver bug. */
    MemRef next() override;

    const char *label() const override { return feed.label(coreId); }

    /** Serialize the underlying stream as of this member's cursor. */
    void save(Serializer &s) const override
    {
        feed.saveStreamAt(coreId, cursor, s);
    }

    /** Members are never restored into: a resumed fan-out job reloads
     *  its journaled results or re-runs from scratch. */
    void restore(Deserializer &d) override;

    /** Core this stream stands in for. */
    CoreId core() const { return coreId; }

    /** Next record index to consume (owned by the member's run loop). */
    std::uint64_t cursor = 0;

    /** The member's position in the feed's LLC-bound side table: an
     *  ordinal no greater than that of the first LLC-bound record at or
     *  after @c cursor (see FanoutFeed::victimOf()). */
    std::uint64_t llcCursor = 0;

  private:
    FanoutFeed &feed;
    CoreId coreId;
};

/**
 * One front-end pass fanned out to N SLLC back ends in lockstep.
 *
 * Every member is a complete Cmp (private hierarchies, crossbar, SLLC,
 * DRAM, stats, hooks) attached to the shared feed; run() interleaves
 * the members in cycle quanta, slowest first, and trims the feed after
 * every member's slice.  Stats, checkpoints and telemetry of each
 * member are bit-identical to an independent Cmp run of the same
 * config.
 */
class FanoutCmp
{
  public:
    /**
     * @param configs one SystemConfig per member; all must agree on the
     *        front-end prefix (samePrivatePrefix()) and have
     *        prefetching disabled.
     * @param factory builds the shared per-core streams.
     * @param blob feed-cache blob to replay the front end from (warm
     *        hit); nullptr simulates the front end as usual.
     * @param capture retain the front end's full record window so the
     *        caller can FeedCache::store() it after the run.
     */
    FanoutCmp(const std::vector<SystemConfig> &configs,
              StreamFactory factory,
              std::shared_ptr<const FeedBlob> blob = nullptr,
              bool capture = false);

    /**
     * Do @p a and @p b share the front-end-invariant config prefix,
     * i.e. the bytes of the feed key's front section (putFrontEndConfig,
     * seed, capacity scale)?  The harness groups runs by this predicate
     * (plus the mix) to decide what can share one fan-out pass.
     */
    static bool samePrivatePrefix(const SystemConfig &a,
                                  const SystemConfig &b);

    /** Number of members. */
    std::size_t size() const { return members.size(); }

    /** Member @p i, for hook installation and result collection. */
    Cmp &member(std::size_t i) { return *members[i]; }

    /** Member @p i, const. */
    const Cmp &member(std::size_t i) const { return *members[i]; }

    /** The shared feed (tests/diagnostics). */
    FanoutFeed &sharedFeed() { return *feed; }

    /**
     * Advance every member by @p cycles, interleaved in quanta.  Each
     * round runs the members in ascending order of records consumed
     * (ties by member index) and trims the feed after every slice, so
     * the laggards free the chunks behind them before the leaders
     * generate new ones.
     */
    void run(Cycle cycles);

    /** Next record member @p m consumes on @p core (tests/diagnostics). */
    std::uint64_t cursor(std::size_t m, CoreId core) const
    {
        return cursors[m][core]->cursor;
    }

    /** beginMeasurement() on every member. */
    void beginMeasurement();

    /** Common simulated horizon of the members. */
    Cycle now() const { return members.front()->now(); }

  private:
    /** Lockstep quantum: members drift at most this many cycles apart.
     *  Larger quanta amortize member switches (each member's private
     *  metadata stays hot for the whole slice) at the price of more
     *  lookahead in the record window, which the members' record spread
     *  dominates anyway. */
    static constexpr Cycle kQuantum = 262144;

    /** Trim every core of the feed to its slowest member's cursor. */
    void trimFeed();

    std::unique_ptr<FanoutFeed> feed;
    std::vector<std::unique_ptr<Cmp>> members;
    //! [member][core] cursor views (borrowed from the member's streams).
    std::vector<std::vector<ReplayStream *>> cursors;
};

} // namespace rc

#endif // RC_SIM_FANOUT_HH
