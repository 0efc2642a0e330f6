/**
 * @file
 * The TO-MSI actions an SLLC applies to a line's full-map directory
 * (paper Section 3.4, Fig. 3, Table 1), shared by the conventional
 * cache, the reuse cache and NCID.  Each organization owns one
 * SllcProtocol and keeps only what differs: where tags and data live,
 * which way is the victim, whether a miss allocates data, and its own
 * counters.  A protocol violation throws SimError, so a faulty run is
 * quarantined instead of aborting the process.
 *
 * The module never reads memory: whether a fetch precedes the victim's
 * write-back is part of each organization's DRAM timing.
 */

#ifndef RC_COHERENCE_SLLC_PROTOCOL_HH
#define RC_COHERENCE_SLLC_PROTOCOL_HH

#include <cstdint>
#include <vector>

#include "cache/llc_iface.hh"
#include "coherence/directory.hh"
#include "coherence/protocol.hh"
#include "common/log.hh"
#include "mem/memctrl.hh"

namespace rc
{

/** One organization's instance of the shared directory protocol. */
class SllcProtocol
{
  public:
    /** The counters the actions bump, registered by the organization
     *  in its own StatSet and order. */
    struct Counters
    {
        Counter &interventions;
        Counter &invalidationsSent;
        Counter &inclusionRecalls;
        Counter &dirtyWritebacks;
    };

    /**
     * @param mem memory controller taking write-backs (not owned).
     * @param num_cores cores the full-map directory tracks (1..32).
     * @param intervention_latency cycles a private owner adds.
     * @param selective_alloc data is allocated only on reuse (TO is
     *        reachable); false for the conventional cache.
     */
    SllcProtocol(MemCtrl &mem, std::uint32_t num_cores,
                 Cycle intervention_latency, bool selective_alloc,
                 const Counters &counters);

    void setRecallHandler(RecallHandler *handler) { recaller = handler; }

    /**
     * Checked transition of demand @p req on a line in @p state with
     * directory @p dir (nullptr on a tag miss).  @p selective and
     * @p prefetch become ProtoInput::selectiveAlloc and ::prefetch.
     * @throws SimError(Protocol) when the owner requests its own line
     *         or the event is illegal in @p state.
     */
    ProtoResult
    transition(const LlcRequest &req, LlcState state,
               const DirectoryEntry *dir, bool selective,
               bool prefetch = false) const
    {
        const bool owner_valid = dir && dir->hasOwner();
        RC_CHECK(!owner_valid || dir->owner() != req.core,
                 SimError::Kind::Protocol,
                 "owner cannot request its own line at the SLLC");
        const ProtoResult res = protocolTransition(
            ProtoInput{state, req.event, owner_valid, selective, prefetch});
        RC_CHECK(res.legal, SimError::Kind::Protocol,
                 "%s illegal in state %s", toString(req.event),
                 toString(state));
        return res;
    }

    /**
     * The private-cache side of @p actions on a resident line: a read
     * intervention downgrades the owner; an invalidation recalls every
     * other sharer and drops it from @p dir.
     * @return the latency the intervention adds.
     */
    Cycle
    privateActions(std::uint32_t actions, const LlcRequest &req, Addr line,
                   DirectoryEntry &dir)
    {
        Cycle extra = 0;
        if (actions & ActFetchOwner) {
            RC_CHECK(recaller, SimError::Kind::Config,
                     "intervention needs a recall handler");
            extra = interventionLatency;
            ++ctr.interventions;
            // For GETX the invalidation below retrieves the dirty data.
            if (req.event == ProtoEvent::GETS)
                recaller->downgrade(line, 1u << dir.owner());
        }
        if (actions & ActInvSharers) {
            const std::uint32_t mask = dir.othersMask(req.core);
            if (mask) {
                RC_CHECK(recaller, SimError::Kind::Config,
                         "no recall handler installed");
                recaller->recall(line, mask);
                ctr.invalidationsSent += __builtin_popcount(mask);
                for (CoreId c = 0; c < numCores; ++c) {
                    if (mask & (1u << c))
                        dir.removeSharer(c);
                }
            }
        }
        return extra;
    }

    /** Enter @p res's next state and apply its ownership and presence
     *  actions for requester @p core. */
    static void
    update(LlcState &state, DirectoryEntry &dir, const ProtoResult &res,
           CoreId core)
    {
        state = res.next;
        if (res.actions & ActClearOwner)
            dir.clearOwner();
        if (res.actions & ActFillPrivate)
            dir.addSharer(core);
        if (res.actions & ActSetOwner)
            dir.setOwner(core);
    }

    /** TagRepl of resident @p line: recall its private copies
     *  (inclusion) and write dirty data back.  The caller frees the
     *  tag. */
    void tagRepl(LlcState state, const DirectoryEntry &dir, Addr line,
                 Cycle now);

    /** DataRepl of data-holding @p line: write dirty data back unless a
     *  private owner holds a newer copy.  @return the tag's next state. */
    LlcState dataRepl(LlcState state, const DirectoryEntry &dir, Addr line,
                      Cycle now);

    /**
     * PUTS (clean) or PUTX (dirty) from @p core for the line whose tag
     * entry is @p entry: nullptr when the SLLC holds no tag for it,
     * which inclusion forbids (SimError(Integrity)).
     */
    template <typename TagEntry>
    void
    put(TagEntry *entry, Addr line, CoreId core, bool dirty, Cycle now)
    {
        RC_CHECK(entry, SimError::Kind::Integrity,
                 "eviction notification for a non-resident line "
                 "(inclusion violated)");
        const ProtoEvent event = dirty ? ProtoEvent::PUTX : ProtoEvent::PUTS;
        const ProtoResult res = protocolTransition(ProtoInput{
            entry->state, event, entry->dir.hasOwner(), selectiveAlloc});
        RC_CHECK(res.legal, SimError::Kind::Protocol,
                 "%s illegal in state %s", toString(event),
                 toString(entry->state));
        // A tag without data has no entry to absorb the write-back.
        if (res.actions & ActWriteMemPut)
            writeBack(line, now);
        entry->state = res.next;
        if (res.actions & ActClearOwner)
            entry->dir.clearOwner();
        entry->dir.removeSharer(core);
    }

    /** Count a demand access, or a miss (memory fetch), by @p core. */
    void countAccess(CoreId core) { ++coreAccesses[core % numCores]; }
    void countMiss(CoreId core) { ++coreMisses[core % numCores]; }

    Counter missesBy(CoreId core) const { return coreMisses[core % numCores]; }
    Counter accessesBy(CoreId core) const
    {
        return coreAccesses[core % numCores];
    }

    /** Checkpoint / restore the per-core counts. */
    void save(Serializer &s) const;
    void restore(Deserializer &d);

  private:
    void
    writeBack(Addr line, Cycle now)
    {
        mem.writeLine(line, now);
        ++ctr.dirtyWritebacks;
    }

    MemCtrl &mem;
    RecallHandler *recaller = nullptr;
    const std::uint32_t numCores;
    const Cycle interventionLatency;
    const bool selectiveAlloc;
    Counters ctr;
    std::vector<Counter> coreAccesses;
    std::vector<Counter> coreMisses;
};

} // namespace rc

#endif // RC_COHERENCE_SLLC_PROTOCOL_HH
