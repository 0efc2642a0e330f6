/**
 * @file
 * TO-MSI coherence protocol (paper Section 3.4, Fig. 3, Table 1).
 *
 * The protocol is expressed as a pure transition function so it can be
 * exhaustively unit-tested against the paper's state diagram.  The SLLC
 * models call it only through SllcProtocol (coherence/sllc_protocol.hh),
 * which applies the actions it returns to the line's directory, the
 * private caches and memory.  States follow Table 1a: I (no tag), S
 * (tag+data, memory up to date), M (tag+data, memory stale) and TO (tag
 * only, no data).  "In every state except I, private caches may or may
 * not have copies of the line" - presence and ownership are tracked
 * orthogonally by the directory entry and enter the transition function
 * as the `ownerValid` context flag.
 *
 * A conventional cache runs the same machine with `selectiveAlloc` off:
 * misses then allocate tag and data together and TO is unreachable.
 */

#ifndef RC_COHERENCE_PROTOCOL_HH
#define RC_COHERENCE_PROTOCOL_HH

#include <cstdint>
#include <string>

#include "cache/line.hh"

namespace rc
{

/** Protocol events (Table 1b plus the tag-replacement housekeeping). */
enum class ProtoEvent : std::uint8_t {
    GETS,     //!< data read or fetch request
    GETX,     //!< write request
    UPG,      //!< upgrade request (S -> M in the private cache)
    PUTS,     //!< clean eviction notification from a private cache
    PUTX,     //!< dirty eviction notification from a private cache
    DataRepl, //!< eviction in the SLLC data array
    TagRepl,  //!< eviction in the SLLC tag array
};

/** Human-readable event name. */
const char *toString(ProtoEvent e);

/** Side effects requested by a transition (bitmask). */
enum ProtoAction : std::uint32_t {
    ActFetchMem      = 1u << 0,  //!< read the line from main memory
    ActFetchOwner    = 1u << 1,  //!< intervention: data from private owner
    ActDataHit       = 1u << 2,  //!< serve from the SLLC data array
    ActFillPrivate   = 1u << 3,  //!< deliver the line to the requester
    ActAllocTag      = 1u << 4,  //!< allocate a tag-array entry
    ActAllocData     = 1u << 5,  //!< allocate a data-array entry (reuse!)
    ActWriteMemData  = 1u << 6,  //!< write the SLLC data copy to memory
    ActWriteMemPut   = 1u << 7,  //!< write PUTX/owner data to memory
    ActWriteLlcData  = 1u << 8,  //!< PUTX data absorbed by the data array
    ActInvSharers    = 1u << 9,  //!< invalidate other private copies
    ActRecallSharers = 1u << 10, //!< back-invalidate all private copies
    ActSetOwner      = 1u << 11, //!< requester becomes the private owner
    ActClearOwner    = 1u << 12, //!< ownership dissolves
};

/** Input to the transition function. */
struct ProtoInput
{
    LlcState state = LlcState::I;     //!< current stable state
    ProtoEvent event = ProtoEvent::GETS; //!< triggering event
    bool ownerValid = false;          //!< a private cache owns a dirty copy
    bool selectiveAlloc = true;       //!< reuse cache (true) / conventional
    bool prefetch = false;            //!< speculative GETS: a tag-only hit
                                      //!< is NOT a reuse (no data alloc)
};

/** Output of the transition function. */
struct ProtoResult
{
    LlcState next = LlcState::I; //!< next stable state
    std::uint32_t actions = 0;   //!< ProtoAction bitmask
    bool legal = false;          //!< event permitted in this state?
};

/**
 * The TO-MSI transition function.  Illegal combinations (e.g. PUTS in I,
 * which inclusion makes impossible) return legal == false and leave the
 * state unchanged.
 */
ProtoResult protocolTransition(const ProtoInput &in);

/** Render a ProtoAction mask as "FetchMem|AllocData|...". */
std::string actionsToString(std::uint32_t actions);

/**
 * Telemetry name of the coherence traffic a transition generates, or
 * nullptr when it generates none.  Recalls outrank invalidations
 * outrank interventions when a mask carries several, so each traced
 * request yields at most one coherence event.
 */
const char *coherenceTraceLabel(std::uint32_t actions);

} // namespace rc

#endif // RC_COHERENCE_PROTOCOL_HH
