#include "coherence/sllc_protocol.hh"

#include "snapshot/serializer.hh"

namespace rc
{

SllcProtocol::SllcProtocol(MemCtrl &mem_, std::uint32_t num_cores,
                           Cycle intervention_latency, bool selective_alloc,
                           const Counters &counters)
    : mem(mem_),
      numCores(num_cores),
      interventionLatency(intervention_latency),
      selectiveAlloc(selective_alloc),
      ctr(counters),
      coreAccesses(num_cores, 0),
      coreMisses(num_cores, 0)
{
    RC_ASSERT(num_cores > 0 && num_cores <= 32,
              "full-map directory supports 1..32 cores");
}

void
SllcProtocol::tagRepl(LlcState state, const DirectoryEntry &dir, Addr line,
                      Cycle now)
{
    RC_CHECK(state != LlcState::I, SimError::Kind::Integrity,
             "evicting an invalid tag");
    const ProtoResult res = protocolTransition(
        ProtoInput{state, ProtoEvent::TagRepl, dir.hasOwner(),
                   selectiveAlloc});
    RC_CHECK(res.legal, SimError::Kind::Protocol,
             "TagRepl illegal in state %s", toString(state));

    bool dirty_recalled = false;
    if ((res.actions & ActRecallSharers) && !dir.empty()) {
        RC_CHECK(recaller, SimError::Kind::Config,
                 "no recall handler installed");
        dirty_recalled = recaller->recall(line, dir.presenceMask());
        ++ctr.inclusionRecalls;
    }
    if (res.actions & ActWriteMemData)
        writeBack(line, now);
    if ((res.actions & ActWriteMemPut) && dirty_recalled)
        writeBack(line, now);
}

LlcState
SllcProtocol::dataRepl(LlcState state, const DirectoryEntry &dir, Addr line,
                       Cycle now)
{
    RC_CHECK(llcHasData(state), SimError::Kind::Integrity,
             "data entry owned by a tag without data (state %s)",
             toString(state));
    const ProtoResult res = protocolTransition(
        ProtoInput{state, ProtoEvent::DataRepl, dir.hasOwner(),
                   selectiveAlloc});
    RC_CHECK(res.legal, SimError::Kind::Protocol,
             "DataRepl illegal in state %s", toString(state));
    if (res.actions & ActWriteMemData)
        writeBack(line, now);
    return res.next;
}

void
SllcProtocol::save(Serializer &s) const
{
    saveVec(s, coreAccesses);
    saveVec(s, coreMisses);
}

void
SllcProtocol::restore(Deserializer &d)
{
    restoreVec(d, coreAccesses, "SLLC per-core accesses");
    restoreVec(d, coreMisses, "SLLC per-core misses");
}

} // namespace rc
