#include "cache/conventional_llc.hh"

#include <cstdio>

#include "common/log.hh"
#include "common/wayscan.hh"
#include "snapshot/serializer.hh"
#include "telemetry/trace_event.hh"

namespace rc
{

ConventionalLlc::ConventionalLlc(const ConvLlcConfig &cfg_, MemCtrl &mem_)
    : cfg(cfg_),
      geom(CacheGeometry::fromBytes(cfg_.capacityBytes, cfg_.ways)),
      tagLane(geom.numLines(), kInvalidTagLane),
      entries(geom.numLines()),
      repl(makeReplacement(cfg_.repl, geom.numSets(), geom.numWays(),
                           cfg_.numCores, cfg_.seed)),
      fast(repl.get(), cfg_.repl),
      mem(mem_),
      statSet(cfg_.name),
      accesses(statSet.add("accesses", "demand requests received")),
      dataHits(statSet.add("dataHits", "requests served by the data array")),
      tagMisses(statSet.add("tagMisses", "requests missing the tag array")),
      upgradeReqs(statSet.add("upgrades", "UPG requests received")),
      interventions(statSet.add("interventions",
                                "requests served by a private owner")),
      invalidationsSent(statSet.add("invalidationsSent",
                                    "private copies invalidated (GETX/UPG)")),
      inclusionRecalls(statSet.add("inclusionRecalls",
                                   "victims recalled from private caches")),
      dirtyWritebacks(statSet.add("dirtyWritebacks",
                                  "dirty lines written to memory")),
      proto(mem_, cfg_.numCores, cfg_.interventionLatency, false,
            {interventions, invalidationsSent, inclusionRecalls,
             dirtyWritebacks})
{
}

ConventionalLlc::Entry *
ConventionalLlc::find(Addr line_addr, std::uint32_t &way_out)
{
    const std::uint64_t set = geom.setIndex(line_addr);
    const std::uint64_t tag = geom.tagOf(line_addr);
    const std::uint64_t base = set * geom.numWays();
    const std::uint64_t *tl = tagLane.data() + base;
    // Invalid ways hold a sentinel, so one vector scan finds the line.
    // A tag can only match an invalid way after fault injection forced
    // its state to I without a protocol transition; resume the scan
    // past such a candidate instead of reporting a false miss.
    std::int32_t w = scanWays(tl, geom.numWays(), tag);
    while (w >= 0) {
        if (entries[base + w].state != LlcState::I) {
            way_out = static_cast<std::uint32_t>(w);
            return &entries[base + w];
        }
        w = scanWaysFrom(tl, geom.numWays(), tag,
                         static_cast<std::uint32_t>(w) + 1);
    }
    return nullptr;
}

ConventionalLlc::Entry *
ConventionalLlc::find(Addr line_addr)
{
    std::uint32_t way = 0;
    return find(line_addr, way);
}

const ConventionalLlc::Entry *
ConventionalLlc::find(Addr line_addr) const
{
    return const_cast<ConventionalLlc *>(this)->find(line_addr);
}

void
ConventionalLlc::evictEntry(std::uint64_t set, std::uint32_t way, Cycle now)
{
    Entry &e = entries[set * geom.numWays() + way];
    const Addr line = geom.lineAddr(tagLane[set * geom.numWays() + way], set);
    proto.tagRepl(e.state, e.dir, line, now);

    if (watcher)
        watcher->onDataEvict(line, now);

    e.state = LlcState::I;
    e.dir.clear();
    tagLane[set * geom.numWays() + way] = kInvalidTagLane;
    fast.onInvalidate(set, way);
}

std::uint32_t
ConventionalLlc::allocateWay(Addr line_addr, const LlcRequest &req)
{
    const std::uint64_t set = geom.setIndex(line_addr);
    const std::uint64_t base = set * geom.numWays();

    for (std::uint32_t w = 0; w < geom.numWays(); ++w) {
        if (entries[base + w].state == LlcState::I)
            return w;
    }

    VictimQuery q;
    q.core = req.core;
    q.pc = req.pc;
    q.lineAddr = line_addr;
    for (std::uint32_t w = 0; w < geom.numWays() && w < 64; ++w) {
        if (!entries[base + w].dir.empty())
            q.avoidMask |= std::uint64_t{1} << w;
    }
    const std::uint32_t w = fast.victim(set, q);
    RC_CHECK(w < geom.numWays(), SimError::Kind::Integrity,
             "victim way out of range");
    evictEntry(set, w, req.now);
    return w;
}

LlcResponse
ConventionalLlc::request(const LlcRequest &req)
{
    const Addr line = lineAlign(req.lineAddr);
    ++accesses;
    proto.countAccess(req.core);
    if (req.event == ProtoEvent::UPG)
        ++upgradeReqs;

    const std::uint64_t set = geom.setIndex(line);
    std::uint32_t hitWay = 0;
    Entry *entry = find(line, hitWay);

    // Conventional caches always allocate data; prefetch priority is
    // handled below at insertion/promotion time.
    const ProtoResult res =
        proto.transition(req, entry ? entry->state : LlcState::I,
                         entry ? &entry->dir : nullptr, false);

    LlcResponse resp;
    resp.tagHit = entry != nullptr;
    Cycle done = req.now + cfg.tagLatency;

    if (res.actions & ActDataHit) {
        done += cfg.dataLatency;
        resp.dataHit = true;
        ++dataHits;
        if (watcher)
            watcher->onDataHit(line, req.now);
    }

    if (entry)
        done += proto.privateActions(res.actions, req, line, entry->dir);

    if (res.actions & ActFetchMem) {
        // Conventional caches only fetch on a tag miss, and read memory
        // before the victim's write-back.
        done = mem.readLine(line, req.now + cfg.tagLatency);
        resp.memFetched = true;
        ++tagMisses;
        proto.countMiss(req.core);
    }

    if (entry) {
        // Hit path: update state, directory and recency.
        SllcProtocol::update(entry->state, entry->dir, res, req.core);
        if (!req.prefetch)
            fast.onHit(set, hitWay,
                       ReplAccess{req.core, false, false, req.pc, line});
    } else {
        RC_CHECK(res.actions & ActAllocTag, SimError::Kind::Protocol,
                 "miss without tag allocation");
        const std::uint32_t way = allocateWay(line, req);
        Entry &e = entries[set * geom.numWays() + way];
        tagLane[set * geom.numWays() + way] = geom.tagOf(line);
        e.dir.clear();
        SllcProtocol::update(e.state, e.dir, res, req.core);
        // Prefetched fills enter at the lowest priority [Srinath+07,
        // Wu+11]; with LRU that is the LRU position.
        fast.onFill(set, way,
                    ReplAccess{req.core, true, req.prefetch, req.pc, line});
        if ((res.actions & ActAllocData) && watcher)
            watcher->onDataFill(line, req.now);
    }

    resp.doneAt = done;
#if RC_TRACE_ENABLED
    if (EventTracer *tr = EventTracer::current(); tr && tr->enabled()) {
        tr->record(resp.dataHit ? "llc.hit" : "llc.miss",
                   TraceDomain::Sim, req.core, req.now, done - req.now,
                   line);
        if (const char *coh = coherenceTraceLabel(res.actions))
            tr->record(coh, TraceDomain::Sim, req.core, req.now, 0, line);
    }
#endif
    return resp;
}

void
ConventionalLlc::evictNotify(Addr line_addr, CoreId core, bool dirty,
                             Cycle now)
{
    const Addr line = lineAlign(line_addr);
    proto.put(find(line), line, core, dirty, now);
}

std::string
ConventionalLlc::describe() const
{
    const double mb =
        static_cast<double>(cfg.capacityBytes) / (1024.0 * 1024.0);
    char buf[64];
    std::snprintf(buf, sizeof(buf), "conv-%.3gMB-%s", mb,
                  toString(cfg.repl));
    return buf;
}

void
ConventionalLlc::forEachResident(
    const std::function<void(Addr, LlcState, const DirectoryEntry &)> &fn)
    const
{
    for (std::uint64_t s = 0; s < geom.numSets(); ++s) {
        const std::uint64_t base = s * geom.numWays();
        for (std::uint32_t w = 0; w < geom.numWays(); ++w) {
            const Entry &e = entries[base + w];
            if (e.state != LlcState::I)
                fn(geom.lineAddr(tagLane[base + w], s), e.state, e.dir);
        }
    }
}

std::uint64_t
ConventionalLlc::dataLinesResident() const
{
    std::uint64_t n = 0;
    for (const Entry &e : entries) {
        if (e.state != LlcState::I)
            ++n;
    }
    return n;
}

DirectoryEntry *
ConventionalLlc::dirOfMut(Addr line_addr)
{
    Entry *e = find(lineAlign(line_addr));
    return e ? &e->dir : nullptr;
}

bool
ConventionalLlc::corruptStateForTest(Addr line_addr, LlcState state)
{
    Entry *e = find(lineAlign(line_addr));
    if (!e)
        return false;
    e->state = state;
    return true;
}

LlcState
ConventionalLlc::stateOf(Addr line_addr) const
{
    const Entry *e = find(lineAlign(line_addr));
    return e ? e->state : LlcState::I;
}

const DirectoryEntry *
ConventionalLlc::dirOf(Addr line_addr) const
{
    const Entry *e = find(lineAlign(line_addr));
    return e ? &e->dir : nullptr;
}

void
ConventionalLlc::save(Serializer &s) const
{
    s.putU64(entries.size());
    for (std::uint64_t i = 0; i < entries.size(); ++i) {
        // Invalid ways serialize a zero tag: the canonical image stays
        // independent of the in-memory scan sentinel.
        s.putU64(entries[i].state != LlcState::I ? tagLane[i] : 0);
        s.putU8(static_cast<std::uint8_t>(entries[i].state));
        entries[i].dir.save(s);
    }
    s.beginSection("repl");
    repl->save(s);
    s.endSection();
    statSet.save(s);
    proto.save(s);
}

void
ConventionalLlc::restore(Deserializer &d)
{
    const std::uint64_t count = d.getU64();
    if (count != entries.size())
        throwSimError(SimError::Kind::Snapshot,
                      "conventional LLC holds %zu entries but the "
                      "checkpoint carries %llu", entries.size(),
                      static_cast<unsigned long long>(count));
    for (std::uint64_t i = 0; i < entries.size(); ++i) {
        tagLane[i] = d.getU64();
        entries[i].state = static_cast<LlcState>(d.getU8());
        entries[i].dir.restore(d);
        if (entries[i].state == LlcState::I)
            tagLane[i] = kInvalidTagLane;
    }
    d.beginSection("repl");
    repl->restore(d);
    d.endSection();
    statSet.restore(d);
    proto.restore(d);
}

} // namespace rc
