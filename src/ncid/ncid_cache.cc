#include "ncid/ncid_cache.hh"

#include <cstdio>

#include "common/log.hh"
#include "snapshot/serializer.hh"
#include "telemetry/trace_event.hh"

namespace rc
{

namespace
{

CacheGeometry
ncidDataGeometry(const NcidConfig &cfg)
{
    const CacheGeometry tag_geom =
        CacheGeometry::fromBytes(cfg.tagEquivBytes, cfg.tagWays);
    const std::uint64_t data_lines = cfg.dataBytes / lineBytes;
    RC_ASSERT(data_lines % tag_geom.numSets() == 0,
              "NCID data lines must be a multiple of the tag set count");
    const std::uint64_t ways = data_lines / tag_geom.numSets();
    RC_ASSERT(ways >= 1, "NCID needs at least one data way per set");
    return CacheGeometry(data_lines, static_cast<std::uint32_t>(ways));
}

} // namespace

NcidCache::NcidCache(const NcidConfig &cfg_, MemCtrl &mem_)
    : DecoupledSllc(CacheGeometry::fromBytes(cfg_.tagEquivBytes,
                                             cfg_.tagWays),
                    ReplKind::LRU, cfg_.numCores, cfg_.seed,
                    ncidDataGeometry(cfg_), ReplKind::LRU),
      cfg(cfg_),
      duel(tags.geometry().numSets(), cfg_.numCores),
      mem(mem_),
      rng(cfg_.seed + 2),
      statSet(cfg_.name),
      accesses(statSet.add("accesses", "demand requests received")),
      tagMisses(statSet.add("tagMisses", "requests missing the tag array")),
      dataHits(statSet.add("dataHits", "hits served by the data array")),
      tagOnlyHits(statSet.add("tagOnlyHits",
                              "hits on tag-only lines (data refetched)")),
      selectiveFills(statSet.add("selectiveFills",
                                 "misses filled in selective mode")),
      normalFills(statSet.add("normalFills",
                              "misses filled in normal mode")),
      tagOnlyFills(statSet.add("tagOnlyFills",
                               "misses that allocated only a tag")),
      dirtyWritebacks(statSet.add("dirtyWritebacks",
                                  "dirty lines written to memory")),
      inclusionRecalls(statSet.add("inclusionRecalls",
                                   "tag victims recalled from private caches")),
      invalidationsSent(statSet.add("invalidationsSent",
                                    "private copies invalidated (GETX/UPG)")),
      interventions(statSet.add("interventions",
                                "requests served by a private owner")),
      proto(mem_, cfg_.numCores, cfg_.interventionLatency, true,
            {interventions, invalidationsSent, inclusionRecalls,
             dirtyWritebacks})
{
    RC_ASSERT(data.geometry().numSets() == tags.geometry().numSets(),
              "NCID requires equal set counts in tag and data arrays");
}

void
NcidCache::allocData(std::uint64_t set, std::uint32_t way, Cycle now)
{
    ReuseTagArray::Entry &entry = tags.at(set, way);

    bool needs_eviction = false;
    const std::uint32_t dway = data.allocateWay(set, needs_eviction);
    if (needs_eviction) {
        const ReuseDataArray::Entry &victim = data.at(set, dway);
        ReuseTagArray::Entry &vtag = tags.at(victim.tagSet, victim.tagWay);
        const Addr vline = tags.lineAddrOf(victim.tagSet, victim.tagWay);
        vtag.state = proto.dataRepl(vtag.state, vtag.dir, vline, now);
        data.invalidate(set, dway);
        if (watcher)
            watcher->onDataEvict(vline, now);
    }

    data.fill(set, dway, set, way);
    entry.fwdWay = dway;
    entry.enteredData = true;
    if (watcher)
        watcher->onDataFill(tags.lineAddrOf(set, way), now);
}

void
NcidCache::evictTag(std::uint64_t set, std::uint32_t way, Cycle now)
{
    ReuseTagArray::Entry &e = tags.at(set, way);
    const Addr line = tags.lineAddrOf(set, way);
    proto.tagRepl(e.state, e.dir, line, now);

    if (llcHasData(e.state)) {
        data.invalidate(set, e.fwdWay);
        if (watcher)
            watcher->onDataEvict(line, now);
    }

    tags.invalidate(set, way);
}

LlcResponse
NcidCache::request(const LlcRequest &req)
{
    const Addr line = lineAlign(req.lineAddr);
    ++accesses;
    proto.countAccess(req.core);

    const std::uint64_t set = tags.geometry().setIndex(line);
    std::uint32_t way = 0;
    ReuseTagArray::Entry *entry = tags.find(line, way);

    LlcResponse resp;
    resp.tagHit = entry != nullptr;
    Cycle done = req.now + cfg.tagLatency;

    if (entry) {
        const ProtoResult res =
            proto.transition(req, entry->state, &entry->dir, true);
        const bool was_tag_only = entry->state == LlcState::TO;

        if (res.actions & ActDataHit) {
            done += cfg.dataLatency;
            resp.dataHit = true;
            ++dataHits;
            data.touchHit(set, entry->fwdWay);
            if (watcher)
                watcher->onDataHit(line, req.now);
        }
        done += proto.privateActions(res.actions, req, line, entry->dir);
        if (res.actions & ActFetchMem) {
            done = mem.readLine(line, req.now + cfg.tagLatency);
            resp.memFetched = true;
            proto.countMiss(req.core);
        }
        if (res.actions & ActAllocData) {
            RC_CHECK(was_tag_only, SimError::Kind::Protocol,
                     "data allocation on a tag+data state");
            ++tagOnlyHits;
            allocData(set, way, req.now);
        }

        SllcProtocol::update(entry->state, entry->dir, res, req.core);
        tags.touchHit(set, way, req.core, req.pc, line);
        resp.doneAt = done;
#if RC_TRACE_ENABLED
        if (EventTracer *tr = EventTracer::current(); tr && tr->enabled()) {
            tr->record(resp.dataHit ? "ncid.dataHit" : "ncid.tagOnlyHit",
                       TraceDomain::Sim, req.core, req.now,
                       done - req.now, line);
            if (const char *coh = coherenceTraceLabel(res.actions))
                tr->record(coh, TraceDomain::Sim, req.core, req.now, 0,
                           line);
        }
#endif
        return resp;
    }

    // Tag miss: pick the fill mode by thread-aware set dueling.
    duel.onMiss(set, req.core);
    const bool selective = duel.chooseB(set, req.core);
    bool with_data;
    if (selective) {
        ++selectiveFills;
        with_data = rng.uniform() < cfg.selectiveFillRate;
    } else {
        ++normalFills;
        with_data = true;
    }

    const ProtoResult res =
        proto.transition(req, LlcState::I, nullptr, !with_data);

    bool needs_eviction = false;
    way = tags.allocateWay(set, req.core, needs_eviction, req.pc, line);
    if (needs_eviction)
        evictTag(set, way, req.now);

    ReuseTagArray::Entry &e = tags.at(set, way);
    tags.setTag(set, way, line);
    e.dir.clear();
    SllcProtocol::update(e.state, e.dir, res, req.core);
    e.enteredData = false;
    // Selective-mode tag-only fills go to the LRU position.
    tags.touchFill(set, way, req.core, selective && !with_data, req.pc,
                   line);

    if (res.actions & ActAllocData)
        allocData(set, way, req.now);
    else
        ++tagOnlyFills;

    done = mem.readLine(line, req.now + cfg.tagLatency);
    resp.memFetched = true;
    ++tagMisses;
    proto.countMiss(req.core);
    resp.doneAt = done;
    RC_TEVENT("ncid.tagMiss", TraceDomain::Sim, req.core, req.now,
              done - req.now, line);
    return resp;
}

void
NcidCache::evictNotify(Addr line_addr, CoreId core, bool dirty, Cycle now)
{
    const Addr line = lineAlign(line_addr);
    std::uint32_t way = 0;
    proto.put(tags.find(line, way), line, core, dirty, now);
}

std::string
NcidCache::describe() const
{
    const double tag_mb =
        static_cast<double>(cfg.tagEquivBytes) / (1024.0 * 1024.0);
    const double data_mb =
        static_cast<double>(cfg.dataBytes) / (1024.0 * 1024.0);
    char buf[64];
    std::snprintf(buf, sizeof(buf), "NCID-%.3g/%.3g (%u data ways)",
                  tag_mb, data_mb, data.geometry().numWays());
    return buf;
}

void
NcidCache::save(Serializer &s) const
{
    s.beginSection("tags");
    tags.save(s);
    s.endSection("tags");
    s.beginSection("data");
    data.save(s);
    s.endSection("data");
    s.beginSection("duel");
    duel.save(s);
    s.endSection("duel");
    s.putU64(rng.rawState());
    statSet.save(s);
    proto.save(s);
}

void
NcidCache::restore(Deserializer &d)
{
    d.beginSection("tags");
    tags.restore(d);
    d.endSection("tags");
    d.beginSection("data");
    data.restore(d);
    d.endSection("data");
    d.beginSection("duel");
    duel.restore(d);
    d.endSection("duel");
    rng.setRawState(d.getU64());
    statSet.restore(d);
    proto.restore(d);
}

} // namespace rc
