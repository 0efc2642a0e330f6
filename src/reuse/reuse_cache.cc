#include "reuse/reuse_cache.hh"

#include <cstdio>

#include "common/log.hh"
#include "snapshot/serializer.hh"
#include "telemetry/trace_event.hh"

namespace rc
{

ReuseCacheConfig
ReuseCacheConfig::standard(std::uint64_t tag_equiv_bytes,
                           std::uint64_t data_bytes,
                           std::uint32_t data_ways)
{
    ReuseCacheConfig cfg;
    cfg.tagEquivBytes = tag_equiv_bytes;
    cfg.dataBytes = data_bytes;
    cfg.dataWays = data_ways;
    cfg.dataRepl = data_ways == 0 ? ReplKind::Clock : ReplKind::NRU;
    return cfg;
}

namespace
{

CacheGeometry
dataGeometry(const ReuseCacheConfig &cfg)
{
    const std::uint64_t lines = cfg.dataBytes / lineBytes;
    const std::uint32_t ways = cfg.dataWays == 0
        ? static_cast<std::uint32_t>(lines)
        : cfg.dataWays;
    return CacheGeometry(lines, ways);
}

} // namespace

ReuseCache::ReuseCache(const ReuseCacheConfig &cfg_, MemCtrl &mem_)
    : DecoupledSllc(CacheGeometry::fromBytes(cfg_.tagEquivBytes,
                                             cfg_.tagWays),
                    cfg_.tagRepl, cfg_.numCores, cfg_.seed,
                    dataGeometry(cfg_), cfg_.dataRepl),
      cfg(cfg_),
      mem(mem_),
      predictor(cfg_.usePredictor
                    ? std::make_unique<ReusePredictor>(
                          cfg_.predictorEntries)
                    : nullptr),
      statSet(cfg_.name),
      accesses(statSet.add("accesses", "demand requests received")),
      tagMisses(statSet.add("tagMisses", "requests missing the tag array")),
      tagHitsData(statSet.add("tagHitsData",
                              "hits served by the data array")),
      tagHitsTagOnly(statSet.add("tagHitsTagOnly",
                                 "reuse detections (hit on a TO tag)")),
      reloadsFromMem(statSet.add("reloadsFromMem",
                                 "reuses paying a second memory fetch")),
      upgradeReqs(statSet.add("upgrades", "UPG requests received")),
      interventions(statSet.add("interventions",
                                "requests served by a private owner")),
      invalidationsSent(statSet.add("invalidationsSent",
                                    "private copies invalidated (GETX/UPG)")),
      inclusionRecalls(statSet.add("inclusionRecalls",
                                   "tag victims recalled from private caches")),
      dirtyWritebacks(statSet.add("dirtyWritebacks",
                                  "dirty lines written to memory")),
      tagAllocs(statSet.add("tagAllocs", "tag generations started")),
      tagEvictions(statSet.add("tagEvictions", "tag generations ended")),
      dataAllocs(statSet.add("dataAllocs", "data-array fills")),
      dataEvictions(statSet.add("dataEvictions", "data-array evictions")),
      generationsWithData(statSet.add("generationsWithData",
                                      "tag generations that reached the "
                                      "data array")),
      predictedFills(statSet.add("predictedFills",
                                 "misses installed with data by the "
                                 "reuse predictor")),
      predictedFillsWasted(statSet.add("predictedFillsWasted",
                                       "predicted fills never reused")),
      proto(mem_, cfg_.numCores, cfg_.interventionLatency, true,
            {interventions, invalidationsSent, inclusionRecalls,
             dirtyWritebacks})
{
    RC_ASSERT(data.geometry().numSets() <= tags.geometry().numSets(),
              "data array may not have more sets than the tag array");
    RC_ASSERT(tags.geometry().numLines() >= data.geometry().numLines(),
              "tag array must cover at least the data array");
}

void
ReuseCache::allocData(std::uint64_t tag_set, std::uint32_t tag_way,
                      Cycle now)
{
    ReuseTagArray::Entry &entry = tags.at(tag_set, tag_way);
    const std::uint64_t dset = data.setFor(tag_set);

    bool needs_eviction = false;
    const std::uint32_t dway = data.allocateWay(dset, needs_eviction);
    if (needs_eviction) {
        // DataRepl: follow the victim's reverse pointer to its tag.
        const ReuseDataArray::Entry &victim = data.at(dset, dway);
        ReuseTagArray::Entry &vtag = tags.at(victim.tagSet, victim.tagWay);
        const Addr vline = tags.lineAddrOf(victim.tagSet, victim.tagWay);
        vtag.state = proto.dataRepl(vtag.state, vtag.dir, vline, now);
        data.invalidate(dset, dway);
        ++dataEvictions;
        if (watcher)
            watcher->onDataEvict(vline, now);
    }

    data.fill(dset, dway, tag_set, tag_way);
    entry.fwdWay = dway;
    if (!entry.enteredData) {
        entry.enteredData = true;
        ++generationsWithData;
    }
    ++dataAllocs;
    if (watcher)
        watcher->onDataFill(tags.lineAddrOf(tag_set, tag_way), now);
}

void
ReuseCache::evictTag(std::uint64_t set, std::uint32_t way, Cycle now)
{
    ReuseTagArray::Entry &e = tags.at(set, way);
    const Addr line = tags.lineAddrOf(set, way);
    proto.tagRepl(e.state, e.dir, line, now);

    if (llcHasData(e.state)) {
        data.invalidate(data.setFor(set), e.fwdWay);
        ++dataEvictions;
        if (watcher)
            watcher->onDataEvict(line, now);
    }

    if (predictor) {
        predictor->train(line, e.reused);
        if (e.predicted && !e.reused)
            ++predictedFillsWasted;
    }

    tags.invalidate(set, way);
    ++tagEvictions;
}

LlcResponse
ReuseCache::request(const LlcRequest &req)
{
    const Addr line = lineAlign(req.lineAddr);
    ++accesses;
    proto.countAccess(req.core);
    if (req.event == ProtoEvent::UPG)
        ++upgradeReqs;

    const std::uint64_t set = tags.geometry().setIndex(line);
    std::uint32_t way = 0;
    ReuseTagArray::Entry *entry = tags.find(line, way);

    // Optional predictor extension: a tag miss predicted to show reuse
    // allocates tag AND data immediately (the non-selective transition),
    // trading a possibly wasted data entry for skipping the tag-only
    // stage and its second memory fetch.
    const bool predicted_fill =
        !entry && predictor && predictor->predictReused(line);

    const ProtoResult res =
        proto.transition(req, entry ? entry->state : LlcState::I,
                         entry ? &entry->dir : nullptr, !predicted_fill,
                         req.prefetch);

    LlcResponse resp;
    resp.tagHit = entry != nullptr;
    Cycle done = req.now + cfg.tagLatency;

    if (entry) {
        const bool was_tag_only = entry->state == LlcState::TO;

        if (res.actions & ActDataHit) {
            done += cfg.dataLatency;
            resp.dataHit = true;
            ++tagHitsData;
            if (!req.prefetch)
                data.touchHit(data.setFor(set), entry->fwdWay);
            if (watcher)
                watcher->onDataHit(line, req.now);
        }

        done += proto.privateActions(res.actions, req, line, entry->dir);

        if (res.actions & ActFetchMem) {
            // The paper's double fetch: a reuse on a TO tag re-reads the
            // line from main memory.  (A prefetch touching a TO tag also
            // fetches, but is not a reuse and not counted as a reload.)
            done = mem.readLine(line, req.now + cfg.tagLatency);
            resp.memFetched = true;
            if (!req.prefetch)
                ++reloadsFromMem;
            proto.countMiss(req.core);
        }

        if (res.actions & ActAllocData) {
            RC_CHECK(was_tag_only, SimError::Kind::Protocol,
                     "data allocation on a tag+data state");
            ++tagHitsTagOnly;
            allocData(set, way, req.now);
        }

        SllcProtocol::update(entry->state, entry->dir, res, req.core);
        if (!req.prefetch) {
            // Prefetch hits are not reuses and earn no promotion
            // (Section 6: prefetched lines keep the lowest priority).
            entry->reused = true;
            tags.touchHit(set, way, req.core, req.pc, line);
        }
    } else {
        RC_CHECK(res.actions & ActAllocTag, SimError::Kind::Protocol,
                 "miss without tag allocation");
        bool needs_eviction = false;
        way = tags.allocateWay(set, req.core, needs_eviction, req.pc, line);
        if (needs_eviction)
            evictTag(set, way, req.now);

        ReuseTagArray::Entry &e = tags.at(set, way);
        tags.setTag(set, way, line);
        e.dir.clear();
        // TO (S with a predicted fill).
        SllcProtocol::update(e.state, e.dir, res, req.core);
        e.enteredData = false;
        e.reused = false;
        e.predicted = predicted_fill;
        // NRR bit set: not reused yet.
        tags.touchFill(set, way, req.core, false, req.pc, line);
        ++tagAllocs;

        if (res.actions & ActAllocData) {
            // Predictor extension: install the data right away.
            allocData(set, way, req.now);
            ++predictedFills;
        }

        RC_CHECK(res.actions & ActFetchMem, SimError::Kind::Protocol,
                 "tag miss must fetch memory");
        done = mem.readLine(line, req.now + cfg.tagLatency);
        resp.memFetched = true;
        ++tagMisses;
        proto.countMiss(req.core);
    }

    resp.doneAt = done;
#if RC_TRACE_ENABLED
    if (EventTracer *tr = EventTracer::current(); tr && tr->enabled()) {
        tr->record(resp.dataHit ? "rc.dataHit"
                   : resp.tagHit ? "rc.tagOnlyHit" : "rc.tagMiss",
                   TraceDomain::Sim, req.core, req.now, done - req.now,
                   line);
        if (const char *coh = coherenceTraceLabel(res.actions))
            tr->record(coh, TraceDomain::Sim, req.core, req.now, 0, line);
    }
#endif
    return resp;
}

void
ReuseCache::evictNotify(Addr line_addr, CoreId core, bool dirty, Cycle now)
{
    const Addr line = lineAlign(line_addr);
    std::uint32_t way = 0;
    proto.put(tags.find(line, way), line, core, dirty, now);
}

std::string
ReuseCache::describe() const
{
    const double tag_mb =
        static_cast<double>(cfg.tagEquivBytes) / (1024.0 * 1024.0);
    const double data_mb =
        static_cast<double>(cfg.dataBytes) / (1024.0 * 1024.0);
    char buf[96];
    std::snprintf(buf, sizeof(buf), "RC-%.3g/%.3g (%s data array)",
                  tag_mb, data_mb,
                  cfg.dataWays == 0 ? "FA"
                                    : (std::to_string(cfg.dataWays) +
                                       "-way").c_str());
    return buf;
}

double
ReuseCache::fractionNeverEnteredData() const
{
    if (tagAllocs == 0)
        return 0.0;
    return 1.0 - static_cast<double>(generationsWithData) /
                     static_cast<double>(tagAllocs);
}

void
ReuseCache::save(Serializer &s) const
{
    s.beginSection("tags");
    tags.save(s);
    s.endSection("tags");
    s.beginSection("data");
    data.save(s);
    s.endSection("data");
    s.putBool(predictor != nullptr);
    if (predictor) {
        s.beginSection("predictor");
        predictor->save(s);
        s.endSection("predictor");
    }
    statSet.save(s);
    proto.save(s);
}

void
ReuseCache::restore(Deserializer &d)
{
    d.beginSection("tags");
    tags.restore(d);
    d.endSection("tags");
    d.beginSection("data");
    data.restore(d);
    d.endSection("data");
    const bool has_predictor = d.getBool();
    if (has_predictor != (predictor != nullptr))
        throwSimError(SimError::Kind::Snapshot,
                      "reuse cache predictor configuration does not match "
                      "the checkpoint (live: %s, checkpoint: %s)",
                      predictor ? "on" : "off", has_predictor ? "on" : "off");
    if (predictor) {
        d.beginSection("predictor");
        predictor->restore(d);
        d.endSection("predictor");
    }
    statSet.restore(d);
    proto.restore(d);
}

} // namespace rc
