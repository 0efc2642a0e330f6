#include "sim/fanout.hh"

#include <algorithm>

#include "common/log.hh"
#include "snapshot/serializer.hh"

namespace rc
{

FanoutFeed::FanoutFeed(const PrivateConfig &priv, StreamFactory factory_,
                       std::shared_ptr<const FeedBlob> blob_,
                       bool capture_)
    : privCfg(priv), factory(std::move(factory_)), blob(std::move(blob_)),
      capture(capture_)
{
    RC_ASSERT(factory, "fan-out feed needs a stream factory");
    RC_ASSERT(!(blob && capture),
              "a warm feed replays; there is nothing new to capture");
    if (blob) {
        // Replay mode: the blob IS the front end.  No streams, no
        // virgin hierarchies, no record generation — unless a member
        // later consumes past the blob's horizon (goLive()).
        per.resize(blob->numCores());
        labels.reserve(blob->numCores());
        for (std::uint32_t c = 0; c < blob->numCores(); ++c) {
            const FeedBlob::CoreView &view = blob->core(c);
            RC_ASSERT(view.count % kChunk == 0 &&
                          view.streamSnaps.size() == view.count / kChunk &&
                          view.hierSnaps.size() == view.count / kChunk,
                      "feed blob core %u is not whole chunks", c);
            PerCore &pc = per[c];
            const std::uint64_t chunks = view.count / kChunk;
            pc.chunks.resize(chunks);
            for (std::uint64_t n = 0; n < chunks; ++n) {
                Chunk &ch = pc.chunks[n];
                const std::uint64_t first = n * kChunk;
                ch.recs = view.recs + first;
                ch.cumA = view.cumA + first;
                ch.cumI = view.cumI + first;
                ch.iBefore = first ? view.cumI[first - 1] : 0;
                ch.streamImage = view.streamSnaps[n].image;
                ch.hierImage = view.hierSnaps[n].image;
            }
            pc.liveFrom = chunks;
            pc.flatLlc = view.llc;
            pc.flatVictim = view.llcVictim;
            pc.flatCount = view.count;
            pc.flatLlcCount = view.llcCount;
            pc.llcBase = view.llcCount;
            pc.pcs = view.pcs;
            pc.generated = view.count;
            pc.aTotal = view.count ? view.cumA[view.count - 1] : 0;
            pc.iTotal = view.count ? view.cumI[view.count - 1] : 0;
            labels.push_back(view.label);
        }
        return;
    }
    streams = factory();
    RC_ASSERT(!streams.empty(), "stream factory produced no streams");
    virgin.reserve(streams.size());
    labels.reserve(streams.size());
    per.resize(streams.size());
    for (std::uint32_t c = 0; c < streams.size(); ++c) {
        RC_ASSERT(streams[c], "stream factory produced a null stream");
        virgin.push_back(std::make_unique<PrivateHierarchy>(
            privCfg, c, "virgin" + std::to_string(c)));
        labels.emplace_back(streams[c]->label());
    }
}

FanoutFeed::~FanoutFeed() = default;

std::uint32_t
FanoutFeed::internPc(PerCore &pc, Addr pc_value)
{
    // Linear probing over a power-of-two slot array kept at most half
    // full; a slot holds a pcTab position + 1.
    if (2 * (pc.pcTab.size() + 1) > pc.pcSlots.size()) {
        std::vector<std::uint32_t> slots(
            std::max<std::size_t>(64, 2 * pc.pcSlots.size()), 0);
        const std::size_t mask = slots.size() - 1;
        for (std::size_t i = 0; i < pc.pcTab.size(); ++i) {
            std::size_t h = (pc.pcTab[i] * 0x9e3779b97f4a7c15ull) >> 40;
            while (slots[h & mask] != 0)
                ++h;
            slots[h & mask] = static_cast<std::uint32_t>(i + 1);
        }
        pc.pcSlots.swap(slots);
    }
    const std::size_t mask = pc.pcSlots.size() - 1;
    for (std::size_t h = (pc_value * 0x9e3779b97f4a7c15ull) >> 40;; ++h) {
        const std::uint32_t slot = pc.pcSlots[h & mask];
        if (slot == 0) {
            RC_ASSERT(pc.pcTab.size() < UINT32_MAX,
                      "fan-out feed PC table overflow");
            pc.pcTab.push_back(pc_value);
            pc.pcs = pc.pcTab.data();
            pc.pcSlots[h & mask] =
                static_cast<std::uint32_t>(pc.pcTab.size());
            return static_cast<std::uint32_t>(pc.pcTab.size() - 1);
        }
        if (pc.pcTab[slot - 1] == pc_value)
            return slot - 1;
    }
}

void
FanoutFeed::goLive(CoreId core)
{
    // A member outran the blob.  Rebuild exactly the live state a cold
    // run would have at the blob's horizon: fresh streams restored from
    // the newest stream snapshot and advanced, the virgin hierarchy
    // re-materialized by replaying the blob's last chunk, and the PC
    // table copied out of the mapping.  Everything generated from here
    // on is bit-identical to a cold run's continuation.
    PerCore &pc = per[core];
    if (streams.empty()) {
        streams = factory();
        RC_ASSERT(streams.size() == per.size(),
                  "stream factory produced %zu streams for %zu cores",
                  streams.size(), per.size());
        virgin.resize(per.size());
    }
    if (virgin[core])
        return;
    const FeedBlob::CoreView &view = blob->core(core);
    {
        RC_ASSERT(!view.streamSnaps.empty(),
                  "feed blob carries no stream snapshots for core %u",
                  core);
        const FeedBlob::Snap &anchor = view.streamSnaps.back();
        Deserializer d(anchor.image);
        d.beginSection("stream");
        streams[core]->restore(d);
        d.endSection();
        for (std::uint64_t i = anchor.idx; i < pc.flatCount; ++i)
            (void)streams[core]->next();
    }
    virgin[core] = std::make_unique<PrivateHierarchy>(
        privCfg, core, "virgin" + std::to_string(core));
    materializeHier(core, pc.flatCount, *virgin[core]);
    // The blob's table holds distinct PCs, so interning it in order
    // rebuilds the same indices.
    for (std::uint64_t i = 0; i < view.pcCount; ++i)
        (void)internPc(pc, view.pcs[i]);
    pc.pcs = pc.pcTab.data();
}

void
FanoutFeed::extend(CoreId core, std::uint64_t idx)
{
    PerCore &pc = per[core];
    if (blob && (virgin.size() <= core || !virgin[core]))
        goLive(core);
    RefStream &stream = *streams[core];
    PrivateHierarchy &hier = *virgin[core];
    while (pc.generated <= idx) {
        auto own = std::make_unique_for_overwrite<ChunkStore>();
        // Chunk boundary: image the stream state before generating the
        // chunk, so any record index inside it can be reconstructed,
        // and the virgin hierarchy so express-lane members can
        // materialize exact private state at any index inside it.
        {
            Serializer ser;
            ser.beginSection("stream");
            stream.save(ser);
            ser.endSection();
            own->streamImage = ser.image();
        }
        {
            Serializer ser;
            ser.beginSection("hier");
            hier.save(ser);
            ser.endSection();
            own->hierImage = ser.image();
        }
        Chunk ch;
        ch.iBefore = pc.iTotal;
        for (std::uint64_t i = 0; i < kChunk; ++i) {
            PackedStep &rec = own->recs[i];
            const MemRef r = stream.next();
            rec = PackedStep{};
            rec.line = lineAlign(r.addr);
            rec.pcIdx = internPc(pc, r.pc);
            if (r.isInstr)
                rec.flags |= PackedStep::kInstr;
            if (r.op == MemOp::Write)
                rec.flags |= PackedStep::kWrite;
            const PrivateMissAction act =
                hier.classifyRecord(rec.line, r.op, r.isInstr, rec);
            if (act.needLlc) {
                // The virgin hierarchy completes misses immediately:
                // with no SLLC behind it, fills and upgrades always
                // succeed and nothing ever recalls its lines.
                Addr evict_line = 0;
                if (act.event == ProtoEvent::UPG) {
                    hier.upgradedRecord(rec.line, rec);
                } else {
                    bool evict_dirty = false;
                    if (!hier.fillRecord(rec.line, r.isInstr,
                                         act.event == ProtoEvent::GETX,
                                         evict_line, evict_dirty, rec))
                        evict_line = 0;
                }
                pc.llc.push_back(LlcEntry{pc.generated, evict_line});
            }
            pc.aTotal += r.think + act.latency;
            pc.iTotal += r.think + (r.isInstr ? 0 : 1);
            own->cumA[i] = pc.aTotal;
            own->cumI[i] = pc.iTotal;
            ++pc.generated;
        }
        ch.recs = own->recs;
        ch.cumA = own->cumA;
        ch.cumI = own->cumI;
        ch.streamImage = own->streamImage;
        ch.hierImage = own->hierImage;
        ch.own = std::move(own);
        pc.chunks.push_back(std::move(ch));

        const std::uint64_t live =
            (pc.chunks.size() - pc.liveFrom) * kChunk;
        if (live > pc.peak.records) {
            pc.peak.records = live;
            pc.peak.bytes = live * kBytesPerRecord +
                            pc.llc.size() * sizeof(LlcEntry);
        }
    }
}

void
FanoutFeed::trim(CoreId core, std::uint64_t min_idx)
{
    // Capture mode keeps every chunk: FeedCache::store() serializes
    // them after the run.  Blob-backed chunks are never freed either —
    // they are a read-only mapping, and liveFrom starts past them.
    if (capture)
        return;
    PerCore &pc = per[core];
    if (pc.chunks.empty())
        return;
    // Free whole chunks below the one holding min_idx: materializeHier()
    // replays records from the snapshot of the chunk holding a member's
    // cursor, so that chunk must stay.  The newest chunk always stays,
    // as it anchors the records generation will append.
    const std::uint64_t floor_chunk =
        std::min<std::uint64_t>(min_idx / kChunk, pc.chunks.size() - 1);
    for (; pc.liveFrom < floor_chunk; ++pc.liveFrom)
        pc.chunks[pc.liveFrom] = Chunk{};
    const std::uint64_t floor_idx = floor_chunk * kChunk;
    while (!pc.llc.empty() && pc.llc.front().idx < floor_idx) {
        pc.llc.pop_front();
        ++pc.llcBase;
    }
}

StepRecord
FanoutFeed::record(CoreId core, std::uint64_t idx)
{
    StepRecord out;
    static_cast<PackedStep &>(out) = step(core, idx, out.think);
    const PerCore &pc = per[core];
    out.pc = pc.pcs[out.pcIdx];
    if (out.hasVictim()) {
        const std::uint64_t n = llcLowerBound(pc, idx);
        RC_ASSERT(n < llcTotal(pc) && llcIdxAt(pc, n) == idx,
                  "victim record %llu missing from the LLC-bound index",
                  static_cast<unsigned long long>(idx));
        out.victimLine = llcVictimAt(pc, n);
    }
    return out;
}

std::uint64_t
FanoutFeed::llcOrdinal(const PerCore &pc, std::uint64_t idx,
                       std::uint64_t &n)
{
    // Ordinals below llcBase past the blob's were trimmed, and every
    // one of them precedes any index a member can still ask about.
    if (n >= pc.flatLlcCount && n < pc.llcBase)
        n = pc.llcBase;
    const std::uint64_t total = llcTotal(pc);
    while (n < total && llcIdxAt(pc, n) < idx)
        ++n;
    return n;
}

std::uint64_t
FanoutFeed::llcLowerBound(const PerCore &pc, std::uint64_t idx)
{
    if (pc.flatLlcCount != 0 && idx <= pc.flatLlc[pc.flatLlcCount - 1]) {
        return static_cast<std::uint64_t>(
            std::lower_bound(pc.flatLlc, pc.flatLlc + pc.flatLlcCount,
                             idx) -
            pc.flatLlc);
    }
    const auto it = std::lower_bound(
        pc.llc.begin(), pc.llc.end(), idx,
        [](const LlcEntry &e, std::uint64_t v) { return e.idx < v; });
    return pc.llcBase + static_cast<std::uint64_t>(it - pc.llc.begin());
}

Addr
FanoutFeed::victimOf(CoreId core, std::uint64_t idx,
                     std::uint64_t &llc_cursor)
{
    const PerCore &pc = per[core];
    const std::uint64_t n = llcOrdinal(pc, idx, llc_cursor);
    RC_ASSERT(n < llcTotal(pc) && llcIdxAt(pc, n) == idx,
              "victim record %llu missing from the LLC-bound index",
              static_cast<unsigned long long>(idx));
    return llcVictimAt(pc, n);
}

FanoutFeed::NextEvent
FanoutFeed::nextLlcBounded(CoreId core, std::uint64_t cursor,
                           std::uint64_t base_cum_a, Cycle base_ready,
                           Cycle end, std::uint64_t &llc_cursor)
{
    PerCore &pc = per[core];
    for (;;) {
        const std::uint64_t n = llcOrdinal(pc, cursor, llc_cursor);
        if (n < llcTotal(pc)) {
            const std::uint64_t k = llcIdxAt(pc, n);
            const Cycle pre =
                preReadyOf(pc, cursor, base_cum_a, base_ready, k);
            if (pre >= end)
                return NextEvent{};
            return NextEvent{true, k, pre};
        }
        // No LLC-bound record generated yet: if the core provably
        // reaches the quantum boundary first, stop; otherwise generate
        // another chunk and look again.
        if (preReadyOf(pc, cursor, base_cum_a, base_ready,
                       pc.generated) >= end) {
            return NextEvent{};
        }
        extend(core, pc.generated);
    }
}

std::uint64_t
FanoutFeed::firstAtOrPast(const PerCore &pc, std::uint64_t cursor,
                          std::uint64_t base_cum_a, Cycle base_ready,
                          std::uint64_t limit, Cycle bound, bool strict)
{
    std::uint64_t lo = cursor;
    std::uint64_t hi = limit;
    while (lo < hi) {
        const std::uint64_t mid = lo + (hi - lo) / 2;
        const Cycle pre =
            preReadyOf(pc, cursor, base_cum_a, base_ready, mid);
        const bool past = strict ? pre > bound : pre >= bound;
        if (past)
            hi = mid;
        else
            lo = mid + 1;
    }
    return lo;
}

std::uint64_t
FanoutFeed::cursorAtCycle(CoreId core, std::uint64_t cursor,
                          std::uint64_t base_cum_a, Cycle base_ready,
                          Cycle end)
{
    PerCore &pc = per[core];
    while (pc.generated <= cursor ||
           preReadyOf(pc, cursor, base_cum_a, base_ready,
                      pc.generated) < end) {
        extend(core, pc.generated);
    }
    return firstAtOrPast(pc, cursor, base_cum_a, base_ready,
                         pc.generated, end, false);
}

std::uint64_t
FanoutFeed::cursorAtKey(CoreId core, std::uint64_t cursor,
                        std::uint64_t base_cum_a, Cycle base_ready,
                        Cycle key_ready, bool strict)
{
    PerCore &pc = per[core];
    while (pc.generated <= cursor ||
           preReadyOf(pc, cursor, base_cum_a, base_ready,
                      pc.generated) <= key_ready) {
        extend(core, pc.generated);
    }
    return firstAtOrPast(pc, cursor, base_cum_a, base_ready,
                         pc.generated, key_ready, strict);
}

std::uint64_t
FanoutFeed::anchorChunk(const PerCore &pc, std::uint64_t idx)
{
    RC_ASSERT(idx <= pc.generated && !pc.chunks.empty(),
              "record %llu has no snapshot chunk (generated %llu)",
              static_cast<unsigned long long>(idx),
              static_cast<unsigned long long>(pc.generated));
    const std::uint64_t n =
        std::min<std::uint64_t>(idx / kChunk, pc.chunks.size() - 1);
    RC_ASSERT(pc.chunks[n].recs, "snapshot chunk of record %llu was trimmed",
              static_cast<unsigned long long>(idx));
    return n;
}

void
FanoutFeed::materializeHier(CoreId core, std::uint64_t idx,
                            PrivateHierarchy &hier) const
{
    const PerCore &pc = per[core];
    const std::uint64_t n_anchor = anchorChunk(pc, idx);
    const Chunk &anchor = pc.chunks[n_anchor];
    {
        Deserializer d(anchor.hierImage);
        d.beginSection("hier");
        hier.restore(d);
        d.endSection();
    }
    // Replay the intervening records: a never-diverged member replica
    // is bit-identical to the virgin hierarchy at every index, so the
    // apply path reproduces its exact state (and counters) at idx.
    const std::uint64_t first = n_anchor * kChunk;
    std::uint64_t n = llcLowerBound(pc, first);
    for (std::uint64_t i = first; i < idx; ++i) {
        const PackedStep &rec = anchor.recs[i - first];
        const PrivateMissAction act = hier.applyClassify(rec);
        if (act.needLlc) {
            if (act.event == ProtoEvent::UPG) {
                hier.applyUpgraded(rec);
            } else {
                Addr evict_line = 0;
                bool evict_dirty = false;
                (void)hier.applyFill(rec, llcVictimAt(pc, n), evict_line,
                                     evict_dirty);
            }
            ++n;
        }
    }
}

void
FanoutFeed::saveStreamAt(CoreId core, std::uint64_t idx,
                         Serializer &s) const
{
    const PerCore &pc = per[core];
    const std::uint64_t n_anchor = anchorChunk(pc, idx);
    const Chunk &anchor = pc.chunks[n_anchor];
    const std::uint64_t first = n_anchor * kChunk;

    std::vector<std::unique_ptr<RefStream>> fresh = factory();
    RC_ASSERT(core < fresh.size(), "stream factory shrank");
    RefStream &stream = *fresh[core];
    {
        Deserializer d(anchor.streamImage);
        d.beginSection("stream");
        stream.restore(d);
        d.endSection();
    }
    for (std::uint64_t i = first; i < idx; ++i)
        (void)stream.next();
    stream.save(s);
}

MemRef
ReplayStream::next()
{
    panic("ReplayStream::next: fan-out members consume StepRecords, "
          "never raw references");
}

void
ReplayStream::restore(Deserializer &d)
{
    (void)d;
    throwSimError(SimError::Kind::Snapshot,
                  "fan-out member systems cannot be restored into; a "
                  "resumed fan-out job reloads its journaled results or "
                  "re-runs from scratch");
}

FanoutCmp::FanoutCmp(const std::vector<SystemConfig> &configs,
                     StreamFactory factory_,
                     std::shared_ptr<const FeedBlob> blob,
                     bool capture)
{
    RC_ASSERT(!configs.empty(), "fan-out needs at least one config");
    const SystemConfig &head = configs.front();
    RC_ASSERT(!head.prefetch.enable,
              "fan-out requires prefetching disabled");
    for (const SystemConfig &c : configs) {
        RC_ASSERT(samePrivatePrefix(head, c),
                  "fan-out members must share the private prefix");
    }

    feed = std::make_unique<FanoutFeed>(head.priv, std::move(factory_),
                                        std::move(blob), capture);
    RC_ASSERT(feed->numCores() == head.numCores,
              "stream factory produced %u streams for %u cores",
              feed->numCores(), head.numCores);

    members.reserve(configs.size());
    cursors.reserve(configs.size());
    for (const SystemConfig &c : configs) {
        std::vector<std::unique_ptr<RefStream>> streams;
        std::vector<ReplayStream *> views;
        streams.reserve(c.numCores);
        views.reserve(c.numCores);
        for (CoreId i = 0; i < c.numCores; ++i) {
            auto rs = std::make_unique<ReplayStream>(*feed, i);
            views.push_back(rs.get());
            streams.push_back(std::move(rs));
        }
        auto m = std::make_unique<Cmp>(c, std::move(streams));
        m->attachFeed(feed.get());
        members.push_back(std::move(m));
        cursors.push_back(std::move(views));
    }
}

bool
FanoutCmp::samePrivatePrefix(const SystemConfig &a, const SystemConfig &b)
{
    // The config fields of the feed key's "front" section (feedKeyOf):
    // a's bytes, then b's, in one buffer.
    Serializer s;
    std::size_t split = 0;
    for (const SystemConfig *c : {&a, &b}) {
        split = s.payload().size();
        putFrontEndConfig(s, *c);
        s.putU64(c->seed);
        s.putU32(c->capacityScale);
    }
    const std::vector<std::uint8_t> &bytes = s.payload();
    return bytes.size() == 2 * split &&
           std::equal(bytes.begin(), bytes.begin() + split,
                      bytes.begin() + split);
}

void
FanoutCmp::run(Cycle cycles)
{
    const Cycle start = now();
    for (const auto &m : members) {
        RC_ASSERT(m->now() == start, "fan-out members out of lockstep");
    }
    const Cycle end = start + cycles;
    // The lockstep quantum exists solely to bound the feed's live
    // record window.  Replaying from a blob, the window is the blob —
    // already materialized, never trimmed — so each member can run its
    // whole horizon in one slice, keeping its SLLC and private
    // metadata hot instead of round-robining every 256K cycles.
    // Results are quantum- and order-invariant either way (members
    // share only the feed and commit only at the end of run()).
    const Cycle quantum =
        feed->warm() && !feed->capturing() ? cycles : kQuantum;
    std::vector<std::pair<std::uint64_t, std::size_t>> order(
        members.size());
    Cycle target = start;
    while (target < end) {
        target = std::min(target + quantum, end);
        // Slowest first: the members that have consumed the fewest
        // records run first, and the trim after each slice frees the
        // chunks they leave behind before the leaders generate more.
        for (std::size_t m = 0; m < members.size(); ++m) {
            std::uint64_t consumed = 0;
            for (const ReplayStream *view : cursors[m])
                consumed += view->cursor;
            order[m] = {consumed, m};
        }
        std::sort(order.begin(), order.end());
        for (const auto &[consumed, m] : order) {
            members[m]->runSlice(target, target == end);
            trimFeed();
        }
    }
}

void
FanoutCmp::trimFeed()
{
    // Everything every member has consumed can be dropped.
    for (CoreId c = 0; c < feed->numCores(); ++c) {
        std::uint64_t min_idx = cursors.front()[c]->cursor;
        for (const auto &views : cursors)
            min_idx = std::min(min_idx, views[c]->cursor);
        feed->trim(c, min_idx);
    }
}

void
FanoutCmp::beginMeasurement()
{
    for (auto &m : members)
        m->beginMeasurement();
}

} // namespace rc
