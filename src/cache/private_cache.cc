#include "cache/private_cache.hh"

#include "common/log.hh"
#include "common/wayscan.hh"
#include "snapshot/serializer.hh"

namespace rc
{

namespace
{

/**
 * Way-scan over a fixed-width tag lane (see common/wayscan.hh).  At
 * most one way can match: a set never holds duplicate tags (fill
 * asserts non-residency) and invalid ways carry a sentinel no real tag
 * equals, so a single first-match scan is exact.
 */
inline std::int32_t
findWay(const std::uint64_t *tl, std::uint64_t tag, std::uint32_t ways)
{
    return scanWays(tl, ways, tag);
}

} // namespace

TagStore::TagStore(const CacheGeometry &geometry, const std::string &name)
    : geom(geometry),
      tags(geometry.numLines(), invalidTag),
      valid(geometry.numLines(), 0),
      payload(geometry.numLines()),
      stamp(geometry.numLines(), 0)
{
    (void)name;
}

std::uint32_t
TagStore::lruVictim(std::uint64_t set) const
{
    const std::uint64_t base = set * geom.numWays();
    std::uint32_t best = 0;
    std::uint64_t best_stamp = stamp[base];
    for (std::uint32_t w = 1; w < geom.numWays(); ++w) {
        if (stamp[base + w] < best_stamp) {
            best_stamp = stamp[base + w];
            best = w;
        }
    }
    return best;
}

TagStore::Way *
TagStore::lookup(Addr line_addr)
{
    const std::uint64_t set = geom.setIndex(line_addr);
    const std::uint64_t tag = geom.tagOf(line_addr);
    const std::uint64_t base = set * geom.numWays();
    const std::int32_t w = findWay(tags.data() + base, tag, geom.numWays());
    if (w < 0)
        return nullptr;
    stamp[base + w] = ++tick;
    return &payload[base + w];
}

std::int32_t
TagStore::lookupWay(Addr line_addr)
{
    const std::uint64_t set = geom.setIndex(line_addr);
    const std::uint64_t tag = geom.tagOf(line_addr);
    const std::uint64_t base = set * geom.numWays();
    const std::int32_t w = findWay(tags.data() + base, tag, geom.numWays());
    if (w >= 0)
        stamp[base + w] = ++tick;
    return w;
}

const TagStore::Way *
TagStore::peek(Addr line_addr) const
{
    const std::uint64_t set = geom.setIndex(line_addr);
    const std::uint64_t tag = geom.tagOf(line_addr);
    const std::uint64_t base = set * geom.numWays();
    const std::int32_t w = findWay(tags.data() + base, tag, geom.numWays());
    return w < 0 ? nullptr : &payload[base + w];
}

TagStore::Eviction
TagStore::fill(Addr line_addr, PrivState state, std::uint32_t *way_out)
{
    RC_ASSERT(peek(line_addr) == nullptr,
              "fill of already-resident line %llx",
              static_cast<unsigned long long>(line_addr));
    const std::uint64_t set = geom.setIndex(line_addr);
    const std::uint64_t base = set * geom.numWays();

    std::uint32_t way = geom.numWays();
    for (std::uint32_t w = 0; w < geom.numWays(); ++w) {
        if (!valid[base + w]) {
            way = w;
            break;
        }
    }

    Eviction ev;
    if (way == geom.numWays()) {
        way = lruVictim(set);
        ev.valid = true;
        ev.lineAddr = geom.lineAddr(tags[base + way], set);
        ev.state = payload[base + way].state;
        ev.dirty = payload[base + way].dirty;
    }

    tags[base + way] = geom.tagOf(line_addr);
    payload[base + way] = Way{state, false};
    valid[base + way] = 1;
    stamp[base + way] = ++tick;
    if (way_out)
        *way_out = way;
    return ev;
}

TagStore::Eviction
TagStore::occupantAt(Addr line_addr, std::uint32_t way) const
{
    const std::uint64_t set = geom.setIndex(line_addr);
    const std::uint64_t idx = set * geom.numWays() + way;
    Eviction ev;
    if (!valid[idx])
        return ev;
    ev.valid = true;
    ev.lineAddr = geom.lineAddr(tags[idx], set);
    ev.state = payload[idx].state;
    ev.dirty = payload[idx].dirty;
    return ev;
}

void
TagStore::installAt(Addr line_addr, std::uint32_t way, PrivState state)
{
    const std::uint64_t set = geom.setIndex(line_addr);
    const std::uint64_t idx = set * geom.numWays() + way;
    tags[idx] = geom.tagOf(line_addr);
    payload[idx] = Way{state, false};
    valid[idx] = 1;
    stamp[idx] = ++tick;
}

TagStore::Eviction
TagStore::invalidate(Addr line_addr)
{
    const std::uint64_t set = geom.setIndex(line_addr);
    const std::uint64_t tag = geom.tagOf(line_addr);
    const std::uint64_t base = set * geom.numWays();
    for (std::uint32_t w = 0; w < geom.numWays(); ++w) {
        if (tags[base + w] == tag) {
            Eviction ev;
            ev.valid = true;
            ev.lineAddr = line_addr;
            ev.state = payload[base + w].state;
            ev.dirty = payload[base + w].dirty;
            valid[base + w] = 0;
            tags[base + w] = invalidTag;
            payload[base + w] = Way{};
            return ev;
        }
    }
    return Eviction{};
}

std::uint64_t
TagStore::residentCount() const
{
    std::uint64_t n = 0;
    for (auto v : valid)
        n += v;
    return n;
}

void
TagStore::forEachResident(
    const std::function<void(Addr, const Way &)> &fn) const
{
    for (std::uint64_t s = 0; s < geom.numSets(); ++s) {
        const std::uint64_t base = s * geom.numWays();
        for (std::uint32_t w = 0; w < geom.numWays(); ++w) {
            if (valid[base + w])
                fn(geom.lineAddr(tags[base + w], s), payload[base + w]);
        }
    }
}

PrivateHierarchy::PrivateHierarchy(const PrivateConfig &cfg_, CoreId core,
                                   const std::string &name)
    : cfg(cfg_),
      coreId(core),
      l1i(CacheGeometry::fromBytes(cfg_.l1Bytes, cfg_.l1Ways), name + ".l1i"),
      l1d(CacheGeometry::fromBytes(cfg_.l1Bytes, cfg_.l1Ways), name + ".l1d"),
      l2(CacheGeometry::fromBytes(cfg_.l2Bytes, cfg_.l2Ways), name + ".l2"),
      statSet(name),
      l1iHits(statSet.add("l1iHits", "instruction fetches hitting the L1I")),
      l1iMisses(statSet.add("l1iMisses", "instruction fetches missing L1I")),
      l1dHits(statSet.add("l1dHits", "data accesses hitting the L1D")),
      l1dMisses(statSet.add("l1dMisses", "data accesses missing the L1D")),
      l2Hits(statSet.add("l2Hits", "L1 misses hitting the L2")),
      l2Misses(statSet.add("l2Misses", "L1 misses missing the L2")),
      upgrades(statSet.add("upgrades", "S->M upgrade requests issued")),
      recalls(statSet.add("recalls", "SLLC back-invalidations received")),
      dirtyRecalls(statSet.add("dirtyRecalls",
                               "back-invalidations of a dirty copy"))
{
    (void)coreId;
}

template <bool Rec>
PrivateMissAction
PrivateHierarchy::classifyImpl(Addr line_addr, MemOp op, bool is_instr,
                               PackedStep *rec)
{
    PrivateMissAction act;
    act.latency = cfg.l1Latency;

    if (is_instr) {
        RC_ASSERT(op == MemOp::Read, "instruction fetches are reads");
        const std::int32_t w1 = l1i.lookupWay(line_addr);
        if (w1 >= 0) {
            ++l1iHits;
            if constexpr (Rec) {
                rec->kind = StepKind::L1IHit;
                rec->l1Way = static_cast<std::int8_t>(w1);
            }
            return act;
        }
        ++l1iMisses;
        act.latency += cfg.l2Latency;
        const std::int32_t w2 = l2.lookupWay(line_addr);
        if (w2 >= 0) {
            ++l2Hits;
            std::uint32_t fw = 0;
            l1i.fill(line_addr, PrivState::S, Rec ? &fw : nullptr);
            if constexpr (Rec) {
                rec->kind = StepKind::L1IL2Hit;
                rec->l1Way = static_cast<std::int8_t>(fw);
                rec->l2Way = static_cast<std::int8_t>(w2);
            }
            return act;
        }
        ++l2Misses;
        act.needLlc = true;
        act.event = ProtoEvent::GETS;
        if constexpr (Rec)
            rec->kind = StepKind::InstrMiss;
        return act;
    }

    const std::int32_t w1 = l1d.lookupWay(line_addr);
    if (w1 >= 0) {
        ++l1dHits;
        if (op == MemOp::Read) {
            if constexpr (Rec) {
                rec->kind = StepKind::L1DReadHit;
                rec->l1Way = static_cast<std::int8_t>(w1);
            }
            return act;
        }
        const std::int32_t w2 = l2.lookupWay(line_addr);
        RC_ASSERT(w2 >= 0, "L1D copy without an L2 copy breaks inclusion");
        TagStore::Way &in_l2 = l2.wayAt(line_addr, w2);
        if (in_l2.state == PrivState::M) {
            in_l2.dirty = true;
            if constexpr (Rec) {
                rec->kind = StepKind::L1DWriteHitM;
                rec->l1Way = static_cast<std::int8_t>(w1);
                rec->l2Way = static_cast<std::int8_t>(w2);
            }
            return act;
        }
        // Write permission missing: upgrade at the SLLC.
        ++upgrades;
        act.latency += cfg.l2Latency;
        act.needLlc = true;
        act.event = ProtoEvent::UPG;
        if constexpr (Rec) {
            rec->kind = StepKind::L1DWriteHitUpg;
            rec->l1Way = static_cast<std::int8_t>(w1);
            rec->l2Way = static_cast<std::int8_t>(w2);
        }
        return act;
    }
    ++l1dMisses;
    act.latency += cfg.l2Latency;

    const std::int32_t w2 = l2.lookupWay(line_addr);
    if (w2 >= 0) {
        TagStore::Way &in_l2 = l2.wayAt(line_addr, w2);
        if (op == MemOp::Read) {
            ++l2Hits;
            const PrivState st = in_l2.state;
            std::uint32_t fw = 0;
            l1d.fill(line_addr, st, Rec ? &fw : nullptr);
            if constexpr (Rec) {
                rec->kind = StepKind::L2ReadHit;
                rec->l1Way = static_cast<std::int8_t>(fw);
                rec->l2Way = static_cast<std::int8_t>(w2);
                rec->flags = static_cast<std::uint8_t>(
                    rec->flags | (static_cast<std::uint8_t>(st)
                                  << PackedStep::kFillStateShift));
            }
            return act;
        }
        if (in_l2.state == PrivState::M) {
            ++l2Hits;
            in_l2.dirty = true;
            std::uint32_t fw = 0;
            l1d.fill(line_addr, PrivState::M, Rec ? &fw : nullptr);
            if constexpr (Rec) {
                rec->kind = StepKind::L2WriteHitM;
                rec->l1Way = static_cast<std::int8_t>(fw);
                rec->l2Way = static_cast<std::int8_t>(w2);
            }
            return act;
        }
        ++l2Hits;
        ++upgrades;
        act.needLlc = true;
        act.event = ProtoEvent::UPG;
        if constexpr (Rec) {
            rec->kind = StepKind::L2HitUpg;
            rec->l2Way = static_cast<std::int8_t>(w2);
        }
        return act;
    }
    ++l2Misses;
    act.needLlc = true;
    act.event = op == MemOp::Write ? ProtoEvent::GETX : ProtoEvent::GETS;
    if constexpr (Rec)
        rec->kind = op == MemOp::Write ? StepKind::DataMissWrite
                                       : StepKind::DataMissRead;
    return act;
}

PrivateMissAction
PrivateHierarchy::classify(Addr line_addr, MemOp op, bool is_instr)
{
    return classifyImpl<false>(line_addr, op, is_instr, nullptr);
}

PrivateMissAction
PrivateHierarchy::classifyRecord(Addr line_addr, MemOp op, bool is_instr,
                                 PackedStep &rec)
{
    return classifyImpl<true>(line_addr, op, is_instr, &rec);
}

template <bool Rec>
bool
PrivateHierarchy::fillImpl(Addr line_addr, bool is_instr, bool writable,
                           Addr &evict_line, bool &evict_dirty,
                           PackedStep *rec)
{
    const PrivState st = writable ? PrivState::M : PrivState::S;
    std::uint32_t l2w = 0;
    TagStore::Eviction ev = l2.fill(line_addr, st, Rec ? &l2w : nullptr);
    if (writable) {
        // The pending write completes right after the fill.
        TagStore::Way *w = l2.lookup(line_addr);
        RC_ASSERT(w, "line vanished during fill");
        w->dirty = true;
    }

    if (ev.valid) {
        // Inclusion within the private hierarchy: an L2 victim may not
        // linger in the L1s.
        l1i.invalidate(ev.lineAddr);
        l1d.invalidate(ev.lineAddr);
    }

    std::uint32_t l1w = 0;
    if (is_instr)
        l1i.fill(line_addr, PrivState::S, Rec ? &l1w : nullptr);
    else
        l1d.fill(line_addr, st, Rec ? &l1w : nullptr);

    if constexpr (Rec) {
        rec->l1Way = static_cast<std::int8_t>(l1w);
        rec->l2Way = static_cast<std::int8_t>(l2w);
        if (ev.valid) {
            rec->flags |= PackedStep::kVictim;
            if (ev.dirty)
                rec->flags |= PackedStep::kVictimDirty;
        }
    }

    evict_line = ev.lineAddr;
    evict_dirty = ev.dirty;
    return ev.valid;
}

bool
PrivateHierarchy::fill(Addr line_addr, bool is_instr, bool writable,
                       Addr &evict_line, bool &evict_dirty)
{
    return fillImpl<false>(line_addr, is_instr, writable, evict_line,
                           evict_dirty, nullptr);
}

bool
PrivateHierarchy::fillRecord(Addr line_addr, bool is_instr, bool writable,
                             Addr &evict_line, bool &evict_dirty,
                             PackedStep &rec)
{
    return fillImpl<true>(line_addr, is_instr, writable, evict_line,
                          evict_dirty, &rec);
}

bool
PrivateHierarchy::fillPrefetch(Addr line_addr, Addr &evict_line,
                               bool &evict_dirty)
{
    if (l2.peek(line_addr))
        return false;
    TagStore::Eviction ev = l2.fill(line_addr, PrivState::S);
    if (ev.valid) {
        l1i.invalidate(ev.lineAddr);
        l1d.invalidate(ev.lineAddr);
    }
    evict_line = ev.lineAddr;
    evict_dirty = ev.dirty;
    return ev.valid;
}

template <bool Rec>
void
PrivateHierarchy::upgradedImpl(Addr line_addr, PackedStep *rec)
{
    const std::int32_t w2 = l2.lookupWay(line_addr);
    RC_ASSERT(w2 >= 0, "upgrade completion for a non-resident line");
    TagStore::Way &w = l2.wayAt(line_addr, w2);
    w.state = PrivState::M;
    w.dirty = true;
    const std::int32_t w1 = l1d.lookupWay(line_addr);
    if (w1 >= 0) {
        l1d.wayAt(line_addr, w1).state = PrivState::M;
        if constexpr (Rec) {
            rec->l1Way = static_cast<std::int8_t>(w1);
            rec->flags |= PackedStep::kUpgL1Hit;
        }
    } else {
        std::uint32_t fw = 0;
        l1d.fill(line_addr, PrivState::M, Rec ? &fw : nullptr);
        if constexpr (Rec)
            rec->l1Way = static_cast<std::int8_t>(fw);
    }
    if constexpr (Rec)
        rec->l2Way = static_cast<std::int8_t>(w2);
}

void
PrivateHierarchy::upgraded(Addr line_addr)
{
    upgradedImpl<false>(line_addr, nullptr);
}

void
PrivateHierarchy::upgradedRecord(Addr line_addr, PackedStep &rec)
{
    upgradedImpl<true>(line_addr, &rec);
}

PrivateMissAction
PrivateHierarchy::actionOf(const PackedStep &rec) const
{
    PrivateMissAction act;
    act.latency = cfg.l1Latency;
    switch (rec.kind) {
    case StepKind::L1IHit:
    case StepKind::L1DReadHit:
    case StepKind::L1DWriteHitM:
        break;
    case StepKind::L1IL2Hit:
    case StepKind::L2ReadHit:
    case StepKind::L2WriteHitM:
        act.latency += cfg.l2Latency;
        break;
    case StepKind::L1DWriteHitUpg:
    case StepKind::L2HitUpg:
        act.latency += cfg.l2Latency;
        act.needLlc = true;
        act.event = ProtoEvent::UPG;
        break;
    case StepKind::InstrMiss:
    case StepKind::DataMissRead:
        act.latency += cfg.l2Latency;
        act.needLlc = true;
        act.event = ProtoEvent::GETS;
        break;
    case StepKind::DataMissWrite:
        act.latency += cfg.l2Latency;
        act.needLlc = true;
        act.event = ProtoEvent::GETX;
        break;
    }
    return act;
}

PrivateMissAction
PrivateHierarchy::applyClassify(const PackedStep &rec)
{
    // Mutations, counter bumps and LRU-clock (++tick) sequences below
    // replicate classifyImpl()'s per-kind paths exactly; touchAt/
    // installAt each advance the store's tick once, just as the
    // lookup/fill they stand in for did.  The miss action is built in
    // the same switch (one dispatch on the record kind, not two) and
    // matches actionOf() case for case.
    const Addr line = rec.line;
    PrivateMissAction act;
    act.latency = cfg.l1Latency;
    switch (rec.kind) {
    case StepKind::L1IHit:
        ++l1iHits;
        l1i.touchAt(line, rec.l1Way);
        break;
    case StepKind::L1IL2Hit:
        ++l1iMisses;
        ++l2Hits;
        l2.touchAt(line, rec.l2Way);
        l1i.installAt(line, rec.l1Way, PrivState::S);
        act.latency += cfg.l2Latency;
        break;
    case StepKind::InstrMiss:
        ++l1iMisses;
        ++l2Misses;
        act.latency += cfg.l2Latency;
        act.needLlc = true;
        act.event = ProtoEvent::GETS;
        break;
    case StepKind::L1DReadHit:
        ++l1dHits;
        l1d.touchAt(line, rec.l1Way);
        break;
    case StepKind::L1DWriteHitM:
        ++l1dHits;
        l1d.touchAt(line, rec.l1Way);
        l2.touchAt(line, rec.l2Way);
        l2.wayAt(line, rec.l2Way).dirty = true;
        break;
    case StepKind::L1DWriteHitUpg:
        ++l1dHits;
        l1d.touchAt(line, rec.l1Way);
        l2.touchAt(line, rec.l2Way);
        ++upgrades;
        act.latency += cfg.l2Latency;
        act.needLlc = true;
        act.event = ProtoEvent::UPG;
        break;
    case StepKind::L2ReadHit:
        ++l1dMisses;
        ++l2Hits;
        l2.touchAt(line, rec.l2Way);
        l1d.installAt(line, rec.l1Way, rec.fillState());
        act.latency += cfg.l2Latency;
        break;
    case StepKind::L2WriteHitM:
        ++l1dMisses;
        ++l2Hits;
        l2.touchAt(line, rec.l2Way);
        l2.wayAt(line, rec.l2Way).dirty = true;
        l1d.installAt(line, rec.l1Way, PrivState::M);
        act.latency += cfg.l2Latency;
        break;
    case StepKind::L2HitUpg:
        ++l1dMisses;
        ++l2Hits;
        ++upgrades;
        l2.touchAt(line, rec.l2Way);
        act.latency += cfg.l2Latency;
        act.needLlc = true;
        act.event = ProtoEvent::UPG;
        break;
    case StepKind::DataMissRead:
        ++l1dMisses;
        ++l2Misses;
        act.latency += cfg.l2Latency;
        act.needLlc = true;
        act.event = ProtoEvent::GETS;
        break;
    case StepKind::DataMissWrite:
        ++l1dMisses;
        ++l2Misses;
        act.latency += cfg.l2Latency;
        act.needLlc = true;
        act.event = ProtoEvent::GETX;
        break;
    }
    return act;
}

bool
PrivateHierarchy::applyFill(const PackedStep &rec, Addr recorded_victim,
                            Addr &evict_line, bool &evict_dirty)
{
    const Addr line = rec.line;
    const bool is_instr = rec.kind == StepKind::InstrMiss;
    const bool writable = rec.kind == StepKind::DataMissWrite;
    const PrivState st = writable ? PrivState::M : PrivState::S;

    // The victim is whatever occupies the recorded way; under the
    // replay-validity contract it must equal the recorded victim.
    TagStore::Eviction ev = l2.occupantAt(line, rec.l2Way);
    RC_ASSERT(ev.valid == rec.hasVictim() &&
                  (!ev.valid || ev.lineAddr == recorded_victim),
              "fan-out fill victim diverged from the recorded victim");
    l2.installAt(line, rec.l2Way, st);
    if (writable) {
        l2.touchAt(line, rec.l2Way);
        l2.wayAt(line, rec.l2Way).dirty = true;
    }
    if (ev.valid) {
        l1i.invalidate(ev.lineAddr);
        l1d.invalidate(ev.lineAddr);
    }
    if (is_instr)
        l1i.installAt(line, rec.l1Way, PrivState::S);
    else
        l1d.installAt(line, rec.l1Way, st);

    evict_line = ev.lineAddr;
    evict_dirty = ev.dirty;
    return ev.valid;
}

void
PrivateHierarchy::applyUpgraded(const PackedStep &rec)
{
    const Addr line = rec.line;
    l2.touchAt(line, rec.l2Way);
    TagStore::Way &w2 = l2.wayAt(line, rec.l2Way);
    w2.state = PrivState::M;
    w2.dirty = true;
    if ((rec.flags & PackedStep::kUpgL1Hit) != 0) {
        l1d.touchAt(line, rec.l1Way);
        l1d.wayAt(line, rec.l1Way).state = PrivState::M;
    } else {
        l1d.installAt(line, rec.l1Way, PrivState::M);
    }
}

bool
PrivateHierarchy::invalidate(Addr line_addr)
{
    ++recalls;
    l1i.invalidate(line_addr);
    l1d.invalidate(line_addr);
    TagStore::Eviction ev = l2.invalidate(line_addr);
    if (ev.valid && ev.dirty) {
        ++dirtyRecalls;
        return true;
    }
    return false;
}

bool
PrivateHierarchy::downgrade(Addr line_addr)
{
    TagStore::Way *w = l2.lookup(line_addr);
    if (!w)
        return false;
    const bool was_dirty = w->dirty;
    w->state = PrivState::S;
    w->dirty = false;
    if (TagStore::Way *l1w = l1d.lookup(line_addr)) {
        l1w->state = PrivState::S;
        l1w->dirty = false;
    }
    return was_dirty;
}

bool
PrivateHierarchy::present(Addr line_addr) const
{
    return l2.peek(line_addr) != nullptr;
}

void
PrivateHierarchy::forEachL2Resident(
    const std::function<void(Addr, const TagStore::Way &)> &fn) const
{
    l2.forEachResident(fn);
}

void
PrivateHierarchy::forEachL1Resident(
    const std::function<void(Addr, const TagStore::Way &, bool)> &fn) const
{
    l1i.forEachResident(
        [&](Addr line, const TagStore::Way &w) { fn(line, w, true); });
    l1d.forEachResident(
        [&](Addr line, const TagStore::Way &w) { fn(line, w, false); });
}

PrivState
PrivateHierarchy::state(Addr line_addr) const
{
    const TagStore::Way *w = l2.peek(line_addr);
    return w ? w->state : PrivState::I;
}

void
TagStore::save(Serializer &s) const
{
    // Same image as the original AoS layout: interleaved per-way
    // (tag, state, dirty) records, then the valid lane, then the LRU
    // state in the "repl" section exactly as LruPolicy::save framed it.
    s.putU64(payload.size());
    for (std::uint64_t i = 0; i < payload.size(); ++i) {
        // Invalid ways serialize a zero tag, exactly the bytes the AoS
        // layout wrote (the in-memory sentinel is a scan-time detail).
        s.putU64(valid[i] ? tags[i] : 0);
        s.putU8(static_cast<std::uint8_t>(payload[i].state));
        s.putBool(payload[i].dirty);
    }
    saveVec(s, valid);
    s.beginSection("repl");
    s.putU64(tick);
    saveVec(s, stamp);
    s.endSection();
}

void
TagStore::restore(Deserializer &d)
{
    const std::uint64_t count = d.getU64();
    if (count != payload.size())
        throwSimError(SimError::Kind::Snapshot,
                      "tag store holds %zu ways but the checkpoint "
                      "carries %llu", payload.size(),
                      static_cast<unsigned long long>(count));
    for (std::uint64_t i = 0; i < payload.size(); ++i) {
        tags[i] = d.getU64();
        payload[i].state = static_cast<PrivState>(d.getU8());
        payload[i].dirty = d.getBool();
    }
    restoreVec(d, valid, "tag-store valid bits");
    for (std::uint64_t i = 0; i < payload.size(); ++i) {
        if (!valid[i])
            tags[i] = invalidTag;
    }
    d.beginSection("repl");
    tick = d.getU64();
    restoreVec(d, stamp, "LRU stamps");
    d.endSection();
}

void
PrivateHierarchy::save(Serializer &s) const
{
    s.beginSection("l1i");
    l1i.save(s);
    s.endSection();
    s.beginSection("l1d");
    l1d.save(s);
    s.endSection();
    s.beginSection("l2");
    l2.save(s);
    s.endSection();
    statSet.save(s);
}

void
PrivateHierarchy::restore(Deserializer &d)
{
    d.beginSection("l1i");
    l1i.restore(d);
    d.endSection();
    d.beginSection("l1d");
    l1d.restore(d);
    d.endSection();
    d.beginSection("l2");
    l2.restore(d);
    d.endSection();
    statSet.restore(d);
}

} // namespace rc
