#include "service/run_request.hh"

#include "common/log.hh"
#include "sim/feed_cache.hh"
#include "snapshot/serializer.hh"

namespace rc::svc
{

namespace
{

/**
 * The canonical field walk, shared verbatim by the canonical encoding
 * and the wire codec so the two can never drift apart.  Every field of
 * every sub-config is enumerated explicitly; adding a field to a config
 * struct without extending this walk is caught by the round-trip test's
 * exhaustive field diff.
 */
void
putConfig(Serializer &s, const SystemConfig &c)
{
    s.beginSection("cfg");
    // The front-end prefix (cores, private hierarchy, prefetcher) is
    // factored out so the feed cache's key derivation and this
    // canonical encoding can never drift; it writes the exact same
    // head bytes this walk always has.
    putFrontEndConfig(s, c);
    s.putU32(c.xbar.numBanks);
    s.putU64(c.xbar.linkLatency);
    s.putU64(c.xbar.bankOccupancy);
    s.putU32(c.xbar.mshrPerBank);
    s.putU32(c.memory.numChannels);
    s.putU32(c.memory.dram.numBanks);
    s.putU32(c.memory.dram.pageBytes);
    s.putU64(c.memory.dram.rowMissLatency);
    s.putU64(c.memory.dram.rowHitLatency);
    s.putU64(c.memory.dram.rowConflictExtra);
    s.putU64(c.memory.dram.busCyclesPerLine);
    s.putU64(c.memory.dram.bankOccupancy);
    s.putU8(static_cast<std::uint8_t>(c.llcKind));
    s.putU64(c.conv.capacityBytes);
    s.putU32(c.conv.ways);
    s.putU8(static_cast<std::uint8_t>(c.conv.repl));
    s.putU32(c.conv.numCores);
    s.putU64(c.conv.tagLatency);
    s.putU64(c.conv.dataLatency);
    s.putU64(c.conv.interventionLatency);
    s.putU64(c.conv.seed);
    s.putString(c.conv.name);
    s.putU64(c.reuse.tagEquivBytes);
    s.putU32(c.reuse.tagWays);
    s.putU64(c.reuse.dataBytes);
    s.putU32(c.reuse.dataWays);
    s.putU8(static_cast<std::uint8_t>(c.reuse.tagRepl));
    s.putU8(static_cast<std::uint8_t>(c.reuse.dataRepl));
    s.putU32(c.reuse.numCores);
    s.putU64(c.reuse.tagLatency);
    s.putU64(c.reuse.dataLatency);
    s.putU64(c.reuse.interventionLatency);
    s.putU64(c.reuse.seed);
    s.putString(c.reuse.name);
    s.putBool(c.reuse.usePredictor);
    s.putU32(c.reuse.predictorEntries);
    s.putU64(c.ncid.tagEquivBytes);
    s.putU32(c.ncid.tagWays);
    s.putU64(c.ncid.dataBytes);
    s.putU32(c.ncid.numCores);
    s.putU64(c.ncid.tagLatency);
    s.putU64(c.ncid.dataLatency);
    s.putU64(c.ncid.interventionLatency);
    s.putDouble(c.ncid.selectiveFillRate);
    s.putU64(c.ncid.seed);
    s.putString(c.ncid.name);
    s.putU64(c.seed);
    s.putU32(c.capacityScale);
    s.endSection("cfg");
}

SystemConfig
getConfig(Deserializer &d)
{
    SystemConfig c;
    d.beginSection("cfg");
    c.numCores = d.getU32();
    c.priv.l1Bytes = d.getU64();
    c.priv.l1Ways = d.getU32();
    c.priv.l1Latency = d.getU64();
    c.priv.l2Bytes = d.getU64();
    c.priv.l2Ways = d.getU32();
    c.priv.l2Latency = d.getU64();
    c.prefetch.enable = d.getBool();
    c.prefetch.degree = d.getU32();
    c.prefetch.tableEntries = d.getU32();
    c.prefetch.regionShift = d.getU32();
    c.prefetch.minConfidence = d.getU32();
    c.xbar.numBanks = d.getU32();
    c.xbar.linkLatency = d.getU64();
    c.xbar.bankOccupancy = d.getU64();
    c.xbar.mshrPerBank = d.getU32();
    c.memory.numChannels = d.getU32();
    c.memory.dram.numBanks = d.getU32();
    c.memory.dram.pageBytes = d.getU32();
    c.memory.dram.rowMissLatency = d.getU64();
    c.memory.dram.rowHitLatency = d.getU64();
    c.memory.dram.rowConflictExtra = d.getU64();
    c.memory.dram.busCyclesPerLine = d.getU64();
    c.memory.dram.bankOccupancy = d.getU64();
    const std::uint8_t kind = d.getU8();
    if (kind > static_cast<std::uint8_t>(LlcKind::Ncid))
        throwSimError(SimError::Kind::Protocol,
                      "request carries unknown LLC kind %u", kind);
    c.llcKind = static_cast<LlcKind>(kind);
    c.conv.capacityBytes = d.getU64();
    c.conv.ways = d.getU32();
    c.conv.repl = static_cast<ReplKind>(d.getU8());
    c.conv.numCores = d.getU32();
    c.conv.tagLatency = d.getU64();
    c.conv.dataLatency = d.getU64();
    c.conv.interventionLatency = d.getU64();
    c.conv.seed = d.getU64();
    c.conv.name = d.getString();
    c.reuse.tagEquivBytes = d.getU64();
    c.reuse.tagWays = d.getU32();
    c.reuse.dataBytes = d.getU64();
    c.reuse.dataWays = d.getU32();
    c.reuse.tagRepl = static_cast<ReplKind>(d.getU8());
    c.reuse.dataRepl = static_cast<ReplKind>(d.getU8());
    c.reuse.numCores = d.getU32();
    c.reuse.tagLatency = d.getU64();
    c.reuse.dataLatency = d.getU64();
    c.reuse.interventionLatency = d.getU64();
    c.reuse.seed = d.getU64();
    c.reuse.name = d.getString();
    c.reuse.usePredictor = d.getBool();
    c.reuse.predictorEntries = d.getU32();
    c.ncid.tagEquivBytes = d.getU64();
    c.ncid.tagWays = d.getU32();
    c.ncid.dataBytes = d.getU64();
    c.ncid.numCores = d.getU32();
    c.ncid.tagLatency = d.getU64();
    c.ncid.dataLatency = d.getU64();
    c.ncid.interventionLatency = d.getU64();
    c.ncid.selectiveFillRate = d.getDouble();
    c.ncid.seed = d.getU64();
    c.ncid.name = d.getString();
    c.seed = d.getU64();
    c.capacityScale = d.getU32();
    d.endSection("cfg");
    return c;
}

void
putCanonical(Serializer &s, const RunRequest &req)
{
    putConfig(s, req.config);
    putRunInputs(s, req.mix, req.seed, req.scale, req.warmup, req.measure);
}

} // namespace

std::vector<std::uint8_t>
canonicalBytes(const RunRequest &req)
{
    Serializer s;
    putCanonical(s, req);
    return s.payload();
}

std::uint64_t
requestDigest(const RunRequest &req)
{
    return fnv1a64(canonicalBytes(req));
}

void
encodeRequest(Serializer &s, const RunRequest &req)
{
    s.beginSection("runreq");
    putCanonical(s, req);
    s.beginSection("meta");
    s.putU64(req.deadlineMs);
    s.endSection("meta");
    s.endSection("runreq");
}

RunRequest
decodeRequest(Deserializer &d)
{
    RunRequest req;
    d.beginSection("runreq");
    req.config = getConfig(d);
    d.beginSection("mix");
    const std::uint64_t apps = d.getU64();
    if (apps > 1024)
        throwSimError(SimError::Kind::Protocol,
                      "request mix claims %llu applications",
                      static_cast<unsigned long long>(apps));
    req.mix.apps.resize(static_cast<std::size_t>(apps));
    for (std::string &app : req.mix.apps)
        app = d.getString();
    d.endSection("mix");
    d.beginSection("opt");
    req.seed = d.getU64();
    req.scale = d.getU32();
    req.warmup = d.getU64();
    req.measure = d.getU64();
    d.endSection("opt");
    d.beginSection("meta");
    req.deadlineMs = d.getU64();
    d.endSection("meta");
    d.endSection("runreq");
    if (req.scale == 0 || req.measure == 0)
        throwSimError(SimError::Kind::Protocol,
                      "request carries a zero scale or measure window");
    return req;
}

} // namespace rc::svc
