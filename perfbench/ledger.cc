#include "ledger.hh"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>

#include <unordered_set>

#include <sys/stat.h>

#include "arena/arena_registry.hh"
#include "cache/conventional_llc.hh"
#include "cache/private_cache.hh"
#include "mem/dram.hh"
#include "mem/memctrl.hh"
#include "ncid/ncid_cache.hh"
#include "reuse/reuse_cache.hh"
#include "service/frame.hh"
#include "service/result_cache.hh"
#include "service/run_request.hh"
#include "sim/cmp.hh"
#include "sim/fanout.hh"
#include "sim/feed_cache.hh"
#include "snapshot/journal.hh"
#include "snapshot/serializer.hh"

namespace perfbench
{

namespace
{

using rc::Addr;
using rc::Cycle;
using rc::SystemConfig;

/** One LLC-bound front-end record, in SLLC-request form. */
struct LlcEvent
{
    Cycle now = 0;        //!< private-side ready time (no SLLC latency)
    Addr line = 0;
    Addr pc = 0;
    Addr victim = 0;      //!< L2 fill victim, when hasVictim
    rc::CoreId core = 0;
    rc::ProtoEvent event = rc::ProtoEvent::GETS;
    bool hasVictim = false;
    bool victimDirty = false;
};

/** The front end's output for one mix, plus its timing. */
struct FrontEnd
{
    std::uint64_t refs = 0;
    double generateSeconds = 0.0; //!< buildMixStreams + RefStream::next
    double frontSeconds = 0.0;    //!< FanoutFeed::record pulls
    std::vector<LlcEvent> events; //!< time-ordered LLC-bound records
};

/** Recall handler of the timed SLLC replays: there are no private
 *  caches behind them, so every recall and downgrade finds clean
 *  lines. */
class NoPrivateCaches : public rc::RecallHandler
{
  public:
    bool recall(Addr, std::uint32_t) override { return false; }
    bool downgrade(Addr, std::uint32_t) override { return false; }
};

/**
 * Recall handler of the untimed first pass: remembers which (line,
 * core) copies the SLLC recalled or downgraded.  The front end's
 * private hierarchies never see those (they have no SLLC behind them),
 * so the records that follow must be corrected before an SLLC accepts
 * them; see sanitize().
 */
class PrivateCopies : public rc::RecallHandler
{
  public:
    static std::uint64_t key(Addr line, rc::CoreId core)
    {
        return line * 64 + core;
    }

    bool recall(Addr line, std::uint32_t mask) override
    {
        for (rc::CoreId c = 0; c < 32; ++c) {
            if (mask & (1u << c)) {
                recalled.insert(key(line, c));
                downgraded.erase(key(line, c));
            }
        }
        return false;
    }

    bool downgrade(Addr line, std::uint32_t mask) override
    {
        for (rc::CoreId c = 0; c < 32; ++c) {
            if (mask & (1u << c))
                downgraded.insert(key(line, c));
        }
        return false;
    }

    std::unordered_set<std::uint64_t> recalled;
    std::unordered_set<std::uint64_t> downgraded;
};

/** One SLLC fed the LLC-bound records of one mix. */
struct LlcReplay
{
    double seconds = 0.0;
    std::uint64_t requests = 0;
    std::uint64_t dataHits = 0;
    std::uint64_t tagOnly = 0;      //!< tag hit whose data was absent
    std::uint64_t memAccesses = 0;  //!< DRAM reads + writes it caused
    std::uint64_t rowHits = 0;
    std::vector<std::pair<Cycle, Addr>> memReads; //!< when kept
};

rc::StreamFactory
streamsOf(const rc::Mix &mix, std::uint64_t seed, std::uint32_t scale)
{
    return [mix, seed, scale] {
        return rc::buildMixStreams(mix, seed, scale);
    };
}

std::unique_ptr<rc::Sllc>
makeSllc(const SystemConfig &cfg, rc::MemCtrl &mem)
{
    switch (cfg.llcKind) {
      case rc::LlcKind::Conventional:
        return std::make_unique<rc::ConventionalLlc>(cfg.conv, mem);
      case rc::LlcKind::Reuse:
        return std::make_unique<rc::ReuseCache>(cfg.reuse, mem);
      case rc::LlcKind::Ncid:
        return std::make_unique<rc::NcidCache>(cfg.ncid, mem);
    }
    return nullptr;
}

/** Watchdog wiring a CLI run gets: a heartbeat and an abort flag. */
struct CliWatch
{
    std::atomic<std::uint64_t> beat{0};
    std::atomic<bool> abort{false};

    void wire(rc::Cmp &cmp)
    {
        cmp.setProgressCounter(&beat);
        cmp.setAbortFlag(&abort);
    }
};

/** Generate @p refs[c] references per core, then classify the same
 *  references through a FanoutFeed, keeping the LLC-bound ones. */
FrontEnd
replayFrontEnd(const LedgerInput &in, const rc::Mix &mix,
               const std::vector<std::uint64_t> &refs, SpanLog &spans)
{
    FrontEnd fe;
    const SystemConfig &cfg = in.configs.front().cfg;
    {
        ScopedSpan span(spans, "workloads.generate");
        const auto t0 = Clock::now();
        auto streams = rc::buildMixStreams(mix, in.seed, in.scale);
        std::uint64_t sink = 0;
        for (std::size_t c = 0; c < streams.size(); ++c) {
            for (std::uint64_t i = 0; i < refs[c]; ++i)
                sink += streams[c]->next().addr;
        }
        fe.generateSeconds = secondsBetween(t0, Clock::now());
        // A volatile store keeps the generation loop from being elided.
        [[maybe_unused]] static volatile std::uint64_t observed;
        observed = sink;
    }
    ScopedSpan span(spans, "sim.frontend");
    rc::PrivateHierarchy mapper(cfg.priv, 0, "ledger");
    const auto t0 = Clock::now();
    rc::FanoutFeed feed(cfg.priv, streamsOf(mix, in.seed, in.scale));
    constexpr std::uint64_t kTrimEvery = 1u << 14;
    for (rc::CoreId c = 0; c < feed.numCores(); ++c) {
        for (std::uint64_t i = 0; i < refs[c]; ++i) {
            const rc::StepRecord &rec = feed.record(c, i);
            const rc::PrivateMissAction act = mapper.actionOf(rec);
            if (act.needLlc) {
                LlcEvent e;
                e.now = feed.cumAIncl(c, i);
                e.line = rec.line;
                e.pc = rec.pc;
                e.core = c;
                e.event = act.event;
                e.hasVictim = rec.hasVictim();
                e.victim = rec.victimLine;
                e.victimDirty = e.hasVictim && rec.victimDirty();
                fe.events.push_back(e);
            }
            if ((i + 1) % kTrimEvery == 0)
                feed.trim(c, i + 1);
        }
        fe.refs += refs[c];
    }
    fe.frontSeconds = secondsBetween(t0, Clock::now());
    std::stable_sort(fe.events.begin(), fe.events.end(),
                     [](const LlcEvent &a, const LlcEvent &b) {
                         return a.now < b.now;
                     });
    return fe;
}

/**
 * The records one SLLC of @p cfg accepts: replayed once (untimed) with
 * a PrivateCopies handler, an upgrade of a copy the SLLC recalled
 * becomes a GETX (the private access would have missed), the eviction
 * of a recalled copy is dropped, and that of a downgraded copy is
 * clean.  The SLLC is deterministic, so the timed replay of the result
 * sees the same recalls.
 */
std::vector<LlcEvent>
sanitize(const SystemConfig &cfg, const std::vector<LlcEvent> &events)
{
    rc::MemCtrl mem(cfg.memory);
    std::unique_ptr<rc::Sllc> llc = makeSllc(cfg, mem);
    PrivateCopies copies;
    llc->setRecallHandler(&copies);
    std::vector<LlcEvent> out;
    out.reserve(events.size());
    for (LlcEvent e : events) {
        const std::uint64_t k = PrivateCopies::key(e.line, e.core);
        if (copies.recalled.erase(k) && e.event == rc::ProtoEvent::UPG)
            e.event = rc::ProtoEvent::GETX;
        copies.downgraded.erase(k);
        rc::LlcRequest req{e.line, e.core, e.event, e.now};
        req.pc = e.pc;
        llc->request(req);
        if (e.hasVictim) {
            const std::uint64_t v = PrivateCopies::key(e.victim, e.core);
            if (copies.recalled.erase(v))
                e.hasVictim = false;
            else if (copies.downgraded.erase(v))
                e.victimDirty = false;
            if (e.hasVictim)
                llc->evictNotify(e.victim, e.core, e.victimDirty, e.now);
        }
        out.push_back(e);
    }
    return out;
}

/** Timed replay of @p events, sanitized for @p cfg, into a fresh SLLC. */
LlcReplay
replayLlc(const SystemConfig &cfg, const std::vector<LlcEvent> &raw,
          bool keep_reads)
{
    const std::vector<LlcEvent> events = sanitize(cfg, raw);
    LlcReplay r;
    rc::MemCtrl mem(cfg.memory);
    std::unique_ptr<rc::Sllc> llc = makeSllc(cfg, mem);
    NoPrivateCaches stub;
    llc->setRecallHandler(&stub);
    const auto t0 = Clock::now();
    for (const LlcEvent &e : events) {
        rc::LlcRequest req{e.line, e.core, e.event, e.now};
        req.pc = e.pc;
        const rc::LlcResponse resp = llc->request(req);
        r.dataHits += resp.dataHit ? 1 : 0;
        r.tagOnly += resp.tagHit && !resp.dataHit ? 1 : 0;
        if (keep_reads && resp.memFetched)
            r.memReads.emplace_back(e.now, e.line);
        if (e.hasVictim)
            llc->evictNotify(e.victim, e.core, e.victimDirty, e.now);
    }
    r.seconds = secondsBetween(t0, Clock::now());
    r.requests = events.size();
    for (const auto &ch : mem.channels()) {
        const rc::StatSet &st = ch->stats();
        r.memAccesses += st.ref("reads") + st.ref("writes");
        r.rowHits += st.ref("rowHits");
    }
    return r;
}

/** A reference config per SLLC organization the workload lacks, so
 *  every organization is timed on every workload's records. */
std::vector<NamedConfig>
ledgerConfigs(const LedgerInput &in)
{
    std::vector<NamedConfig> out = in.configs;
    auto has = [&out](rc::LlcKind k) {
        return std::any_of(out.begin(), out.end(),
                           [k](const NamedConfig &n) {
                               return n.cfg.llcKind == k;
                           });
    };
    if (!has(rc::LlcKind::Conventional))
        out.push_back({"conv8-lru", rc::conventionalSystem(
                                        8.0, rc::ReplKind::LRU, in.scale)});
    if (!has(rc::LlcKind::Reuse))
        out.push_back({"rc4-1", rc::reuseSystem(4.0, 1.0, 16, in.scale)});
    if (!has(rc::LlcKind::Ncid))
        out.push_back({"ncid8-1", rc::ncidSystem(8.0, 1.0, in.scale)});
    return out;
}

double
fileMb(const std::string &path)
{
    struct stat st;
    return ::stat(path.c_str(), &st) == 0
               ? static_cast<double>(st.st_size) / 1e6
               : 0.0;
}

} // namespace

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

void
replayLayers(const LedgerInput &in, SpanLog &spans, Ledger &out)
{
    ::mkdir(in.scratchDir.c_str(), 0755);
    std::vector<SystemConfig> cfgs;
    for (const NamedConfig &n : in.configs) {
        cfgs.push_back(n.cfg);
        cfgs.back().seed = in.seed;
    }

    // sim (fan-out): the workload's configs through one FanoutCmp per
    // mix, with the CLI's watchdog wiring on every member.  Its feed
    // also tells how many records each core consumed, which sizes the
    // front-end replay below.
    std::vector<std::vector<std::uint64_t>> coreRefs;
    double fanSeconds = 0.0;
    std::uint64_t memberRefs = 0, replays = 0, fallbacks = 0;
    for (const rc::Mix &mix : in.mixes) {
        ScopedSpan span(spans, "sim.fanout");
        rc::FanoutCmp fan(cfgs, streamsOf(mix, in.seed, in.scale));
        std::vector<std::unique_ptr<CliWatch>> watch;
        for (std::size_t j = 0; j < fan.size(); ++j) {
            watch.push_back(std::make_unique<CliWatch>());
            watch.back()->wire(fan.member(j));
        }
        const auto t0 = Clock::now();
        fan.run(in.warmup);
        fan.beginMeasurement();
        fan.run(in.measure);
        fanSeconds += secondsBetween(t0, Clock::now());
        std::vector<std::uint64_t> per;
        for (rc::CoreId c = 0; c < fan.sharedFeed().numCores(); ++c)
            per.push_back(fan.sharedFeed().generatedCount(c));
        coreRefs.push_back(per);
        for (std::size_t j = 0; j < fan.size(); ++j) {
            memberRefs += fan.member(j).referencesProcessed();
            replays += fan.member(j).feedReplays();
            fallbacks += fan.member(j).feedFallbacks();
        }
    }
    out["sim.fanout.ns_per_member_ref"] =
        memberRefs ? fanSeconds * 1e9 / static_cast<double>(memberRefs) : 0;
    out["sim.fanout.replays"] = static_cast<double>(replays);
    out["sim.fanout.fallbacks"] = static_cast<double>(fallbacks);
    out["sim.fanout.replay_frac"] =
        replays + fallbacks
            ? static_cast<double>(replays) /
                  static_cast<double>(replays + fallbacks)
            : 0.0;

    // workloads + cache (private): the same references generated alone,
    // then classified through a stand-alone front end.
    const std::vector<NamedConfig> llcCfgs = ledgerConfigs(in);
    std::uint64_t refs = 0, llcBound = 0;
    double genSeconds = 0.0, frontSeconds = 0.0;
    struct KindTotals
    {
        double seconds = 0.0;
        std::uint64_t requests = 0, dataHits = 0, tagOnly = 0;
    };
    std::map<rc::LlcKind, KindTotals> kinds;
    std::vector<double> arenaNs;
    std::map<std::string, std::pair<double, std::uint64_t>> arenaByPolicy;
    double memSeconds = 0.0;
    std::uint64_t memReplayed = 0, memAccesses = 0, memRowHits = 0;
    for (std::size_t m = 0; m < in.mixes.size(); ++m) {
        const FrontEnd fe =
            replayFrontEnd(in, in.mixes[m], coreRefs[m], spans);
        refs += fe.refs;
        llcBound += fe.events.size();
        genSeconds += fe.generateSeconds;
        frontSeconds += fe.frontSeconds;

        // cache (conv), reuse, ncid: every SLLC of the workload fed the
        // front end's LLC-bound records through a stub RecallHandler.
        for (std::size_t k = 0; k < llcCfgs.size(); ++k) {
            const SystemConfig &cfg = llcCfgs[k].cfg;
            const char *name =
                cfg.llcKind == rc::LlcKind::Conventional ? "cache.conv"
                : cfg.llcKind == rc::LlcKind::Reuse      ? "reuse.request"
                                                         : "ncid.request";
            ScopedSpan span(spans, name);
            const bool isBase = k == 0;
            const LlcReplay r = replayLlc(cfg, fe.events, isBase);
            KindTotals &t = kinds[cfg.llcKind];
            t.seconds += r.seconds;
            t.requests += r.requests;
            t.dataHits += r.dataHits;
            t.tagOnly += r.tagOnly;
            if (isBase) {
                // mem: the first config's DRAM traffic, replayed into a
                // fresh memory controller; its StatSet gives the counts.
                memAccesses += r.memAccesses;
                memRowHits += r.rowHits;
                ScopedSpan mspan(spans, "mem.readLine");
                rc::MemCtrl mem(cfg.memory);
                const auto t0 = Clock::now();
                for (const auto &[when, line] : r.memReads)
                    mem.readLine(line, when);
                memSeconds += secondsBetween(t0, Clock::now());
                memReplayed += r.memReads.size();
            }
        }

        // arena: conv-8MB under every tournament policy.
        for (const rc::arena::PolicyInfo &info :
             rc::arena::policyRegistry()) {
            if (!info.inTournament)
                continue;
            ScopedSpan span(spans, "arena.request");
            const LlcReplay r = replayLlc(
                rc::conventionalSystem(8.0, info.kind, in.scale), fe.events,
                false);
            auto &acc = arenaByPolicy[info.name];
            acc.first += r.seconds;
            acc.second += r.requests;
        }
    }
    for (const auto &[name, acc] : arenaByPolicy)
        arenaNs.push_back(acc.second ? acc.first * 1e9 /
                                           static_cast<double>(acc.second)
                                     : 0.0);
    const double r = static_cast<double>(refs);
    out["workloads.refs"] = r;
    out["workloads.ns_per_ref"] = refs ? genSeconds * 1e9 / r : 0.0;
    out["sim.frontend.ns_per_ref"] = refs ? frontSeconds * 1e9 / r : 0.0;
    out["cache.private.ns_per_ref"] =
        refs ? std::max(0.0, frontSeconds - genSeconds) * 1e9 / r : 0.0;
    out["cache.private.llc_bound"] = static_cast<double>(llcBound);
    out["cache.private.llc_bound_frac"] =
        refs ? static_cast<double>(llcBound) / r : 0.0;
    auto perReq = [](const KindTotals &t) {
        return t.requests ? t.seconds * 1e9 /
                                static_cast<double>(t.requests)
                          : 0.0;
    };
    auto frac = [](std::uint64_t a, std::uint64_t b) {
        return b ? static_cast<double>(a) / static_cast<double>(b) : 0.0;
    };
    const KindTotals &conv = kinds[rc::LlcKind::Conventional];
    const KindTotals &reuse = kinds[rc::LlcKind::Reuse];
    const KindTotals &ncid = kinds[rc::LlcKind::Ncid];
    out["cache.conv.ns_per_req"] = perReq(conv);
    out["cache.conv.reqs"] = static_cast<double>(conv.requests);
    out["cache.conv.hit_frac"] = frac(conv.dataHits, conv.requests);
    out["reuse.ns_per_req"] = perReq(reuse);
    out["reuse.reqs"] = static_cast<double>(reuse.requests);
    out["reuse.data_hit_frac"] = frac(reuse.dataHits, reuse.requests);
    out["reuse.tag_only_frac"] = frac(reuse.tagOnly, reuse.requests);
    out["ncid.ns_per_req"] = perReq(ncid);
    out["ncid.reqs"] = static_cast<double>(ncid.requests);
    out["arena.policies"] = static_cast<double>(arenaNs.size());
    out["arena.ns_per_req_p50"] = median(arenaNs);
    out["arena.ns_per_req_max"] =
        arenaNs.empty() ? 0.0
                        : *std::max_element(arenaNs.begin(), arenaNs.end());
    out["mem.ns_per_access"] =
        memReplayed ? memSeconds * 1e9 / static_cast<double>(memReplayed)
                    : 0.0;
    out["mem.accesses"] = static_cast<double>(memAccesses);
    out["mem.row_hit_frac"] = frac(memRowHits, memAccesses);

    // sim (plain) + snapshot: one plain Cmp::run of the first config on
    // the sampled mix, then a save/restore round trip of its state.
    const rc::Mix &mix = in.mixes[in.sampleMix];
    {
        ScopedSpan span(spans, "sim.plain");
        rc::Cmp cmp(cfgs.front(), rc::buildMixStreams(mix, in.seed, in.scale));
        CliWatch watch;
        watch.wire(cmp);
        const auto t0 = Clock::now();
        cmp.run(in.warmup);
        cmp.beginMeasurement();
        cmp.run(in.measure);
        const double secs = secondsBetween(t0, Clock::now());
        out["sim.plain.ns_per_ref"] =
            secs * 1e9 / static_cast<double>(
                             std::max<std::uint64_t>(1,
                                                     cmp.referencesProcessed()));

        ScopedSpan sspan(spans, "snapshot.save");
        const auto s0 = Clock::now();
        rc::Serializer s;
        s.beginSection("cmp");
        cmp.save(s);
        s.endSection("cmp");
        const std::vector<std::uint8_t> image = s.image();
        out["snapshot.save_ms"] = secondsBetween(s0, Clock::now()) * 1e3;
        out["snapshot.ckpt_mb"] = static_cast<double>(image.size()) / 1e6;
        rc::Cmp fresh(cfgs.front(),
                      rc::buildMixStreams(mix, in.seed, in.scale));
        const auto r0 = Clock::now();
        rc::Deserializer d(image);
        d.beginSection("cmp");
        fresh.restore(d);
        d.endSection("cmp");
        out["snapshot.restore_ms"] = secondsBetween(r0, Clock::now()) * 1e3;
    }

    // snapshot (journal): fsync'd SweepJournal appends.
    {
        ScopedSpan span(spans, "snapshot.journal_append");
        rc::SweepJournal journal(in.scratchDir + "/journal");
        std::vector<double> ms;
        for (std::size_t i = 0; i < 16; ++i) {
            rc::JournalRecord rec;
            rec.batch = 0;
            rec.run = i;
            rec.status = "ok";
            rec.digest = static_cast<std::uint32_t>(i);
            rec.wallSeconds = 1.0;
            const auto t0 = Clock::now();
            journal.append(rec);
            ms.push_back(secondsBetween(t0, Clock::now()) * 1e3);
        }
        out["snapshot.journal_append_ms"] = median(ms);
    }

    // sim (feed): capture the sampled mix's front end with the first
    // config, store it, look it up again (FeedBlob::open inside).
    {
        ScopedSpan span(spans, "sim.feed");
        rc::FeedCache fc(in.scratchDir + "/feeds");
        const rc::FeedKey key =
            rc::feedKeyOf(cfgs.front(), mix, in.seed, in.scale, in.warmup,
                          in.measure);
        const bool cold = fc.lookup(key) == nullptr;
        const auto c0 = Clock::now();
        rc::FanoutCmp fan({cfgs.front()}, streamsOf(mix, in.seed, in.scale),
                          nullptr, true);
        fan.run(in.warmup);
        fan.beginMeasurement();
        fan.run(in.measure);
        out["sim.feed.capture_s"] = secondsBetween(c0, Clock::now());
        std::uint64_t captured = 0;
        for (rc::CoreId c = 0; c < fan.sharedFeed().numCores(); ++c)
            captured += fan.sharedFeed().generatedCount(c);
        const auto s0 = Clock::now();
        fc.store(key, fan.sharedFeed());
        out["sim.feed.store_s"] = secondsBetween(s0, Clock::now());
        const std::string blob = fc.blobPath(key.digest);
        const double mb = fileMb(blob);
        out["sim.feed.blob_mb"] = mb;
        out["sim.feed.bytes_per_ref"] =
            captured ? mb * 1e6 / static_cast<double>(captured) : 0.0;
        const auto l0 = Clock::now();
        const bool warm = fc.lookup(key) != nullptr;
        out["sim.feed.lookup_ms"] = secondsBetween(l0, Clock::now()) * 1e3;
        out["sim.feed.hits"] = static_cast<double>(fc.stats().hits);
        out["sim.feed.misses"] = static_cast<double>(fc.stats().misses);
        if (!cold || !warm)
            std::fprintf(stderr, "perfbench: feed replay saw cold=%d "
                         "warm=%d\n", cold, warm);
        std::remove(blob.c_str());
    }
}

std::vector<rc::svc::RunRequest>
requestsOf(const LedgerInput &in)
{
    std::vector<rc::svc::RunRequest> reqs;
    for (const NamedConfig &n : in.configs) {
        for (const rc::Mix &mix : in.mixes) {
            rc::svc::RunRequest req;
            req.config = n.cfg;
            req.mix = mix;
            req.seed = in.seed;
            req.scale = in.scale;
            req.warmup = in.warmup;
            req.measure = in.measure;
            reqs.push_back(req);
        }
    }
    return reqs;
}

void
replayServiceCodec(const LedgerInput &in,
                   const std::vector<rc::RunResult> &results,
                   SpanLog &spans, Ledger &out)
{
    ScopedSpan span(spans, "service.codec");
    ::mkdir(in.scratchDir.c_str(), 0755);
    const std::vector<rc::svc::RunRequest> reqs = requestsOf(in);
    std::vector<double> digestUs, frameUs, storeMs, lookupUs;
    rc::svc::ResultCache cache(in.scratchDir + "/results");
    for (std::size_t i = 0; i < reqs.size(); ++i) {
        const auto d0 = Clock::now();
        const std::vector<std::uint8_t> key =
            rc::svc::canonicalBytes(reqs[i]);
        const std::uint64_t digest = rc::svc::requestDigest(reqs[i]);
        digestUs.push_back(secondsBetween(d0, Clock::now()) * 1e6);

        rc::Serializer s;
        rc::svc::encodeRequest(s, reqs[i]);
        const std::vector<std::uint8_t> payload = s.image();
        const auto f0 = Clock::now();
        const std::vector<std::uint8_t> bytes =
            rc::svc::encodeFrame(rc::svc::MsgType::SimRequest, payload);
        const rc::svc::Frame back = rc::svc::decodeFrame(bytes);
        frameUs.push_back(secondsBetween(f0, Clock::now()) * 1e6);
        if (back.payload.size() != payload.size() || key.empty() ||
            digest == 0)
            std::fprintf(stderr, "perfbench: codec replay mismatch\n");

        const rc::RunResult &res = results[i % results.size()];
        const auto s0 = Clock::now();
        cache.store(reqs[i], res);
        storeMs.push_back(secondsBetween(s0, Clock::now()) * 1e3);
        rc::RunResult got;
        const auto l0 = Clock::now();
        const bool hit = cache.lookup(reqs[i], got);
        lookupUs.push_back(secondsBetween(l0, Clock::now()) * 1e6);
        if (!hit || !rc::runResultsEqual(got, res))
            std::fprintf(stderr, "perfbench: result-cache replay miss\n");
    }
    out["service.digest_us"] = median(digestUs);
    out["service.frame_us"] = median(frameUs);
    out["service.cache_store_ms"] = median(storeMs);
    out["service.cache_lookup_us"] = median(lookupUs);
}

} // namespace perfbench
