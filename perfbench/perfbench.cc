/**
 * @file
 * One repetition of one benchmark workload, in its own process.
 *
 *   perfbench --workload=NAME --seed=N [--spawn=T] [--trace]
 *             [--spans=PATH] [--smoke] [--setup-only] [--no-spot-check]
 *
 * Runs in a fresh scratch directory (its working directory, deleted by
 * the launcher afterwards), so RunMemo, the feed cache's process-wide
 * registry, the result cache's memory layer and ru_maxrss never carry
 * over from one repetition to the next.  perfbench/run.py launches one
 * process per repetition and aggregates them; see README.md here.
 *
 * Workloads (host time throughout; simulated statistics are only
 * digested, as the correctness gate):
 *   sweep-fanout  one runConfigsOverMixes call, 12 configs sharing one
 *                 front end (FanoutCmp lockstep per mix)
 *   sweep-plain   the figure-bench pattern: runBaselineOverMixes, then
 *                 one compareAgainst per config, journaled and
 *                 checkpointed into a --sweep-dir
 *   daemon-mixed  an in-process rc daemon with a feed cache, driven by
 *                 two closed-loop clients: 99.5% result-cache hits,
 *                 0.5% fresh arena-policy requests
 *
 * The last stdout line is one JSON object: timings, per-result
 * latencies, result digests and the correctness verdict.  With
 * --trace, spans are recorded around every call into a layer and the
 * per-layer ledger (ledger.hh) is appended.  --setup-only ends the
 * repetition where its timed phase would begin (a set-up sample), and
 * --no-spot-check skips the cross-path recomputation of a sampled cell.
 */

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "arena/arena_registry.hh"
#include "common.hh"
#include "common/rng.hh"
#include "harness.hh"
#include "ledger.hh"
#include "service/client.hh"
#include "service/daemon.hh"
#include "service/run_request.hh"
#include "sim/feed_cache.hh"
#include "snapshot/journal.hh"

namespace perfbench
{

namespace
{

using rc::RunResult;
using rc::bench::RunOptions;

/** The harness CLI's default --seed. */
constexpr std::uint64_t kDefaultSeed = 42;

struct Invocation
{
    std::string workload;
    std::uint64_t seed = kDefaultSeed;
    double spawnStamp = 0.0; //!< launcher's monotonic clock at spawn
    bool trace = false;
    bool smoke = false;
    bool setupOnly = false;  //!< stop where the timed phase would begin
    bool spotCheck = true;   //!< recompute a sampled cell on another path
    std::string spansPath;
};

/** Sizes of one workload (fixed; --smoke shrinks the windows). */
struct Shape
{
    std::uint32_t mixes = 2;
    rc::Cycle warmup = 0;
    rc::Cycle measure = 0;
    std::uint32_t requests = 0;  //!< daemon-mixed timed requests
    std::uint64_t checkpointRefs = 0; //!< sweep-plain checkpoint cadence
};

/**
 * The reference-stream seed the workload simulates.  The sweeps take
 * --seed (the harness's --seed).  The daemon serves a fixed key space,
 * simulated at the harness's default seed, and --seed draws its
 * traffic: the schedule and the clients' retry jitter.
 */
std::uint64_t
streamSeed(const Invocation &inv)
{
    return inv.workload == "daemon-mixed" ? kDefaultSeed : inv.seed;
}

Shape
shapeOf(const Invocation &inv)
{
    Shape s;
    if (inv.workload == "daemon-mixed") {
        s.mixes = inv.smoke ? 2 : 3;
        s.warmup = inv.smoke ? 20'000 : 200'000;
        s.measure = inv.smoke ? 60'000 : 800'000;
        // 0.5% fresh requests: the 99th percentile of all replies then
        // falls among result-cache hits, with ~0.5% of them beyond it.
        s.requests = inv.smoke ? 300 : 11'400;
    } else if (inv.workload == "sweep-plain") {
        // A plain run takes ~0.35 s here: mid-way between two of the
        // watchdog's 0.25 s polls, which end every batch, so host noise
        // rarely moves a batch across a poll.
        s.warmup = inv.smoke ? 20'000 : 300'000;
        s.measure = inv.smoke ? 60'000 : 1'200'000;
        // About one checkpoint per run (~2.9M references).
        s.checkpointRefs = inv.smoke ? 100'000 : 2'000'000;
    } else {
        // One batch of two ~6 s jobs: a poll is at most 4% of it.
        s.warmup = inv.smoke ? 20'000 : 500'000;
        s.measure = inv.smoke ? 60'000 : 2'000'000;
    }
    return s;
}

/** The 12 configs of sweep-fanout: one private prefix, all three SLLC
 *  organizations. */
std::vector<NamedConfig>
fanoutConfigs(std::uint32_t scale)
{
    using rc::ReplKind;
    return {
        {"conv8-lru", rc::conventionalSystem(8.0, ReplKind::LRU, scale)},
        {"conv8-drrip", rc::conventionalSystem(8.0, ReplKind::DRRIP, scale)},
        {"conv8-nrr", rc::conventionalSystem(8.0, ReplKind::NRR, scale)},
        {"conv4-lru", rc::conventionalSystem(4.0, ReplKind::LRU, scale)},
        {"rc8-4-fa", rc::reuseSystem(8.0, 4.0, 0, scale)},
        {"rc8-4-16w", rc::reuseSystem(8.0, 4.0, 16, scale)},
        {"rc8-2", rc::reuseSystem(8.0, 2.0, 0, scale)},
        {"rc8-1", rc::reuseSystem(8.0, 1.0, 0, scale)},
        {"rc4-1", rc::reuseSystem(4.0, 1.0, 0, scale)},
        {"rc4-0.5", rc::reuseSystem(4.0, 0.5, 0, scale)},
        {"ncid8-1", rc::ncidSystem(8.0, 1.0, scale)},
        {"ncid8-4", rc::ncidSystem(8.0, 4.0, scale)},
    };
}

/**
 * The sweeps' mixes: the figure benches' first mix, twice.  Two equal
 * jobs on the two workers overlap for their whole length, so which
 * jobs run side by side (and share the harness's watchdog heartbeat
 * cache line) is the same in every repetition, and per-result
 * latencies are one population rather than one per mix.
 */
std::vector<rc::Mix>
sweepMixes()
{
    const rc::Mix mix = rc::makeMixes(1, 8, 7).front();
    return {mix, mix};
}

/** sweep-plain's compared configs: one per organization or policy
 *  family of the fan-out set. */
std::vector<NamedConfig>
plainConfigs(std::uint32_t scale)
{
    using rc::ReplKind;
    return {
        {"conv8-drrip", rc::conventionalSystem(8.0, ReplKind::DRRIP, scale)},
        {"conv8-nrr", rc::conventionalSystem(8.0, ReplKind::NRR, scale)},
        {"conv4-lru", rc::conventionalSystem(4.0, ReplKind::LRU, scale)},
        {"rc8-4-fa", rc::reuseSystem(8.0, 4.0, 0, scale)},
        {"rc4-1", rc::reuseSystem(4.0, 1.0, 0, scale)},
        {"ncid8-1", rc::ncidSystem(8.0, 1.0, scale)},
    };
}

std::string
cellName(const std::string &cfg, std::size_t mix)
{
    return cfg + "@m" + std::to_string(mix);
}

/** Digest of a double's bit pattern (compareAgainst's ratios). */
std::uint64_t
ratioDigest(double v)
{
    return fnv1a(&v, sizeof(v));
}

/** What one repetition reports. */
struct Outcome
{
    double setupSeconds = 0.0;
    double timedSeconds = 0.0;
    double peakRssMb = 0.0;         //!< high-water mark after timing
    std::uint64_t results = 0;      //!< results delivered when timed
    std::vector<double> latencyMs;  //!< one per delivered result
    std::vector<double> missLatencyMs; //!< results that were simulated
    std::vector<double> hitLatencyMs;  //!< results served from a store
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> problems;
    std::map<std::string, std::string> cells; //!< cell -> digest
    Ledger ledger;

    void fail(const std::string &what, std::uint64_t n = 1)
    {
        failed += n;
        problems.push_back(what);
    }
};

/**
 * RunOptions exactly as a CLI user gets them: built by parseArgs from
 * flags (watchdog armed at its 300 s default), with quarantines
 * counted by the benchmark instead of ending the process.  Their
 * --seed is the workload's stream seed, so harness runs simulate the
 * same inputs as the rest of the workload (on daemon-mixed, the
 * daemon's fixed key space rather than --seed).
 */
RunOptions
cliOptions(const Invocation &inv, const Shape &sh,
           const std::vector<std::string> &extra)
{
    std::vector<std::string> args = {
        "perfbench",
        "--mixes=" + std::to_string(sh.mixes),
        "--warmup=" + std::to_string(sh.warmup),
        "--measure=" + std::to_string(sh.measure),
        "--seed=" + std::to_string(streamSeed(inv)),
        "--jobs=2",
    };
    args.insert(args.end(), extra.begin(), extra.end());
    std::vector<char *> argv;
    for (std::string &a : args)
        argv.push_back(a.data());
    RunOptions opt = rc::bench::parseArgs(static_cast<int>(argv.size()),
                                          argv.data());
    rc::bench::setExitOnQuarantine(false);
    return opt;
}

/** Per-run wall times from the harness's BENCH_harness.json record. */
std::vector<double>
harnessRunSeconds(const std::string &record)
{
    std::vector<double> out;
    std::size_t at = record.find("\"runs\": [");
    while (at != std::string::npos) {
        at = record.find("\"wall_seconds\": ", at);
        if (at == std::string::npos)
            break;
        at += std::strlen("\"wall_seconds\": ");
        out.push_back(std::atof(record.c_str() + at));
    }
    return out;
}

/** A top-level number of the harness record ("sims", "cpu_seconds"). */
double
harnessField(const std::string &record, const std::string &key)
{
    const std::string pat = "\"" + key + "\": ";
    const std::size_t at = record.find(pat);
    return at == std::string::npos
               ? 0.0
               : std::atof(record.c_str() + at + pat.size());
}

/** harness.* ledger entries from the harness record of this process. */
void
harnessLedger(std::uint64_t batches, std::uint32_t jobs, Ledger &out)
{
    const std::string rec = rc::bench::perfRecordJson();
    const double busy = harnessField(rec, "cpu_seconds");
    const double wall = harnessField(rec, "wall_seconds");
    out["harness.batches"] = static_cast<double>(batches);
    out["harness.runs"] = harnessField(rec, "sims");
    out["harness.busy_s"] = busy;
    out["harness.wall_s"] = wall;
    out["harness.retried"] = harnessField(rec, "runs_retried");
    out["harness.quarantined"] = harnessField(rec, "runs_quarantined");
    out["harness.idle_frac"] =
        wall > 0.0 ? std::max(0.0, 1.0 - busy / (jobs * wall)) : 0.0;
}

/** @p cfgs over @p mixes at @p sh's windows: the ledger's inputs, and
 *  the daemon's request sets. */
LedgerInput
ledgerInput(const Invocation &inv, const Shape &sh,
            const std::vector<rc::Mix> &mixes,
            const std::vector<NamedConfig> &cfgs, std::size_t sample_mix)
{
    LedgerInput in;
    in.mixes = mixes;
    in.configs = cfgs;
    in.seed = streamSeed(inv);
    in.scale = 8;
    in.warmup = sh.warmup;
    in.measure = sh.measure;
    in.sampleMix = sample_mix;
    in.scratchDir = "ledger";
    return in;
}

/**
 * Service probe for the sweeps (traced runs only): a daemon serving
 * this workload's own results, so the service-path metrics describe
 * its requests.  Each cell is requested twice by two closed-loop
 * clients: a miss answered by the probe's SimulateFn, then a hit.
 */
void
serviceProbe(const LedgerInput &in,
             const std::vector<RunResult> &results, SpanLog &spans,
             Ledger &out);

/**
 * How long each request spent in the benchmark's SimulateFn, so a
 * miss's queue wait is its RTT minus that span.
 */
class QueueWait
{
  public:
    void record(const rc::svc::RunRequest &req, double seconds)
    {
        const std::uint64_t id = rc::svc::requestDigest(req);
        std::lock_guard<std::mutex> lock(mu);
        simulateSeconds[id] = seconds;
    }

    /** Queue waits (ms) of the requests @p take selects by index. */
    template <class Take>
    std::vector<double>
    waitsMs(const std::vector<rc::svc::RunRequest> &reqs,
            const std::vector<double> &rtt_ms, Take take)
    {
        std::vector<double> out;
        std::lock_guard<std::mutex> lock(mu);
        for (std::size_t i = 0; i < reqs.size(); ++i) {
            if (!take(i))
                continue;
            const auto it =
                simulateSeconds.find(rc::svc::requestDigest(reqs[i]));
            if (it != simulateSeconds.end())
                out.push_back(std::max(0.0, rtt_ms[i] - it->second * 1e3));
        }
        return out;
    }

  private:
    std::mutex mu;
    std::map<std::uint64_t, double> simulateSeconds; //!< by digest
};

/** service.* entries of one traffic phase: daemon counters before and
 *  after it, the clients' counters and its misses' queue waits. */
void
serviceLedger(const rc::svc::DaemonCounters &before,
              const rc::svc::DaemonCounters &after,
              const rc::svc::ClientCounters &clients,
              const std::vector<double> &waits_ms, Ledger &out)
{
    const std::uint64_t hits = after.cacheHits - before.cacheHits;
    const std::uint64_t reqs =
        hits + (after.cacheMisses - before.cacheMisses);
    out["service.queue_wait_ms"] = median(waits_ms);
    out["service.requests"] = static_cast<double>(reqs);
    out["service.cache_hit_frac"] =
        reqs ? static_cast<double>(hits) / static_cast<double>(reqs) : 0.0;
    out["service.coalesced"] =
        static_cast<double>(after.coalesced - before.coalesced);
    out["service.sheds"] = static_cast<double>(after.sheds - before.sheds);
    out["service.busy_retries"] = static_cast<double>(clients.busyRetries);
    out["service.fallbacks"] = static_cast<double>(clients.fallbacks);
}

// --- sweep-fanout ----------------------------------------------------

Outcome
runSweepFanout(const Invocation &inv, SpanLog &spans)
{
    Outcome o;
    const Shape sh = shapeOf(inv);
    const RunOptions opt = cliOptions(inv, sh, {"--no-feed-cache"});
    const std::vector<rc::Mix> mixes = sweepMixes();
    const std::vector<NamedConfig> named = fanoutConfigs(opt.scale);
    std::vector<rc::SystemConfig> cfgs;
    for (const NamedConfig &n : named)
        cfgs.push_back(n.cfg);

    o.setupSeconds = monotonicSeconds() - inv.spawnStamp;
    if (inv.setupOnly)
        return o;
    const auto t0 = Clock::now();
    std::vector<std::vector<RunResult>> res;
    {
        ScopedSpan span(spans, "harness.runConfigsOverMixes");
        res = rc::bench::runConfigsOverMixes(cfgs, mixes, opt);
    }
    o.timedSeconds = secondsBetween(t0, Clock::now());
    o.peakRssMb = peakRssMb();
    o.results = cfgs.size() * mixes.size();
    o.attempted = o.results;

    // Every result waited for the fan-out job (one per mix) that
    // produced it.
    const std::vector<double> jobs =
        harnessRunSeconds(rc::bench::perfRecordJson());
    for (double s : jobs) {
        for (std::size_t i = 0; i < cfgs.size(); ++i)
            o.latencyMs.push_back(s * 1e3);
    }
    o.missLatencyMs = o.latencyMs;

    for (std::size_t i = 0; i < cfgs.size(); ++i) {
        for (std::size_t m = 0; m < mixes.size(); ++m) {
            const RunResult &r = res[i][m];
            if (r.coreIpc.empty())
                o.fail("no result for " + cellName(named[i].name, m));
            o.cells[cellName(named[i].name, m)] = hex64(resultDigest(r));
        }
        if (!rc::runResultsEqual(res[i][0], res[i][1]))
            o.fail("the two jobs of the same mix differ on " + named[i].name);
    }

    // Cross-path spot check: one sampled fan-out member against a plain
    // runMix of the same cell.
    rc::Rng pick(inv.seed ^ 0x5eedf00dull);
    const std::size_t ci = pick.below(cfgs.size());
    const std::size_t mi = pick.below(mixes.size());
    if (inv.spotCheck) {
        ScopedSpan span(spans, "harness.runMix");
        const RunResult plain = rc::bench::runMix(cfgs[ci], mixes[mi], opt);
        if (!rc::runResultsEqual(plain, res[ci][mi]))
            o.fail("fan-out " + cellName(named[ci].name, mi) +
                   " differs from plain runMix");
    }

    if (inv.trace) {
        harnessLedger(1, rc::bench::effectiveJobs(opt), o.ledger);
        // The two jobs simulate one mix: replay it once.
        const LedgerInput in = ledgerInput(inv, sh, {mixes[0]}, named, 0);
        std::vector<RunResult> flat;
        for (std::size_t i = 0; i < cfgs.size(); ++i)
            flat.push_back(res[i][0]);
        replayLayers(in, spans, o.ledger);
        replayServiceCodec(in, flat, spans, o.ledger);
        serviceProbe(in, flat, spans, o.ledger);
    }
    return o;
}

// --- sweep-plain -----------------------------------------------------

Outcome
runSweepPlain(const Invocation &inv, SpanLog &spans)
{
    Outcome o;
    const Shape sh = shapeOf(inv);
    const RunOptions opt = cliOptions(
        inv, sh,
        {"--no-feed-cache", "--sweep-dir=sweep",
         "--checkpoint-interval=" + std::to_string(sh.checkpointRefs)});
    const std::vector<rc::Mix> mixes = sweepMixes();
    const std::vector<NamedConfig> named = plainConfigs(opt.scale);
    const rc::SystemConfig base = rc::bench::baselineFor(opt);

    o.setupSeconds = monotonicSeconds() - inv.spawnStamp;
    if (inv.setupOnly)
        return o;
    const auto t0 = Clock::now();
    std::vector<RunResult> baseRes;
    std::vector<rc::bench::SpeedupSummary> sums;
    {
        ScopedSpan span(spans, "harness.runBaselineOverMixes");
        baseRes = rc::bench::runBaselineOverMixes(base, mixes, opt);
    }
    for (const NamedConfig &n : named) {
        ScopedSpan span(spans, "harness.compareAgainst");
        sums.push_back(
            rc::bench::compareAgainst(n.cfg, mixes, baseRes, opt));
    }
    o.timedSeconds = secondsBetween(t0, Clock::now());
    o.peakRssMb = peakRssMb();
    o.results = (named.size() + 1) * mixes.size();
    o.attempted = o.results;

    for (double s : harnessRunSeconds(rc::bench::perfRecordJson()))
        o.latencyMs.push_back(s * 1e3);
    o.missLatencyMs = o.latencyMs;

    for (std::size_t m = 0; m < mixes.size(); ++m) {
        if (baseRes[m].coreIpc.empty())
            o.fail("no baseline result for mix " + std::to_string(m));
        o.cells[cellName("conv8-lru", m)] = hex64(resultDigest(baseRes[m]));
    }
    if (!rc::runResultsEqual(baseRes[0], baseRes[1]))
        o.fail("the two runs of the same mix differ on conv8-lru");
    for (std::size_t i = 0; i < named.size(); ++i) {
        for (std::size_t m = 0; m < mixes.size(); ++m) {
            const double v = sums[i].perMix[m];
            if (!(v > 0.0))
                o.fail("no result for " + cellName(named[i].name, m));
            o.cells[cellName(named[i].name, m)] = hex64(ratioDigest(v));
        }
        if (ratioDigest(sums[i].perMix[0]) != ratioDigest(sums[i].perMix[1]))
            o.fail("the two runs of the same mix differ on " + named[i].name);
    }
    // Every run journaled once, as ok.
    const auto journal = rc::SweepJournal::load(opt.sweepDir);
    std::size_t ok = 0;
    for (const rc::JournalRecord &rec : journal)
        ok += rec.status == "ok" ? 1 : 0;
    if (ok != o.results)
        o.fail("journal holds " + std::to_string(ok) + " ok runs of " +
               std::to_string(o.results));

    // Cross-path spot check: one sampled cell through the fan-out path
    // (runMixFanout) against the journaled plain run's value.
    rc::Rng pick(inv.seed ^ 0x5eedf00dull);
    const std::size_t ci = pick.below(named.size() + 1); // 0 = baseline
    const std::size_t mi = pick.below(mixes.size());
    RunOptions fanOpt = opt;
    fanOpt.sweepDir.clear();
    fanOpt.checkpointInterval = 0;
    if (inv.spotCheck) {
        ScopedSpan span(spans, "harness.runMixFanout");
        const rc::SystemConfig &cfg = ci == 0 ? base : named[ci - 1].cfg;
        const RunResult fan =
            rc::bench::runMixFanout({cfg}, mixes[mi], fanOpt).front();
        const bool same =
            ci == 0 ? rc::runResultsEqual(fan, baseRes[mi])
                    : ratioDigest(rc::bench::speedupRatio(
                          fan.aggregateIpc, baseRes[mi].aggregateIpc)) ==
                          ratioDigest(sums[ci - 1].perMix[mi]);
        if (!same)
            o.fail("plain " +
                   cellName(ci == 0 ? "conv8-lru" : named[ci - 1].name,
                            mi) +
                   " differs from the fan-out path");
    }

    if (inv.trace) {
        harnessLedger(1 + named.size(), rc::bench::effectiveJobs(opt),
                      o.ledger);
        std::vector<NamedConfig> all = {{"conv8-lru", base}};
        all.insert(all.end(), named.begin(), named.end());
        const LedgerInput in = ledgerInput(inv, sh, {mixes[0]}, all, 0);
        // The service replays need one result per config; the
        // baseline's stands in for the compared configs, whose full
        // results compareAgainst does not return.
        const std::vector<RunResult> flat(all.size(), baseRes[0]);
        replayLayers(in, spans, o.ledger);
        replayServiceCodec(in, flat, spans, o.ledger);
        serviceProbe(in, flat, spans, o.ledger);
    }
    return o;
}

// --- daemon-mixed ----------------------------------------------------

/** @p clients closed-loop clients working through @p reqs (shared
 *  cursor); fills @p replies and @p latency_ms by index. */
void
driveClients(std::uint32_t clients, const std::string &socket,
             std::uint64_t seed,
             const std::vector<rc::svc::RunRequest> &reqs,
             std::vector<RunResult> &replies,
             std::vector<double> &latency_ms, std::vector<char> &errors,
             rc::svc::ClientCounters &counters, SpanLog &spans)
{
    replies.assign(reqs.size(), RunResult{});
    latency_ms.assign(reqs.size(), 0.0);
    errors.assign(reqs.size(), 0);
    std::atomic<std::size_t> cursor{0};
    std::mutex mu;
    std::vector<std::thread> threads;
    for (std::uint32_t t = 0; t < clients; ++t) {
        threads.emplace_back([&, t] {
            rc::svc::ClientConfig cc;
            cc.socketPath = socket;
            cc.seed = seed * 2 + t + 1;
            // rc-client's default: answer in-process when the daemon is
            // unreachable (counted as a fallback, i.e. a failure here).
            cc.fallback = [](const rc::svc::RunRequest &req,
                             const std::atomic<bool> *abort,
                             std::atomic<std::uint64_t> *heartbeat) {
                return rc::bench::simulateRequest(req, abort, heartbeat);
            };
            rc::svc::RcClient client(cc);
            for (;;) {
                const std::size_t i = cursor.fetch_add(1);
                if (i >= reqs.size())
                    break;
                const auto t0 = Clock::now();
                try {
                    ScopedSpan span(spans, "service.RcClient::simulate", i);
                    replies[i] = client.simulate(reqs[i]);
                } catch (const rc::SimError &err) {
                    errors[i] = 1;
                    std::fprintf(stderr, "perfbench: request %zu: %s\n", i,
                                 err.what());
                }
                latency_ms[i] = secondsBetween(t0, Clock::now()) * 1e3;
            }
            const rc::svc::ClientCounters c = client.counters();
            std::lock_guard<std::mutex> lock(mu);
            counters.requests += c.requests;
            counters.busyRetries += c.busyRetries;
            counters.fallbacks += c.fallbacks;
            counters.reconnects += c.reconnects;
        });
    }
    for (std::thread &th : threads)
        th.join();
}

Outcome
runDaemonMixed(const Invocation &inv, SpanLog &spans)
{
    Outcome o;
    const Shape sh = shapeOf(inv);
    const auto mixes = rc::makeMixes(sh.mixes, 8, 7);
    const std::vector<NamedConfig> hotCfgs = {
        {"conv8-lru", rc::conventionalSystem(8.0, rc::ReplKind::LRU, 8)},
        {"rc4-1", rc::reuseSystem(4.0, 1.0, 16, 8)},
    };
    std::vector<NamedConfig> freshCfgs;
    for (const rc::arena::PolicyInfo &info : rc::arena::policyRegistry()) {
        if (info.inTournament && info.kind != rc::ReplKind::LRU)
            freshCfgs.push_back(
                {info.name, rc::conventionalSystem(8.0, info.kind, 8)});
    }

    // Hot set config-major: the first request of each mix captures its
    // feed, the second replays it.
    const std::vector<rc::svc::RunRequest> hot =
        requestsOf(ledgerInput(inv, sh, mixes, hotCfgs, 0));
    const std::vector<rc::svc::RunRequest> fresh =
        requestsOf(ledgerInput(inv, sh, mixes, freshCfgs, 0));
    std::vector<std::string> hotNames, freshNames;
    for (const NamedConfig &n : hotCfgs)
        for (std::size_t m = 0; m < mixes.size(); ++m)
            hotNames.push_back(cellName(n.name, m));
    for (const NamedConfig &n : freshCfgs)
        for (std::size_t m = 0; m < mixes.size(); ++m)
            freshNames.push_back(cellName(n.name, m));

    // Seeded schedule: every fresh request once, the rest drawn from
    // the hot set, in shuffled order.
    rc::Rng rng(inv.seed * 0x9e3779b97f4a7c15ull + 1);
    const std::size_t n = std::max<std::size_t>(sh.requests, fresh.size());
    std::vector<std::int64_t> slot(n); // >= 0 fresh index, < 0 ~hot index
    for (std::size_t i = 0; i < n; ++i)
        slot[i] = i < fresh.size()
                      ? static_cast<std::int64_t>(i)
                      : -1 - static_cast<std::int64_t>(rng.below(hot.size()));
    for (std::size_t i = n - 1; i > 0; --i)
        std::swap(slot[i], slot[rng.below(i + 1)]);
    std::vector<rc::svc::RunRequest> timed;
    for (std::int64_t s : slot)
        timed.push_back(s >= 0 ? fresh[static_cast<std::size_t>(s)]
                               : hot[static_cast<std::size_t>(-1 - s)]);

    // rc-daemon --feed-cache=feeds, with its CLI defaults (2 workers,
    // 300 s watchdog).
    const std::string feedDir = "feeds";
    rc::svc::DaemonConfig dcfg;
    dcfg.socketPath = "daemon.sock";
    dcfg.cacheDir = "results";
    dcfg.feedCacheDir = feedDir;
    dcfg.workers = 2;
    dcfg.hangTimeout = 300.0;
    QueueWait qw;
    rc::svc::Daemon daemon(
        dcfg, [&](const rc::svc::RunRequest &req,
                  const std::atomic<bool> *abort,
                  std::atomic<std::uint64_t> *heartbeat) {
            const auto t0 = Clock::now();
            RunResult r;
            {
                ScopedSpan span(spans, "sim.simulateRequest");
                r = rc::bench::simulateRequest(req, abort, heartbeat,
                                               feedDir);
            }
            if (spans.enabled())
                qw.record(req, secondsBetween(t0, Clock::now()));
            return r;
        });

    // Set-up: daemon start, then the hot set through one client, which
    // captures one feed blob per mix (one at a time) and fills the
    // result cache.
    std::vector<RunResult> hotReplies;
    std::vector<double> hotLat;
    std::vector<char> hotErr;
    rc::svc::ClientCounters counters;
    {
        ScopedSpan span(spans, "service.setup");
        daemon.start();
        driveClients(1, dcfg.socketPath, inv.seed, hot, hotReplies, hotLat,
                     hotErr, counters, spans);
    }
    for (std::size_t h = 0; h < hot.size(); ++h) {
        if (hotErr[h])
            o.fail("set-up request " + hotNames[h] + " failed");
        o.cells[hotNames[h]] = hex64(resultDigest(hotReplies[h]));
    }
    const rc::svc::DaemonCounters before = daemon.counters();

    o.setupSeconds = monotonicSeconds() - inv.spawnStamp;
    if (inv.setupOnly) {
        daemon.requestStop();
        daemon.stop();
        return o;
    }
    std::vector<RunResult> replies;
    std::vector<double> lat;
    std::vector<char> err;
    rc::svc::ClientCounters timedCounters;
    const auto t0 = Clock::now();
    driveClients(2, dcfg.socketPath, inv.seed, timed, replies, lat, err,
                 timedCounters, spans);
    o.timedSeconds = secondsBetween(t0, Clock::now());
    o.peakRssMb = peakRssMb();
    const rc::svc::DaemonCounters after = daemon.counters();
    o.results = timed.size();
    o.attempted = timed.size();
    o.latencyMs = lat;

    for (std::size_t i = 0; i < timed.size(); ++i) {
        if (err[i]) {
            o.fail("request " + std::to_string(i) + " failed");
            continue;
        }
        if (slot[i] >= 0) {
            const std::size_t f = static_cast<std::size_t>(slot[i]);
            o.missLatencyMs.push_back(lat[i]);
            o.cells[freshNames[f]] = hex64(resultDigest(replies[i]));
        } else {
            const std::size_t h = static_cast<std::size_t>(-1 - slot[i]);
            o.hitLatencyMs.push_back(lat[i]);
            if (!rc::runResultsEqual(replies[i], hotReplies[h]))
                o.fail("hit " + hotNames[h] + " differs from its set-up "
                       "reply");
        }
    }
    const std::uint64_t misses = after.cacheMisses - before.cacheMisses;
    if (misses != fresh.size())
        o.fail("timed phase missed the result cache " +
               std::to_string(misses) + " times, expected " +
               std::to_string(fresh.size()));
    if (after.quarantines != 0)
        o.fail("daemon quarantined " + std::to_string(after.quarantines) +
                   " jobs",
               after.quarantines);
    const std::uint64_t fallbacks =
        counters.fallbacks + timedCounters.fallbacks;
    if (fallbacks != 0)
        o.fail("clients fell back in-process " + std::to_string(fallbacks) +
                   " times",
               fallbacks);

    // Cross-path spot check: one sampled fresh and one hot request
    // simulated in-process (plain runMix) against the daemon's reply.
    rc::Rng pick(inv.seed ^ 0x5eedf00dull);
    const std::size_t fi = pick.below(fresh.size());
    const std::size_t hi = pick.below(hot.size());
    if (inv.spotCheck) {
        ScopedSpan span(spans, "sim.simulateRequest.inprocess");
        if (!rc::runResultsEqual(rc::bench::simulateRequest(hot[hi]),
                                 hotReplies[hi]))
            o.fail("daemon reply " + hotNames[hi] +
                   " differs from in-process simulateRequest");
        for (std::size_t i = 0; i < timed.size(); ++i) {
            if (slot[i] == static_cast<std::int64_t>(fi) &&
                !rc::runResultsEqual(rc::bench::simulateRequest(fresh[fi]),
                                     replies[i]))
                o.fail("daemon reply " + freshNames[fi] +
                       " differs from in-process simulateRequest");
        }
    }

    if (inv.trace) {
        Ledger &L = o.ledger;
        // service: from the timed traffic.
        serviceLedger(before, after, timedCounters,
                      qw.waitsMs(timed, lat,
                                 [&slot](std::size_t i) {
                                     return slot[i] >= 0;
                                 }),
                      L);
        {
            ScopedSpan span(spans, "service.statsJson");
            (void)daemon.statsJson();
        }
        // harness: the sampled cell once more through the harness.
        {
            const RunOptions opt = cliOptions(inv, sh, {"--no-feed-cache"});
            ScopedSpan span(spans, "harness.runConfigsOverMixes");
            const auto r = rc::bench::runConfigsOverMixes(
                {hot[hi].config}, {hot[hi].mix}, opt);
            if (!rc::runResultsEqual(r.front().front(), hotReplies[hi]))
                o.fail("harness result " + hotNames[hi] +
                       " differs from the daemon's reply");
            harnessLedger(1, rc::bench::effectiveJobs(opt), L);
        }
        const LedgerInput in =
            ledgerInput(inv, sh, mixes, hotCfgs, hi % mixes.size());
        replayLayers(in, spans, L);
        // The workload's own feed cache: real hit/miss counts.
        const rc::FeedCacheStats fs = rc::FeedCache::open(feedDir)->stats();
        L["sim.feed.hits"] = static_cast<double>(fs.hits);
        L["sim.feed.misses"] = static_cast<double>(fs.misses);
        std::vector<RunResult> flat;
        for (std::size_t h = 0; h < hot.size(); ++h)
            flat.push_back(hotReplies[h]);
        replayServiceCodec(in, flat, spans, L);
    }

    daemon.requestStop();
    daemon.stop();
    return o;
}

void
serviceProbe(const LedgerInput &in, const std::vector<RunResult> &results,
             SpanLog &spans, Ledger &out)
{
    const std::vector<rc::svc::RunRequest> reqs = requestsOf(in);
    std::map<std::uint64_t, RunResult> byDigest;
    for (std::size_t i = 0; i < reqs.size(); ++i)
        byDigest[rc::svc::requestDigest(reqs[i])] = results[i];
    QueueWait qw;
    rc::svc::DaemonConfig dcfg;
    dcfg.socketPath = "probe.sock";
    dcfg.cacheDir = "probe-results";
    dcfg.workers = 2;
    dcfg.hangTimeout = 300.0;
    rc::svc::Daemon daemon(
        dcfg, [&](const rc::svc::RunRequest &req, const std::atomic<bool> *,
                  std::atomic<std::uint64_t> *) {
            const auto t0 = Clock::now();
            RunResult r;
            {
                ScopedSpan span(spans, "service.probeSimulate");
                r = byDigest.at(rc::svc::requestDigest(req));
            }
            qw.record(req, secondsBetween(t0, Clock::now()));
            return r;
        });
    daemon.start();
    std::vector<rc::svc::RunRequest> twice = reqs;
    twice.insert(twice.end(), reqs.begin(), reqs.end());
    std::vector<RunResult> replies;
    std::vector<double> lat;
    std::vector<char> err;
    rc::svc::ClientCounters counters;
    driveClients(2, dcfg.socketPath, in.seed, twice, replies, lat, err,
                 counters, spans);
    // The first pass over the cells is the misses.
    serviceLedger({}, daemon.counters(), counters,
                  qw.waitsMs(twice, lat,
                             [n = reqs.size()](std::size_t i) {
                                 return i < n;
                             }),
                  out);
    {
        ScopedSpan span(spans, "service.statsJson");
        (void)daemon.statsJson();
    }
    daemon.requestStop();
    daemon.stop();
}

Invocation
parseInvocation(int argc, char **argv)
{
    Invocation inv;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto val = [&a](const char *p) -> const char * {
            const std::size_t n = std::strlen(p);
            return a.compare(0, n, p) == 0 ? a.c_str() + n : nullptr;
        };
        if (const char *v = val("--workload=")) {
            inv.workload = v;
        } else if (const char *v = val("--seed=")) {
            inv.seed = std::strtoull(v, nullptr, 10);
        } else if (const char *v = val("--spawn=")) {
            inv.spawnStamp = std::atof(v);
        } else if (const char *v = val("--spans=")) {
            inv.spansPath = v;
        } else if (a == "--trace") {
            inv.trace = true;
        } else if (a == "--smoke") {
            inv.smoke = true;
        } else if (a == "--setup-only") {
            inv.setupOnly = true;
        } else if (a == "--no-spot-check") {
            inv.spotCheck = false;
        } else {
            std::fprintf(stderr, "perfbench: unknown argument '%s'\n",
                         a.c_str());
            std::exit(2);
        }
    }
    if (inv.spawnStamp == 0.0)
        inv.spawnStamp = monotonicSeconds();
    return inv;
}

} // namespace

} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    const Invocation inv = parseInvocation(argc, argv);
    SpanLog spans(inv.trace);
    Outcome o;
    if (inv.workload == "sweep-fanout") {
        o = runSweepFanout(inv, spans);
    } else if (inv.workload == "sweep-plain") {
        o = runSweepPlain(inv, spans);
    } else if (inv.workload == "daemon-mixed") {
        o = runDaemonMixed(inv, spans);
    } else {
        std::fprintf(stderr, "perfbench: unknown workload '%s' (known: "
                     "sweep-fanout, sweep-plain, daemon-mixed)\n",
                     inv.workload.c_str());
        return 2;
    }
    if (inv.trace && !inv.spansPath.empty())
        spans.writeJson(inv.spansPath);

    JsonObject j;
    j.str("workload", inv.workload);
    j.integer("seed", inv.seed);
    j.integer("stream_seed", streamSeed(inv));
    j.num("setup_s", o.setupSeconds);
    j.num("timed_s", o.timedSeconds);
    j.integer("results", o.results);
    j.num("peak_rss_mb", o.peakRssMb);
    j.integer("attempted", o.attempted);
    j.integer("failed", o.failed);
    j.numbers("latency_ms", o.latencyMs);
    j.numbers("miss_latency_ms", o.missLatencyMs);
    j.numbers("hit_latency_ms", o.hitLatencyMs);
    std::string problems = "[";
    for (std::size_t i = 0; i < o.problems.size(); ++i)
        problems += (i ? ", \"" : "\"") + rc::jsonEscape(o.problems[i]) +
                    "\"";
    j.raw("problems", problems + "]");
    JsonObject cells;
    for (const auto &[k, v] : o.cells)
        cells.str(k, v);
    j.raw("cells", cells.text());
    if (inv.trace) {
        JsonObject ledger;
        for (const auto &[k, v] : o.ledger)
            ledger.num(k, v);
        j.raw("ledger", ledger.text());
        JsonObject layers;
        for (const auto &[layer, t] : spans.layerTimes()) {
            JsonObject lt;
            lt.integer("spans", t.spans);
            lt.num("total_s", t.totalSeconds);
            lt.num("self_s", t.selfSeconds);
            layers.raw(layer, lt.text());
        }
        j.raw("layers", layers.text());
    }
    std::printf("%s\n", j.text().c_str());
    std::fflush(stdout);
    return 0;
}
