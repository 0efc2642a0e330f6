/**
 * @file
 * Kernel micro-benchmark: serial hot-loop throughput on a
 * table5_mpki-shaped workload (homogeneous 8-core mixes on the 8 MB LRU
 * baseline), bypassing the sweep machinery so the number isolates the
 * simulation kernel itself: reference generation, private lookups, SLLC
 * dispatch and the DRAM model.
 *
 * Writes BENCH_kernel.json:
 *   serial_sims_per_sec   completed runs / simulated wall seconds
 *   accesses_per_sec      completed core references / simulated seconds
 *   phases                per-phase wall-second breakdown (build,
 *                         warmup, measure), mirrored on the EventTracer
 *                         host track ("kernel.build" / "kernel.warmup" /
 *                         "kernel.measure")
 *   stats_digest          FNV-1a over every run's full LLC stats JSON —
 *                         identical across kernel refactors iff the
 *                         stats are bit-identical
 *
 * A second measurement covers the single-pass fan-out path: the
 * paper's headline reuse-cache sweep (six sizing/policy variants that
 * share the private hierarchy) runs once as six independent Cmp runs
 * and once as one FanoutCmp, hard-asserting per-config LLC stats
 * digests match before reporting.  The FanoutCmp members carry a
 * heartbeat and an abort flag, as the harness wires every fan-out job
 * of a CLI sweep (watchdog armed), so the gate times that path:
 *   independent_sims_per_sec  six configs, one Cmp each
 *   fanout_sims_per_sec       six configs, one shared front end
 *   fanout_speedup            ratio of the two
 *
 * A third measurement covers the persistent feed cache: the same sweep
 * runs once cold (front end simulated in capture mode, blob stored)
 * and once warm (front end replayed zero-copy from the mapped blob),
 * both digest-checked against the independent pass:
 *   feedcache_cold_sims_per_sec  simulate + capture + store
 *   feedcache_warm_sims_per_sec  lookup + replay (SLLC-only)
 *   feedcache_speedup            cold wall / warm wall
 *
 * Extra flags (on top of the common harness set):
 *   --baseline=FILE   prior BENCH_kernel.json to gate against
 *   --tolerance=F     allowed fractional drop vs baseline (default 0.20)
 * With --baseline, exits 2 when serial OR fan-out sims/sec lands below
 * its baseline * (1 - tolerance); CI points this at the repo-recorded
 * record so kernel regressions fail the perf-smoke job.  A baseline
 * file without fan-out fields gates the serial number only.
 */

#include <atomic>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <dirent.h>
#include <unistd.h>

#include "cache/replacement.hh"
#include "common/log.hh"
#include "harness.hh"
#include "sim/cmp.hh"
#include "sim/fanout.hh"
#include "sim/system_config.hh"
#include "telemetry/trace_event.hh"
#include "workloads/mixes.hh"

namespace
{

using namespace rc;

/** Homogeneous-mix applications; a spread of table5_mpki behaviors. */
const char *const kApps[] = {
    "mcf", "libquantum", "gcc", "lbm", "omnetpp", "namd", "sphinx3",
    "hmmer",
};

/** FNV-1a 64-bit. */
std::uint64_t
fnv1a(const std::string &s, std::uint64_t h = 0xcbf29ce484222325ull)
{
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

/** Throughput numbers recorded in a prior BENCH_kernel.json. */
struct BaselineRecord {
    double serialSimsPerSec = 0.0;
    double fanoutSimsPerSec = 0.0; ///< 0 when the record predates fan-out
    //! 0 when the record predates the feed cache
    double feedWarmSimsPerSec = 0.0;
    double feedSpeedup = 0.0;
};

BaselineRecord
readBaseline(const std::string &path)
{
    std::ifstream in(path);
    if (!in) {
        rc::panic("cannot read baseline record '%s'", path.c_str());
    }
    std::stringstream ss;
    ss << in.rdbuf();
    const std::string text = ss.str();
    const auto field = [&](const char *key, bool required) {
        const std::size_t pos = text.find(key);
        if (pos == std::string::npos) {
            if (required)
                rc::panic("'%s' carries no %s field", path.c_str(), key);
            return 0.0;
        }
        return std::strtod(text.c_str() + pos + std::strlen(key),
                           nullptr);
    };
    BaselineRecord rec;
    rec.serialSimsPerSec = field("\"serial_sims_per_sec\":", true);
    rec.fanoutSimsPerSec = field("\"fanout_sims_per_sec\":", false);
    rec.feedWarmSimsPerSec =
        field("\"feedcache_warm_sims_per_sec\":", false);
    rec.feedSpeedup = field("\"feedcache_speedup\":", false);
    return rec;
}

/** Remove the scratch feed-cache directory (known names only). */
void
removeFeedDir(const std::string &dir)
{
    DIR *d = ::opendir(dir.c_str());
    if (!d)
        return;
    while (struct dirent *e = ::readdir(d)) {
        const std::string name = e->d_name;
        if (name == "." || name == "..")
            continue;
        std::remove((dir + "/" + name).c_str());
    }
    ::closedir(d);
    ::rmdir(dir.c_str());
}

/**
 * The paper's headline sweep as fan-out members: six reuse-cache
 * sizing/policy variants over one private hierarchy.  Every entry
 * shares the front-end prefix (cores, L1/L2 geometry, seed, scale) so
 * one FanoutCmp can drive all six from a single classified stream.
 */
std::vector<rc::SystemConfig>
fanoutSweep(std::uint32_t scale, std::uint64_t seed)
{
    using namespace rc;
    // The paper's headline experiment (Fig. 4): hold the tag array at
    // full coverage and sweep the data array down from conventional
    // size, showing how little data capacity the reuse cache needs.
    // All six members share the identical private prefix, so one
    // front-end pass feeds the whole sweep.
    std::vector<SystemConfig> cfgs;
    cfgs.push_back(reuseSystem(8.0, 8.0, 16, scale));  // full-size data
    cfgs.push_back(reuseSystem(8.0, 4.0, 16, scale));  // 1/2 data
    cfgs.push_back(reuseSystem(8.0, 2.0, 16, scale));  // 1/4 data
    cfgs.push_back(reuseSystem(8.0, 1.0, 16, scale));  // 1/8 data
    cfgs.push_back(reuseSystem(8.0, 0.5, 16, scale));  // 1/16 data
    cfgs.push_back(reuseSystem(8.0, 0.25, 16, scale)); // 1/32 data
    for (SystemConfig &c : cfgs)
        c.seed = seed;
    return cfgs;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace rc;

    // Strip the bench-local flags before the common parser sees them.
    std::string baselinePath;
    double tolerance = 0.20;
    std::vector<char *> rest;
    for (int i = 0; i < argc; ++i) {
        if (std::strncmp(argv[i], "--baseline=", 11) == 0)
            baselinePath = argv[i] + 11;
        else if (std::strncmp(argv[i], "--tolerance=", 12) == 0)
            tolerance = std::strtod(argv[i] + 12, nullptr);
        else
            rest.push_back(argv[i]);
    }

    const auto opt = bench::initBench(
        static_cast<int>(rest.size()), rest.data(),
        "Kernel throughput: serial sims/sec on the table5 workload",
        "hot-path changes keep stats bit-identical (stats_digest) while "
        "serial sims/sec tracks the BENCH_kernel.json trajectory");

    EventTracer tracer;
    double buildSec = 0.0, warmupSec = 0.0, measureSec = 0.0;
    std::uint64_t accesses = 0;
    std::uint64_t digest = 0xcbf29ce484222325ull;
    const std::size_t runs = std::size(kApps);

    for (std::size_t i = 0; i < runs; ++i) {
        Mix mix;
        for (int c = 0; c < 8; ++c)
            mix.apps.push_back(kApps[i]);
        SystemConfig cfg = baselineSystem(opt.scale);
        cfg.seed = opt.seed;

        const std::uint64_t t0 = tracer.hostNowMicros();
        Cmp sim(cfg, buildMixStreams(mix, opt.seed, opt.scale));
        const std::uint64_t t1 = tracer.hostNowMicros();
        tracer.recordHost("kernel.build", 0, t1 - t0);
        sim.run(opt.warmup);
        const std::uint64_t t2 = tracer.hostNowMicros();
        tracer.recordHost("kernel.warmup", 0, t2 - t1);
        sim.beginMeasurement();
        sim.run(opt.measure);
        const std::uint64_t t3 = tracer.hostNowMicros();
        tracer.recordHost("kernel.measure", 0, t3 - t2);

        buildSec += static_cast<double>(t1 - t0) * 1e-6;
        warmupSec += static_cast<double>(t2 - t1) * 1e-6;
        measureSec += static_cast<double>(t3 - t2) * 1e-6;
        accesses += sim.referencesProcessed();

        std::ostringstream os;
        sim.llc().stats().dumpJson(os);
        digest = fnv1a(os.str(), digest);
    }

    const double simSec = warmupSec + measureSec;
    const double simsPerSec =
        simSec > 0.0 ? static_cast<double>(runs) / simSec : 0.0;
    const double accPerSec =
        simSec > 0.0 ? static_cast<double>(accesses) / simSec : 0.0;

    // --- Fan-out measurement: the six-config reuse sweep, first as six
    // independent Cmp runs, then as one FanoutCmp.  The fan-out pass
    // must be a pure speedup: per-config LLC stats are digested and
    // hard-checked against the independent pass before any number is
    // reported.
    Mix fanMix;
    for (int c = 0; c < 8; ++c)
        fanMix.apps.push_back(kApps[c]);
    const auto sweep = fanoutSweep(opt.scale, opt.seed);
    const std::size_t fanRuns = sweep.size();

    std::vector<std::uint64_t> indepDigests;
    double indepSec = 0.0;
    for (const SystemConfig &cfg : sweep) {
        Cmp sim(cfg, buildMixStreams(fanMix, opt.seed, opt.scale));
        const std::uint64_t t0 = tracer.hostNowMicros();
        sim.run(opt.warmup);
        sim.beginMeasurement();
        sim.run(opt.measure);
        const std::uint64_t t1 = tracer.hostNowMicros();
        tracer.recordHost("kernel.fanout.independent", 0, t1 - t0);
        indepSec += static_cast<double>(t1 - t0) * 1e-6;
        std::ostringstream os;
        sim.llc().stats().dumpJson(os);
        indepDigests.push_back(fnv1a(os.str()));
    }

    FanoutCmp fan(sweep, [&fanMix, &opt] {
        return buildMixStreams(fanMix, opt.seed, opt.scale);
    });
    // Time the path CLI sweeps run: the harness arms its watchdog by
    // default and wires the run's heartbeat and abort flag into every
    // member of a fan-out job (executeJob).
    std::atomic<std::uint64_t> fanBeat{0};
    std::atomic<bool> fanAbort{false};
    for (std::size_t j = 0; j < fan.size(); ++j) {
        fan.member(j).setProgressCounter(&fanBeat);
        fan.member(j).setAbortFlag(&fanAbort);
    }
    const std::uint64_t f0 = tracer.hostNowMicros();
    fan.run(opt.warmup);
    fan.beginMeasurement();
    fan.run(opt.measure);
    const std::uint64_t f1 = tracer.hostNowMicros();
    tracer.recordHost("kernel.fanout.lockstep", 0, f1 - f0);
    const double fanSec = static_cast<double>(f1 - f0) * 1e-6;

    for (std::size_t j = 0; j < fanRuns; ++j) {
        std::ostringstream os;
        fan.member(j).llc().stats().dumpJson(os);
        if (fnv1a(os.str()) != indepDigests[j])
            rc::panic("fan-out member %zu diverged from its independent "
                      "run; the speedup would be meaningless",
                      j);
    }

    const double indepSimsPerSec =
        indepSec > 0.0 ? static_cast<double>(fanRuns) / indepSec : 0.0;
    const double fanSimsPerSec =
        fanSec > 0.0 ? static_cast<double>(fanRuns) / fanSec : 0.0;
    const double fanSpeedup =
        fanSec > 0.0 ? indepSec / fanSec : 0.0;

    // --- Feed-cache measurement: the identical sweep once more through
    // the persistent feed cache.  Cold pays the miss path in full
    // (front-end simulation in capture mode, blob serialization, fsync,
    // rename); warm pays the hit path (mmap + validation + SLLC-only
    // replay).  Both passes are digest-checked against the independent
    // runs, so the speedup is over bit-identical results.
    const std::string feedDir = "feedcache-kernel.tmp";
    removeFeedDir(feedDir); // stale leftovers of a killed run
    const auto sweepDigests = [&](FanoutCmp &f, const char *pass) {
        for (std::size_t j = 0; j < fanRuns; ++j) {
            std::ostringstream os;
            f.member(j).llc().stats().dumpJson(os);
            if (fnv1a(os.str()) != indepDigests[j])
                rc::panic("feed-cache %s member %zu diverged from its "
                          "independent run; the speedup would be "
                          "meaningless", pass, j);
        }
    };
    const FeedKey feedKey = feedKeyOf(sweep.front(), fanMix, opt.seed,
                                      opt.scale, opt.warmup, opt.measure);
    double feedColdSec = 0.0, feedWarmSec = 0.0;
    {
        const std::uint64_t c0 = tracer.hostNowMicros();
        auto fc = FeedCache::open(feedDir);
        if (fc->lookup(feedKey))
            rc::panic("feed-cache scratch dir '%s' was already warm",
                      feedDir.c_str());
        FanoutCmp cold(sweep,
                       [&fanMix, &opt] {
                           return buildMixStreams(fanMix, opt.seed,
                                                  opt.scale);
                       },
                       nullptr, /*capture=*/true);
        cold.run(opt.warmup);
        cold.beginMeasurement();
        cold.run(opt.measure);
        fc->store(feedKey, cold.sharedFeed());
        const std::uint64_t c1 = tracer.hostNowMicros();
        tracer.recordHost("kernel.feedcache.cold", 0, c1 - c0);
        feedColdSec = static_cast<double>(c1 - c0) * 1e-6;
        sweepDigests(cold, "cold");
    }
    {
        const std::uint64_t w0 = tracer.hostNowMicros();
        auto fc = FeedCache::open(feedDir);
        const std::shared_ptr<const FeedBlob> blob = fc->lookup(feedKey);
        if (!blob)
            rc::panic("feed-cache warm lookup missed the blob the cold "
                      "pass just stored");
        FanoutCmp warm(sweep,
                       [&fanMix, &opt] {
                           return buildMixStreams(fanMix, opt.seed,
                                                  opt.scale);
                       },
                       blob);
        warm.run(opt.warmup);
        warm.beginMeasurement();
        warm.run(opt.measure);
        const std::uint64_t w1 = tracer.hostNowMicros();
        tracer.recordHost("kernel.feedcache.warm", 0, w1 - w0);
        feedWarmSec = static_cast<double>(w1 - w0) * 1e-6;
        sweepDigests(warm, "warm");
    }
    removeFeedDir(feedDir);

    const double feedColdSimsPerSec =
        feedColdSec > 0.0 ? static_cast<double>(fanRuns) / feedColdSec
                          : 0.0;
    const double feedWarmSimsPerSec =
        feedWarmSec > 0.0 ? static_cast<double>(fanRuns) / feedWarmSec
                          : 0.0;
    const double feedSpeedup =
        feedWarmSec > 0.0 ? feedColdSec / feedWarmSec : 0.0;

    char buf[2048];
    std::snprintf(
        buf, sizeof(buf),
        "{\n"
        "  \"bench\": \"micro_kernel\",\n"
        "  \"runs\": %zu,\n"
        "  \"warmup_cycles\": %" PRIu64 ",\n"
        "  \"measure_cycles\": %" PRIu64 ",\n"
        "  \"scale\": %u,\n"
        "  \"accesses\": %" PRIu64 ",\n"
        "  \"serial_sims_per_sec\": %.4f,\n"
        "  \"accesses_per_sec\": %.1f,\n"
        "  \"stats_digest\": \"%016" PRIx64 "\",\n"
        "  \"fanout_runs\": %zu,\n"
        "  \"independent_sims_per_sec\": %.4f,\n"
        "  \"fanout_sims_per_sec\": %.4f,\n"
        "  \"fanout_speedup\": %.3f,\n"
        "  \"feedcache_cold_sims_per_sec\": %.4f,\n"
        "  \"feedcache_warm_sims_per_sec\": %.4f,\n"
        "  \"feedcache_speedup\": %.3f,\n"
        "  \"phases\": {\n"
        "    \"build_seconds\": %.3f,\n"
        "    \"warmup_seconds\": %.3f,\n"
        "    \"measure_seconds\": %.3f,\n"
        "    \"independent_seconds\": %.3f,\n"
        "    \"fanout_seconds\": %.3f,\n"
        "    \"feedcache_cold_seconds\": %.3f,\n"
        "    \"feedcache_warm_seconds\": %.3f\n"
        "  }\n"
        "}\n",
        runs, static_cast<std::uint64_t>(opt.warmup),
        static_cast<std::uint64_t>(opt.measure), opt.scale, accesses,
        simsPerSec, accPerSec, digest, fanRuns, indepSimsPerSec,
        fanSimsPerSec, fanSpeedup, feedColdSimsPerSec,
        feedWarmSimsPerSec, feedSpeedup, buildSec, warmupSec, measureSec,
        indepSec, fanSec, feedColdSec, feedWarmSec);

    std::FILE *f = std::fopen("BENCH_kernel.json", "w");
    if (!f)
        rc::panic("cannot write BENCH_kernel.json");
    std::fwrite(buf, 1, std::strlen(buf), f);
    std::fclose(f);
    std::fputs(buf, stdout);

    if (!baselinePath.empty()) {
        const BaselineRecord base = readBaseline(baselinePath);
        bool failed = false;
        const auto gate = [&](const char *what, double measured,
                              double recorded) {
            if (recorded <= 0.0)
                return; // baseline predates this metric
            const double floor = recorded * (1.0 - tolerance);
            std::printf("gate: %s %.4f sims/sec vs baseline %.4f "
                        "(floor %.4f, tolerance %.0f%%)\n",
                        what, measured, recorded, floor,
                        tolerance * 100.0);
            if (measured < floor) {
                std::fprintf(stderr,
                             "FAIL: %s sims/sec regressed more than "
                             "%.0f%% below the recorded baseline\n",
                             what, tolerance * 100.0);
                failed = true;
            }
        };
        gate("serial", simsPerSec, base.serialSimsPerSec);
        gate("fanout", fanSimsPerSec, base.fanoutSimsPerSec);
        gate("feedcache warm", feedWarmSimsPerSec,
             base.feedWarmSimsPerSec);
        // The speedup ratio gates too: warm replay regressing toward
        // cold cost is a feed-cache regression even if absolute sims/sec
        // kept up with a faster machine.
        if (base.feedSpeedup > 0.0) {
            const double floor = base.feedSpeedup * (1.0 - tolerance);
            std::printf("gate: feedcache speedup %.3fx vs baseline "
                        "%.3fx (floor %.3fx, tolerance %.0f%%)\n",
                        feedSpeedup, base.feedSpeedup, floor,
                        tolerance * 100.0);
            if (feedSpeedup < floor) {
                std::fprintf(stderr,
                             "FAIL: feedcache_speedup regressed more "
                             "than %.0f%% below the recorded baseline\n",
                             tolerance * 100.0);
                failed = true;
            }
        }
        if (failed)
            return 2;
    }
    return 0;
}
