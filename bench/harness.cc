#include "harness.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <mutex>
#include <thread>
#include <utility>

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include "arena/arena_registry.hh"
#include "common/log.hh"
#include "common/task_pool.hh"
#include "reuse/reuse_cache.hh"
#include "service/result_cache.hh"
#include "sim/fanout.hh"
#include "snapshot/journal.hh"
#include "snapshot/serializer.hh"
#include "telemetry/telemetry.hh"
#include "verify/fault_injector.hh"
#include "verify/integrity.hh"

namespace rc::bench
{

namespace
{

/**
 * Aggregate throughput of every forEachRun batch in this process, for
 * the BENCH_harness.json record written at exit.  cpuSeconds sums the
 * individual run durations (the serial-equivalent time); wallSeconds
 * sums the batch wall clocks, so cpu/wall is the realized speedup.
 */
struct PerfTotals
{
    std::mutex mu;
    std::string bench = "harness";
    std::uint64_t sims = 0;
    double cpuSeconds = 0.0;
    double wallSeconds = 0.0;
    std::uint32_t jobs = 1;
    std::uint64_t runsOk = 0;
    std::uint64_t runsRetried = 0;
    std::uint64_t runsQuarantined = 0;
    std::vector<RunOutcome> outcomes; //!< per-run records, batch order
};

/** Batch-local run index of the calling worker (npos outside a run). */
thread_local std::size_t tlsRunIndex = SIZE_MAX;

/** Attempt number of the calling worker's current run. */
thread_local std::uint32_t tlsAttempt = 0;

/** Watchdog wiring of the calling worker's run (null = no watchdog). */
thread_local std::atomic<std::uint64_t> *tlsHeartbeat = nullptr;
thread_local const std::atomic<bool> *tlsAbortFlag = nullptr;

/**
 * Adopts an external watchdog for the calling thread's runs while alive
 * (the sweep daemon's per-job abort flag and heartbeat), through the
 * wiring forEachRun's own monitor uses.
 */
struct ScopedRunWatch
{
    ScopedRunWatch(const std::atomic<bool> *abort,
                   std::atomic<std::uint64_t> *heartbeat)
        : prevAbort(std::exchange(tlsAbortFlag, abort)),
          prevHeartbeat(std::exchange(tlsHeartbeat, heartbeat))
    {
    }
    ~ScopedRunWatch()
    {
        tlsAbortFlag = prevAbort;
        tlsHeartbeat = prevHeartbeat;
    }
    const std::atomic<bool> *prevAbort;
    std::atomic<std::uint64_t> *prevHeartbeat;
};

/** Exit nonzero when quarantined runs remain (parseArgs guard). */
std::atomic<bool> exitOnQuarantineFlag{true};

/**
 * forEachRun call counter: the pair (batch, run) names a run of this
 * launch in the journal, hang dumps and telemetry tags.  Files a later
 * launch reads are named by request instead (runRequest).
 */
std::atomic<std::uint64_t> sweepBatchCounter{0};

/** Batch index of the innermost active forEachRun (npos outside). */
std::atomic<std::uint64_t> activeBatch{UINT64_MAX};

/**
 * Per-run watchdog slot.  The worker publishes forward progress into
 * `beat` (wired into Cmp::setProgressCounter); the monitor thread sets
 * `abort` when the beat stalls past the timeout.  `epoch` increments at
 * every attempt start so a retry re-arms the monitor's stall timer.
 * Each slot owns a 64-byte cache line: a plain run stores its beat on
 * every reference, and two concurrent runs storing into one shared
 * line would keep stealing it from each other.
 */
struct alignas(64) HeartbeatSlot
{
    std::atomic<std::uint64_t> beat{0};
    std::atomic<std::uint64_t> epoch{0};
    std::atomic<bool> running{false};
    std::atomic<bool> abort{false};
};

/** True when @p path names an existing file. */
bool
fileExists(const std::string &path)
{
    struct stat st;
    return ::stat(path.c_str(), &st) == 0;
}

/** mkdir that tolerates the directory already existing. */
void
ensureDir(const std::string &dir)
{
    if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST)
        throwSimError(SimError::Kind::Snapshot,
                      "cannot create sweep directory '%s'", dir.c_str());
}

/** Hang dumps kept under a sweep directory (see pruneHangDumps). */
constexpr std::size_t hangDumpsKept = 8;

/** `<dir>/hang-b<batch>-r<run>.dump`: the dump of a run of this launch. */
std::string
hangDumpPath(const std::string &dir, std::uint64_t batch, std::size_t run)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "/hang-b%llu-r%zu.dump",
                  static_cast<unsigned long long>(batch), run);
    return dir + buf;
}

// String escaping for the perf record comes from the shared JSON
// helper in common/stats.hh (rc::jsonEscape).

PerfTotals &
perfTotals()
{
    static PerfTotals t;
    return t;
}

std::string
perfRecordJsonLocked(const PerfTotals &t)
{
    const double serial =
        t.cpuSeconds > 0.0 ? static_cast<double>(t.sims) / t.cpuSeconds
                           : 0.0;
    const double parallel =
        t.wallSeconds > 0.0 ? static_cast<double>(t.sims) / t.wallSeconds
                            : 0.0;
    const double speedup =
        t.wallSeconds > 0.0 ? t.cpuSeconds / t.wallSeconds : 0.0;
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "{\n"
                  "  \"bench\": \"%s\",\n"
                  "  \"jobs\": %u,\n"
                  "  \"sims\": %llu,\n"
                  "  \"cpu_seconds\": %.3f,\n"
                  "  \"wall_seconds\": %.3f,\n"
                  "  \"serial_sims_per_sec\": %.4f,\n"
                  "  \"parallel_sims_per_sec\": %.4f,\n"
                  "  \"speedup\": %.3f,\n"
                  "  \"runs_ok\": %llu,\n"
                  "  \"runs_retried\": %llu,\n"
                  "  \"runs_quarantined\": %llu,\n"
                  "  \"runs\": [",
                  t.bench.c_str(), t.jobs,
                  static_cast<unsigned long long>(t.sims), t.cpuSeconds,
                  t.wallSeconds, serial, parallel, speedup,
                  static_cast<unsigned long long>(t.runsOk),
                  static_cast<unsigned long long>(t.runsRetried),
                  static_cast<unsigned long long>(t.runsQuarantined));
    std::string out = buf;
    for (std::size_t i = 0; i < t.outcomes.size(); ++i) {
        const RunOutcome &o = t.outcomes[i];
        std::snprintf(buf, sizeof(buf),
                      "%s\n    {\"index\": %zu, \"status\": \"%s\", "
                      "\"attempts\": %u, \"wall_seconds\": %.3f",
                      i == 0 ? "" : ",", o.index, toString(o.status),
                      o.attempts, o.wallSeconds);
        out += buf;
        if (!o.error.empty())
            out += ", \"error\": \"" + jsonEscape(o.error) + "\"";
        out += "}";
    }
    out += t.outcomes.empty() ? "]\n}\n" : "\n  ]\n}\n";
    return out;
}

void
writePerfRecord()
{
    PerfTotals &t = perfTotals();
    std::lock_guard<std::mutex> lock(t.mu);
    if (t.sims == 0)
        return;
    std::FILE *f = std::fopen("BENCH_harness.json", "w");
    if (!f) {
        warn("cannot write BENCH_harness.json");
        return;
    }
    const std::string json = perfRecordJsonLocked(t);
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
}

void
registerPerfRecord()
{
    static std::once_flag once;
    std::call_once(once, [] {
        // Construct the totals BEFORE registering the handler: function
        // statics are destroyed in reverse construction order, so this
        // guarantees writePerfRecord runs while they are still alive.
        perfTotals();
        std::atexit(writePerfRecord);
    });
}

/**
 * Exit-code guard: a sweep with runs still quarantined must not look
 * successful to scripts.  Runs after writePerfRecord (atexit is LIFO
 * and parseArgs registers this guard first), so the JSON is on disk
 * before _Exit.
 */
void
quarantineExitGuard()
{
    if (!exitOnQuarantineFlag.load(std::memory_order_relaxed))
        return;
    const std::uint64_t q = quarantinedRunsTotal();
    if (q == 0)
        return;
    std::fprintf(stderr,
                 "harness: %llu run(s) stayed quarantined; exiting "
                 "nonzero\n", static_cast<unsigned long long>(q));
    std::fflush(stderr);
    std::_Exit(1);
}

void
registerQuarantineGuard()
{
    static std::once_flag once;
    std::call_once(once, [] {
        perfTotals(); // keep alive for the guard (see registerPerfRecord)
        std::atexit(quarantineExitGuard);
    });
}

/** Print @p usage and end the process on a malformed flag value. */
[[noreturn]] void
badValue(const char *usage, const char *flag, const char *value,
         const char *want)
{
    std::fprintf(stderr, "%s", usage);
    fatal("%s needs %s (got '%s')", flag, want, value);
}

} // namespace

std::uint64_t
NumericFlags::count(const char *flag, const char *value,
                    std::uint64_t max) const
{
    std::uint64_t v = 0;
    const char *p = value;
    for (; *p >= '0' && *p <= '9'; ++p) {
        const std::uint64_t digit = static_cast<std::uint64_t>(*p - '0');
        if (v > (max - digit) / 10)
            badValue(usage, flag, value, "an unsigned decimal in range");
        v = v * 10 + digit;
    }
    if (p == value || *p != '\0')
        badValue(usage, flag, value, "an unsigned decimal");
    return v;
}

double
NumericFlags::seconds(const char *flag, const char *value) const
{
    char *end = nullptr;
    const double v = std::strtod(value, &end);
    if (end == value || *end != '\0' || !std::isfinite(v) || v < 0.0)
        badValue(usage, flag, value, "a finite number >= 0");
    return v;
}

const char *
toString(RunStatus status)
{
    switch (status) {
      case RunStatus::Ok: return "ok";
      case RunStatus::Retried: return "retried";
      case RunStatus::Quarantined: return "quarantined";
    }
    return "unknown";
}

void
pruneHangDumps(const std::string &dir, std::size_t keep)
{
    if (keep == 0 || dir.empty())
        return;
    DIR *d = ::opendir(dir.c_str());
    if (!d)
        return;
    // (mtime, name) so same-second dumps still order deterministically.
    std::vector<std::pair<std::pair<std::int64_t, std::string>,
                          std::string>> dumps;
    while (struct dirent *ent = ::readdir(d)) {
        const std::string name = ent->d_name;
        if (name.rfind("hang-", 0) != 0 || name.size() < 5 + 5 ||
            name.substr(name.size() - 5) != ".dump")
            continue;
        const std::string path = dir + "/" + name;
        struct stat st;
        if (::stat(path.c_str(), &st) != 0)
            continue;
        dumps.push_back({{static_cast<std::int64_t>(st.st_mtime), name},
                         path});
    }
    ::closedir(d);
    if (dumps.size() <= keep)
        return;
    std::sort(dumps.begin(), dumps.end());
    for (std::size_t i = 0; i + keep < dumps.size(); ++i)
        ::unlink(dumps[i].second.c_str());
}

void
resetSweepBatchesForTest()
{
    sweepBatchCounter.store(0, std::memory_order_relaxed);
}

std::uint64_t
quarantinedRunsTotal()
{
    PerfTotals &t = perfTotals();
    std::lock_guard<std::mutex> lock(t.mu);
    return t.runsQuarantined;
}

void
setExitOnQuarantine(bool enable)
{
    exitOnQuarantineFlag.store(enable, std::memory_order_relaxed);
}

std::string
perfRecordJson()
{
    PerfTotals &t = perfTotals();
    std::lock_guard<std::mutex> lock(t.mu);
    return perfRecordJsonLocked(t);
}

const char *
usageString()
{
    return "usage: <bench> [flags]\n"
           "  --mixes=N    multiprogrammed workloads per experiment "
           "(default 5)\n"
           "  --scale=N    capacity divisor, 1 = paper-size caches "
           "(default 8)\n"
           "  --warmup=N   warmup cycles (default 3000000)\n"
           "  --measure=N  measured cycles (default 12000000)\n"
           "  --seed=N     base RNG seed (default 42)\n"
           "  --policy=NAME  restrict/override the replacement policy "
           "under test\n"
           "               (see arena registry; misspellings get a 'did "
           "you mean' hint)\n"
           "  --jobs=N     concurrent simulations (default: hardware "
           "threads; 1 = serial)\n"
           "  --check-interval=N  walk the integrity checker every N "
           "references (0 = off)\n"
           "  --inject=CLASS[@IDX]  poison every config of job IDX "
           "(default 0) of each batch\n"
           "               with one CLASS fault (tag-state, dir-drop, "
           "dir-ghost, owner,\n"
           "               orphan-data, mshr-leak, repl-meta)\n"
           "  --checkpoint-interval=N  checkpoint each one-member job's "
           "full state every N\n"
           "               references (needs --sweep-dir or --resume; "
           "0 = off)\n"
           "  --sweep-dir=DIR  journal every job, store finished runs in "
           "DIR/results and\n"
           "               keep checkpoints in DIR\n"
           "  --resume=DIR relaunch a killed sweep from DIR: reuse the "
           "stored runs, restore\n"
           "               in-flight one-member jobs from their latest "
           "valid checkpoint\n"
           "  --hang-timeout=S  abort and quarantine runs making no "
           "forward progress for\n"
           "               S wall seconds (default 300; 0 = off)\n"
           "  --telemetry-dir=DIR  write per-run telemetry artifacts "
           "(traces, epoch CSVs,\n"
           "               stats JSON) under DIR\n"
           "  --trace-events  record event traces as Chrome trace_event "
           "JSON\n"
           "               (needs --telemetry-dir)\n"
           "  --sample-interval=N  sample stat deltas every N simulated "
           "cycles into an\n"
           "               epoch CSV (needs --telemetry-dir)\n"
           "  --feed-cache=DIR  persist/replay fan-out front-end record "
           "streams under DIR\n"
           "               (warm hits skip stream generation and private-"
           "hierarchy simulation)\n"
           "  --no-feed-cache  force the feed cache off (overrides a "
           "bench's default dir)\n"
           "  --full       paper-strength settings (100 mixes, longer "
           "windows)\n"
           "  --help       print this text and exit\n";
}

RunOptions
parseArgs(int argc, char **argv)
{
    if (argc > 0 && argv[0]) {
        const char *base = std::strrchr(argv[0], '/');
        std::lock_guard<std::mutex> lock(perfTotals().mu);
        perfTotals().bench = base ? base + 1 : argv[0];
    }
    // Guard first, JSON writer second: atexit runs LIFO, so the perf
    // record is on disk before the guard can _Exit nonzero.
    registerQuarantineGuard();
    registerPerfRecord();
    RunOptions opt;
    // Bench CLIs default the watchdog on; tests constructing RunOptions
    // directly keep it off (hangTimeout's field default is 0).
    opt.hangTimeout = 300.0;
    const NumericFlags num{usageString()};
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        auto value = [&](const char *prefix) -> const char * {
            const std::size_t n = std::strlen(prefix);
            return std::strncmp(arg, prefix, n) == 0 ? arg + n : nullptr;
        };
        if (const char *v = value("--mixes=")) {
            opt.mixCount = static_cast<std::uint32_t>(
                num.count("--mixes", v, UINT32_MAX));
        } else if (const char *v = value("--scale=")) {
            opt.scale = static_cast<std::uint32_t>(
                num.count("--scale", v, UINT32_MAX));
        } else if (const char *v = value("--warmup=")) {
            opt.warmup = num.count("--warmup", v);
        } else if (const char *v = value("--measure=")) {
            opt.measure = num.count("--measure", v);
        } else if (const char *v = value("--seed=")) {
            opt.seed = num.count("--seed", v);
        } else if (const char *v = value("--policy=")) {
            // Resolves through the arena registry: unknown names fatal
            // with a did-you-mean hint and the full spelling list.
            opt.policyKind = arena::parsePolicyName(v);
            opt.policy = arena::policyInfo(opt.policyKind).name;
        } else if (const char *v = value("--jobs=")) {
            opt.jobs = static_cast<std::uint32_t>(
                num.count("--jobs", v, UINT32_MAX));
            if (opt.jobs < 1)
                fatal("--jobs must be >= 1 (got '%s'); use --jobs=1 for "
                      "the serial path", v);
        } else if (const char *v = value("--check-interval=")) {
            opt.checkInterval = num.count("--check-interval", v);
        } else if (const char *v = value("--checkpoint-interval=")) {
            opt.checkpointInterval = num.count("--checkpoint-interval", v);
        } else if (const char *v = value("--sweep-dir=")) {
            opt.sweepDir = v;
        } else if (const char *v = value("--resume=")) {
            opt.sweepDir = v;
            opt.resume = true;
        } else if (const char *v = value("--hang-timeout=")) {
            opt.hangTimeout = num.seconds("--hang-timeout", v);
        } else if (const char *v = value("--telemetry-dir=")) {
            opt.telemetryDir = v;
        } else if (std::strcmp(arg, "--trace-events") == 0) {
            opt.traceEvents = true;
        } else if (const char *v = value("--sample-interval=")) {
            opt.sampleInterval = num.count("--sample-interval", v);
        } else if (const char *v = value("--feed-cache=")) {
            opt.feedCacheDir = v;
            opt.feedCacheDisabled = false;
        } else if (std::strcmp(arg, "--no-feed-cache") == 0) {
            // Spelled as its own flag (not --feed-cache=) so benches
            // that default the cache on (arena_tournament) can be
            // overridden explicitly; last flag wins.
            opt.feedCacheDir.clear();
            opt.feedCacheDisabled = true;
        } else if (const char *v = value("--inject=")) {
            std::string spec = v;
            if (const std::size_t at = spec.find('@');
                at != std::string::npos) {
                opt.injectRun = static_cast<std::size_t>(
                    num.count("--inject", spec.c_str() + at + 1, SIZE_MAX));
                spec.resize(at);
            }
            FaultClass cls = FaultClass::TagStateFlip;
            if (!faultClassFromName(spec, cls))
                fatal("unknown fault class '%s'; known classes: "
                      "tag-state, dir-drop, dir-ghost, owner, "
                      "orphan-data, mshr-leak, repl-meta", spec.c_str());
            opt.injectFault = spec;
        } else if (std::strcmp(arg, "--full") == 0) {
            opt.mixCount = 100;
            opt.warmup = 5'000'000;
            opt.measure = 20'000'000;
        } else if (std::strcmp(arg, "--help") == 0) {
            std::printf("%s", usageString());
            std::exit(0);
        } else {
            std::fprintf(stderr, "%s", usageString());
            fatal("unknown flag '%s'", arg);
        }
    }
    if (opt.mixCount == 0 || opt.scale == 0 || opt.measure == 0)
        fatal("mixes, scale and measure must be positive");
    if (opt.resume && opt.sweepDir.empty())
        fatal("--resume needs a directory (--resume=DIR)");
    if (opt.checkpointInterval != 0 && opt.sweepDir.empty())
        fatal("--checkpoint-interval needs --sweep-dir=DIR or "
              "--resume=DIR to know where to put the checkpoints");
    if ((opt.traceEvents || opt.sampleInterval != 0) &&
        opt.telemetryDir.empty())
        fatal("--trace-events and --sample-interval need "
              "--telemetry-dir=DIR to know where to put the artifacts");
    return opt;
}

RunOptions
initBench(int argc, char **argv, const std::string &artifact,
          const std::string &claim,
          const std::function<void(RunOptions &)> &tweak)
{
    RunOptions opt = parseArgs(argc, argv);
    if (tweak)
        tweak(opt);
#ifndef __OPTIMIZE__
    // Numbers from an -O0 build are not comparable to recorded
    // baselines (BENCH_*.json); say so once per bench process.
    warn("this bench binary was built without optimization; "
         "performance figures will not match recorded baselines");
#endif
    printHeader(artifact, claim, opt);
    return opt;
}

std::uint32_t
effectiveJobs(const RunOptions &opt)
{
    return opt.jobs ? opt.jobs
                    : static_cast<std::uint32_t>(
                          TaskPool::defaultConcurrency());
}

std::vector<RunOutcome>
forEachRun(std::size_t n, const RunOptions &opt,
           const std::function<void(std::size_t)> &body)
{
    if (n == 0)
        return {};
    registerPerfRecord();
    const std::uint64_t batch =
        sweepBatchCounter.fetch_add(1, std::memory_order_relaxed);
    activeBatch.store(batch, std::memory_order_relaxed);
    const std::uint32_t jobs = effectiveJobs(opt);

    using clock = std::chrono::steady_clock;
    std::atomic<std::uint64_t> runNanos{0};
    std::vector<RunOutcome> outcomes(n);

    // The journal logs every finished run of this launch.
    std::unique_ptr<SweepJournal> journal;
    if (!opt.sweepDir.empty())
        journal = std::make_unique<SweepJournal>(opt.sweepDir);

    // Forward-progress watchdog: one heartbeat slot per run, one
    // monitor thread flagging runs whose beat stalls past the timeout.
    // The monitor waits on stopCv between polls, so the batch ends as
    // soon as its last run does.
    const bool watch = opt.hangTimeout > 0.0;
    std::vector<HeartbeatSlot> slots(watch ? n : 0);
    std::mutex stopMu;
    std::condition_variable stopCv;
    bool stopWatch = false;
    std::thread monitor;
    if (watch) {
        monitor = std::thread([&, n] {
            struct Seen
            {
                std::uint64_t epoch = 0;
                std::uint64_t beat = 0;
                clock::time_point since;
                bool armed = false;
            };
            std::vector<Seen> seen(n);
            const auto poll = std::chrono::duration<double>(
                std::clamp(opt.hangTimeout / 4.0, 0.001, 0.25));
            std::unique_lock<std::mutex> lock(stopMu);
            while (!stopCv.wait_for(lock, poll, [&] { return stopWatch; })) {
                const auto now = clock::now();
                for (std::size_t i = 0; i < n; ++i) {
                    HeartbeatSlot &slot = slots[i];
                    if (!slot.running.load(std::memory_order_acquire)) {
                        seen[i].armed = false;
                        continue;
                    }
                    Seen &sn = seen[i];
                    const std::uint64_t e =
                        slot.epoch.load(std::memory_order_relaxed);
                    const std::uint64_t b =
                        slot.beat.load(std::memory_order_relaxed);
                    if (!sn.armed || e != sn.epoch || b != sn.beat) {
                        sn = {e, b, now, true};
                        continue;
                    }
                    if (slot.abort.load(std::memory_order_relaxed))
                        continue;
                    const double stalled =
                        std::chrono::duration<double>(now - sn.since)
                            .count();
                    if (stalled >= opt.hangTimeout) {
                        warn("watchdog: run %zu made no forward progress "
                             "for %.1f s -- aborting it", i, stalled);
                        slot.abort.store(true, std::memory_order_release);
                    }
                }
            }
        });
    }

    // Crash isolation: a SimError fails only this run — retry once,
    // then quarantine.  Anything else still propagates (a logic bug in
    // the harness must not be silently absorbed).
    auto guarded = [&](std::size_t i) {
        RunOutcome &out = outcomes[i];
        out.index = i;
        tlsRunIndex = i;
        HeartbeatSlot *slot = watch ? &slots[i] : nullptr;
        if (slot) {
            // livelockRun (test hook): run normally, but never publish
            // the heartbeat, so the monitor must flag this run.
            tlsHeartbeat = i == opt.livelockRun ? nullptr : &slot->beat;
            tlsAbortFlag = &slot->abort;
        }
        const auto t0 = clock::now();
        for (std::uint32_t attempt = 0;; ++attempt) {
            tlsAttempt = attempt;
            out.attempts = attempt + 1;
            if (slot) {
                slot->abort.store(false, std::memory_order_relaxed);
                slot->beat.store(0, std::memory_order_relaxed);
                slot->epoch.fetch_add(1, std::memory_order_relaxed);
                slot->running.store(true, std::memory_order_release);
            }
            try {
                body(i);
                if (slot)
                    slot->running.store(false, std::memory_order_release);
                out.status =
                    attempt == 0 ? RunStatus::Ok : RunStatus::Retried;
                out.error.clear();
                break;
            } catch (const SimError &err) {
                if (slot)
                    slot->running.store(false, std::memory_order_release);
                out.error = err.what();
                warn("run %zu attempt %u failed: %s%s", i, attempt + 1,
                     err.what(),
                     attempt == 0 ? " -- retrying" : " -- quarantined");
                if (attempt == 1) {
                    out.status = RunStatus::Quarantined;
                    break;
                }
            }
        }
        tlsRunIndex = SIZE_MAX;
        tlsAttempt = 0;
        tlsHeartbeat = nullptr;
        tlsAbortFlag = nullptr;
        out.wallSeconds =
            std::chrono::duration<double>(clock::now() - t0).count();
        runNanos.fetch_add(
            static_cast<std::uint64_t>(out.wallSeconds * 1e9),
            std::memory_order_relaxed);

        if (!journal)
            return;
        // digest stays 0, the journal's "none": no blob backs a record.
        JournalRecord rec;
        rec.batch = batch;
        rec.run = i;
        rec.status = toString(out.status);
        rec.attempts = out.attempts;
        rec.wallSeconds = out.wallSeconds;
        rec.error = out.error;
        journal->append(rec);
    };

    const auto endBatch = [&] {
        {
            std::lock_guard<std::mutex> lock(stopMu);
            stopWatch = true;
        }
        stopCv.notify_one();
        if (monitor.joinable())
            monitor.join();
        activeBatch.store(UINT64_MAX, std::memory_order_relaxed);
    };
    const auto wall0 = clock::now();
    try {
        if (jobs <= 1 || n == 1) {
            for (std::size_t i = 0; i < n; ++i)
                guarded(i);
        } else {
            TaskPool pool(std::min<std::size_t>(jobs, n));
            pool.parallelFor(0, n, guarded);
        }
    } catch (...) {
        endBatch();
        throw;
    }
    endBatch();
    const double wall =
        std::chrono::duration<double>(clock::now() - wall0).count();

    PerfTotals &t = perfTotals();
    std::lock_guard<std::mutex> lock(t.mu);
    t.sims += n;
    t.cpuSeconds += static_cast<double>(runNanos.load()) * 1e-9;
    t.wallSeconds += wall;
    t.jobs = jobs;
    for (const RunOutcome &o : outcomes) {
        switch (o.status) {
          case RunStatus::Ok: ++t.runsOk; break;
          case RunStatus::Retried: ++t.runsRetried; break;
          case RunStatus::Quarantined: ++t.runsQuarantined; break;
        }
        t.outcomes.push_back(o);
    }
    return outcomes;
}

svc::RunRequest
runRequest(SystemConfig cfg, const Mix &mix, const RunOptions &opt)
{
    cfg.seed = opt.seed;
    return svc::RunRequest{cfg, mix, opt.seed, opt.scale, opt.warmup,
                           opt.measure};
}

double
speedupRatio(double sys_ipc, double baseline_ipc)
{
    return baseline_ipc > 0.0 ? sys_ipc / baseline_ipc : 0.0;
}

SystemConfig
baselineFor(const RunOptions &opt)
{
    SystemConfig sys = baselineSystem(opt.scale);
    if (!opt.policy.empty())
        sys.conv.repl = opt.policyKind;
    return sys;
}

namespace
{

RunResult
collect(Cmp &cmp)
{
    RunResult res;
    res.aggregateIpc = cmp.aggregateIpc();
    for (CoreId c = 0; c < cmp.numCores(); ++c) {
        res.coreIpc.push_back(cmp.ipc(c));
        res.mpki.push_back(cmp.measuredMpki(c));
    }
    const StatSet &llc = cmp.llc().stats();
    res.llcAccesses = llc.ref("accesses");
    if (const Counter *tagMisses = llc.tryRef("tagMisses"))
        res.llcMemFetches = *tagMisses;
    if (const auto *reuse = dynamic_cast<const ReuseCache *>(&cmp.llc()))
        res.fracNeverEnteredData = reuse->fractionNeverEnteredData();
    res.dramReads = cmp.memory().totalReads();
    return res;
}

/** Is the calling thread's job the --inject target, this attempt? */
bool
isInjectTarget(const RunOptions &opt)
{
    return !opt.injectFault.empty() &&
           tlsRunIndex == opt.injectRun &&
           (opt.injectOnRetry || tlsAttempt == 0);
}

/**
 * Cadence for the integrity checker: the explicit --check-interval, or
 * a default one on a poisoned job so the injected fault is actually
 * caught mid-run rather than only at quiesce.
 */
std::uint64_t
checkCadence(const RunOptions &opt)
{
    if (opt.checkInterval != 0)
        return opt.checkInterval;
    return isInjectTarget(opt) ? 5'000 : 0;
}

/** Member @p j of an @p n-member job as a file-tag suffix: "" for a
 *  one-member job, "-m<j>" otherwise. */
std::string
memberSuffix(std::size_t j, std::size_t n)
{
    return n == 1 ? std::string() : "-m" + std::to_string(j);
}

/** Poison one member of the --inject target job (see checkCadence). */
void
applyInjectedFault(Cmp &cmp, const RunOptions &opt, const std::string &member)
{
    FaultClass cls = FaultClass::TagStateFlip;
    if (!faultClassFromName(opt.injectFault, cls))
        throwSimError(SimError::Kind::Config,
                      "unknown fault class '%s'",
                      opt.injectFault.c_str());
    // Per-job seed: deterministic, but distinct targets across jobs.
    FaultInjector injector(opt.seed + tlsRunIndex);
    const InjectionResult r = injector.inject(cmp, cls);
    warn("run %zu%s attempt %u: inject %s: %s", tlsRunIndex,
         member.c_str(), tlsAttempt + 1, toString(cls),
         r.detail.c_str());
}

/**
 * File tag of the calling worker's run, matching hangDumpPath(): the
 * telemetry artifacts carry the hang dumps' (batch, run) naming so a
 * launch's outputs line up run for run.
 */
std::string
telemetryTag()
{
    if (tlsRunIndex == SIZE_MAX) {
        // Benches call runMix outside forEachRun repeatedly (one call
        // per configuration); number those so artifacts never silently
        // overwrite each other.
        static std::atomic<std::uint64_t> soloRuns{0};
        const std::uint64_t n = soloRuns.fetch_add(1);
        return n == 0 ? "solo" : "solo" + std::to_string(n + 1);
    }
    char buf[48];
    std::snprintf(buf, sizeof(buf), "b%llu-r%zu",
                  static_cast<unsigned long long>(activeBatch.load()),
                  tlsRunIndex);
    return buf;
}

/**
 * Persist one run's resumable state: a "harness" section carrying the
 * phase (0 = warmup, 1 = measurement), the run's request digest (which
 * run this state belongs to) and the sampling interval, then the full
 * Cmp image, then the epoch sampler's accumulated rows and baselines
 * (absent when sampling is off; the sampleInterval fingerprint keeps
 * the two in agreement).  Checkpoints and watchdog hang dumps share
 * this layout.
 */
void
writeRunState(const Cmp &cmp, std::uint32_t phase, std::uint64_t digest,
              const RunOptions &opt, const EpochSampler *sampler,
              const std::string &path)
{
    Serializer s;
    s.beginSection("run");
    s.beginSection("harness");
    s.putU32(phase);
    s.putU64(digest);
    s.putU64(opt.sampleInterval);
    s.endSection("harness");
    s.beginSection("cmp");
    cmp.save(s);
    s.endSection("cmp");
    s.beginSection("telemetry");
    s.putBool(sampler != nullptr);
    if (sampler)
        sampler->save(s);
    s.endSection("telemetry");
    s.endSection("run");
    s.writeFile(path);
}

/**
 * Restore one run's resumable state (the writeRunState() layout) from
 * @p path into @p cmp and @p sampler, then hold the restored system to
 * the integrity checker: a checkpoint that restores into an
 * inconsistent system is as unusable as one that fails its CRC.  A file
 * of another run (request @p digest) or another sampling interval
 * throws SimError(Snapshot).
 * @return the saved phase (0 = warmup, 1 = measurement).
 */
std::uint32_t
readRunState(Cmp &cmp, std::uint64_t digest, const RunOptions &opt,
             EpochSampler *sampler, const std::string &path)
{
    Deserializer d(path);
    d.beginSection("run");
    d.beginSection("harness");
    const std::uint32_t phase = d.getU32();
    const std::uint64_t savedDigest = d.getU64();
    const std::uint64_t sampleEvery = d.getU64();
    if (phase > 1)
        throwSimError(SimError::Kind::Snapshot,
                      "checkpoint '%s' carries unknown phase %u",
                      path.c_str(), phase);
    if (savedDigest != digest)
        throwSimError(SimError::Kind::Snapshot,
                      "checkpoint '%s' belongs to another run "
                      "(request digest %s, this run %s)",
                      path.c_str(), digestHex(savedDigest).c_str(),
                      digestHex(digest).c_str());
    if (sampleEvery != opt.sampleInterval)
        throwSimError(SimError::Kind::Snapshot,
                      "checkpoint '%s' was taken with sample interval %llu",
                      path.c_str(),
                      static_cast<unsigned long long>(sampleEvery));
    d.endSection("harness");
    d.beginSection("cmp");
    cmp.restore(d);
    d.endSection("cmp");
    d.beginSection("telemetry");
    if (d.getBool() != (sampler != nullptr))
        throwSimError(SimError::Kind::Snapshot,
                      "checkpoint '%s' and this run disagree on epoch "
                      "sampling", path.c_str());
    if (sampler)
        sampler->restore(d);
    d.endSection("telemetry");
    d.endSection("run");
    IntegrityChecker(cmp).enforce(cmp.now());
    return phase;
}

/** The simulator a job runs on. */
enum class Engine : std::uint8_t
{
    Plain,  //!< one Cmp, stepped reference by reference
    Fanout, //!< one FanoutCmp: N back ends behind one shared front end
};

/**
 * The engine of a grid job or a daemon request, picked by what the job
 * is.  A prefetching config runs on a plain Cmp (its prefetcher state
 * lives in front of the fan-out split), and so does a job with one
 * member and no feed cache: it has nothing to share and would only pay
 * for the feed window and the lockstep.  Every other job shares one
 * front end.
 */
Engine
engineFor(const std::vector<SystemConfig> &cfgs, const RunOptions &opt)
{
    const bool plain = cfgs.front().prefetch.enable ||
                       (cfgs.size() == 1 && opt.feedCacheDir.empty());
    return plain ? Engine::Plain : Engine::Fanout;
}

/** Builds @p mix's per-core streams under @p opt's seed and scale. */
StreamFactory
mixStreams(const Mix &mix, const RunOptions &opt)
{
    return [&mix, &opt] { return buildMixStreams(mix, opt.seed, opt.scale); };
}

/**
 * A job's telemetry sessions, one per member.  Each session makes its
 * tracer the thread's current one and hands back its predecessor's when
 * it closes, so they close newest first.
 */
struct MemberTelemetry
{
    std::vector<std::unique_ptr<TelemetrySession>> sessions;

    ~MemberTelemetry() { close(); }
    void close()
    {
        while (!sessions.empty())
            sessions.pop_back();
    }
    TelemetrySession *at(std::size_t j) const
    {
        return j < sessions.size() ? sessions[j].get() : nullptr;
    }
};

/**
 * The harness's one job executor: simulate @p mix (whose per-core
 * streams @p streams builds) on every config in @p cfgs, on @p engine.
 *
 * Every member gets a telemetry session (tagged <run> for one member,
 * <run>-m<j> otherwise), the integrity cadence, the watchdog heartbeat
 * and abort flag and, in the --inject target job, the fault after
 * warmup.  The fan-out engine looks its front end up in the feed cache.
 * The plain engine alone takes periodic checkpoints, restores from one
 * on resume, leaves a state dump when the watchdog aborts it and runs
 * the tracker cooldown: a fan-out member cannot be restored into, and
 * its express state is lazy mid-slice, so it has nothing consistent to
 * save.  A fan-out job resumes whole, from the result store or from
 * scratch.
 * @return one RunResult per config, in order.
 */
std::vector<RunResult>
executeJob(Engine engine, std::vector<SystemConfig> cfgs, const Mix &mix,
           const StreamFactory &streams, const RunOptions &opt,
           GenerationTracker *tracker = nullptr, Cycle *win_start = nullptr,
           Cycle *win_end = nullptr)
{
    const bool plain = engine == Engine::Plain;
    RC_ASSERT(!cfgs.empty() && (plain ? cfgs.size() == 1 : !tracker),
              "a plain job has one member; only it takes a tracker");
    for (SystemConfig &c : cfgs)
        c.seed = opt.seed;

    // Feed-cache protocol (fan-out, --feed-cache=DIR): the front end's
    // record streams depend only on (front-end prefix, mix, seed, scale,
    // windows), which every member shares, so one lookup covers the
    // whole job.  Warm hit: replay zero-copy from the blob.  Miss: take
    // the key's flock lease so concurrent processes racing the same cold
    // key serialize (the loser wakes to a warm re-lookup), capture the
    // front end while simulating, and store it after the run.  Either
    // way the results are bit-identical to an uncached pass; any cache
    // failure demotes to exactly that.
    std::shared_ptr<FeedCache> fc;
    if (!plain && !opt.feedCacheDir.empty()) {
        try {
            fc = FeedCache::open(opt.feedCacheDir);
        } catch (const SimError &e) {
            warn("feed cache disabled for this run: %s", e.what());
        }
    }
    FeedKey key;
    std::shared_ptr<const FeedBlob> blob;
    std::unique_ptr<BlobLease> lease;
    if (fc) {
        key = feedKeyOf(cfgs.front(), mix, opt.seed, opt.scale, opt.warmup,
                        opt.measure);
        blob = fc->lookup(key);
        if (!blob) {
            lease = fc->lockKey(key.digest);
            if (lease)
                blob = fc->lookup(key); // did the lease holder store it?
        }
    }
    const bool capture = fc != nullptr && blob == nullptr;

    std::unique_ptr<Cmp> solo;      // the plain engine's system
    std::unique_ptr<FanoutCmp> fan; // the fan-out engine's systems
    std::vector<Cmp *> members;
    const auto build = [&] {
        members.clear();
        if (plain) {
            solo = std::make_unique<Cmp>(cfgs.front(), streams());
            members.push_back(solo.get());
            return;
        }
        fan = std::make_unique<FanoutCmp>(cfgs, streams, blob, capture);
        for (std::size_t j = 0; j < fan->size(); ++j)
            members.push_back(&fan->member(j));
    };
    build();
    const std::size_t n = members.size();

    // Quarantine-retry hygiene: a tracker that stayed attached across a
    // failed attempt holds that attempt's history; start it clean so a
    // retry is bit-identical to a clean first attempt.
    if (tracker)
        tracker->reset();

    // Checkpoints and hang dumps live under the sweep directory and
    // carry the run's request digest.  A checkpoint is named after it
    // too, so a relaunch finds it whatever its job layout.  Two
    // concurrent jobs of one request share the name; that is safe,
    // because their states are identical and every write is an atomic
    // rename.
    const bool persist = plain && !opt.sweepDir.empty();
    const std::uint64_t digest =
        persist ? svc::requestDigest(runRequest(cfgs.front(), mix, opt)) : 0;
    // A resumed run looks for its checkpoint even when this launch takes
    // none itself.
    std::string ckptPath;
    if (persist && tracker && opt.checkpointInterval != 0) {
        warn("run %zu: checkpointing disabled, a generation tracker is "
             "attached (observer history is not simulated state)",
             tlsRunIndex);
    } else if (persist && !tracker &&
               (opt.checkpointInterval != 0 || opt.resume)) {
        ensureDir(opt.sweepDir);
        ckptPath = opt.sweepDir + "/ckpt-" + digestHex(digest) + ".ckpt";
    }

    // The telemetry sessions precede the restore attempt: a resumed run
    // must restore its sampler baselines from the checkpoint before the
    // sample hook is installed.
    TelemetryConfig tcfg;
    tcfg.dir = opt.telemetryDir;
    tcfg.traceEvents = opt.traceEvents;
    tcfg.sampleInterval = opt.sampleInterval;
    const std::string ttag = tcfg.enabled() ? telemetryTag() : "";
    MemberTelemetry telemetry;
    const auto openTelemetry = [&] {
        telemetry.close();
        for (std::size_t j = 0; tcfg.enabled() && j < n; ++j) {
            telemetry.sessions.push_back(std::make_unique<TelemetrySession>(
                tcfg, ttag + memberSuffix(j, n)));
            if (EventTracer *t = telemetry.sessions.back()->tracer())
                t->recordHost("run.attempt", 0, 0, tlsAttempt + 1);
        }
    };
    openTelemetry();
    const auto sampler0 = [&] {
        return telemetry.at(0) ? telemetry.at(0)->sampler() : nullptr;
    };

    // Resume: restore from the run's checkpoint when one exists; any
    // snapshot error falls back to a from-scratch execution.
    std::uint32_t phase = 0; // 0 = warmup, 1 = measurement
    if (opt.resume && !ckptPath.empty() && fileExists(ckptPath)) {
        try {
            phase = readRunState(*solo, digest, opt, sampler0(), ckptPath);
            warn("run %zu: resumed from '%s' (phase %u, %llu references "
                 "already simulated)", tlsRunIndex, ckptPath.c_str(),
                 phase,
                 static_cast<unsigned long long>(
                     solo->referencesProcessed()));
        } catch (const SimError &err) {
            warn("run %zu: checkpoint '%s' unusable: %s -- restarting "
                 "the run from scratch", tlsRunIndex,
                 ckptPath.c_str(), err.what());
            // A failed restore may have half-filled the system and the
            // sampler; rebuild both so the run starts pristine.
            build();
            phase = 0;
            openTelemetry();
        }
    }
    EventTracer *tracer = telemetry.at(0) ? telemetry.at(0)->tracer() : nullptr;
    EpochSampler *sampler = sampler0();

    // The plain engine leaves a diagnostic state dump behind when the
    // watchdog aborts it.
    std::function<void(const Cmp &)> dump;
    if (persist && tlsAbortFlag) {
        ensureDir(opt.sweepDir);
        dump = [&opt, &phase, digest, sampler,
                path = hangDumpPath(opt.sweepDir, activeBatch.load(),
                                    tlsRunIndex)](const Cmp &c) {
            try {
                writeRunState(c, phase, digest, opt, sampler, path);
                warn("watchdog: diagnostic state dump written to '%s'",
                     path.c_str());
                // A sweep that keeps tripping its watchdog across
                // relaunches must not fill the disk with diagnostics.
                pruneHangDumps(opt.sweepDir, hangDumpsKept);
            } catch (const SimError &err) {
                warn("watchdog: cannot write the state dump: %s",
                     err.what());
            }
        };
    }

    // Per-member wiring: telemetry, the integrity cadence and the
    // watchdog.  Every member publishes into the job's one heartbeat
    // (members advance in lockstep on one thread, so any member's
    // progress is the job's) and honors its abort flag.
    const std::uint64_t cadence = checkCadence(opt);
    std::vector<std::unique_ptr<IntegrityChecker>> checkers;
    for (std::size_t j = 0; j < n; ++j) {
        Cmp &m = *members[j];
        if (TelemetrySession *ts = telemetry.at(j))
            ts->attach(m);
        if (cadence != 0) {
            checkers.push_back(std::make_unique<IntegrityChecker>(m));
            m.setCheckHook(cadence, [ck = checkers.back().get()](
                                        const Cmp &, Cycle now) {
                ck->enforce(now);
            });
        }
        if (tlsAbortFlag) {
            m.setProgressCounter(tlsHeartbeat);
            m.setAbortFlag(tlsAbortFlag, dump);
        }
    }
    if (tracker)
        solo->llc().setObserver(tracker);

    // Periodic checkpoints, plus the simulated-crash test hook (which
    // dies right after a checkpoint landed, like a kill -9 would).
    if (!ckptPath.empty() && opt.checkpointInterval != 0)
        solo->setSnapshotHook(opt.checkpointInterval,
                              [&opt, &phase, digest, sampler, tracer,
                               ckptPath](const Cmp &c, Cycle) {
            const std::uint64_t t0 = tracer ? tracer->hostNowMicros() : 0;
            writeRunState(c, phase, digest, opt, sampler, ckptPath);
            if (tracer)
                tracer->recordHost("checkpoint.write", 0,
                                   tracer->hostNowMicros() - t0);
            if (opt.crashAfterRefs != 0 &&
                c.referencesProcessed() >= opt.crashAfterRefs)
                throwSimError(SimError::Kind::Snapshot,
                              "simulated crash after %llu references "
                              "(test hook)",
                              static_cast<unsigned long long>(
                                  c.referencesProcessed()));
        });

    // Advance every member, as host phase @p name on every trace.
    const auto runPhase = [&](const char *name, Cycle cycles) {
        const auto t0 = std::chrono::steady_clock::now();
        fan ? fan->run(cycles) : solo->run(cycles);
        const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
        for (const auto &ts : telemetry.sessions)
            if (EventTracer *t = ts->tracer())
                t->recordHost(name, 0, static_cast<std::uint64_t>(us));
    };
    if (phase == 0) {
        runPhase("run.warmup", opt.warmup);
        if (isInjectTarget(opt))
            for (std::size_t j = 0; j < n; ++j)
                applyInjectedFault(*members[j], opt, memberSuffix(j, n));
        fan ? fan->beginMeasurement() : solo->beginMeasurement();
        phase = 1;
    }
    // A run restored mid-measurement did its warmup, injection and
    // counter snapshots before the checkpoint; run(measure) continues
    // to the identical horizon because the loop end is computed from
    // the restored pre-measurement horizon.
    if (win_start)
        *win_start = members[0]->measurementStart();
    runPhase("run.measure", opt.measure);
    if (win_end)
        *win_end = members[0]->now();

    std::vector<RunResult> res;
    for (Cmp *m : members)
        res.push_back(collect(*m));
    if (tracker) {
        // Cooldown: liveness is future knowledge ("will this line be
        // hit again?"), so keep simulating past the reported window;
        // otherwise every line looks dead near the window's end.
        solo->run(opt.measure / 2);
        tracker->finalize(solo->now());
        if (sampler) {
            // Emit the residual epoch now (finalize()'s own finish() is
            // then a no-op) so the cooldown row gets a live fraction.
            sampler->finish(*solo, solo->now());
            sampler->attachLiveFractions(tracker->records(),
                                         solo->llc().dataLinesTotal());
        }
    }
    for (std::size_t j = 0; j < telemetry.sessions.size(); ++j)
        telemetry.sessions[j]->finalize(*members[j], members[j]->now());
    for (std::size_t j = 0; j < checkers.size(); ++j)
        checkers[j]->enforceQuiesce(members[j]->now());
    if (!ckptPath.empty())
        std::remove(ckptPath.c_str());

    if (capture) {
        // Persist after the results are in hand: a store failure (disk
        // full, torn directory) costs the next run its warm hit, never
        // this run its answer.
        try {
            fc->store(key, fan->sharedFeed());
        } catch (const SimError &e) {
            warn("feed cache store failed (run unaffected): %s",
                 e.what());
        }
    }
    return res;
}

} // namespace

RunResult
runMix(const SystemConfig &sys, const Mix &mix, const RunOptions &opt,
       GenerationTracker *tracker, Cycle *win_start, Cycle *win_end)
{
    return executeJob(Engine::Plain, {sys}, mix, mixStreams(mix, opt), opt,
                      tracker, win_start, win_end)
        .front();
}

RunResult
runParallel(const SystemConfig &sys, const AppProfile &app,
            const RunOptions &opt)
{
    // Named like a one-application mix in its request digest.
    return executeJob(Engine::Plain, {sys}, Mix{{app.name}},
                      [&] {
                          return buildParallelStreams(app, sys.numCores,
                                                      opt.seed, opt.scale);
                      },
                      opt)
        .front();
}

std::vector<RunResult>
runMixFanout(const std::vector<SystemConfig> &cfgs, const Mix &mix,
             const RunOptions &opt)
{
    RC_ASSERT(!cfgs.empty(), "runMixFanout needs at least one config");
    return executeJob(Engine::Fanout, cfgs, mix, mixStreams(mix, opt), opt);
}

std::vector<std::vector<RunResult>>
runConfigsOverMixes(const std::vector<SystemConfig> &cfgs,
                    const std::vector<Mix> &mixes, const RunOptions &opt)
{
    std::vector<std::vector<RunResult>> results(
        cfgs.size(), std::vector<RunResult>(mixes.size()));
    if (cfgs.empty() || mixes.empty())
        return results;

    // Group configs by the front-end-invariant prefix, preserving
    // first-appearance order so a launch numbers its jobs (in the
    // journal, for --inject) deterministically.
    std::vector<std::vector<std::size_t>> groups;
    for (std::size_t i = 0; i < cfgs.size(); ++i) {
        bool placed = false;
        for (std::vector<std::size_t> &g : groups) {
            if (FanoutCmp::samePrivatePrefix(cfgs[g.front()], cfgs[i])) {
                g.push_back(i);
                placed = true;
                break;
            }
        }
        if (!placed)
            groups.push_back({i});
    }

    // One job per (group, mix).  Prefetcher state lives in front of the
    // fan-out split, so a prefetching group runs one job per config.
    struct Job
    {
        std::vector<std::size_t> members; //!< config indices
        std::size_t mix = 0;
    };
    std::vector<Job> jobs;
    for (const std::vector<std::size_t> &g : groups) {
        for (std::size_t m = 0; m < mixes.size(); ++m) {
            if (!cfgs[g.front()].prefetch.enable) {
                jobs.push_back(Job{g, m});
                continue;
            }
            for (std::size_t i : g)
                jobs.push_back(Job{{i}, m});
        }
    }

    // --sweep-dir keeps every finished run in the result store, keyed
    // by its request.  The store sits in its own directory: opening it
    // deletes every *.tmp there, and checkpoints stage theirs in the
    // sweep directory.
    std::unique_ptr<svc::ResultCache> store;
    if (!opt.sweepDir.empty()) {
        ensureDir(opt.sweepDir);
        store = std::make_unique<svc::ResultCache>(opt.sweepDir + "/results");
    }
    const auto request = [&](std::size_t i, const Job &job) {
        return runRequest(cfgs[i], mixes[job.mix], opt);
    };

    // --resume fills a job whose runs are all in the store from it; a
    // lookup verifies the full request bytes, so whatever grid stored a
    // run, only that run's result comes back.  The other jobs run.
    std::vector<const Job *> pending;
    for (const Job &job : jobs) {
        std::vector<RunResult> stored(job.members.size());
        bool hit = store && opt.resume;
        for (std::size_t k = 0; hit && k < job.members.size(); ++k)
            hit = store->lookup(request(job.members[k], job), stored[k]);
        if (!hit) {
            pending.push_back(&job);
            continue;
        }
        for (std::size_t k = 0; k < job.members.size(); ++k)
            results[job.members[k]][job.mix] = std::move(stored[k]);
    }

    forEachRun(pending.size(), opt, [&](std::size_t p) {
        const Job &job = *pending[p];
        std::vector<SystemConfig> members;
        members.reserve(job.members.size());
        for (std::size_t i : job.members)
            members.push_back(cfgs[i]);
        const Mix &mix = mixes[job.mix];
        const Engine engine = engineFor(members, opt);
        const std::vector<RunResult> r =
            executeJob(engine, std::move(members), mix, mixStreams(mix, opt),
                       opt);
        // Stored last, so a quarantined job stores nothing and runs
        // again on resume.
        for (std::size_t k = 0; k < job.members.size(); ++k) {
            results[job.members[k]][job.mix] = r[k];
            if (store)
                store->store(request(job.members[k], job), r[k]);
        }
    });
    return results;
}

SpeedupSummary
speedups(const std::vector<RunResult> &sys,
         const std::vector<RunResult> &baseline)
{
    RC_ASSERT(sys.size() == baseline.size(),
              "%zu results against %zu baseline results", sys.size(),
              baseline.size());
    SpeedupSummary s;
    s.perMix.resize(sys.size());
    double sum = 0.0;
    for (std::size_t i = 0; i < sys.size(); ++i) {
        const double v =
            speedupRatio(sys[i].aggregateIpc, baseline[i].aggregateIpc);
        s.perMix[i] = v;
        sum += v;
        if (i == 0) {
            s.min = s.max = v;
        } else {
            s.min = std::min(s.min, v);
            s.max = std::max(s.max, v);
        }
    }
    s.mean = s.perMix.empty() ? 0.0
                              : sum / static_cast<double>(s.perMix.size());
    return s;
}

std::vector<RunResult>
runBaselineOverMixes(const SystemConfig &baseline,
                     const std::vector<Mix> &mixes, const RunOptions &opt)
{
    std::vector<std::vector<RunResult>> res =
        runConfigsOverMixes({baseline}, mixes, opt);
    return std::move(res.front());
}

SpeedupSummary
compareAgainst(const SystemConfig &sys, const std::vector<Mix> &mixes,
               const std::vector<RunResult> &baseline,
               const RunOptions &opt)
{
    return speedups(runConfigsOverMixes({sys}, mixes, opt).front(),
                    baseline);
}

void
printHeader(const std::string &artifact, const std::string &claim,
            const RunOptions &opt)
{
    std::printf("== %s ==\n", artifact.c_str());
    std::printf("paper: %s\n", claim.c_str());
    std::printf("settings: %u mixes, scale 1/%u, warmup %llu, "
                "measure %llu cycles, seed %llu, %u jobs%s%s\n",
                opt.mixCount, opt.scale,
                static_cast<unsigned long long>(opt.warmup),
                static_cast<unsigned long long>(opt.measure),
                static_cast<unsigned long long>(opt.seed),
                effectiveJobs(opt),
                opt.policy.empty() ? "" : ", policy ",
                opt.policy.c_str());
    std::fflush(stdout);
}

::rc::RunResult
simulateRequest(const svc::RunRequest &req, const std::atomic<bool> *abort,
                std::atomic<std::uint64_t> *heartbeat,
                const std::string &feed_cache_dir)
{
    RunOptions opt;
    opt.scale = req.scale;
    opt.warmup = req.warmup;
    opt.measure = req.measure;
    opt.seed = req.seed;
    opt.jobs = 1; // one request = one run; concurrency is the daemon's
    opt.feedCacheDir = feed_cache_dir;
    // Adopt the caller's watchdog (the daemon's per-job abort flag and
    // heartbeat); with both null this is a plain deterministic run —
    // the client's in-process fallback path — and bit-identical.
    ScopedRunWatch watch(abort, heartbeat);
    // A request is a one-member job: with a feed cache it takes the
    // fan-out engine, whose front end replays from (or populates) the
    // shared blob.  Either engine gives bit-identical results.
    const std::vector<SystemConfig> cfgs = {req.config};
    return executeJob(engineFor(cfgs, opt), cfgs, req.mix,
                      mixStreams(req.mix, opt), opt)
        .front();
}

} // namespace rc::bench
