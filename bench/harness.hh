/**
 * @file
 * Shared benchmark harness: option parsing, simulation runners and
 * speedup aggregation used by every per-figure/per-table bench binary.
 *
 * Common flags (all optional; a numeric value must be an unsigned
 * decimal, or for --hang-timeout a finite number >= 0, else the usage
 * string prints and the process ends):
 *   --mixes=N     multiprogrammed workloads per experiment (default 5)
 *   --scale=N     capacity divisor, 1 = paper-size caches (default 8)
 *   --warmup=N    warmup cycles (default 3M)
 *   --measure=N   measured cycles (default 12M; the data arrays need
 *                 several fill times to reach steady state)
 *   --seed=N      base RNG seed (default 42)
 *   --policy=NAME restrict/override the replacement policy under test
 *                 (any name in the arena registry; unknown names list
 *                 the spellings with a "did you mean" hint)
 *   --jobs=N      concurrent simulations (default: hardware threads;
 *                 1 forces the legacy serial path)
 *   --check-interval=N  run the integrity checker every N references
 *                 and at end-of-run (0 = off, the default)
 *   --inject=CLASS[@IDX]  poison every config of job IDX (default 0)
 *                 of each batch with one fault of CLASS (tag-state,
 *                 dir-drop, dir-ghost, owner, orphan-data, mshr-leak,
 *                 repl-meta) after warmup — exercises the quarantine path
 *   --checkpoint-interval=N  persist every one-member job's full
 *                 simulated state every N references (needs --sweep-dir
 *                 or --resume)
 *   --sweep-dir=DIR  journal every job, keep every finished run in the
 *                 result store DIR/results and checkpoints under DIR
 *   --resume=DIR  relaunch a killed sweep: fill every job whose runs are
 *                 all in the result store from it, restore in-flight
 *                 one-member jobs from their latest valid checkpoint and
 *                 re-run the others from scratch
 *   --hang-timeout=S  abort + quarantine runs making no forward
 *                 progress for S wall seconds (default 300; 0 = off)
 *   --telemetry-dir=DIR  write per-run telemetry artifacts under DIR
 *   --trace-events  record event traces (Chrome trace_event JSON;
 *                 needs --telemetry-dir)
 *   --sample-interval=N  sample stat deltas every N simulated cycles
 *                 into an epoch CSV (needs --telemetry-dir)
 *   --feed-cache=DIR  persist/replay fan-out front-end record streams
 *                 under DIR (warm hits skip the front end entirely)
 *   --no-feed-cache  force the feed cache off (overrides a bench's
 *                 default-on directory, e.g. arena_tournament's)
 *   --full        paper-strength settings (100 mixes, longer windows)
 *
 * Independent (SystemConfig × Mix) runs execute on a TaskPool; results
 * land in pre-sized slots keyed by index, so every reported statistic
 * is bit-identical to the serial path regardless of --jobs.  Each
 * binary also drops a BENCH_harness.json throughput record (sims/sec
 * serial-equivalent vs parallel, plus per-run wall time and outcome)
 * on exit.
 *
 * Crash isolation: a run that throws SimError (integrity violation,
 * corrupt trace, ...) is retried once and, if it fails again,
 * quarantined — its slot keeps default values, every sibling run
 * completes untouched, and the process exits nonzero at the end.
 */

#ifndef RC_BENCH_HARNESS_HH
#define RC_BENCH_HARNESS_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "analysis/liveness.hh"
#include "service/run_request.hh"
#include "sim/cmp.hh"
#include "sim/run_result.hh"
#include "workloads/mixes.hh"
#include "workloads/parallel.hh"

namespace rc::bench
{

/** Harness options shared by every bench. */
struct RunOptions
{
    std::uint32_t scale = 8;
    Cycle warmup = 3'000'000;
    Cycle measure = 12'000'000;
    std::uint32_t mixCount = 5;
    std::uint64_t seed = 42;

    /**
     * Replacement-policy selection (--policy=NAME; "" = the bench's
     * default).  parseArgs resolves the name through the arena registry
     * (arena/arena_registry.hh) and stores the canonical spelling, so a
     * non-empty value is always a valid registry name.  Benches whose
     * conventional baseline is a free parameter take it from
     * baselineFor(opt); arena_tournament restricts its field to it;
     * the fixed-matrix figure benches (fig01a/fig07, which sweep
     * policies themselves) ignore it.
     */
    std::string policy;

    /** The ReplKind `policy` resolved to (valid iff policy != ""). */
    ReplKind policyKind = ReplKind::LRU;

    /** Concurrent simulations; 0 = hardware concurrency, 1 = serial. */
    std::uint32_t jobs = 0;

    /**
     * Integrity-checker cadence in references (0 = off).  When set,
     * every run walks the whole simulated state every N references and
     * once more at end-of-run; any violation throws SimError and the
     * run is retried/quarantined.
     */
    std::uint64_t checkInterval = 0;

    /**
     * Fault class to inject ("" = none); see --inject above for the
     * spellings.  The fault is applied after warmup to every member of
     * job injectRun.
     */
    std::string injectFault;

    /** Batch-local index of the job to poison. */
    std::size_t injectRun = 0;

    /**
     * Re-inject on the retry attempt too (true models a deterministic
     * corruption: the run stays quarantined; false models a transient
     * one: the retry succeeds and the run reports Retried).
     */
    bool injectOnRetry = true;

    /**
     * Checkpoint cadence in references (0 = off).  When set together
     * with sweepDir, every one-member job (the plain engine) persists
     * its full simulated state to `<sweepDir>/ckpt-<digest16>.ckpt`
     * every N references, at a quiescent point, so a killed sweep can
     * resume mid-run.  The name is the run's request digest
     * (runRequest), which the file also carries: a resumed run restores
     * only a checkpoint with its own digest, whether or not its own
     * launch sets this interval.  Fan-out jobs take no checkpoints:
     * they resume per job.  Ignored (with a warning) when a
     * GenerationTracker is attached: observer history is not part of
     * the simulated state.
     */
    std::uint64_t checkpointInterval = 0;

    /**
     * Sweep working directory ("" disables all persistence): the
     * journal `sweep.journal`, the result store `results/` that
     * runConfigsOverMixes keeps every finished run in, checkpoints and
     * hang dumps.
     */
    std::string sweepDir;

    /**
     * Resume mode (--resume=DIR): runConfigsOverMixes fills every job
     * whose runs are all in the result store from it and runs only the
     * others, a one-member job restoring from its latest valid
     * checkpoint when one exists and falling back to a from-scratch run
     * on any snapshot error.
     */
    bool resume = false;

    /**
     * Forward-progress watchdog: a run whose heartbeat (completed
     * references) does not advance for this many wall seconds is
     * cooperatively aborted (SimError(Hang)), state-dumped to
     * `<sweepDir>/hang-b<batch>-r<run>.dump` when it is a one-member
     * job, and routed into the retry/quarantine path.  Only the newest
     * eight dumps are kept (pruneHangDumps).  0 disables.  Tests
     * constructing RunOptions directly get it off; parseArgs turns it
     * on (300 s) for the bench CLIs.
     */
    double hangTimeout = 0.0;

    /**
     * Test hook simulating a kill -9: the run throws SimError(Snapshot)
     * from its checkpoint hook once this many references completed,
     * right after the checkpoint file landed on disk.  0 disables.
     */
    std::uint64_t crashAfterRefs = 0;

    /**
     * Test hook simulating a livelock: the run with this batch-local
     * index keeps simulating but its watchdog heartbeat never advances,
     * so the monitor must flag it.  SIZE_MAX disables.
     */
    std::size_t livelockRun = SIZE_MAX;

    /**
     * Telemetry output directory ("" = telemetry off).  Each run of
     * each batch writes its artifacts (trace-, epochs-, stats- files)
     * under it, suffixed with the run's (batch, run) tag so --jobs=N
     * sweeps never collide.
     */
    std::string telemetryDir;

    /**
     * Record per-event traces (--trace-events): cache transactions,
     * DRAM accesses and coherence traffic in simulated cycles, harness
     * phases in host time, exported as Chrome trace_event JSON.
     * Requires telemetryDir.
     */
    bool traceEvents = false;

    /**
     * Epoch length for stat-delta sampling in simulated cycles
     * (--sample-interval=N; 0 = off).  Requires telemetryDir.
     */
    Cycle sampleInterval = 0;

    /**
     * Persistent feed-cache directory for fan-out front ends
     * (--feed-cache=DIR; "" = off).  Fan-out jobs look their
     * (front-end config, mix, seed, scale, windows) key up before
     * simulating: a warm hit replays the classified StepRecord streams
     * zero-copy from the mapped blob — no stream generation, no
     * private-hierarchy simulation — and a miss captures the streams
     * and stores them crash-safely for every later run.  Results are
     * bit-identical warm or cold.  An unusable directory warns and
     * falls back to uncached fan-out.
     */
    std::string feedCacheDir;

    /**
     * --no-feed-cache seen: benches that default feedCacheDir on via
     * their initBench tweak (arena_tournament) must leave it off.
     * parseArgs keeps the last of --feed-cache=/--no-feed-cache.
     */
    bool feedCacheDisabled = false;
};

/** How one run of a batch ended. */
enum class RunStatus : std::uint8_t
{
    Ok,          //!< first attempt succeeded
    Retried,     //!< first attempt threw SimError, the retry succeeded
    Quarantined, //!< both attempts threw; the result slot is untouched
};

/** JSON/report spelling: "ok", "retried", "quarantined". */
const char *toString(RunStatus status);

/** Per-run record reported in BENCH_harness.json. */
struct RunOutcome
{
    std::size_t index = 0;      //!< batch-local run index
    RunStatus status = RunStatus::Ok;
    std::uint32_t attempts = 1; //!< 1 normally, 2 after a retry
    double wallSeconds = 0.0;   //!< wall time across all attempts
    std::string error;          //!< last SimError message ("" when Ok)
};

/** Reset the process-global batch counter (tests only). */
void resetSweepBatchesForTest();

/**
 * Delete all but the newest @p keep `hang-*.dump` diagnostics under
 * @p dir (newest by modification time, file name breaking ties).
 * Invoked automatically after every watchdog dump; 0 keeps everything.
 */
void pruneHangDumps(const std::string &dir, std::size_t keep);

/**
 * Execute one service-layer RunRequest as a one-member job, wiring the
 * daemon's abort flag and heartbeat into the run's watchdog.  The
 * job takes the fan-out engine when @p feed_cache_dir is set (and the
 * config does not prefetch), the plain engine otherwise.  This is the
 * SimulateFn the rc-daemon/rc-client CLIs and tests hand to the service
 * layer; calling it directly (the client's in-process fallback) yields
 * bit-identical results because a run is deterministic in
 * (config, mix, seed, scale, windows) on either engine.
 */
::rc::RunResult simulateRequest(const svc::RunRequest &req,
                                const std::atomic<bool> *abort = nullptr,
                                std::atomic<std::uint64_t> *heartbeat =
                                    nullptr,
                                const std::string &feed_cache_dir = {});

/**
 * The request that grid cell (@p cfg, @p mix) runs under @p opt: the
 * config with the run's seed, the mix, and the seed, scale and windows.
 * Its canonical bytes key the sweep's result store, and its digest
 * names the cell's checkpoint.  A daemon whose cache directory is the
 * store (`<sweepDir>/results`) answers the same request.
 */
svc::RunRequest runRequest(SystemConfig cfg, const Mix &mix,
                           const RunOptions &opt);

/** Quarantined runs across every batch in this process. */
std::uint64_t quarantinedRunsTotal();

/**
 * Whether the process exits nonzero when any run stayed quarantined
 * (default true; parseArgs installs the exit-code guard).
 */
void setExitOnQuarantine(bool enable);

/** The BENCH_harness.json payload for the batches run so far. */
std::string perfRecordJson();

/**
 * Strict numeric flag values, shared by parseArgs and the rc-daemon and
 * rc-client CLIs.  A value that is not what the flag needs (empty, a
 * sign, an exponent, trailing characters, overflow) prints @c usage to
 * stderr and ends the process through fatal(), naming the flag.
 */
struct NumericFlags
{
    const char *usage; //!< the CLI's own usage text

    /** The whole of @p value as an unsigned decimal no larger than
     *  @p max. */
    std::uint64_t count(const char *flag, const char *value,
                        std::uint64_t max = UINT64_MAX) const;

    /** The whole of @p value as a finite number >= 0 (a timeout in
     *  seconds). */
    double seconds(const char *flag, const char *value) const;
};

/** Parse the common flags; unknown flags abort with the usage string. */
RunOptions parseArgs(int argc, char **argv);

/**
 * Standard bench preamble in one call: parse the common flags, apply
 * the bench's option @p tweak (minimum windows, mix-count floors, ...)
 * and print the header naming the reproduced @p artifact and its
 * @p claim.  Every bench main() starts with this.
 */
RunOptions initBench(int argc, char **argv, const std::string &artifact,
                     const std::string &claim,
                     const std::function<void(RunOptions &)> &tweak = {});

/** The full usage string printed by --help and on flag errors. */
const char *usageString();

/** Worker count @p opt resolves to (0 → hardware concurrency). */
std::uint32_t effectiveJobs(const RunOptions &opt);

/**
 * Run body(0) .. body(n-1) — one independent simulation each — on
 * opt.jobs pool workers (inline and in order when that resolves to 1).
 * Bodies must write their results into pre-sized slots keyed by index
 * and must not touch shared mutable state; aggregation stays with the
 * caller, after this returns, so output is identical for any job count.
 * Batch wall/cpu time is accumulated into the BENCH_harness.json
 * throughput record written at process exit.
 *
 * A body that throws SimError is retried once; a second SimError
 * quarantines the run (its slot keeps default values) while every
 * other run completes normally.  Any other exception still propagates.
 *
 * With opt.sweepDir set, every finished run is logged to the sweep
 * journal (fsync'd append), a log of this launch that nothing reads
 * back to decide what runs.  With opt.hangTimeout > 0 a monitor thread
 * aborts runs whose heartbeat stalls (see RunOptions::hangTimeout).
 * @return one RunOutcome per run, in index order.
 */
std::vector<RunOutcome> forEachRun(
    std::size_t n, const RunOptions &opt,
    const std::function<void(std::size_t)> &body);

/**
 * IPC ratio @p sys_ipc / @p baseline_ipc with the zero-baseline guard
 * in one place (0.0 when the baseline measured no instructions).
 */
double speedupRatio(double sys_ipc, double baseline_ipc);

/**
 * Results of one simulation run.  The struct itself lives in the core
 * library (sim/run_result.hh) so the sweep daemon's result cache and
 * wire protocol exchange exactly the value the harness computes; the
 * alias keeps every bench spelling it rc::bench::RunResult.
 */
using RunResult = ::rc::RunResult;

/**
 * The conventional 8 MB baseline with --policy applied: LRU (the
 * paper's baseline) unless the user picked another registry policy.
 * Benches whose conventional anchor is a free parameter build it from
 * here so --policy=NAME means the same thing everywhere.
 */
SystemConfig baselineFor(const RunOptions &opt);

/**
 * Simulate one multiprogrammed mix on one system configuration, always
 * on the plain engine (one Cmp): the per-reference oracle the fan-out
 * engine is checked against.
 * @param tracker optional generation tracker attached for the whole run;
 *        the harness finalizes it and reports the measurement window via
 *        win_start/win_end.
 */
RunResult runMix(const SystemConfig &sys, const Mix &mix,
                 const RunOptions &opt,
                 GenerationTracker *tracker = nullptr,
                 Cycle *win_start = nullptr, Cycle *win_end = nullptr);

/** Simulate one parallel application on one system configuration
 *  (plain engine). */
RunResult runParallel(const SystemConfig &sys, const AppProfile &app,
                      const RunOptions &opt);

/** Speedups of one configuration over a baseline; see speedups(). */
struct SpeedupSummary
{
    double mean = 0.0;
    double min = 0.0;
    double max = 0.0;
    std::vector<double> perMix; //!< one ratio per mix
};

/**
 * Simulate one mix on several configurations through ONE front-end
 * pass, on the fan-out engine even for one config: the configs must
 * share the private-hierarchy prefix (FanoutCmp::samePrivatePrefix) and
 * the fan-out machinery's preconditions (no prefetching).  Results are
 * bit-identical to per-config runMix calls; the front end (stream
 * generation + private L1/L2 classification) is paid once instead of N
 * times.
 * @return one RunResult per config, in order.
 */
std::vector<RunResult> runMixFanout(const std::vector<SystemConfig> &cfgs,
                                    const Mix &mix, const RunOptions &opt);

/**
 * Sweep @p cfgs x @p mixes in one forEachRun batch: one job per (mix,
 * front-end prefix of the SystemConfig), or per (mix, config) for
 * prefetching configs, whose prefetcher sits in front of the fan-out
 * split.  What a job is picks its engine: one member without a feed
 * cache, or a prefetching config, runs on a plain Cmp; every other job
 * shares one front end on a FanoutCmp.  Both engines are bit-identical
 * to runMix, so the results are the same at any --jobs=N and under any
 * flag; --sweep-dir, --resume and --inject keep fan-out.  A figure
 * declares its whole grid here once (baseline in column 0) and reads
 * its rows from the matrix.  With opt.sweepDir set, the sweep journals
 * one record per job and stores every finished run in the result store
 * `<sweepDir>/results` (svc::ResultCache, keyed by runRequest); with
 * opt.resume also set, a job whose runs are all in the store is filled
 * from it and only the other jobs run, whatever grid stored them.
 * @return results[config][mix].
 */
std::vector<std::vector<RunResult>>
runConfigsOverMixes(const std::vector<SystemConfig> &cfgs,
                    const std::vector<Mix> &mixes, const RunOptions &opt);

/**
 * Per-mix aggregate-IPC ratios of @p sys over @p baseline (two rows of
 * one runConfigsOverMixes matrix) and their mean/min/max.  A mix whose
 * baseline measured no instructions contributes 0 (speedupRatio).  The
 * rows must have one result per mix each.
 */
SpeedupSummary speedups(const std::vector<RunResult> &sys,
                        const std::vector<RunResult> &baseline);

/**
 * One configuration over every mix: row 0 of runConfigsOverMixes.
 * Kept for the repository benchmark's per-config sweep pattern; the
 * figure benches declare their whole grid instead.
 */
std::vector<RunResult> runBaselineOverMixes(const SystemConfig &baseline,
                                            const std::vector<Mix> &mixes,
                                            const RunOptions &opt);

/**
 * Speedups of @p sys against precomputed @p baseline results: one
 * runConfigsOverMixes batch for @p sys, then speedups().  Kept for the
 * repository benchmark's per-config sweep pattern.
 */
SpeedupSummary compareAgainst(const SystemConfig &sys,
                              const std::vector<Mix> &mixes,
                              const std::vector<RunResult> &baseline,
                              const RunOptions &opt);

/** Standard experiment preamble: prints what is being reproduced. */
void printHeader(const std::string &artifact, const std::string &claim,
                 const RunOptions &opt);

} // namespace rc::bench

#endif // RC_BENCH_HARNESS_HH
