#!/usr/bin/env python3
"""Repository benchmark: build, run one workload, print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke          # the benchmark's own test
    python3 perfbench/run.py --write-golden   # refresh golden.json

Run from the root of a checkout.  The program is built from source
into .bench_build/ (first run only), then each repetition runs in a
fresh process (perfbench/perfbench.cc) inside a fresh scratch
directory under .bench_work/, which is deleted afterwards.  With
--trace 0, repetitions run for about --seconds of wall time and each
end-to-end metric is the median over them (latency percentiles are
taken per repetition first; setup_s also over extra set-up-only
launches on the sweeps, whose set-up lasts milliseconds).  With
--trace 1, one untraced and one traced repetition run; the traced one
prints the per-layer ledger.
The last stdout line is the JSON result; the exit code is nonzero when
the correctness gate fails or nothing could be run.

See perfbench/README.md for the workloads, metrics and provenance.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORK_DIR = os.path.join(ROOT, ".bench_work")
OUT_DIR = os.path.join(ROOT, ".bench_out")
GOLDEN = os.path.join(HERE, "golden.json")
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")

WORKLOADS = ("sweep-fanout", "sweep-plain", "daemon-mixed")
DEFAULT_SEED = 42   # the harness CLI's default --seed; golden.json's seed
HELD_OUT_SEED = 1307  # kept out of tuning; validates claimed gains
REP_TIMEOUT_S = 170  # one repetition, traced ones included
MAX_REPS = 8         # repetitions per run; golden.json covers them all
# Set-up-only launches after each repetition, so setup_s is a median
# over several set-ups even where a run holds only a few repetitions.
# The daemon's ~2 s set-up is sampled by its repetitions alone.
SETUP_SAMPLES = {"sweep-fanout": 4, "sweep-plain": 4, "daemon-mixed": 0}


def rep_seed(seed, k):
    """Stream seed of repetition k of a run with --seed @p seed: each
    repetition simulates other inputs, so a run's medians average over
    input-dependent effects (feed ring growth, per-core record counts)
    as well as over host noise.  Repetition 0 runs --seed itself."""
    return seed + k * 1000003

# Per-layer metrics: (unit, the end-to-end metric and workload it
# should move, base of a ratio).  BENCHMARK.json's per_layer list must
# match these names and units.
LAYERS = {
    "harness.batches": ("count", "sims_per_s on sweep-plain", None),
    "harness.runs": ("count", "sims_per_s on sweep-plain", None),
    "harness.busy_s": ("s", "sims_per_s on sweep-plain, then sweep-fanout", None),
    "harness.wall_s": ("s", "sims_per_s on sweep-plain, then sweep-fanout", None),
    "harness.idle_frac": ("ratio", "sims_per_s on sweep-plain, then sweep-fanout",
                          "1 - harness.busy_s / (2 jobs x harness.wall_s)"),
    "harness.retried": ("count", "sims_per_s on both sweeps (failures)", None),
    "harness.quarantined": ("count", "sims_per_s on both sweeps (failures)", None),
    "workloads.refs": ("count", "sims_per_s on sweep-plain", None),
    "workloads.ns_per_ref": ("ns", "sims_per_s on sweep-plain", "workloads.refs"),
    "sim.frontend.ns_per_ref": ("ns", "sims_per_s on sweep-plain; ~1/12 of that on sweep-fanout",
                                "workloads.refs"),
    "cache.private.ns_per_ref": ("ns", "sims_per_s on sweep-plain; ~1/12 of that on sweep-fanout",
                                 "workloads.refs"),
    "cache.private.llc_bound": ("count", "sims_per_s on sweep-fanout", None),
    "cache.private.llc_bound_frac": ("ratio", "sims_per_s on sweep-fanout",
                                     "cache.private.llc_bound / workloads.refs"),
    "cache.conv.ns_per_req": ("ns", "sims_per_s on sweep-fanout", "cache.conv.reqs"),
    "cache.conv.reqs": ("count", "sims_per_s on sweep-fanout", None),
    "cache.conv.hit_frac": ("ratio", "sims_per_s on sweep-fanout", "cache.conv.reqs"),
    "arena.policies": ("count", "miss_p90_ms on daemon-mixed", None),
    "arena.ns_per_req_p50": ("ns", "miss_p50_ms on daemon-mixed", "arena.policies"),
    "arena.ns_per_req_max": ("ns", "miss_p90_ms on daemon-mixed", "arena.policies"),
    "reuse.ns_per_req": ("ns", "sims_per_s on sweep-fanout", "reuse.reqs"),
    "reuse.reqs": ("count", "sims_per_s on sweep-fanout", None),
    "reuse.data_hit_frac": ("ratio", "sims_per_s on sweep-fanout", "reuse.reqs"),
    "reuse.tag_only_frac": ("ratio", "sims_per_s on sweep-fanout", "reuse.reqs"),
    "ncid.ns_per_req": ("ns", "sims_per_s on sweep-fanout", "ncid.reqs"),
    "ncid.reqs": ("count", "sims_per_s on sweep-fanout", None),
    "mem.ns_per_access": ("ns", "sims_per_s on both sweeps", "mem.accesses"),
    "mem.accesses": ("count", "sims_per_s on both sweeps", None),
    "mem.row_hit_frac": ("ratio", "sims_per_s on both sweeps", "mem.accesses"),
    "sim.plain.ns_per_ref": ("ns", "sims_per_s on sweep-plain", None),
    "sim.fanout.ns_per_member_ref": ("ns", "sims_per_s on sweep-fanout", None),
    "sim.fanout.replays": ("count", "sims_per_s on sweep-fanout", None),
    "sim.fanout.fallbacks": ("count", "sims_per_s on sweep-fanout", None),
    "sim.fanout.replay_frac": ("ratio", "sims_per_s on sweep-fanout",
                               "sim.fanout.replays / (replays + sim.fanout.fallbacks)"),
    "sim.feed.capture_s": ("s", "setup_s on daemon-mixed", None),
    "sim.feed.store_s": ("s", "setup_s on daemon-mixed", None),
    "sim.feed.blob_mb": ("MB", "setup_s and peak_rss_mb on daemon-mixed", None),
    "sim.feed.bytes_per_ref": ("B", "setup_s and peak_rss_mb on daemon-mixed",
                               "sim.feed.blob_mb / captured records"),
    "sim.feed.lookup_ms": ("ms", "miss_p50_ms on daemon-mixed", None),
    "sim.feed.hits": ("count", "miss_p50_ms on daemon-mixed", None),
    "sim.feed.misses": ("count", "setup_s on daemon-mixed", None),
    "snapshot.ckpt_mb": ("MB", "sims_per_s on sweep-plain", None),
    "snapshot.save_ms": ("ms", "sims_per_s on sweep-plain", None),
    "snapshot.restore_ms": ("ms", "sims_per_s on sweep-plain (resume)", None),
    "snapshot.journal_append_ms": ("ms", "sims_per_s on sweep-plain", None),
    "service.digest_us": ("us", "p50_ms on daemon-mixed", None),
    "service.frame_us": ("us", "p50_ms on daemon-mixed", None),
    "service.cache_lookup_us": ("us", "p50_ms on daemon-mixed", None),
    "service.cache_store_ms": ("ms", "miss_p50_ms and sims_per_s on daemon-mixed", None),
    "service.queue_wait_ms": ("ms", "miss_p50_ms and sims_per_s on daemon-mixed",
                              "median over misses of RTT - SimulateFn span"),
    "service.requests": ("count", "sims_per_s on daemon-mixed", None),
    "service.cache_hit_frac": ("ratio", "p50_ms on daemon-mixed", "service.requests"),
    "service.coalesced": ("count", "miss_p50_ms on daemon-mixed", "service.requests"),
    "service.sheds": ("count", "p50_ms and sims_per_s on daemon-mixed", "service.requests"),
    "service.busy_retries": ("count", "p50_ms and sims_per_s on daemon-mixed", "service.requests"),
    "service.fallbacks": ("count", "p50_ms and sims_per_s on daemon-mixed", "service.requests"),
    "trace.sims_per_s": ("sims/s", "tracing overhead (traced run's own sims_per_s)", None),
    "trace.overhead_frac": ("ratio", "tracing overhead",
                            "untraced sims_per_s / trace.sims_per_s - 1"),
}

# Where each per-layer metric comes from on each workload, when not
# from the workload's own traffic (README.md "Per-layer ledger").
PROBED = {
    "sweep-fanout": ("service.",),
    "sweep-plain": ("service.",),
    "daemon-mixed": ("harness.",),
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure and build perfbench into .bench_build/ (incremental)."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        raise RuntimeError("no CMakeLists.txt at %s: run from the root of "
                           "a checkout of the repository" % ROOT)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                    "-j", jobs], check=True, stdout=sys.stderr,
                   stderr=sys.stderr)
    return os.path.join(BUILD_DIR, "perfbench")


def run_rep(exe, workload, seed, trace=False, smoke=False, spot_check=True,
            setup_only=False):
    """One repetition in a fresh process and scratch directory."""
    os.makedirs(WORK_DIR, exist_ok=True)
    rep_dir = tempfile.mkdtemp(prefix=workload + "-", dir=WORK_DIR)
    cmd = [exe, "--workload=" + workload, "--seed=%d" % seed]
    if smoke:
        cmd.append("--smoke")
    if not spot_check:
        cmd.append("--no-spot-check")
    if setup_only:
        cmd.append("--setup-only")
    if trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        cmd += ["--trace", "--spans=" + os.path.join(
            OUT_DIR, "spans-%s-%d.json" % (workload, seed))]
    try:
        cmd.append("--spawn=%.9f" % time.monotonic())
        proc = subprocess.run(cmd, cwd=rep_dir, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=REP_TIMEOUT_S)
    finally:
        shutil.rmtree(rep_dir, ignore_errors=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise RuntimeError("%s repetition exited with code %d"
                           % (workload, proc.returncode))
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("%s repetition printed nothing" % workload)
    return json.loads(lines[-1])


def percentile(values, q):
    """Linear-interpolated percentile (q in [0, 100])."""
    v = sorted(values)
    if not v:
        return float("nan")
    pos = (len(v) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def end_to_end(reps, setups):
    """The end-to-end metrics of one run: medians over its repetitions
    (latency percentiles are taken per repetition first), and setup_s
    the median over @p setups."""
    def med(f):
        return statistics.median(f(r) for r in reps)
    return {
        "sims_per_s": med(lambda r: r["results"] / r["timed_s"]),
        "p50_ms": med(lambda r: percentile(r["latency_ms"], 50)),
        "miss_p50_ms": med(lambda r: percentile(r["miss_latency_ms"], 50)),
        "miss_p90_ms": med(lambda r: percentile(r["miss_latency_ms"], 90)),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": med(lambda r: r["peak_rss_mb"]),
    }


def load_golden():
    try:
        with open(GOLDEN) as f:
            return json.load(f)
    except (OSError, ValueError):
        return {}


def check(workload, seed, reps, smoke):
    """Correctness gate: per-repetition checks, determinism across
    repetitions, and golden digests at the default seed.
    Returns (attempted, failed, problems)."""
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    problems = [p for r in reps for p in r["problems"]]
    # Repetitions of one stream seed must agree digest for digest.
    by_seed = {}
    for r in reps:
        first = by_seed.setdefault(r["stream_seed"], r["cells"])
        bad = [k for k in first if r["cells"].get(k) != first[k]]
        failed += len(bad)
        problems += ["cell %s differs between repetitions" % k for k in bad]
    # golden.json covers the default seed's repetitions; daemon-mixed
    # always simulates the default stream seed, so it is checked at
    # every --seed.
    if not smoke:
        golden = load_golden().get(workload, {})
        for r in reps:
            want = golden.get(str(r["stream_seed"]))
            if not want:
                if seed == DEFAULT_SEED:
                    failed += 1
                    problems.append("no golden digests for %s seed %d"
                                    % (workload, r["stream_seed"]))
                continue
            for k, v in want.items():
                if r["cells"].get(k) != v:
                    failed += 1
                    problems.append("cell %s seed %d: digest %s, golden %s"
                                    % (k, r["stream_seed"],
                                       r["cells"].get(k), v))
    return attempted, failed, problems


def units():
    with open(BENCHMARK) as f:
        spec = json.load(f)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    return e2e, layers


def describe_e2e(workload, values, reps, e2e_units):
    hits = [x for r in reps for x in r["hit_latency_ms"]]
    log("== %s: %d repetition(s), %d results, %d latency samples "
        "(%d simulated) ==" % (
            workload, len(reps), sum(r["results"] for r in reps),
            sum(len(r["latency_ms"]) for r in reps),
            sum(len(r["miss_latency_ms"]) for r in reps)))
    for name, unit in e2e_units.items():
        log("  %-14s %14.6g %s" % (name, values[name], unit))
    if hits:
        log("  %-14s %14.6g req/s (sims_per_s: one result per reply)"
            % ("req_per_s", values["sims_per_s"]))
    lat = [x for r in reps for x in r["latency_ms"]]
    miss = [x for r in reps for x in r["miss_latency_ms"]]
    log("  not gated: all results p99 %.4f ms (%d samples), simulated "
        "p50 %.4f / p90 %.4f ms (%d)" % (
            percentile(lat, 99), len(lat), percentile(miss, 50),
            percentile(miss, 90), len(miss)))
    if hits:
        log("  not gated: result-cache hits p50 %.4f ms, p99 %.4f ms "
            "(%d samples)" % (percentile(hits, 50), percentile(hits, 99),
                              len(hits)))


def describe_layers(workload, ledger, layer_units, layers):
    log("== %s: per-layer ledger (traced run) ==" % workload)
    log("  %-30s %14s %-7s  %s" % ("metric", "value", "unit",
                                   "should move -> (base)"))
    for name, unit in layer_units.items():
        _, moves, base = LAYERS[name]
        src = ""
        if any(name.startswith(p) for p in PROBED.get(workload, ())):
            src = " [probe: off this workload's timed path]"
        log("  %-30s %14.6g %-7s  %s%s%s" % (
            name, ledger[name], unit, moves,
            " (base: %s)" % base if base else "", src))
    log("  self time by layer (spans):")
    for layer, t in sorted(layers.items()):
        log("    %-10s %6d spans  total %9.4f s  self %9.4f s" % (
            layer, t["spans"], t["total_s"], t["self_s"]))


def run_workload(exe, args):
    e2e_units, layer_units = units()
    for name, unit in layer_units.items():
        if LAYERS.get(name, (None,))[0] != unit:
            raise RuntimeError("per-layer metric %s: BENCHMARK.json and "
                               "run.py disagree on it" % name)
    if args.trace:
        base = run_rep(exe, args.workload, args.seed, smoke=args.smoke)
        traced = run_rep(exe, args.workload, args.seed, trace=True,
                         smoke=args.smoke)
        reps = [base, traced]
        ledger = dict(traced["ledger"])
        untraced_rate = base["results"] / base["timed_s"]
        ledger["trace.sims_per_s"] = traced["results"] / traced["timed_s"]
        ledger["trace.overhead_frac"] = (untraced_rate /
                                         ledger["trace.sims_per_s"] - 1.0)
        missing = [n for n in layer_units if n not in ledger]
        if missing:
            raise RuntimeError("traced run lacks %s" % ", ".join(missing))
        describe_layers(args.workload, ledger, layer_units, traced["layers"])
        log("  tracing overhead: untraced %.4f vs traced %.4f sims/s (%+.1f%%)"
            % (untraced_rate, ledger["trace.sims_per_s"],
               100 * ledger["trace.overhead_frac"]))
        metrics = {n: {"value": ledger[n], "unit": u}
                   for n, u in layer_units.items()}
    else:
        # Start repetitions while one more is expected to end within
        # half a repetition of --seconds.  The cross-path spot check
        # runs in the first repetition, which simulates --seed itself.
        reps, setups = [], []
        start = time.monotonic()
        while len(reps) < MAX_REPS:
            k = len(reps)
            seed = rep_seed(args.seed, k)
            r = run_rep(exe, args.workload, seed, smoke=args.smoke,
                        spot_check=k == 0)
            reps.append(r)
            setups.append(r["setup_s"])
            for _ in range(SETUP_SAMPLES[args.workload]):
                setups.append(run_rep(exe, args.workload, seed,
                                      smoke=args.smoke,
                                      setup_only=True)["setup_s"])
            log("  repetition %d (stream seed %d): %d results in %.4f s, "
                "set-up %.6f s, peak RSS %.1f MB" % (
                    k, r["stream_seed"], r["results"], r["timed_s"],
                    r["setup_s"], r["peak_rss_mb"]))
            elapsed = time.monotonic() - start
            if elapsed + 0.5 * elapsed / len(reps) >= args.seconds:
                break
        values = end_to_end(reps, setups)
        describe_e2e(args.workload, values, reps, e2e_units)
        metrics = {n: {"value": values[n], "unit": u}
                   for n, u in e2e_units.items()}
    attempted, failed, problems = check(args.workload, args.seed, reps,
                                        args.smoke)
    log("  failed_frac %g ratio (%d of %d operations failed)%s" % (
        failed / max(1, attempted), failed, attempted,
        "" if not problems else ": " + "; ".join(problems[:10])))
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def smoke(exe):
    """Every workload once at tiny windows, untraced and traced, at the
    default and the held-out seed: every named metric printed with its
    unit, correctness gate passing."""
    e2e_units, layer_units = units()
    ok = True
    for w in WORKLOADS:
        for seed in (DEFAULT_SEED, HELD_OUT_SEED):
            for trace in (0, 1):
                ns = argparse.Namespace(workload=w, seed=seed, seconds=1,
                                        trace=trace, smoke=True)
                res = run_workload(exe, ns)
                want = layer_units if trace else e2e_units
                for name, unit in want.items():
                    got = res["metrics"].get(name)
                    if got is None or got["unit"] != unit or \
                            not isinstance(got["value"], (int, float)):
                        ok = False
                        log("smoke: %s seed %d trace=%d: metric %s missing "
                            "or wrong" % (w, seed, trace, name))
                if not res["correct"] or res["attempted"] < 1:
                    ok = False
                    log("smoke: %s seed %d trace=%d: correctness gate "
                        "failed" % (w, seed, trace))
    log("smoke: %s" % ("pass" if ok else "FAIL"))
    return 0 if ok else 1


def write_golden(exe):
    golden = {}
    for w in WORKLOADS:
        golden[w] = {}
        for k in range(MAX_REPS):
            rep = run_rep(exe, w, rep_seed(DEFAULT_SEED, k))
            if rep["failed"]:
                raise RuntimeError("%s: %s" % (w, rep["problems"]))
            if str(rep["stream_seed"]) in golden[w]:
                break  # daemon-mixed: one stream seed for every --seed
            golden[w][str(rep["stream_seed"])] = rep["cells"]
    with open(GOLDEN, "w") as f:
        json.dump(golden, f, indent=1, sort_keys=True)
        f.write("\n")
    log("wrote %s" % GOLDEN)
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="run the benchmark's own test and exit")
    ap.add_argument("--write-golden", action="store_true",
                    help="refresh golden.json at the default seed")
    args = ap.parse_args()
    try:
        exe = build()
        if args.smoke and not args.workload:
            return smoke(exe)
        if args.write_golden:
            return write_golden(exe)
        if not args.workload:
            ap.error("--workload is required")
        res = run_workload(exe, args)
    except (RuntimeError, OSError, subprocess.SubprocessError, ValueError,
            KeyError) as err:
        log("perfbench: %s" % err)
        return 1
    print(json.dumps(res))
    sys.stdout.flush()
    return 0 if res["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
