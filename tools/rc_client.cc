/**
 * @file
 * rc-client: submit simulation runs to a running rc-daemon.
 *
 * Sweeps the paper's baseline (conventional 8 MB LRU) and the RC-1/1
 * reuse cache over --mixes multiprogrammed workloads through the
 * daemon, printing per-mix IPC and the reuse cache's speedup.  Repeated
 * invocations with the same parameters are served from the daemon's
 * persistent result cache instead of re-simulating.
 *
 * Resilience is the client library's: Busy replies back off with
 * deterministic jitter (honouring the server's retry-after hint), torn
 * replies reconnect and retry, and when the daemon is unreachable the
 * same simulation runs in-process — results are bit-identical either
 * way (--no-fallback turns that off to surface hard failures).
 *
 * Usage:
 *   rc-client [--socket=PATH] [--mixes=N] [--scale=N] [--seed=N]
 *             [--warmup=N] [--measure=N] [--deadline-ms=N]
 *             [--attempts=N] [--no-fallback]
 *   rc-client --stats      print the daemon's counters and exit
 *   rc-client --shutdown   ask the daemon to drain and exit
 */

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/log.hh"
#include "harness.hh"
#include "service/client.hh"

namespace
{

const char *usage =
    "usage: rc-client [options]\n"
    "  --socket=PATH     daemon socket (default /tmp/rc-daemon.sock)\n"
    "  --mixes=N         workloads to sweep (default 3)\n"
    "  --scale=N         capacity divisor (default 8)\n"
    "  --seed=N          base RNG seed (default 42)\n"
    "  --warmup=N        warmup cycles (default 3000000)\n"
    "  --measure=N       measured cycles (default 12000000)\n"
    "  --deadline-ms=N   per-request deadline (default 0 = none)\n"
    "  --attempts=N      tries before falling back (default 6)\n"
    "  --no-fallback     fail instead of simulating in-process\n"
    "  --stats           print daemon counters and exit\n"
    "  --shutdown        drain the daemon and exit\n";

} // namespace

int
main(int argc, char **argv)
{
    rc::svc::ClientConfig ccfg;
    ccfg.socketPath = "/tmp/rc-daemon.sock";
    std::uint32_t mixes = 3;
    rc::svc::RunRequest proto;
    bool wantStats = false, wantShutdown = false, fallback = true;
    const rc::bench::NumericFlags num{usage};

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&arg](const char *prefix) -> const char * {
            return arg.rfind(prefix, 0) == 0 ? arg.c_str() +
                                                   std::strlen(prefix)
                                             : nullptr;
        };
        if (const char *v = value("--socket=")) {
            ccfg.socketPath = v;
        } else if (const char *v = value("--mixes=")) {
            mixes = static_cast<std::uint32_t>(
                num.count("--mixes", v, UINT32_MAX));
        } else if (const char *v = value("--scale=")) {
            proto.scale = static_cast<std::uint32_t>(
                num.count("--scale", v, UINT32_MAX));
        } else if (const char *v = value("--seed=")) {
            proto.seed = num.count("--seed", v);
        } else if (const char *v = value("--warmup=")) {
            proto.warmup = num.count("--warmup", v);
        } else if (const char *v = value("--measure=")) {
            proto.measure = num.count("--measure", v);
        } else if (const char *v = value("--deadline-ms=")) {
            proto.deadlineMs = num.count("--deadline-ms", v);
        } else if (const char *v = value("--attempts=")) {
            ccfg.maxAttempts = static_cast<std::uint32_t>(
                num.count("--attempts", v, UINT32_MAX));
        } else if (arg == "--no-fallback") {
            fallback = false;
        } else if (arg == "--stats") {
            wantStats = true;
        } else if (arg == "--shutdown") {
            wantShutdown = true;
        } else if (arg == "--help") {
            std::fputs(usage, stdout);
            return 0;
        } else {
            std::fprintf(stderr, "unknown flag '%s'\n%s", arg.c_str(),
                         usage);
            return 2;
        }
    }
    if (mixes == 0 || proto.scale == 0 || proto.measure == 0) {
        std::fputs(usage, stderr);
        rc::fatal("--mixes, --scale and --measure must be positive");
    }

    if (fallback)
        ccfg.fallback = [](const rc::svc::RunRequest &req,
                           const std::atomic<bool> *abort,
                           std::atomic<std::uint64_t> *heartbeat) {
            return rc::bench::simulateRequest(req, abort, heartbeat);
        };
    rc::svc::RcClient client(ccfg);

    if (wantStats) {
        const std::string json = client.daemonStatsJson();
        if (json.empty()) {
            std::fprintf(stderr, "rc-client: no daemon on '%s'\n",
                         ccfg.socketPath.c_str());
            return 1;
        }
        std::fputs(json.c_str(), stdout);
        return 0;
    }
    if (wantShutdown) {
        if (!client.shutdownDaemon()) {
            std::fprintf(stderr, "rc-client: no daemon on '%s'\n",
                         ccfg.socketPath.c_str());
            return 1;
        }
        std::printf("rc-client: daemon on '%s' is draining\n",
                    ccfg.socketPath.c_str());
        return 0;
    }

    const rc::SystemConfig baseline = rc::baselineSystem(proto.scale);
    const rc::SystemConfig reuse =
        rc::reuseSystem(1.0, 1.0, 0, proto.scale);
    const std::vector<rc::Mix> workloads =
        rc::makeMixes(mixes, baseline.numCores,
                      static_cast<std::uint32_t>(proto.seed));

    std::printf("%-28s %12s %12s %9s\n", "mix", "baseline-ipc",
                "reuse-ipc", "speedup");
    try {
        for (const rc::Mix &mix : workloads) {
            rc::svc::RunRequest base_req = proto, reuse_req = proto;
            base_req.config = baseline;
            base_req.mix = mix;
            reuse_req.config = reuse;
            reuse_req.mix = mix;
            const rc::RunResult b = client.simulate(base_req);
            const rc::RunResult r = client.simulate(reuse_req);
            std::printf("%-28s %12.4f %12.4f %8.3fx\n",
                        mix.label().c_str(), b.aggregateIpc,
                        r.aggregateIpc,
                        rc::bench::speedupRatio(r.aggregateIpc,
                                                b.aggregateIpc));
        }
    } catch (const rc::SimError &err) {
        std::fprintf(stderr, "rc-client: %s\n", err.what());
        return 1;
    }

    const rc::svc::ClientCounters c = client.counters();
    std::printf("client: %llu requests, %llu daemon results, %llu busy "
                "retries, %llu reconnects, %llu fallbacks\n",
                static_cast<unsigned long long>(c.requests),
                static_cast<unsigned long long>(c.results),
                static_cast<unsigned long long>(c.busyRetries),
                static_cast<unsigned long long>(c.reconnects),
                static_cast<unsigned long long>(c.fallbacks));
    return 0;
}
