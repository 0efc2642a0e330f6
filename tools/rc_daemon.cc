/**
 * @file
 * rc-daemon: the resident sweep-simulation service.
 *
 * Listens on a Unix-domain socket, serves (SystemConfig x Mix) runs
 * from the persistent result cache, and simulates misses through a
 * bounded worker pool.  SIGTERM/SIGINT (or a client Shutdown frame)
 * drains gracefully: in-flight runs finish, the cache index is
 * persisted, new work is refused with Busy.  A SECOND SIGTERM/SIGINT
 * during the drain gives up on it and exits nonzero immediately (an
 * operator mashing ^C means "now", not "eventually").  After a kill -9,
 * simply restart on the same --cache-dir: completed entries are
 * recovered from their blobs, torn ones are re-simulated.
 *
 * With --isolate every simulation runs in a forked, rlimit-capped
 * worker process: a crashing or runaway run costs one child and one
 * typed Error reply, and a request that keeps killing workers is
 * quarantined persistently (see src/service/supervisor.hh).
 *
 * Usage:
 *   rc-daemon --socket=/tmp/rc.sock --cache-dir=rc-cache \
 *             [--workers=N] [--queue-depth=N] [--hang-timeout=S]
 *             [--retry-after-ms=N] [--isolate] [--rlimit-cpu=S]
 *             [--rlimit-as-mb=N] [--poison-threshold=K]
 */

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include <sys/wait.h>

#include "common/log.hh"
#include "harness.hh"
#include "service/daemon.hh"

namespace
{

std::atomic<int> stopSignals{0};

void
onStopSignal(int)
{
    stopSignals.fetch_add(1);
    // The second signal is handled in the main loop: _Exit from a
    // handler would skip the cache-index persist that is still safe to
    // attempt, and fprintf here is not async-signal-safe.
}

void
onChild(int)
{
    // Worker children are reaped synchronously by their WorkerProcess
    // (waitpid on the specific pid); this handler exists only so
    // SIGCHLD interrupts blocking syscalls instead of being ignored
    // outright — an ignored SIGCHLD (SIG_IGN) would make the kernel
    // auto-reap and break those targeted waitpids.
}

/** sigaction without SA_RESTART: a stop signal must interrupt, not be
 *  transparently retried around. */
void
installHandler(int sig, void (*fn)(int))
{
    struct sigaction sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sa_handler = fn;
    sigemptyset(&sa.sa_mask);
    sa.sa_flags = 0;
    ::sigaction(sig, &sa, nullptr);
}

const char *usage =
    "usage: rc-daemon [options]\n"
    "  --socket=PATH        Unix socket to listen on "
    "(default /tmp/rc-daemon.sock)\n"
    "  --cache-dir=DIR      persistent result cache (default rc-cache)\n"
    "  --workers=N          simulation workers (default 2)\n"
    "  --queue-depth=N      bounded job queue capacity (default 64)\n"
    "  --hang-timeout=S     abort runs with no forward progress for S "
    "seconds (default 300, 0 = off)\n"
    "  --retry-after-ms=N   backpressure hint in Busy replies "
    "(default 50)\n"
    "  --isolate            run every simulation in a forked, sandboxed "
    "worker process\n"
    "  --rlimit-cpu=S       RLIMIT_CPU seconds per worker child "
    "(default 0 = uncapped; needs --isolate)\n"
    "  --rlimit-as-mb=N     RLIMIT_AS megabytes per worker child "
    "(default 0 = uncapped; needs --isolate)\n"
    "  --poison-threshold=K distinct worker kills before a request is "
    "quarantined (default 3; needs --isolate)\n"
    "  --feed-cache=DIR     persistent front-end feed cache: misses "
    "whose private prefix,\n"
    "                       mix and windows were seen before replay the "
    "classified record\n"
    "                       stream instead of re-simulating the front "
    "end (default off)\n";

} // namespace

int
main(int argc, char **argv)
{
    rc::svc::DaemonConfig cfg;
    cfg.socketPath = "/tmp/rc-daemon.sock";
    cfg.cacheDir = "rc-cache";
    cfg.hangTimeout = 300.0;
    const rc::bench::NumericFlags num{usage};

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&arg](const char *prefix) -> const char * {
            return arg.rfind(prefix, 0) == 0 ? arg.c_str() +
                                                   std::strlen(prefix)
                                             : nullptr;
        };
        if (const char *v = value("--socket=")) {
            cfg.socketPath = v;
        } else if (const char *v = value("--cache-dir=")) {
            cfg.cacheDir = v;
        } else if (const char *v = value("--workers=")) {
            cfg.workers = static_cast<std::uint32_t>(
                num.count("--workers", v, UINT32_MAX));
        } else if (const char *v = value("--queue-depth=")) {
            cfg.queueDepth = static_cast<std::size_t>(
                num.count("--queue-depth", v, SIZE_MAX));
        } else if (const char *v = value("--hang-timeout=")) {
            cfg.hangTimeout = num.seconds("--hang-timeout", v);
        } else if (const char *v = value("--retry-after-ms=")) {
            cfg.retryAfterMs = static_cast<std::uint32_t>(
                num.count("--retry-after-ms", v, UINT32_MAX));
        } else if (arg == "--isolate") {
            cfg.isolateWorkers = true;
        } else if (const char *v = value("--rlimit-cpu=")) {
            cfg.workerCpuLimitSeconds = num.count("--rlimit-cpu", v);
        } else if (const char *v = value("--rlimit-as-mb=")) {
            // In range, so the byte count cannot overflow.
            cfg.workerAddressSpaceBytes =
                num.count("--rlimit-as-mb", v, UINT64_MAX >> 20) << 20;
        } else if (const char *v = value("--poison-threshold=")) {
            cfg.poisonThreshold = static_cast<std::uint32_t>(
                num.count("--poison-threshold", v, UINT32_MAX));
        } else if (const char *v = value("--feed-cache=")) {
            cfg.feedCacheDir = v;
        } else if (arg == "--help") {
            std::fputs(usage, stdout);
            return 0;
        } else {
            std::fprintf(stderr, "unknown flag '%s'\n%s", arg.c_str(),
                         usage);
            return 2;
        }
    }
    if (!cfg.isolateWorkers &&
        (cfg.workerCpuLimitSeconds != 0 ||
         cfg.workerAddressSpaceBytes != 0)) {
        std::fprintf(stderr,
                     "rc-daemon: --rlimit-cpu/--rlimit-as-mb need "
                     "--isolate\n");
        return 2;
    }

    installHandler(SIGTERM, onStopSignal);
    installHandler(SIGINT, onStopSignal);
    if (cfg.isolateWorkers)
        installHandler(SIGCHLD, onChild);

    rc::svc::Daemon daemon(
        cfg, [feedDir = cfg.feedCacheDir](
                 const rc::svc::RunRequest &req,
                 const std::atomic<bool> *abort,
                 std::atomic<std::uint64_t> *heartbeat) {
            return rc::bench::simulateRequest(req, abort, heartbeat,
                                              feedDir);
        });
    try {
        daemon.start();
    } catch (const rc::SimError &err) {
        std::fprintf(stderr, "rc-daemon: %s\n", err.what());
        return 1;
    }
    rc::inform("rc-daemon: serving on '%s', cache '%s' (%zu entries)%s",
               cfg.socketPath.c_str(), cfg.cacheDir.c_str(),
               daemon.cache().size(),
               cfg.isolateWorkers ? ", process-isolated workers" : "");

    while (stopSignals.load() == 0 && !daemon.isDraining())
        std::this_thread::sleep_for(std::chrono::milliseconds(100));

    rc::inform("rc-daemon: draining (in-flight runs finish, new work is "
               "refused; signal again to abort the drain)");
    daemon.requestStop();

    // Drain in a helper so the main thread can keep watching for the
    // impatient second signal.
    std::atomic<bool> drained{false};
    std::thread drainThread([&daemon, &drained] {
        daemon.stop();
        drained.store(true);
    });
    const int signalsAtDrain = stopSignals.load();
    bool forced = false;
    while (!drained.load()) {
        if (stopSignals.load() > signalsAtDrain) {
            // Second signal mid-drain: the operator wants out NOW.  The
            // index was already persisted by requestStop(); anything
            // in-flight is recoverable from blobs on restart.
            std::fprintf(stderr,
                         "rc-daemon: second signal during drain, "
                         "aborting\n");
            forced = true;
            break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    if (forced) {
        drainThread.detach();
        std::_Exit(130);
    }
    drainThread.join();
    std::fputs(daemon.statsJson().c_str(), stdout);
    return 0;
}
