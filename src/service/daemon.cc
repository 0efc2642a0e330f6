#include "service/daemon.hh"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <sstream>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/log.hh"
#include "service/frame.hh"
#include "service/poison.hh"
#include "service/supervisor.hh"
#include "sim/feed_cache.hh"
#include "snapshot/serializer.hh"
#include "telemetry/trace_event.hh"
#include "verify/fault_injector.hh"

namespace rc::svc
{

using Clock = std::chrono::steady_clock;

/** One queued/running simulation; shared by every coalesced waiter. */
struct Daemon::Job
{
    RunRequest req;
    std::uint64_t digest = 0;

    std::atomic<bool> abort{false};
    std::atomic<std::uint64_t> heartbeat{0};

    // Watchdog bookkeeping (guarded by the daemon mutex).
    bool started = false;
    bool hangAborted = false;
    bool deadlineAborted = false;
    Clock::time_point startTime;
    std::uint64_t lastBeat = 0;
    Clock::time_point lastBeatTime;

    // Completion handoff to the waiting connection threads.
    std::mutex jmu;
    std::condition_variable cv;
    bool done = false;
    bool failed = false;
    SimError::Kind errKind = SimError::Kind::Io;
    std::string errMsg;
    RunResult result;
};

namespace
{

std::vector<std::uint8_t>
busyPayload(std::uint32_t retry_after_ms)
{
    Serializer s;
    s.beginSection("busy");
    s.putU64(retry_after_ms);
    s.endSection("busy");
    return s.image();
}

/** Best-effort reply on an already-compromised connection. */
void
trySendError(int fd, SimError::Kind kind, const std::string &msg,
             int timeout_ms)
{
    try {
        writeFrame(fd, MsgType::Error, encodeErrorPayload(kind, msg),
                   timeout_ms);
    } catch (const SimError &) {
        // The peer is gone or wedged; nothing more to say to it.
    }
}

} // namespace

Daemon::Daemon(const DaemonConfig &cfg, SimulateFn simulate)
    : cfg(cfg), simulate(std::move(simulate)), store(cfg.cacheDir)
{
    RC_ASSERT(this->simulate != nullptr, "daemon needs a SimulateFn");
    truncateBudget.store(static_cast<std::int32_t>(cfg.faultTruncateReplies));
    corruptBudget.store(static_cast<std::int32_t>(cfg.faultCorruptBlobs));
    if (!cfg.feedCacheDir.empty()) {
        try {
            // Same process-wide instance the SimulateFn uses, so the
            // counters exported below reflect its hits and misses.
            feedCache = FeedCache::open(cfg.feedCacheDir);
        } catch (const SimError &err) {
            warn("daemon: feed-cache stats unavailable: %s", err.what());
        }
    }
    if (cfg.isolateWorkers) {
        poison = std::make_unique<PoisonIndex>(cfg.cacheDir);
        SupervisorConfig sup;
        sup.workers = std::max<std::uint32_t>(cfg.workers, 1);
        sup.limits.cpuSeconds = cfg.workerCpuLimitSeconds;
        sup.limits.addressSpaceBytes = cfg.workerAddressSpaceBytes;
        sup.poisonThreshold = cfg.poisonThreshold;
        sup.abortGraceMs = cfg.workerAbortGraceMs;
        sup.flapDeaths = cfg.flapDeaths;
        sup.restartBackoffBaseMs = cfg.workerRestartBackoffMs;
        sup.restartBackoffCapMs = cfg.workerRestartBackoffCapMs;
        fleet = std::make_unique<Supervisor>(sup, this->simulate, *poison);
    }
}

Daemon::~Daemon()
{
    if (accepting.load())
        requestStop();
    stop();
}

void
Daemon::start()
{
    RC_ASSERT(listenFd < 0, "daemon started twice");
    listenFd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listenFd < 0)
        throwSimError(SimError::Kind::Io, "cannot create socket: %s",
                      std::strerror(errno));

    struct sockaddr_un addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sun_family = AF_UNIX;
    if (cfg.socketPath.size() >= sizeof(addr.sun_path))
        throwSimError(SimError::Kind::Io,
                      "socket path '%s' exceeds the %zu-byte sun_path "
                      "limit", cfg.socketPath.c_str(),
                      sizeof(addr.sun_path) - 1);
    std::strncpy(addr.sun_path, cfg.socketPath.c_str(),
                 sizeof(addr.sun_path) - 1);
    ::unlink(cfg.socketPath.c_str()); // stale socket of a killed daemon
    if (::bind(listenFd, reinterpret_cast<struct sockaddr *>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(listenFd, 128) != 0) {
        const int err = errno;
        ::close(listenFd);
        listenFd = -1;
        throwSimError(SimError::Kind::Io,
                      "cannot bind/listen on '%s': %s",
                      cfg.socketPath.c_str(), std::strerror(err));
    }
    if (::pipe(wakePipe) != 0) {
        const int err = errno;
        ::close(listenFd);
        listenFd = -1;
        throwSimError(SimError::Kind::Io, "cannot create wake pipe: %s",
                      std::strerror(err));
    }

    accepting.store(true);
    acceptThread = std::thread([this] { acceptLoop(); });
    for (std::uint32_t i = 0; i < std::max<std::uint32_t>(cfg.workers, 1);
         ++i)
        workerThreads.emplace_back([this] { workerLoop(); });
    watchdogThread = std::thread([this] { watchdogLoop(); });
}

void
Daemon::requestStop()
{
    draining.store(true);
    // Persist what we know now; stop() compacts again once the last
    // in-flight job has landed its blob.
    store.persistIndex();
    workCv.notify_all();
}

void
Daemon::stop()
{
    if (listenFd < 0)
        return;
    draining.store(true);
    accepting.store(false);
    const char byte = 'x';
    (void)!::write(wakePipe[1], &byte, 1);
    if (acceptThread.joinable())
        acceptThread.join();
    ::close(listenFd);
    listenFd = -1;
    ::unlink(cfg.socketPath.c_str());

    workCv.notify_all();
    for (std::thread &t : workerThreads)
        if (t.joinable())
            t.join();
    workerThreads.clear();
    // Simulation threads are gone, so no job is mid-flight in a child:
    // retire the fleet now rather than leaving orphans to the dtor.
    if (fleet)
        fleet->shutdown();

    // Every job has completed and replied (or is about to); stop reads
    // only, so a reply still in flight drains to its client before the
    // connection thread sees EOF and exits.
    {
        std::lock_guard<std::mutex> lock(connMu);
        for (const int fd : openFds)
            ::shutdown(fd, SHUT_RD);
    }
    for (;;) {
        std::vector<std::thread> grabbed;
        {
            std::lock_guard<std::mutex> lock(connMu);
            grabbed.swap(connThreads);
        }
        if (grabbed.empty())
            break;
        for (std::thread &t : grabbed)
            if (t.joinable())
                t.join();
    }

    watchdogStop.store(true);
    if (watchdogThread.joinable())
        watchdogThread.join();

    ::close(wakePipe[0]);
    ::close(wakePipe[1]);
    wakePipe[0] = wakePipe[1] = -1;
    store.persistIndex();
}

void
Daemon::acceptLoop()
{
    std::uint32_t nextConnId = 0;
    while (accepting.load()) {
        struct pollfd pfds[2] = {{listenFd, POLLIN, 0},
                                 {wakePipe[0], POLLIN, 0}};
        int rc;
        do {
            rc = ::poll(pfds, 2, -1);
        } while (rc < 0 && errno == EINTR);
        if (rc < 0 || (pfds[1].revents & POLLIN) || !accepting.load())
            return;
        if (!(pfds[0].revents & POLLIN))
            continue;
        const int fd = ::accept(listenFd, nullptr, nullptr);
        if (fd < 0)
            continue;
        const std::uint32_t connId = nextConnId++;
        std::lock_guard<std::mutex> lock(connMu);
        openFds.push_back(fd);
        {
            std::lock_guard<std::mutex> slock(mu);
            ++stats.connections;
        }
        connThreads.emplace_back(
            [this, fd, connId] { serveConnection(fd, connId); });
    }
}

void
Daemon::serveConnection(int fd, std::uint32_t connId)
{
    for (;;) {
        Frame frame;
        try {
            if (!readFrame(fd, frame, cfg.ioTimeoutMs))
                break; // clean EOF: the client hung up between frames
        } catch (const SimError &err) {
            // A defective frame leaves the byte stream unframed; reply
            // (best effort) and close THIS connection only.
            {
                std::lock_guard<std::mutex> lock(mu);
                if (err.kind() == SimError::Kind::Protocol)
                    ++stats.protocolErrors;
                else
                    ++stats.ioErrors;
            }
            trySendError(fd, err.kind(), err.what(), cfg.ioTimeoutMs);
            break;
        }

        bool keepOpen = true;
        try {
            switch (frame.type) {
              case MsgType::SimRequest:
                keepOpen = handleRequest(fd, connId, frame.payload);
                break;
              case MsgType::StatsRequest: {
                const std::string json = statsJson();
                writeFrame(fd, MsgType::StatsReply,
                           std::vector<std::uint8_t>(json.begin(),
                                                     json.end()),
                           cfg.ioTimeoutMs);
                break;
              }
              case MsgType::Shutdown:
                requestStop();
                writeFrame(fd, MsgType::Ack, {}, cfg.ioTimeoutMs);
                break;
              default:
                // A well-framed message the server never expects
                // (e.g. a stray SimResult): recoverable, stream intact.
                {
                    std::lock_guard<std::mutex> lock(mu);
                    ++stats.protocolErrors;
                }
                trySendError(
                    fd, SimError::Kind::Protocol,
                    std::string("unexpected message type: ") +
                        toString(frame.type),
                    cfg.ioTimeoutMs);
                break;
            }
        } catch (const SimError &) {
            // Reply write failed (peer gone) — drop the connection.
            std::lock_guard<std::mutex> lock(mu);
            ++stats.ioErrors;
            break;
        }
        if (!keepOpen)
            break;
    }
    ::close(fd);
    std::lock_guard<std::mutex> lock(connMu);
    for (std::size_t i = 0; i < openFds.size(); ++i) {
        if (openFds[i] == fd) {
            openFds.erase(openFds.begin() + i);
            break;
        }
    }
}

bool
Daemon::handleRequest(int fd, std::uint32_t connId,
                      const std::vector<std::uint8_t> &payload)
{
    EventTracer *tracer = cfg.tracer;
    const std::uint64_t t0 = tracer ? tracer->hostNowMicros() : 0;

    RunRequest req;
    try {
        Deserializer d(payload);
        req = decodeRequest(d);
    } catch (const SimError &err) {
        // The frame itself was sound (CRC passed), its payload is not:
        // the stream is still synchronized, so reply and keep serving.
        {
            std::lock_guard<std::mutex> lock(mu);
            ++stats.protocolErrors;
        }
        trySendError(fd, SimError::Kind::Protocol,
                     std::string("bad request payload: ") + err.what(),
                     cfg.ioTimeoutMs);
        return true;
    }

    {
        std::lock_guard<std::mutex> lock(mu);
        ++stats.requests;
    }

    RunResult cached;
    if (store.lookup(req, cached)) {
        {
            std::lock_guard<std::mutex> lock(mu);
            ++stats.cacheHits;
        }
        if (tracer)
            tracer->recordHost("svc.cacheHit", connId,
                               tracer->hostNowMicros() - t0,
                               requestDigest(req) & 0xffffffffu);
        return sendResult(fd, req, cached);
    }

    const std::uint64_t digest = requestDigest(req);

    if (poison && poison->quarantined(digest)) {
        // The digest has killed enough distinct workers; it will never
        // touch a worker again.  Typed refusal, not Busy: retrying is
        // pointless and the client must not fall back either (the same
        // request would crash an unsandboxed process).
        {
            std::lock_guard<std::mutex> lock(mu);
            ++stats.poisonRefused;
        }
        if (tracer)
            tracer->recordHost("svc.poisonRefused", connId, 0,
                               digest & 0xffffffffu);
        trySendError(fd, SimError::Kind::Crash,
                     "request " + digestHex(digest) +
                         " is quarantined: it crashed " +
                         std::to_string(cfg.poisonThreshold) +
                         " isolated workers",
                     cfg.ioTimeoutMs);
        return true;
    }

    if (fleet && fleet->flapping()) {
        // The fleet is dying faster than it can restart; queueing more
        // work would just line victims up behind the fault.  Shed with
        // a retry-after so clients back off while backoff heals it.
        {
            std::lock_guard<std::mutex> lock(mu);
            ++stats.sheds;
            ++stats.flapSheds;
        }
        if (tracer)
            tracer->recordHost("svc.flapShed", connId, 0,
                               cfg.retryAfterMs);
        writeFrame(fd, MsgType::Busy, busyPayload(cfg.retryAfterMs),
                   cfg.ioTimeoutMs);
        return true;
    }

    std::shared_ptr<Job> job;
    {
        std::lock_guard<std::mutex> lock(mu);
        ++stats.cacheMisses;
        auto it = inflight.find(digest);
        if (it != inflight.end()) {
            // An identical request is already queued or running: wait
            // on the same job instead of simulating twice.
            job = it->second;
            ++stats.coalesced;
        } else if (draining.load() || queue.size() >= cfg.queueDepth) {
            ++stats.sheds;
            if (tracer)
                tracer->recordHost("svc.shed", connId, 0,
                                   cfg.retryAfterMs);
            writeFrame(fd, MsgType::Busy, busyPayload(cfg.retryAfterMs),
                       cfg.ioTimeoutMs);
            return true;
        } else {
            job = std::make_shared<Job>();
            job->req = req;
            job->digest = digest;
            queue.push_back(job);
            inflight.emplace(digest, job);
            workCv.notify_one();
        }
    }

    {
        std::unique_lock<std::mutex> jlock(job->jmu);
        job->cv.wait(jlock, [&job] { return job->done; });
    }
    if (tracer)
        tracer->recordHost("svc.request", connId,
                           tracer->hostNowMicros() - t0,
                           digest & 0xffffffffu);
    if (job->failed) {
        writeFrame(fd, MsgType::Error,
                   encodeErrorPayload(job->errKind, job->errMsg),
                   cfg.ioTimeoutMs);
        return true;
    }
    return sendResult(fd, req, job->result);
}

bool
Daemon::sendResult(int fd, const RunRequest &req, const RunResult &res)
{
    Serializer s;
    s.beginSection("simres");
    s.putU64(requestDigest(req));
    s.beginSection("result");
    saveRunResult(s, res);
    s.endSection("result");
    s.endSection("simres");
    const std::vector<std::uint8_t> bytes =
        encodeFrame(MsgType::SimResult, s.image());
    if (truncateBudget.fetch_sub(1) > 0) {
        // Fault injection: send half the frame, then hang up.  The
        // client must flag SimError(Protocol), not consume garbage.
        writeRaw(fd, bytes.data(), bytes.size() / 2, cfg.ioTimeoutMs);
        return false;
    }
    truncateBudget.fetch_add(1); // undo the speculative decrement
    writeRaw(fd, bytes.data(), bytes.size(), cfg.ioTimeoutMs);
    return true;
}

void
Daemon::workerLoop()
{
    for (;;) {
        std::shared_ptr<Job> job;
        {
            std::unique_lock<std::mutex> lock(mu);
            workCv.wait(lock, [this] {
                return !queue.empty() || draining.load();
            });
            if (queue.empty()) {
                if (draining.load())
                    return;
                continue;
            }
            job = queue.front();
            queue.pop_front();
            job->started = true;
            job->startTime = Clock::now();
            job->lastBeatTime = job->startTime;
        }

        EventTracer *tracer = cfg.tracer;
        const std::uint64_t t0 = tracer ? tracer->hostNowMicros() : 0;
        // Feed-cache attribution: the simulate callback replays or
        // captures front-end blobs internally, so the only observable
        // is the shared counter delta around the call.  In-process
        // workers only — a forked child's counters die with it.
        const FeedCacheStats feed0 =
            feedCache && !fleet ? feedCache->stats() : FeedCacheStats{};
        bool failed = false;
        SimError::Kind kind = SimError::Kind::Io;
        std::string msg;
        RunResult res;
        try {
            // Isolation routes the job through the supervisor into a
            // forked, rlimit-capped child; the abort/heartbeat wiring
            // is identical either way (the worker bridges it across
            // the process boundary via a shared page).
            res = fleet ? fleet->run(job->req, &job->abort,
                                     &job->heartbeat)
                        : simulate(job->req, &job->abort,
                                   &job->heartbeat);
        } catch (const SimError &err) {
            failed = true;
            kind = err.kind();
            msg = err.what();
        }

        if (!failed) {
            store.store(job->req, res);
            if (corruptBudget.fetch_sub(1) > 0) {
                // Mangle the blob AND evict the in-memory copy so the
                // next lookup must take the disk path and detect it.
                FaultInjector(job->digest)
                    .corruptBlobFile(store.blobPath(job->digest));
                store.evictMemory(job->digest);
            } else {
                corruptBudget.fetch_add(1);
            }
        }

        {
            std::lock_guard<std::mutex> lock(mu);
            inflight.erase(job->digest);
            if (failed) {
                ++stats.quarantines;
                if (job->hangAborted)
                    ++stats.hangAborts;
                if (job->deadlineAborted)
                    ++stats.deadlineAborts;
            } else {
                ++stats.simulated;
            }
        }
        if (tracer) {
            tracer->recordHost("svc.simulate", 0,
                               tracer->hostNowMicros() - t0,
                               job->digest & 0xffffffffu);
            if (failed && kind == SimError::Kind::Crash)
                tracer->recordHost("svc.crash", 0,
                                   tracer->hostNowMicros() - t0,
                                   job->digest & 0xffffffffu);
            if (feedCache && !fleet) {
                const FeedCacheStats feed1 = feedCache->stats();
                if (feed1.hits > feed0.hits)
                    tracer->recordHost("svc.feedHit", 0,
                                       tracer->hostNowMicros() - t0,
                                       job->digest & 0xffffffffu);
                else if (feed1.misses > feed0.misses)
                    tracer->recordHost("svc.feedMiss", 0,
                                       tracer->hostNowMicros() - t0,
                                       job->digest & 0xffffffffu);
            }
        }

        {
            std::lock_guard<std::mutex> jlock(job->jmu);
            job->done = true;
            job->failed = failed;
            job->errKind = kind;
            job->errMsg = msg;
            job->result = res;
        }
        job->cv.notify_all();
    }
}

void
Daemon::watchdogLoop()
{
    while (!watchdogStop.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        const Clock::time_point now = Clock::now();
        std::lock_guard<std::mutex> lock(mu);
        for (auto &entry : inflight) {
            const std::shared_ptr<Job> &job = entry.second;
            if (!job->started || job->abort.load())
                continue;
            if (job->req.deadlineMs > 0) {
                const auto elapsed =
                    std::chrono::duration_cast<std::chrono::milliseconds>(
                        now - job->startTime)
                        .count();
                if (static_cast<std::uint64_t>(elapsed) >
                    job->req.deadlineMs) {
                    job->deadlineAborted = true;
                    job->abort.store(true);
                    continue;
                }
            }
            if (cfg.hangTimeout > 0.0) {
                const std::uint64_t beat = job->heartbeat.load();
                if (beat != job->lastBeat) {
                    job->lastBeat = beat;
                    job->lastBeatTime = now;
                } else if (std::chrono::duration<double>(
                               now - job->lastBeatTime)
                               .count() > cfg.hangTimeout) {
                    job->hangAborted = true;
                    job->abort.store(true);
                }
            }
        }
    }
}

DaemonCounters
Daemon::counters() const
{
    std::lock_guard<std::mutex> lock(mu);
    return stats;
}

SupervisorCounters
Daemon::fleetCounters() const
{
    return fleet ? fleet->counters() : SupervisorCounters{};
}

PoisonStats
Daemon::poisonStats() const
{
    return poison ? poison->stats() : PoisonStats{};
}

std::string
Daemon::statsJson() const
{
    const DaemonCounters c = counters();
    const ResultCacheStats cs = store.stats();
    const SupervisorCounters fc = fleetCounters();
    const PoisonStats ps = poisonStats();
    const FeedCacheStats fs =
        feedCache ? feedCache->stats() : FeedCacheStats{};
    std::ostringstream os;
    os << "{\n"
       << "  \"daemon\": {\n"
       << "    \"connections\": " << c.connections << ",\n"
       << "    \"requests\": " << c.requests << ",\n"
       << "    \"cache_hits\": " << c.cacheHits << ",\n"
       << "    \"cache_misses\": " << c.cacheMisses << ",\n"
       << "    \"simulated\": " << c.simulated << ",\n"
       << "    \"coalesced\": " << c.coalesced << ",\n"
       << "    \"sheds\": " << c.sheds << ",\n"
       << "    \"quarantines\": " << c.quarantines << ",\n"
       << "    \"hang_aborts\": " << c.hangAborts << ",\n"
       << "    \"deadline_aborts\": " << c.deadlineAborts << ",\n"
       << "    \"protocol_errors\": " << c.protocolErrors << ",\n"
       << "    \"io_errors\": " << c.ioErrors << ",\n"
       << "    \"poison_refused\": " << c.poisonRefused << ",\n"
       << "    \"flap_sheds\": " << c.flapSheds << "\n"
       << "  },\n"
       << "  \"isolation\": {\n"
       << "    \"enabled\": " << (fleet ? "true" : "false") << ",\n"
       << "    \"jobs\": " << fc.jobs << ",\n"
       << "    \"worker_crashes\": " << fc.crashes << ",\n"
       << "    \"hang_kills\": " << fc.hangKills << ",\n"
       << "    \"rlimit_cpu_kills\": " << fc.rlimitCpuKills << ",\n"
       << "    \"contained_errors\": " << fc.containedErrors << ",\n"
       << "    \"worker_restarts\": " << fc.restarts << ",\n"
       << "    \"poison_quarantines\": " << fc.poisonQuarantines << ",\n"
       << "    \"poison_tracked\": " << ps.tracked << ",\n"
       << "    \"poison_blacklisted\": " << ps.quarantined << ",\n"
       << "    \"poison_recovered\": " << ps.recovered << "\n"
       << "  },\n"
       << "  \"cache\": {\n"
       << "    \"entries\": " << store.size() << ",\n"
       << "    \"hits\": " << cs.hits << ",\n"
       << "    \"memory_hits\": " << cs.memoryHits << ",\n"
       << "    \"misses\": " << cs.misses << ",\n"
       << "    \"stores\": " << cs.stores << ",\n"
       << "    \"corrupt_dropped\": " << cs.corruptDropped << ",\n"
       << "    \"recovered\": " << cs.recovered << "\n"
       << "  },\n"
       << "  \"feed\": {\n"
       << "    \"enabled\": " << (feedCache ? "true" : "false") << ",\n"
       << "    \"feed_hits\": " << fs.hits << ",\n"
       << "    \"feed_misses\": " << fs.misses << ",\n"
       << "    \"stores\": " << fs.stores << ",\n"
       << "    \"corrupt_dropped\": " << fs.corruptDropped << ",\n"
       << "    \"recovered\": " << fs.recovered << "\n"
       << "  }\n"
       << "}\n";
    return os.str();
}

} // namespace rc::svc
