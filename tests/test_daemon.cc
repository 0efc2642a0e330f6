/**
 * @file
 * End-to-end tests of the sweep daemon + client pair over a real Unix
 * socket: bit-identity with the in-process path, cache-hit serving,
 * Busy backpressure with client backoff and fallback, malformed-frame
 * connection isolation, watchdog deadline aborts, graceful drain,
 * daemon-down fallback, truncated-reply retry, and kill -9 recovery on
 * a shared cache directory.  `ctest -L daemon` runs exactly this file.
 */

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "common/log.hh"
#include "harness.hh"
#include "scoped_dir.hh"
#include "service/client.hh"
#include "service/daemon.hh"
#include "service/frame.hh"
#include "service/poison.hh"
#include "service/supervisor.hh"
#include "telemetry/trace_event.hh"
#include "verify/fault_injector.hh"

namespace rc
{
namespace
{

using svc::ClientConfig;
using svc::Daemon;
using svc::DaemonConfig;
using svc::Frame;
using svc::MsgType;
using svc::RcClient;
using svc::RunRequest;

svc::SimulateFn
directSim()
{
    return [](const RunRequest &req, const std::atomic<bool> *abort,
              std::atomic<std::uint64_t> *heartbeat) {
        return bench::simulateRequest(req, abort, heartbeat);
    };
}

RunRequest
tinyRequest(std::uint64_t seed = 42)
{
    RunRequest req;
    req.config = baselineSystem(8);
    req.mix = makeMixes(1, req.config.numCores, 7)[0];
    req.seed = seed;
    req.scale = 8;
    req.warmup = 1'000;
    req.measure = 4'000;
    return req;
}

/** Per-test socket + cache dir, unique per pid, removed when the test
 *  ends. */
struct Scratch
{
    ScopedDir base;
    std::string sock;
    std::string cacheDir;
    explicit Scratch(const std::string &name) : base(name)
    {
        ::mkdir(base.path().c_str(), 0777);
        cacheDir = base.path() + "/cache";
        sock = base.path() + "/d.sock";
    }
};

DaemonConfig
daemonConfig(const Scratch &s)
{
    DaemonConfig cfg;
    cfg.socketPath = s.sock;
    cfg.cacheDir = s.cacheDir;
    cfg.workers = 2;
    cfg.retryAfterMs = 5;
    return cfg;
}

ClientConfig
clientConfig(const Scratch &s)
{
    ClientConfig cfg;
    cfg.socketPath = s.sock;
    cfg.backoffBaseMs = 2;
    cfg.ioTimeoutMs = 5'000;
    return cfg;
}

/** Raw protocol-level connection for sending hand-crafted bytes. */
int
rawConnect(const std::string &path)
{
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        return -1;
    struct sockaddr_un addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    if (::connect(fd, reinterpret_cast<struct sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        ::close(fd);
        return -1;
    }
    return fd;
}

/** Spin until @p pred or ~2 s pass (daemon threads run asynchronously). */
template <typename Pred>
bool
eventually(Pred pred)
{
    for (int i = 0; i < 200; ++i) {
        if (pred())
            return true;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return pred();
}

TEST(DaemonService, ServesBitIdenticalResultsAndCachesRepeats)
{
    Scratch s("daemon-identity");
    Daemon daemon(daemonConfig(s), directSim());
    daemon.start();

    const RunRequest r1 = tinyRequest(1), r2 = tinyRequest(2);
    const RunResult ref1 = bench::simulateRequest(r1);
    const RunResult ref2 = bench::simulateRequest(r2);

    RcClient client(clientConfig(s));
    EXPECT_TRUE(runResultsEqual(client.simulate(r1), ref1));
    EXPECT_TRUE(runResultsEqual(client.simulate(r2), ref2));
    EXPECT_TRUE(runResultsEqual(client.simulate(r1), ref1));

    const auto c = daemon.counters();
    EXPECT_EQ(c.requests, 3u);
    EXPECT_EQ(c.simulated, 2u);
    EXPECT_EQ(c.cacheHits, 1u);
    EXPECT_EQ(c.cacheMisses, 2u);
    EXPECT_EQ(client.counters().results, 3u);
    EXPECT_EQ(client.counters().fallbacks, 0u);

    // The stats endpoint works and mentions the hit.
    EXPECT_TRUE(client.ping());
    const std::string json = client.daemonStatsJson();
    EXPECT_NE(json.find("\"cache_hits\": 1"), std::string::npos) << json;

    daemon.requestStop();
    daemon.stop();
}

TEST(DaemonService, BusyShedsAreRetriedThenFellBackBitIdentically)
{
    Scratch s("daemon-busy");
    // queueDepth=0: every miss sheds, deterministically.
    DaemonConfig dcfg = daemonConfig(s);
    dcfg.queueDepth = 0;
    Daemon daemon(dcfg, directSim());
    daemon.start();

    const RunRequest req = tinyRequest();
    const RunResult ref = bench::simulateRequest(req);

    ClientConfig ccfg = clientConfig(s);
    ccfg.maxAttempts = 3;
    ccfg.fallback = directSim();
    RcClient client(ccfg);
    EXPECT_TRUE(runResultsEqual(client.simulate(req), ref));

    const auto cc = client.counters();
    EXPECT_EQ(cc.busyRetries, 3u);
    EXPECT_EQ(cc.fallbacks, 1u);
    EXPECT_GT(cc.backoffMsTotal, 0u);
    EXPECT_EQ(daemon.counters().sheds, 3u);

    // Without a fallback the same situation is a hard, typed error.
    ClientConfig bare = clientConfig(s);
    bare.maxAttempts = 2;
    RcClient strict(bare);
    bool threw = false;
    try {
        strict.simulate(req);
    } catch (const SimError &err) {
        threw = true;
        EXPECT_EQ(err.kind(), SimError::Kind::Io);
    }
    EXPECT_TRUE(threw);

    daemon.requestStop();
    daemon.stop();
}

TEST(DaemonService, MalformedFramesPoisonOnlyTheirOwnConnection)
{
    Scratch s("daemon-isolation");
    Daemon daemon(daemonConfig(s), directSim());
    daemon.start();

    // Connection 1: plain garbage (bad magic).
    {
        const int fd = rawConnect(s.sock);
        ASSERT_GE(fd, 0);
        const char junk[] = "this is not a frame at all, sorry";
        ASSERT_EQ(::send(fd, junk, sizeof(junk), 0),
                  static_cast<ssize_t>(sizeof(junk)));
        ::close(fd);
    }
    // Connection 2: well-formed frame with a version from the future.
    {
        const int fd = rawConnect(s.sock);
        ASSERT_GE(fd, 0);
        auto bytes = svc::encodeFrame(MsgType::StatsRequest, {});
        bytes[4] = 0x7f; // version
        svc::writeRaw(fd, bytes.data(), bytes.size(), 1'000);
        // The daemon answers Error (still framed at version 1) before
        // closing this connection.
        Frame reply;
        bool gotError = false;
        try {
            gotError = svc::readFrame(fd, reply, 2'000) &&
                       reply.type == MsgType::Error;
        } catch (const SimError &) {
            gotError = false; // reply raced the close; counter test below
        }
        EXPECT_TRUE(gotError);
        ::close(fd);
    }
    // Connection 3: a truncated frame, cut mid-payload by the injector.
    {
        FaultInjector inj(3);
        const auto full = svc::encodeFrame(
            MsgType::StatsRequest, std::vector<std::uint8_t>(64, 1));
        const auto cut = inj.truncateFrame(full);
        const int fd = rawConnect(s.sock);
        ASSERT_GE(fd, 0);
        svc::writeRaw(fd, cut.data(), cut.size(), 1'000);
        ::close(fd);
    }

    EXPECT_TRUE(eventually([&] {
        return daemon.counters().protocolErrors +
                   daemon.counters().ioErrors >=
               3;
    })) << "daemon did not classify all three defects";

    // A well-behaved client right after: totally unaffected.
    const RunRequest req = tinyRequest();
    RcClient client(clientConfig(s));
    EXPECT_TRUE(
        runResultsEqual(client.simulate(req),
                        bench::simulateRequest(req)));

    daemon.requestStop();
    daemon.stop();
}

TEST(DaemonService, UnexpectedTypeGetsErrorButKeepsTheStream)
{
    Scratch s("daemon-unexpected");
    Daemon daemon(daemonConfig(s), directSim());
    daemon.start();

    const int fd = rawConnect(s.sock);
    ASSERT_GE(fd, 0);
    // Ack is a daemon->client type; a client must never send it.
    svc::writeFrame(fd, MsgType::Ack, {}, 1'000);
    Frame reply;
    ASSERT_TRUE(svc::readFrame(fd, reply, 2'000));
    EXPECT_EQ(reply.type, MsgType::Error);
    // The framing was valid, so the connection survives: a StatsRequest
    // on the very same socket still works.
    svc::writeFrame(fd, MsgType::StatsRequest, {}, 1'000);
    ASSERT_TRUE(svc::readFrame(fd, reply, 2'000));
    EXPECT_EQ(reply.type, MsgType::StatsReply);
    ::close(fd);

    daemon.requestStop();
    daemon.stop();
}

TEST(DaemonService, DeadlineExpiryAbortsTheRunAndReportsTyped)
{
    Scratch s("daemon-deadline");
    DaemonConfig dcfg = daemonConfig(s);
    dcfg.workers = 1;
    // A job that makes progress but far too slowly for its deadline;
    // the abort flag is the daemon watchdog's.
    Daemon daemon(dcfg, [](const RunRequest &req,
                           const std::atomic<bool> *abort,
                           std::atomic<std::uint64_t> *heartbeat) {
        if (req.deadlineMs > 0) {
            for (int i = 0; i < 1'000; ++i) {
                if (abort != nullptr && abort->load())
                    throwSimError(SimError::Kind::Hang,
                                  "aborted at the deadline");
                if (heartbeat != nullptr)
                    heartbeat->fetch_add(1);
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(5));
            }
        }
        return bench::simulateRequest(req, abort, heartbeat);
    });
    daemon.start();

    RunRequest req = tinyRequest();
    req.deadlineMs = 60;
    ClientConfig ccfg = clientConfig(s); // no fallback: surface it
    RcClient client(ccfg);
    bool threw = false;
    try {
        client.simulate(req);
    } catch (const SimError &err) {
        threw = true;
        EXPECT_EQ(err.kind(), SimError::Kind::Hang) << err.what();
    }
    EXPECT_TRUE(threw);
    EXPECT_TRUE(eventually(
        [&] { return daemon.counters().deadlineAborts == 1; }));
    EXPECT_EQ(daemon.counters().quarantines, 1u);

    // The same request without a deadline completes fine.
    req.deadlineMs = 0;
    EXPECT_TRUE(runResultsEqual(client.simulate(req),
                                bench::simulateRequest(req)));

    daemon.requestStop();
    daemon.stop();
}

TEST(DaemonService, DrainRefusesNewWorkAndPersistsTheIndex)
{
    Scratch s("daemon-drain");
    Daemon daemon(daemonConfig(s), directSim());
    daemon.start();

    const RunRequest req = tinyRequest();
    RcClient client(clientConfig(s));
    (void)client.simulate(req);

    // The wire-level drain: a Shutdown frame, as rc-client --shutdown
    // sends.
    EXPECT_TRUE(client.shutdownDaemon());
    EXPECT_TRUE(daemon.isDraining());

    // New work is shed while draining.
    ClientConfig ccfg = clientConfig(s);
    ccfg.maxAttempts = 2;
    ccfg.fallback = directSim();
    RcClient late(ccfg);
    EXPECT_TRUE(runResultsEqual(late.simulate(tinyRequest(9)),
                                bench::simulateRequest(tinyRequest(9))));
    EXPECT_EQ(late.counters().fallbacks, 1u);

    daemon.stop();
    // The drain persisted a compacted index naming the stored entry.
    std::FILE *f = std::fopen((s.cacheDir + "/cache.index").c_str(), "rb");
    ASSERT_NE(f, nullptr);
    char buf[256] = {0};
    const size_t n = std::fread(buf, 1, sizeof(buf) - 1, f);
    std::fclose(f);
    EXPECT_NE(std::string(buf, n).find(
                  svc::digestHex(svc::requestDigest(req))),
              std::string::npos);
}

TEST(DaemonService, UnreachableDaemonFallsBackBitIdentically)
{
    Scratch s("daemon-down");
    ClientConfig ccfg = clientConfig(s); // nothing listens on s.sock
    ccfg.fallback = directSim();
    RcClient client(ccfg);
    const RunRequest req = tinyRequest();
    EXPECT_TRUE(runResultsEqual(client.simulate(req),
                                bench::simulateRequest(req)));
    EXPECT_EQ(client.counters().fallbacks, 1u);
    EXPECT_EQ(client.counters().results, 0u);

    ClientConfig bare = clientConfig(s);
    RcClient strict(bare);
    bool threw = false;
    try {
        strict.simulate(req);
    } catch (const SimError &err) {
        threw = true;
        EXPECT_EQ(err.kind(), SimError::Kind::Io);
    }
    EXPECT_TRUE(threw);
}

TEST(DaemonService, TruncatedRepliesAreRetriedToSuccess)
{
    Scratch s("daemon-torn");
    DaemonConfig dcfg = daemonConfig(s);
    dcfg.faultTruncateReplies = 1;
    Daemon daemon(dcfg, directSim());
    daemon.start();

    const RunRequest req = tinyRequest();
    ClientConfig ccfg = clientConfig(s); // no fallback: the daemon must
    ccfg.maxAttempts = 3;                // deliver after the retry
    RcClient client(ccfg);
    EXPECT_TRUE(runResultsEqual(client.simulate(req),
                                bench::simulateRequest(req)));
    EXPECT_GE(client.counters().reconnects, 1u);

    daemon.requestStop();
    daemon.stop();
}

TEST(DaemonService, RestartOnTheSameCacheDirRecoversIntactEntries)
{
    Scratch s("daemon-restart");
    const RunRequest r1 = tinyRequest(1), r2 = tinyRequest(2);
    const RunResult ref1 = bench::simulateRequest(r1);
    const RunResult ref2 = bench::simulateRequest(r2);
    std::string tornBlob;

    {
        Daemon daemon(daemonConfig(s), directSim());
        daemon.start();
        RcClient client(clientConfig(s));
        (void)client.simulate(r1);
        (void)client.simulate(r2);
        tornBlob = daemon.cache().blobPath(svc::requestDigest(r2));
        // kill -9: no drain, no index persistence, threads just die.
        // (In-process we still must join the threads; the on-disk state
        // below is what a real SIGKILL leaves.)
        daemon.requestStop();
        daemon.stop();
    }
    // Tear r2's blob mid-write and drop tmp litter, as a SIGKILL between
    // fwrite and rename would.
    ASSERT_EQ(::truncate(tornBlob.c_str(), 7), 0);
    {
        std::FILE *f = std::fopen(
            (s.cacheDir + "/memo-dead.bin.tmp").c_str(), "wb");
        ASSERT_NE(f, nullptr);
        std::fclose(f);
    }

    Daemon daemon(daemonConfig(s), directSim());
    daemon.start();
    RcClient client(clientConfig(s));
    EXPECT_TRUE(runResultsEqual(client.simulate(r1), ref1));
    EXPECT_TRUE(runResultsEqual(client.simulate(r2), ref2));
    const auto c = daemon.counters();
    EXPECT_EQ(c.cacheHits, 1u) << "intact entry must be recovered";
    EXPECT_EQ(c.simulated, 1u) << "torn entry must re-simulate";
    EXPECT_EQ(daemon.cache().stats().corruptDropped, 1u);
    struct stat st;
    EXPECT_NE(::stat((s.cacheDir + "/memo-dead.bin.tmp").c_str(), &st), 0)
        << "stale tmp survived recovery";
    daemon.requestStop();
    daemon.stop();
}

/**
 * A sweep's result store is the daemon's cache format under one key: a
 * daemon serving `<sweepDir>/results` answers every cell of the grid
 * that filled it without simulating anything.
 */
TEST(DaemonService, ServesASweepsResultStore)
{
    Scratch s("daemon-sweep-store");
    bench::RunOptions opt;
    opt.mixCount = 2;
    opt.warmup = 1'000;
    opt.measure = 4'000;
    opt.jobs = 2;
    opt.sweepDir = s.cacheDir + "-sweep";
    const std::vector<SystemConfig> cfgs = {baselineSystem(8),
                                            reuseSystem(4.0, 1.0, 0, 8)};
    const std::vector<Mix> mixes = makeMixes(opt.mixCount, 8, 7);
    const auto grid = bench::runConfigsOverMixes(cfgs, mixes, opt);

    DaemonConfig dcfg = daemonConfig(s);
    dcfg.cacheDir = opt.sweepDir + "/results";
    Daemon daemon(dcfg, [](const RunRequest &, const std::atomic<bool> *,
                           std::atomic<std::uint64_t> *) {
        ADD_FAILURE() << "the daemon simulated a cell the sweep stored";
        return RunResult{};
    });
    daemon.start();
    RcClient client(clientConfig(s));
    for (std::size_t i = 0; i < cfgs.size(); ++i) {
        for (std::size_t m = 0; m < mixes.size(); ++m) {
            SCOPED_TRACE("config " + std::to_string(i) + " mix " +
                         std::to_string(m));
            EXPECT_TRUE(runResultsEqual(
                client.simulate(bench::runRequest(cfgs[i], mixes[m], opt)),
                grid[i][m]));
        }
    }
    EXPECT_EQ(daemon.counters().cacheHits, cfgs.size() * mixes.size());
    EXPECT_EQ(daemon.counters().simulated, 0u);
    daemon.requestStop();
    daemon.stop();
}

TEST(DaemonService, CoalescesConcurrentDuplicateRequests)
{
    Scratch s("daemon-coalesce");
    DaemonConfig dcfg = daemonConfig(s);
    dcfg.workers = 1;
    // Slow the single worker down enough that duplicates pile up.
    Daemon daemon(dcfg, [](const RunRequest &req,
                           const std::atomic<bool> *abort,
                           std::atomic<std::uint64_t> *heartbeat) {
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
        return bench::simulateRequest(req, abort, heartbeat);
    });
    daemon.start();

    const RunRequest req = tinyRequest();
    const RunResult ref = bench::simulateRequest(req);
    std::atomic<int> wrong{0};
    std::vector<std::thread> pool;
    for (int t = 0; t < 4; ++t)
        pool.emplace_back([&] {
            RcClient client(clientConfig(s));
            if (!runResultsEqual(client.simulate(req), ref))
                wrong.fetch_add(1);
        });
    for (std::thread &th : pool)
        th.join();
    EXPECT_EQ(wrong.load(), 0);
    const auto c = daemon.counters();
    EXPECT_EQ(c.simulated, 1u) << "duplicates must not re-simulate";
    EXPECT_GE(c.coalesced + c.cacheHits, 3u);

    daemon.requestStop();
    daemon.stop();
}

// ---------------------------------------------------------------------
// Process-isolated workers: the DaemonIsolated suite runs every job in
// a forked, rlimit-capped child supervised for crash containment.
// Chaos markers (verify/fault_injector.hh) ride the request seed.
// ---------------------------------------------------------------------

/** directSim plus chaos detonation for marked seeds (worker-side). */
svc::SimulateFn
chaosSim()
{
    return [](const RunRequest &req, const std::atomic<bool> *abort,
              std::atomic<std::uint64_t> *heartbeat) {
        FaultClass cls;
        if (chaosFromSeed(req.seed, cls))
            detonateChaos(cls, heartbeat);
        return bench::simulateRequest(req, abort, heartbeat);
    };
}

DaemonConfig
isolatedConfig(const Scratch &s)
{
    DaemonConfig cfg = daemonConfig(s);
    cfg.isolateWorkers = true;
    // Tests kill workers on purpose; production backoff would just
    // slow them down.
    cfg.workerRestartBackoffMs = 2;
    cfg.workerRestartBackoffCapMs = 20;
    return cfg;
}

TEST(DaemonIsolated, ServesBitIdenticalResultsAcrossTheProcessBoundary)
{
    Scratch s("isolated-identity");
    Daemon daemon(isolatedConfig(s), directSim());
    EXPECT_TRUE(daemon.isolated());
    daemon.start();

    const RunRequest r1 = tinyRequest(1), r2 = tinyRequest(2);
    RcClient client(clientConfig(s));
    EXPECT_TRUE(runResultsEqual(client.simulate(r1),
                                bench::simulateRequest(r1)));
    EXPECT_TRUE(runResultsEqual(client.simulate(r2),
                                bench::simulateRequest(r2)));
    // Repeat: served from the cache, no third job.
    EXPECT_TRUE(runResultsEqual(client.simulate(r1),
                                bench::simulateRequest(r1)));

    const svc::SupervisorCounters fc = daemon.fleetCounters();
    EXPECT_EQ(fc.jobs, 2u);
    EXPECT_EQ(fc.crashes, 0u);
    const std::string json = daemon.statsJson();
    EXPECT_NE(json.find("\"enabled\": true"), std::string::npos) << json;

    daemon.requestStop();
    daemon.stop();
}

TEST(DaemonIsolated, WorkerCrashIsTypedRestartedAndTraced)
{
    Scratch s("isolated-crash");
    EventTracer tracer;
    DaemonConfig dcfg = isolatedConfig(s);
    dcfg.tracer = &tracer;
    Daemon daemon(dcfg, chaosSim());
    daemon.start();

    RunRequest doomed = tinyRequest();
    doomed.seed = chaosSeed(FaultClass::WorkerCrash, 1);
    ClientConfig ccfg = clientConfig(s); // no fallback: surface it
    RcClient client(ccfg);
    bool threw = false;
    try {
        client.simulate(doomed);
    } catch (const SimError &err) {
        threw = true;
        EXPECT_EQ(err.kind(), SimError::Kind::Crash) << err.what();
    }
    EXPECT_TRUE(threw);

    // The daemon survived, a fresh worker serves the next job.
    const RunRequest healthy = tinyRequest(3);
    EXPECT_TRUE(runResultsEqual(client.simulate(healthy),
                                bench::simulateRequest(healthy)));
    const svc::SupervisorCounters fc = daemon.fleetCounters();
    EXPECT_EQ(fc.crashes, 1u);
    EXPECT_GE(fc.restarts, 1u);

    daemon.requestStop();
    daemon.stop();

    std::ostringstream os;
    tracer.exportChromeJson(os);
    EXPECT_NE(os.str().find("svc.crash"), std::string::npos)
        << "crash span missing from the exported trace";
}

TEST(DaemonIsolated, AllocationBombIsContainedWithoutAWorkerDeath)
{
    Scratch s("isolated-oom");
    DaemonConfig dcfg = isolatedConfig(s);
    // Cap the child's address space so the bomb dies at the allocator,
    // quickly.  (Compiled out under ASan, where the bomb's own 2 GiB
    // budget produces the same bad_alloc.)
    dcfg.workerAddressSpaceBytes = 512ull << 20;
    Daemon daemon(dcfg, chaosSim());
    daemon.start();

    RunRequest doomed = tinyRequest();
    doomed.seed = chaosSeed(FaultClass::WorkerOom, 2);
    RcClient client(clientConfig(s));
    bool threw = false;
    try {
        client.simulate(doomed);
    } catch (const SimError &err) {
        threw = true;
        EXPECT_EQ(err.kind(), SimError::Kind::Crash) << err.what();
    }
    EXPECT_TRUE(threw);

    // bad_alloc was caught INSIDE the child: a typed reply, no death,
    // and the same worker (same incarnation) serves the next job.
    const svc::SupervisorCounters fc = daemon.fleetCounters();
    EXPECT_EQ(fc.containedErrors, 1u);
    EXPECT_EQ(fc.crashes, 0u);
    EXPECT_EQ(fc.restarts, 0u);
    const RunRequest healthy = tinyRequest(4);
    EXPECT_TRUE(runResultsEqual(client.simulate(healthy),
                                bench::simulateRequest(healthy)));

    daemon.requestStop();
    daemon.stop();
}

TEST(DaemonIsolated, AbortIgnoringHangIsForceKilledAndTypedHang)
{
    Scratch s("isolated-hang");
    DaemonConfig dcfg = isolatedConfig(s);
    dcfg.workers = 1;
    dcfg.hangTimeout = 0.15;       // silence budget before abort
    dcfg.workerAbortGraceMs = 100; // grace before SIGKILL
    Daemon daemon(dcfg, chaosSim());
    daemon.start();

    RunRequest doomed = tinyRequest();
    doomed.seed = chaosSeed(FaultClass::WorkerHang, 3);
    RcClient client(clientConfig(s));
    bool threw = false;
    try {
        client.simulate(doomed);
    } catch (const SimError &err) {
        threw = true;
        EXPECT_EQ(err.kind(), SimError::Kind::Hang) << err.what();
    }
    EXPECT_TRUE(threw);

    const svc::SupervisorCounters fc = daemon.fleetCounters();
    EXPECT_EQ(fc.hangKills, 1u);
    EXPECT_EQ(fc.crashes, 1u); // the forced kill is a death too
    const RunRequest healthy = tinyRequest(5);
    EXPECT_TRUE(runResultsEqual(client.simulate(healthy),
                                bench::simulateRequest(healthy)));

    daemon.requestStop();
    daemon.stop();
}

TEST(DaemonIsolated, RlimitCpuKillsARunawaySpinTyped)
{
    Scratch s("isolated-rlimit");
    DaemonConfig dcfg = isolatedConfig(s);
    dcfg.workers = 1;
    dcfg.workerCpuLimitSeconds = 1;
    // A spin that heartbeats (so no watchdog involvement) but burns CPU
    // forever: only RLIMIT_CPU can end it.
    const std::uint64_t spinSeed = 0xb41f;
    Daemon daemon(dcfg, [spinSeed](const RunRequest &req,
                                   const std::atomic<bool> *abort,
                                   std::atomic<std::uint64_t> *beat) {
        if (req.seed == spinSeed) {
            for (volatile std::uint64_t i = 0;; ++i)
                if (beat != nullptr && i % 65536 == 0)
                    beat->fetch_add(1);
        }
        return bench::simulateRequest(req, abort, beat);
    });
    daemon.start();

    RunRequest doomed = tinyRequest();
    doomed.seed = spinSeed;
    ClientConfig ccfg = clientConfig(s);
    ccfg.ioTimeoutMs = 20'000; // SIGXCPU needs a real CPU-second
    RcClient client(ccfg);
    bool threw = false;
    try {
        client.simulate(doomed);
    } catch (const SimError &err) {
        threw = true;
        EXPECT_EQ(err.kind(), SimError::Kind::Crash) << err.what();
        EXPECT_NE(std::string(err.what()).find("RLIMIT_CPU"),
                  std::string::npos)
            << err.what();
    }
    EXPECT_TRUE(threw);
    EXPECT_EQ(daemon.fleetCounters().rlimitCpuKills, 1u);

    daemon.requestStop();
    daemon.stop();
}

TEST(DaemonIsolated, PoisonQuarantineFiresAtKAndSurvivesRestart)
{
    Scratch s("isolated-poison");
    DaemonConfig dcfg = isolatedConfig(s);
    dcfg.poisonThreshold = 3;
    RunRequest doomed = tinyRequest();
    doomed.seed = chaosSeed(FaultClass::WorkerCrash, 0xbeef);
    ClientConfig ccfg = clientConfig(s);

    {
        Daemon daemon(dcfg, chaosSim());
        daemon.start();
        RcClient client(ccfg);
        int kills = 0, refusals = 0;
        for (int i = 0; i < 5; ++i) {
            try {
                client.simulate(doomed);
                FAIL() << "a doomed request must never succeed";
            } catch (const SimError &err) {
                ASSERT_EQ(err.kind(), SimError::Kind::Crash)
                    << err.what();
                if (std::string(err.what()).find("quarantined") !=
                    std::string::npos)
                    ++refusals;
                else
                    ++kills;
            }
        }
        EXPECT_EQ(kills, 3);    // K distinct workers died
        EXPECT_EQ(refusals, 2); // then the index refused, worker-free
        EXPECT_EQ(daemon.counters().poisonRefused, 2u);
        EXPECT_EQ(daemon.fleetCounters().poisonQuarantines, 1u);
        EXPECT_EQ(daemon.poisonStats().quarantined, 1u);
        daemon.requestStop();
        daemon.stop();
    }

    // The verdict is in poison.index, not in memory: a NEW daemon on
    // the same cache dir refuses immediately, no worker dies for it.
    {
        Daemon daemon(dcfg, chaosSim());
        daemon.start();
        RcClient client(ccfg);
        bool refused = false;
        try {
            client.simulate(doomed);
        } catch (const SimError &err) {
            refused = err.kind() == SimError::Kind::Crash &&
                      std::string(err.what()).find("quarantined") !=
                          std::string::npos;
        }
        EXPECT_TRUE(refused);
        EXPECT_EQ(daemon.fleetCounters().crashes, 0u);
        EXPECT_GE(daemon.poisonStats().recovered, 1u);
        daemon.requestStop();
        daemon.stop();
    }
}

TEST(DaemonIsolated, ClientDeadlineClampsBackoffAndFailsFast)
{
    Scratch s("client-deadline");
    DaemonConfig dcfg = daemonConfig(s);
    dcfg.queueDepth = 0; // every miss sheds Busy, deterministically
    Daemon daemon(dcfg, directSim());
    daemon.start();

    ClientConfig ccfg = clientConfig(s);
    ccfg.maxAttempts = 10;
    ccfg.backoffBaseMs = 50; // un-clamped sum would be seconds
    RcClient client(ccfg);
    RunRequest req = tinyRequest();
    req.deadlineMs = 80;
    const auto t0 = std::chrono::steady_clock::now();
    bool threw = false;
    try {
        client.simulate(req);
    } catch (const SimError &err) {
        threw = true;
        EXPECT_EQ(err.kind(), SimError::Kind::Io) << err.what();
    }
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t0)
            .count();
    EXPECT_TRUE(threw);
    EXPECT_LT(elapsed, 1.5) << "deadline did not clamp the backoff";
    EXPECT_GE(client.counters().deadlineRespected, 1u);

    daemon.requestStop();
    daemon.stop();
}

TEST(DaemonService, TracerRecordsTheRequestLifecycleSpans)
{
    Scratch s("daemon-telemetry");
    EventTracer tracer;
    DaemonConfig dcfg = daemonConfig(s);
    dcfg.tracer = &tracer;
    Daemon daemon(dcfg, directSim());
    daemon.start();

    const RunRequest req = tinyRequest();
    {
        RcClient client(clientConfig(s));
        (void)client.simulate(req); // miss: svc.request + svc.simulate
        (void)client.simulate(req); // hit: svc.cacheHit
    }
    daemon.requestStop(); // draining: the next request is shed
    {
        ClientConfig ccfg = clientConfig(s);
        ccfg.maxAttempts = 1;
        ccfg.fallback = directSim();
        RcClient late(ccfg);
        (void)late.simulate(tinyRequest(77));
    }
    daemon.stop();

    EXPECT_GT(tracer.recorded(), 0u);
    std::ostringstream os;
    tracer.exportChromeJson(os);
    const std::string json = os.str();
    for (const char *span :
         {"svc.request", "svc.simulate", "svc.cacheHit", "svc.shed"})
        EXPECT_NE(json.find(span), std::string::npos)
            << span << " missing from the exported trace";
}

} // namespace
} // namespace rc
