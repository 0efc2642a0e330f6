#include "service/worker.hh"

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <vector>

#include <dirent.h>
#include <poll.h>
#include <sys/mman.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/log.hh"
#include "service/frame.hh"
#include "snapshot/serializer.hh"

// AddressSanitizer reserves terabytes of shadow address space and
// ThreadSanitizer's allocator starves under a few hundred MiB, so the
// RLIMIT_AS cap is compiled out under both (the allocation-bomb
// backstop in the child's bad_alloc handler still applies).
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define RC_WORKER_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define RC_WORKER_SANITIZED 1
#endif
#endif

namespace rc::svc
{

using Clock = std::chrono::steady_clock;

/**
 * The parent<->child control page (MAP_SHARED | MAP_ANONYMOUS).  Plain
 * lock-free atomics work across fork because both processes map the
 * same physical page; no futexes, no pthread state.
 */
struct WorkerProcess::SharedPage
{
    std::atomic<std::uint64_t> heartbeat{0};
    std::atomic<bool> abort{false};
};

static_assert(std::atomic<std::uint64_t>::is_always_lock_free &&
                  std::atomic<bool>::is_always_lock_free,
              "shared-page atomics must not take a process-local lock");

namespace
{

/**
 * Close every descriptor the child inherited except stdio and its job
 * pipe.  The daemon's listening socket, client connections and cache
 * fds must not survive into the sandbox: a held client fd would defeat
 * the client's EOF detection for as long as the worker lives.
 */
void
closeInheritedFds(int keep_fd)
{
    DIR *dir = ::opendir("/proc/self/fd");
    if (!dir) {
        // Fallback: sweep a fixed range blindly.
        for (int fd = 3; fd < 1024; ++fd)
            if (fd != keep_fd)
                ::close(fd);
        return;
    }
    const int dir_fd = ::dirfd(dir);
    std::vector<int> victims;
    while (struct dirent *ent = ::readdir(dir)) {
        char *end = nullptr;
        const long fd = std::strtol(ent->d_name, &end, 10);
        if (end == ent->d_name || *end != '\0')
            continue; // "." / ".."
        if (fd <= 2 || fd == keep_fd || fd == dir_fd)
            continue;
        victims.push_back(static_cast<int>(fd));
    }
    ::closedir(dir);
    for (const int fd : victims)
        ::close(fd);
}

/** Apply the sandbox rlimits; never fatal (a cap of 0 means "none"). */
void
applyLimits(const WorkerLimits &limits)
{
    if (limits.cpuSeconds != 0) {
        // Hard limit one second above soft: SIGXCPU at the soft cap is
        // already fatal (default disposition), the hard cap's SIGKILL
        // is just the backstop should SIGXCPU ever be masked.
        struct rlimit rl;
        rl.rlim_cur = limits.cpuSeconds;
        rl.rlim_max = limits.cpuSeconds + 1;
        ::setrlimit(RLIMIT_CPU, &rl);
    }
#if !defined(RC_WORKER_SANITIZED)
    if (limits.addressSpaceBytes != 0) {
        struct rlimit rl;
        rl.rlim_cur = limits.addressSpaceBytes;
        rl.rlim_max = limits.addressSpaceBytes;
        ::setrlimit(RLIMIT_AS, &rl);
    }
#endif
}

/**
 * The child's job loop.  Runs forever on its job pipe: read a
 * SimRequest frame, simulate, reply SimResult (or a typed Error frame
 * for an in-process SimError / bad_alloc).  Exits 0 on clean EOF (the
 * supervisor retired this worker) or when the pipe dies (parent gone).
 */
[[noreturn]] void
workerChildMain(int job_fd, WorkerProcess::SharedPage *shared,
                const SimulateFn &simulate, const WorkerLimits &limits,
                std::uint32_t slot)
{
    enterChildProcessLogMode("rcw" + std::to_string(slot));
    // The daemon's handlers (drain-on-SIGTERM, SIGCHLD reaper) make no
    // sense in the sandbox; restore kernel defaults so an rlimit
    // SIGXCPU actually kills us.
    std::signal(SIGTERM, SIG_DFL);
    std::signal(SIGINT, SIG_DFL);
    std::signal(SIGCHLD, SIG_DFL);
    std::signal(SIGXCPU, SIG_DFL);
    std::signal(SIGPIPE, SIG_IGN);
    closeInheritedFds(job_fd);
    applyLimits(limits);

    for (;;) {
        Frame frame;
        try {
            if (!readFrame(job_fd, frame, /*timeout_ms=*/-1))
                std::_Exit(0); // clean retirement
        } catch (const SimError &) {
            std::_Exit(0); // pipe torn: the daemon is gone
        }
        MsgType replyType = MsgType::Error;
        std::vector<std::uint8_t> reply;
        if (frame.type != MsgType::SimRequest) {
            reply = encodeErrorPayload(
                SimError::Kind::Protocol,
                std::string("worker got unexpected frame type ") +
                    toString(frame.type));
        } else {
            try {
                Deserializer d(frame.payload);
                const RunRequest req = decodeRequest(d);
                const RunResult res =
                    simulate(req, &shared->abort, &shared->heartbeat);
                Serializer s;
                s.beginSection("simres");
                s.putU64(requestDigest(req));
                s.beginSection("result");
                saveRunResult(s, res);
                s.endSection("result");
                s.endSection("simres");
                reply = s.image();
                replyType = MsgType::SimResult;
            } catch (const SimError &err) {
                reply = encodeErrorPayload(err.kind(), err.what());
            } catch (const std::bad_alloc &) {
                // RLIMIT_AS (or a genuine OOM) surfaced as bad_alloc:
                // containment worked, report it as a crash-class error
                // instead of dying.
                reply = encodeErrorPayload(
                    SimError::Kind::Crash,
                    "worker ran out of address space (allocation "
                    "failure under the sandbox rlimit)");
            } catch (const std::exception &e) {
                reply = encodeErrorPayload(
                    SimError::Kind::Crash,
                    std::string("worker: unhandled exception: ") +
                        e.what());
            }
        }
        try {
            writeFrame(job_fd, replyType, reply, /*timeout_ms=*/-1);
        } catch (const SimError &) {
            std::_Exit(0); // parent vanished mid-reply
        }
    }
}

std::uint32_t
millisSince(Clock::time_point then)
{
    return static_cast<std::uint32_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            Clock::now() - then)
            .count());
}

} // namespace

WorkerProcess::WorkerProcess(SimulateFn simulate, WorkerLimits limits,
                             std::uint32_t index)
    : simulate(std::move(simulate)), limits(limits), slot(index)
{
    RC_ASSERT(this->simulate != nullptr, "worker needs a SimulateFn");
}

WorkerProcess::~WorkerProcess()
{
    shutdown();
}

void
WorkerProcess::spawn()
{
    RC_ASSERT(pid < 0, "worker %u respawned while still live", slot);
    int fds[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0)
        throwSimError(SimError::Kind::Io,
                      "worker %u: socketpair failed: %s", slot,
                      std::strerror(errno));
    void *page = ::mmap(nullptr, sizeof(SharedPage),
                        PROT_READ | PROT_WRITE,
                        MAP_SHARED | MAP_ANONYMOUS, -1, 0);
    if (page == MAP_FAILED) {
        const int err = errno;
        ::close(fds[0]);
        ::close(fds[1]);
        throwSimError(SimError::Kind::Io,
                      "worker %u: mmap of control page failed: %s", slot,
                      std::strerror(err));
    }
    shared = new (page) SharedPage();

    const pid_t child = ::fork();
    if (child < 0) {
        const int err = errno;
        ::close(fds[0]);
        ::close(fds[1]);
        ::munmap(shared, sizeof(SharedPage));
        shared = nullptr;
        throwSimError(SimError::Kind::Io, "worker %u: fork failed: %s",
                      slot, std::strerror(err));
    }
    if (child == 0) {
        ::close(fds[0]);
        workerChildMain(fds[1], shared, simulate, limits, slot);
    }
    ::close(fds[1]);
    pid = child;
    jobFd = fds[0];
    ++spawns;
    death = WorkerDeath{};
}

bool
WorkerProcess::alive()
{
    if (pid < 0)
        return false;
    int status = 0;
    pid_t r;
    do {
        r = ::waitpid(pid, &status, WNOHANG);
    } while (r < 0 && errno == EINTR);
    if (r == 0)
        return true; // still running
    // Died between jobs (or waitpid failed, meaning it is already
    // gone): classify and release its resources.
    char buf[160];
    if (r == pid && WIFSIGNALED(status)) {
        death.rlimitCpu = WTERMSIG(status) == SIGXCPU;
        std::snprintf(buf, sizeof(buf),
                      "worker %u (pid %ld) died idle: signal %d (%s)",
                      slot, static_cast<long>(pid), WTERMSIG(status),
                      strsignal(WTERMSIG(status)));
    } else if (r == pid && WIFEXITED(status)) {
        std::snprintf(buf, sizeof(buf),
                      "worker %u (pid %ld) exited idle with status %d",
                      slot, static_cast<long>(pid), WEXITSTATUS(status));
    } else {
        std::snprintf(buf, sizeof(buf),
                      "worker %u (pid %ld) could not be reaped: %s",
                      slot, static_cast<long>(pid), std::strerror(errno));
    }
    death.detail = buf;
    releaseChild();
    return false;
}

RunResult
WorkerProcess::run(const RunRequest &req, const std::atomic<bool> *abort,
                   std::atomic<std::uint64_t> *heartbeat,
                   std::uint32_t abort_grace_ms)
{
    RC_ASSERT(pid > 0 && jobFd >= 0, "worker %u has no live child", slot);
    death = WorkerDeath{};
    shared->abort.store(false, std::memory_order_relaxed);

    Serializer s;
    encodeRequest(s, req);

    bool killedForAbort = false;
    Clock::time_point abortSeen{};
    Frame reply;
    bool haveReply = false;
    try {
        writeFrame(jobFd, MsgType::SimRequest, s.image(),
                   /*timeout_ms=*/5000);
        while (!haveReply) {
            struct pollfd pfd = {jobFd, POLLIN, 0};
            int rc;
            do {
                rc = ::poll(&pfd, 1, /*timeout_ms=*/20);
            } while (rc < 0 && errno == EINTR);
            if (rc < 0)
                throwSimError(SimError::Kind::Io,
                              "poll on worker %u pipe: %s", slot,
                              std::strerror(errno));
            // Mirror the child's heartbeat out to the daemon watchdog
            // and the watchdog's abort in to the child.
            if (heartbeat)
                heartbeat->store(shared->heartbeat.load(
                                     std::memory_order_relaxed),
                                 std::memory_order_relaxed);
            if (abort && abort->load(std::memory_order_relaxed) &&
                !killedForAbort) {
                shared->abort.store(true, std::memory_order_relaxed);
                if (abortSeen == Clock::time_point{}) {
                    abortSeen = Clock::now();
                } else if (millisSince(abortSeen) > abort_grace_ms) {
                    // The cooperative abort was ignored (a real hang,
                    // not a slow epoch): escalate to SIGKILL.
                    ::kill(pid, SIGKILL);
                    killedForAbort = true;
                }
            }
            if (!(pfd.revents & (POLLIN | POLLHUP | POLLERR)))
                continue;
            // Header bytes are ready (or the pipe died): a short
            // timeout here only bounds a child that dies mid-frame.
            haveReply = readFrame(jobFd, reply, /*timeout_ms=*/2000);
            if (!haveReply)
                break; // EOF: the child is dead
        }
    } catch (const SimError &) {
        haveReply = false; // torn pipe == dead child
    }

    if (!haveReply) {
        reapAndClassify(killedForAbort);
        const SimError::Kind kind = killedForAbort
                                        ? SimError::Kind::Hang
                                        : SimError::Kind::Crash;
        throw SimError(kind, std::string("[") + toString(kind) + "] " +
                                 death.detail);
    }

    if (reply.type == MsgType::Error) {
        // The child survived and reported a typed failure; rethrow it
        // with its original kind (the worker stays usable).
        SimError::Kind kind = SimError::Kind::Io;
        std::string msg;
        decodeErrorPayload(reply.payload, kind, msg);
        throw SimError(kind, msg);
    }
    if (reply.type != MsgType::SimResult) {
        shutdown();
        throwSimError(SimError::Kind::Crash,
                      "worker %u answered with a %s frame instead of a "
                      "result; retired", slot, toString(reply.type));
    }

    Deserializer d(reply.payload);
    d.beginSection("simres");
    const std::uint64_t digest = d.getU64();
    if (digest != requestDigest(req)) {
        shutdown();
        throwSimError(SimError::Kind::Crash,
                      "worker %u returned digest %s for request %s; "
                      "retired", slot, digestHex(digest).c_str(),
                      digestHex(requestDigest(req)).c_str());
    }
    d.beginSection("result");
    RunResult res = loadRunResult(d);
    d.endSection("result");
    d.endSection("simres");
    return res;
}

void
WorkerProcess::reapAndClassify(bool killed_for_abort)
{
    int status = 0;
    pid_t r;
    do {
        r = ::waitpid(pid, &status, 0);
    } while (r < 0 && errno == EINTR);

    char buf[200];
    if (r == pid && WIFSIGNALED(status)) {
        const int sig = WTERMSIG(status);
        death.rlimitCpu = sig == SIGXCPU;
        death.forcedKill = killed_for_abort && sig == SIGKILL;
        std::snprintf(
            buf, sizeof(buf),
            "worker %u (pid %ld, incarnation %u) killed by signal %d "
            "(%s)%s%s",
            slot, static_cast<long>(pid), spawns, sig, strsignal(sig),
            death.rlimitCpu ? " [RLIMIT_CPU]" : "",
            death.forcedKill ? " [forced: ignored abort]" : "");
    } else if (r == pid && WIFEXITED(status)) {
        std::snprintf(buf, sizeof(buf),
                      "worker %u (pid %ld, incarnation %u) exited with "
                      "status %d mid-job",
                      slot, static_cast<long>(pid), spawns,
                      WEXITSTATUS(status));
    } else {
        std::snprintf(buf, sizeof(buf),
                      "worker %u (pid %ld) vanished mid-job and could "
                      "not be reaped: %s",
                      slot, static_cast<long>(pid), std::strerror(errno));
    }
    death.detail = buf;
    releaseChild();
}

void
WorkerProcess::shutdown()
{
    if (pid > 0) {
        ::kill(pid, SIGKILL);
        int status = 0;
        pid_t r;
        do {
            r = ::waitpid(pid, &status, 0);
        } while (r < 0 && errno == EINTR);
    }
    releaseChild();
}

void
WorkerProcess::releaseChild()
{
    pid = -1;
    if (jobFd >= 0) {
        ::close(jobFd);
        jobFd = -1;
    }
    if (shared) {
        shared->~SharedPage();
        ::munmap(shared, sizeof(SharedPage));
        shared = nullptr;
    }
}

} // namespace rc::svc
