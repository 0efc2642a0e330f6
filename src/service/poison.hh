/**
 * @file
 * Persistent poison-request quarantine.
 *
 * A request whose execution keeps killing sandboxed workers is not a
 * worker problem — it is a poison input (a simulator bug it alone
 * triggers, a pathological configuration, a fuzzer hit).  Restarting
 * workers for it forever would let one bad request grind the pool.
 *
 * The PoisonIndex tracks, per request digest, the set of DISTINCT
 * worker processes (WorkerProcess::uid: slot + incarnation) that died
 * executing it.  When that set reaches the quarantine threshold the
 * digest is blacklisted: appended to a flock-guarded `poison.index`
 * file next to the result cache's blobs, so the verdict survives
 * daemon restarts, and every later request with that digest is
 * answered immediately with a typed SimError(Crash) — no worker is
 * ever risked on it again.
 *
 * Distinctness matters: one death observed K times (retries racing the
 * reap) must not quarantine; K separate dead processes prove the
 * request, not the worker, is at fault.
 *
 * Crash ATTRIBUTION is deliberately not persisted — only the final
 * blacklist verdict is.  A half-counted digest after a daemon restart
 * just needs fresh kills to cross the threshold again.
 */

#ifndef RC_SERVICE_POISON_HH
#define RC_SERVICE_POISON_HH

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>

namespace rc::svc
{

/** Counters exported into the daemon's stats JSON. */
struct PoisonStats
{
    std::uint64_t tracked = 0;     //!< digests with >= 1 attributed crash
    std::uint64_t quarantined = 0; //!< digests on the blacklist
    std::uint64_t recovered = 0;   //!< blacklist entries loaded from disk
};

/** Thread-safe; one instance per daemon, shared by the supervisor. */
class PoisonIndex
{
  public:
    /**
     * Load (or create) `poison.index` inside @p dir.  Torn tails from a
     * crashed append are tolerated line-by-line, like the result
     * cache's index.
     */
    explicit PoisonIndex(const std::string &dir);

    /** Whether @p digest is blacklisted (answer it without running). */
    bool quarantined(std::uint64_t digest) const;

    /**
     * Attribute one worker death to @p digest.
     * @param worker_uid the dead child's WorkerProcess::uid().
     * @param threshold  distinct dead workers required to blacklist.
     * @return true when THIS call moved the digest onto the blacklist
     *         (the caller logs / counts the quarantine event once).
     */
    bool recordCrash(std::uint64_t digest, std::uint64_t worker_uid,
                     std::uint32_t threshold);

    PoisonStats stats() const;

  private:
    const std::string path; //!< the poison.index file
    mutable std::mutex mu;
    //! digest -> distinct dead worker uids (in-memory only)
    std::unordered_map<std::uint64_t, std::unordered_set<std::uint64_t>>
        crashes;
    std::unordered_set<std::uint64_t> blacklist;
    std::uint64_t recoveredCount = 0;
};

} // namespace rc::svc

#endif // RC_SERVICE_POISON_HH
