/**
 * @file
 * Deterministic fault injector: corrupts live simulated state so tests
 * can prove each IntegrityChecker invariant actually fires (mutation
 * testing of the checker itself), and so the bench harness can poison a
 * designated run of a sweep to exercise the quarantine path.
 *
 * All randomness comes from a seeded Xorshift64* generator and all
 * candidate scans are in fixed array order, so the same seed on the
 * same simulated state always corrupts the same coordinate.
 */

#ifndef RC_VERIFY_FAULT_INJECTOR_HH
#define RC_VERIFY_FAULT_INJECTOR_HH

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "sim/system_config.hh"
#include "verify/integrity.hh"

namespace rc
{

class Cmp;

/** The state corruptions the injector can introduce. */
enum class FaultClass : std::uint8_t
{
    TagStateFlip,     //!< flip a tag's stable state (S/M -> TO, or TO
                      //!< -> TO in the conventional cache)
    DirectoryDropBit, //!< drop a real sharer's presence bit
    DirectoryGhostBit, //!< add a presence bit for a core with no copy
    OwnerCorrupt,     //!< record an out-of-range owner id
    OrphanDataBlock,  //!< invalidate a data-holding tag, leaving its
                      //!< data entry behind (reuse cache and NCID)
    LeakedMshr,       //!< allocate an MSHR entry that can never retire
    ReplMetadata,     //!< force replacement metadata out of range
    TruncatedFrame,   //!< cut a service-protocol frame short mid-stream
                      //!< (service layer; inject(Cmp&) has no target)
    CorruptBlob,      //!< flip bits in a persisted result-cache blob
                      //!< (service layer; inject(Cmp&) has no target)
    WorkerCrash,      //!< abort() inside a sandboxed worker process
                      //!< (chaos; detonated via detonateChaos)
    WorkerOom,        //!< allocation bomb inside a sandboxed worker
                      //!< (chaos; detonated via detonateChaos)
    WorkerHang,       //!< abort-ignoring busy wait inside a sandboxed
                      //!< worker (chaos; detonated via detonateChaos)
    FeedTruncate,     //!< cut a feed-cache blob short mid-arrays (torn
                      //!< write; service layer, corrupts bytes at rest)
    FeedFlip,         //!< flip one payload byte inside a feed blob's
                      //!< record arrays (silent media corruption)
    FeedVersion,      //!< bump a feed blob's format version word with a
                      //!< re-sealed header CRC (stale-format detection)
};

/** Number of FaultClass values (matrix tests iterate over all). */
inline constexpr std::size_t numFaultClasses = 15;

/**
 * Classes that corrupt the service layer (bytes in flight/at rest, or a
 * worker process) rather than simulated cache state; inject(Cmp&) has
 * no target for them and the checker-vs-injector matrix skips them.
 */
constexpr bool
isServiceFault(FaultClass cls)
{
    return cls == FaultClass::TruncatedFrame ||
           cls == FaultClass::CorruptBlob ||
           cls == FaultClass::WorkerCrash ||
           cls == FaultClass::WorkerOom ||
           cls == FaultClass::WorkerHang ||
           cls == FaultClass::FeedTruncate ||
           cls == FaultClass::FeedFlip || cls == FaultClass::FeedVersion;
}

/** Short name, e.g. "dir-drop" (also the --inject= spelling). */
const char *toString(FaultClass cls);

/**
 * Parse a --inject= spelling ("tag-state", "dir-drop", "dir-ghost",
 * "owner", "orphan-data", "mshr-leak", "repl-meta").
 * @return false when @p name matches no class.
 */
bool faultClassFromName(const std::string &name, FaultClass &out);

/**
 * The invariant expected to catch @p cls on a @p kind organization
 * (the checker-vs-injector matrix contract).
 */
Invariant detectedBy(FaultClass cls, LlcKind kind);

/** What an injection attempt actually did. */
struct InjectionResult
{
    bool applied = false;  //!< a corruption was introduced
    FaultClass fault = FaultClass::TagStateFlip;
    std::string detail;    //!< what was corrupted, with coordinates
    /**
     * Invariants this specific corruption must trip — normally exactly
     * {detectedBy(...)}; a fallback target can add a second entry.
     */
    std::vector<Invariant> expected;
};

/** Seeded corruptor of live Cmp state. */
class FaultInjector
{
  public:
    /** @param seed drives every random choice (determinism). */
    explicit FaultInjector(std::uint64_t seed);

    /**
     * Corrupt @p cmp with one fault of class @p cls.
     * @return applied = false when the organization has no viable
     *         target (e.g. orphan-data on a conventional cache, an
     *         empty cache before warmup, or a service-layer class that
     *         corrupts bytes rather than simulated state).
     */
    InjectionResult inject(Cmp &cmp, FaultClass cls);

    /**
     * TruncatedFrame: deterministically cut encoded frame bytes short —
     * somewhere past the header (when it fits) so the defect is a torn
     * payload, not a missing header.  The contract partner is
     * Invariant::FrameIntegrity: svc::decodeFrame / readFrame must
     * reject the result with SimError(Protocol).
     */
    std::vector<std::uint8_t>
    truncateFrame(const std::vector<std::uint8_t> &frame_bytes);

    /**
     * CorruptBlob: flip one payload byte of the file at @p path (a
     * result-cache blob or any snapshot-container file).  The contract
     * partner is Invariant::BlobIntegrity: the next
     * svc::ResultCache::lookup must demote the entry to a miss.
     * @return false when the file cannot be opened or is empty.
     */
    bool corruptBlobFile(const std::string &path);

    /**
     * Feed-cache blob faults: damage the RCFEED1 blob at @p path the
     * way @p cls describes — FeedTruncate tears the file mid-arrays,
     * FeedFlip flips one record-array byte (caught by the arrays
     * hash), FeedVersion bumps the format version word and re-seals
     * the header CRC so ONLY the version check can fire.  The contract
     * partner is Invariant::FeedIntegrity: the next FeedCache::lookup
     * must unlink the blob and demote the key to a verified recompute,
     * never replay damaged records.
     * @return false when @p path cannot be damaged (missing/short) or
     *         @p cls is not a Feed* class.
     */
    bool corruptFeedBlob(const std::string &path, FaultClass cls);

  private:
    Rng rng;
};

/**
 * Chaos-mode plumbing for the process-isolated worker pool.  A chaos
 * harness (bench/stress_daemon, tests) marks a doomed request by
 * encoding the worker fault class into the request SEED — the seed
 * rides the canonical digest, so retries of the marked request detonate
 * identically in whichever worker picks them up, with zero cooperation
 * from the daemon.  The contract partners are
 * Invariant::CrashContainment and Invariant::PoisonQuarantine.
 */

/** Build a marked seed (cls must be a Worker* chaos class). */
std::uint64_t chaosSeed(FaultClass cls, std::uint32_t salt);

/** @return true (and the class) when @p seed carries a chaos marker. */
bool chaosFromSeed(std::uint64_t seed, FaultClass &out);

/**
 * Execute the failure a marked request asked for.  Call from the
 * simulation callback INSIDE a sandboxed worker: WorkerCrash aborts,
 * WorkerOom allocates-and-touches until bad_alloc (bounded, so an
 * uncapped host survives a missing rlimit), WorkerHang spins without
 * ever checking the abort flag.  Never returns normally.
 *
 * WorkerOom keeps bumping @p heartbeat (when given) while the bomb
 * grows, like a real runaway simulation still making progress — so the
 * hang watchdog doesn't force-kill it before the allocator fails and
 * the death is typed as the OOM it is.  WorkerHang ignores the
 * heartbeat: going silent is its entire point.
 */
[[noreturn]] void
detonateChaos(FaultClass cls,
              std::atomic<std::uint64_t> *heartbeat = nullptr);

} // namespace rc

#endif // RC_VERIFY_FAULT_INJECTOR_HH
