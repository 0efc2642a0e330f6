/**
 * @file
 * Append-only sweep journal.
 *
 * `forEachRun` records one line per finished run, fsync'd before the
 * append returns: the log of what each launch of a sweep ran and how it
 * ended.  What a `--resume=DIR` relaunch skips is decided by the sweep's
 * result store, not by this log.  The format is plain text — one `run`
 * line per record, human-readable for post-mortems:
 *
 *   # rc sweep journal v1
 *   run b=0 r=2 status=ok attempts=1 digest=0x00000000 wall=1.042 err=
 *
 * `b` is the batch index (which forEachRun call within the process) and
 * `r` the run within it, so (b, r) names a run of that launch.  `digest`
 * is a caller-defined 32-bit tag; the harness writes 0, the "none"
 * value.  `err` holds the final SimError text for quarantined runs.  A
 * torn final line (no trailing newline — the process died mid-append) is
 * ignored on load.
 */

#ifndef RC_SNAPSHOT_JOURNAL_HH
#define RC_SNAPSHOT_JOURNAL_HH

#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

namespace rc
{

/** One completed-run record. */
struct JournalRecord
{
    std::uint64_t batch = 0;
    std::uint64_t run = 0;
    std::string status;        //!< "ok" | "retried" | "quarantined"
    std::uint32_t attempts = 1;
    std::uint32_t digest = 0;  //!< caller-defined tag; 0 = none
    double wallSeconds = 0.0;
    std::string error;         //!< final SimError text (quarantined runs)
};

/** Appender + loader for `<dir>/sweep.journal`; append() is thread-safe. */
class SweepJournal
{
  public:
    /**
     * Create @p dir if needed and open its journal for appending,
     * writing the header line first when the file is new.  Throws
     * SimError(Snapshot) when the directory or file cannot be created.
     */
    explicit SweepJournal(const std::string &dir);

    ~SweepJournal();

    SweepJournal(const SweepJournal &) = delete;
    SweepJournal &operator=(const SweepJournal &) = delete;

    /** Append one record and fsync before returning. */
    void append(const JournalRecord &rec);

    /** Full path of the journal file. */
    const std::string &path() const { return filePath; }

    /**
     * Parse `<dir>/sweep.journal`.  A missing file yields an empty
     * vector (fresh sweep); malformed or torn lines are skipped.
     */
    static std::vector<JournalRecord> load(const std::string &dir);

  private:
    std::string filePath;
    std::FILE *file = nullptr;
    std::mutex mtx;
};

} // namespace rc

#endif // RC_SNAPSHOT_JOURNAL_HH
