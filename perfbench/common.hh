/**
 * @file
 * Shared pieces of the repository benchmark: host timing, the span log
 * of traced runs, result digests and a minimal JSON writer.
 */

#ifndef RC_PERFBENCH_COMMON_HH
#define RC_PERFBENCH_COMMON_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "sim/run_result.hh"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Seconds between two steady-clock points. */
inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** Seconds on the steady clock (CLOCK_MONOTONIC, as Python's
 *  time.monotonic(), so the launcher's spawn stamp is comparable). */
inline double
monotonicSeconds()
{
    return std::chrono::duration<double>(Clock::now().time_since_epoch())
        .count();
}

/** FNV-1a 64 over @p len bytes, continuing from @p h. */
std::uint64_t fnv1a(const void *data, std::size_t len,
                    std::uint64_t h = 0xcbf29ce484222325ull);

/** Digest of one result: FNV-1a 64 over its saveRunResult image. */
std::uint64_t resultDigest(const rc::RunResult &r);

/** 16 lowercase hex digits. */
std::string hex64(std::uint64_t v);

/** Process high-water resident set in MB (getrusage ru_maxrss). */
double peakRssMb();

/**
 * Spans of a traced run: one per call the benchmark makes into a
 * layer, with name ("<layer>.<call>"), start, end, parent span (the
 * innermost open span of the same thread) and request id.  Kept in
 * memory, written at exit.  A disabled log records nothing and costs
 * one branch per span, so untraced runs measure the program alone.
 */
class SpanLog
{
  public:
    struct Span
    {
        const char *name = "";
        double start = 0.0; //!< seconds since the log was created
        double end = 0.0;
        std::int64_t parent = -1;
        std::uint64_t req = 0;
    };

    explicit SpanLog(bool enabled);

    bool enabled() const { return on; }

    /** Open a span; returns its id (-1 when disabled). */
    std::int64_t open(const char *name, std::uint64_t req = 0);

    /** Close span @p id (no-op for -1). */
    void close(std::int64_t id);

    /** Snapshot of every span recorded so far. */
    std::vector<Span> spans() const;

    /**
     * Per-layer totals: span count, summed duration and summed self
     * time (duration minus the part covered by child spans), keyed by
     * the layer prefix of the span name.
     */
    struct LayerTime
    {
        std::uint64_t spans = 0;
        double totalSeconds = 0.0;
        double selfSeconds = 0.0;
    };
    std::map<std::string, LayerTime> layerTimes() const;

    /** Write every span plus the per-layer summary as JSON. */
    void writeJson(const std::string &path) const;

  private:
    bool on;
    Clock::time_point origin;
    mutable std::mutex mu;
    std::vector<Span> log;
};

/** RAII span. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanLog &log, const char *name, std::uint64_t req = 0)
        : spans(log), id(log.open(name, req))
    {
    }
    ~ScopedSpan() { spans.close(id); }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    SpanLog &spans;
    std::int64_t id;
};

/** Append-only JSON object writer (no nesting beyond what it offers). */
class JsonObject
{
  public:
    void num(const std::string &key, double v);
    void integer(const std::string &key, std::uint64_t v);
    void str(const std::string &key, const std::string &v);
    void raw(const std::string &key, const std::string &json);
    void numbers(const std::string &key, const std::vector<double> &vs);
    std::string text() const { return "{" + body + "}"; }

  private:
    void keyOf(const std::string &key);
    std::string body;
};

} // namespace perfbench

#endif // RC_PERFBENCH_COMMON_HH
