#include "telemetry/trace_event.hh"

#include <algorithm>
#include <cstring>
#include <ostream>

#include "common/log.hh"
#include "common/stats.hh"

namespace rc
{

namespace
{

thread_local EventTracer *currentTracer = nullptr;

/**
 * Thread-local cache of the ring claimed from a specific tracer, so the
 * registry mutex is taken once per (thread, tracer) pair instead of per
 * event.  Keyed by the tracer's process-unique serial, not its address:
 * a later tracer allocated where a destroyed one lived must not match a
 * stale cache entry.
 */
struct RingCache
{
    std::uint64_t ownerSerial = 0; //!< 0 = empty (serials start at 1)
    void *ring = nullptr;
};

thread_local RingCache ringCache;

std::atomic<std::uint64_t> nextTracerSerial{1};

/** Magic prefix of the binary spill scratch file.  Distinct from the
 *  memory-trace header ("RCTRACE" + version), so a TraceReader never
 *  mistakes a spill file for a trace. */
constexpr char kSpillMagic[8] = {'R', 'C', 'S', 'P', 'I', 'L', 'L', '1'};

/** Fixed-size spill record (little-endian host layout; same-process
 *  readback only, so no byte-order handling is needed). */
struct SpillRecord
{
    std::uint32_t nameId;
    std::uint8_t domain;
    std::uint8_t pad[3];
    std::uint32_t track;
    std::uint64_t ts;
    std::uint64_t dur;
    std::uint64_t arg;
};
static_assert(sizeof(SpillRecord) == 36 || sizeof(SpillRecord) == 40,
              "SpillRecord layout drifted");

} // namespace

EventTracer::EventTracer(Config cfg_)
    : cfg(std::move(cfg_)), birth(std::chrono::steady_clock::now()),
      serial(nextTracerSerial.fetch_add(1, std::memory_order_relaxed))
{
    if (cfg.ringCapacity == 0)
        cfg.ringCapacity = 1;
    if (!cfg.spillPath.empty()) {
        spill = std::fopen(cfg.spillPath.c_str(), "w+b");
        if (!spill) {
            RC_WARN_ONCE("cannot open trace spill file '%s'; overflowing "
                         "events will be dropped instead",
                         cfg.spillPath.c_str());
        } else {
            std::fwrite(kSpillMagic, sizeof(kSpillMagic), 1, spill);
        }
    }
}

EventTracer::~EventTracer()
{
    if (spill) {
        std::fclose(spill);
        std::remove(cfg.spillPath.c_str());
    }
    if (ringCache.ownerSerial == serial)
        ringCache = RingCache{};
    if (currentTracer == this)
        currentTracer = nullptr;
}

EventTracer *
EventTracer::current()
{
    return currentTracer;
}

EventTracer *
EventTracer::setCurrent(EventTracer *tracer)
{
    EventTracer *prev = currentTracer;
    currentTracer = tracer;
    return prev;
}

EventTracer::Ring &
EventTracer::ringForThisThread()
{
    if (ringCache.ownerSerial == serial)
        return *static_cast<Ring *>(ringCache.ring);
    std::lock_guard<std::mutex> lock(mu);
    rings.push_back(std::make_unique<Ring>());
    Ring &ring = *rings.back();
    ring.events.resize(cfg.ringCapacity);
    ringCache.ownerSerial = serial;
    ringCache.ring = &ring;
    return ring;
}

void
EventTracer::record(const char *name, TraceDomain domain,
                    std::uint32_t track, std::uint64_t ts,
                    std::uint64_t dur, std::uint64_t arg)
{
    Ring &ring = ringForThisThread();
    if (ring.count == ring.events.size()) {
        if (spill) {
            std::lock_guard<std::mutex> lock(mu);
            spillRingLocked(ring);
        } else {
            lost.fetch_add(1, std::memory_order_relaxed);
            return;
        }
    }
    TraceEvent &ev = ring.events[ring.count++];
    ev.name = name;
    ev.ts = ts;
    ev.dur = dur;
    ev.arg = arg;
    ev.track = track;
    ev.domain = domain;
    accepted.fetch_add(1, std::memory_order_relaxed);
}

void
EventTracer::recordHost(const char *name, std::uint32_t track,
                        std::uint64_t dur_micros, std::uint64_t arg)
{
    const std::uint64_t now = hostNowMicros();
    const std::uint64_t start = dur_micros < now ? now - dur_micros : 0;
    record(name, TraceDomain::Host, track, start, dur_micros, arg);
}

std::uint64_t
EventTracer::hostNowMicros() const
{
    const auto delta = std::chrono::steady_clock::now() - birth;
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(delta)
            .count());
}

void
EventTracer::spillRingLocked(Ring &ring)
{
    for (std::size_t i = 0; i < ring.count; ++i) {
        const TraceEvent &ev = ring.events[i];
        std::uint32_t id = 0;
        for (; id < nameTable.size(); ++id) {
            if (nameTable[id] == ev.name)
                break;
        }
        if (id == nameTable.size())
            nameTable.push_back(ev.name);
        SpillRecord rec{};
        rec.nameId = id;
        rec.domain = static_cast<std::uint8_t>(ev.domain);
        rec.track = ev.track;
        rec.ts = ev.ts;
        rec.dur = ev.dur;
        rec.arg = ev.arg;
        if (std::fwrite(&rec, sizeof(rec), 1, spill) != 1) {
            RC_WARN_ONCE("trace spill write failed; dropping overflowing "
                         "events from here on");
            std::fclose(spill);
            std::remove(cfg.spillPath.c_str());
            spill = nullptr;
            lost.fetch_add(ring.count - i, std::memory_order_relaxed);
            accepted.fetch_sub(ring.count - i, std::memory_order_relaxed);
            ring.count = 0;
            return;
        }
    }
    spilledCount.fetch_add(ring.count, std::memory_order_relaxed);
    ring.count = 0;
}

void
EventTracer::collectAll(std::vector<TraceEvent> &out)
{
    std::lock_guard<std::mutex> lock(mu);
    if (spill) {
        std::fflush(spill);
        std::fseek(spill, sizeof(kSpillMagic), SEEK_SET);
        SpillRecord rec;
        while (std::fread(&rec, sizeof(rec), 1, spill) == 1) {
            TraceEvent ev;
            if (rec.nameId >= nameTable.size()) {
                RC_WARN_ONCE("trace spill carries unknown name id %u; "
                             "record skipped", rec.nameId);
                continue;
            }
            ev.name = nameTable[rec.nameId];
            ev.domain = static_cast<TraceDomain>(rec.domain);
            ev.track = rec.track;
            ev.ts = rec.ts;
            ev.dur = rec.dur;
            ev.arg = rec.arg;
            out.push_back(ev);
        }
        std::fseek(spill, 0, SEEK_END);
    }
    for (const auto &ring : rings)
        out.insert(out.end(), ring->events.begin(),
                   ring->events.begin()
                       + static_cast<std::ptrdiff_t>(ring->count));
}

void
EventTracer::exportChromeJson(std::ostream &os)
{
    std::vector<TraceEvent> all;
    collectAll(all);

    // Perfetto requires timestamps within a track to be non-decreasing;
    // spilled batches and per-thread rings interleave arbitrarily, so
    // order each (pid, tid) track here.  stable_sort keeps same-cycle
    // events in recording order.
    std::stable_sort(all.begin(), all.end(),
                     [](const TraceEvent &a, const TraceEvent &b) {
                         if (a.domain != b.domain)
                             return a.domain < b.domain;
                         if (a.track != b.track)
                             return a.track < b.track;
                         return a.ts < b.ts;
                     });

    os << "{\"traceEvents\":[\n";
    os << "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":"
       << static_cast<int>(TraceDomain::Sim)
       << ",\"args\":{\"name\":\"simulated (cycles)\"}},\n";
    os << "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":"
       << static_cast<int>(TraceDomain::Host)
       << ",\"args\":{\"name\":\"host (us)\"}}";
    for (const TraceEvent &ev : all) {
        os << ",\n{\"name\":\"" << jsonEscape(ev.name ? ev.name : "?")
           << "\",\"pid\":" << static_cast<int>(ev.domain)
           << ",\"tid\":" << ev.track
           << ",\"ts\":" << ev.ts;
        if (ev.dur > 0)
            os << ",\"ph\":\"X\",\"dur\":" << ev.dur;
        else
            os << ",\"ph\":\"i\",\"s\":\"t\"";
        os << ",\"args\":{\"v\":" << ev.arg << "}}";
    }
    os << "\n],\"displayTimeUnit\":\"ns\"";
    const std::uint64_t nlost = dropped();
    if (nlost)
        os << ",\"metadata\":{\"droppedEvents\":" << nlost << "}";
    os << "}\n";
}

} // namespace rc
