#include "common.hh"

#include <cmath>
#include <cstdio>

#include <sys/resource.h>

#include "common/stats.hh"
#include "snapshot/serializer.hh"

namespace perfbench
{

namespace
{

/** Open spans of the calling thread, innermost last (parent links). */
thread_local std::vector<std::int64_t> openStack;

} // namespace

std::uint64_t
fnv1a(const void *data, std::size_t len, std::uint64_t h)
{
    const auto *p = static_cast<const std::uint8_t *>(data);
    for (std::size_t i = 0; i < len; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ull;
    }
    return h;
}

std::uint64_t
resultDigest(const rc::RunResult &r)
{
    rc::Serializer s;
    s.beginSection("result");
    rc::saveRunResult(s, r);
    s.endSection("result");
    const std::vector<std::uint8_t> image = s.image();
    return fnv1a(image.data(), image.size());
}

std::string
hex64(std::uint64_t v)
{
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

double
peakRssMb()
{
    struct rusage ru;
    if (::getrusage(RUSAGE_SELF, &ru) != 0)
        return 0.0;
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB -> MiB
}

SpanLog::SpanLog(bool enabled) : on(enabled), origin(Clock::now()) {}

std::int64_t
SpanLog::open(const char *name, std::uint64_t req)
{
    if (!on)
        return -1;
    Span s;
    s.name = name;
    s.req = req;
    s.parent = openStack.empty() ? -1 : openStack.back();
    std::int64_t id;
    {
        std::lock_guard<std::mutex> lock(mu);
        id = static_cast<std::int64_t>(log.size());
        s.start = secondsBetween(origin, Clock::now());
        log.push_back(s);
    }
    openStack.push_back(id);
    return id;
}

void
SpanLog::close(std::int64_t id)
{
    if (id < 0)
        return;
    const double end = secondsBetween(origin, Clock::now());
    {
        std::lock_guard<std::mutex> lock(mu);
        log[static_cast<std::size_t>(id)].end = end;
    }
    if (!openStack.empty() && openStack.back() == id)
        openStack.pop_back();
}

std::vector<SpanLog::Span>
SpanLog::spans() const
{
    std::lock_guard<std::mutex> lock(mu);
    return log;
}

std::map<std::string, SpanLog::LayerTime>
SpanLog::layerTimes() const
{
    const std::vector<Span> all = spans();
    std::vector<double> childTime(all.size(), 0.0);
    for (const Span &s : all) {
        if (s.parent >= 0)
            childTime[static_cast<std::size_t>(s.parent)] += s.end - s.start;
    }
    std::map<std::string, LayerTime> out;
    for (std::size_t i = 0; i < all.size(); ++i) {
        const std::string name = all[i].name;
        LayerTime &lt = out[name.substr(0, name.find('.'))];
        const double d = all[i].end - all[i].start;
        ++lt.spans;
        lt.totalSeconds += d;
        lt.selfSeconds += d - childTime[i];
    }
    return out;
}

void
SpanLog::writeJson(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return;
    std::fprintf(f, "{\"layers\": {");
    bool first = true;
    for (const auto &[layer, t] : layerTimes()) {
        std::fprintf(f, "%s\"%s\": {\"spans\": %llu, \"total_s\": %.6f, "
                     "\"self_s\": %.6f}", first ? "" : ", ",
                     rc::jsonEscape(layer).c_str(),
                     static_cast<unsigned long long>(t.spans),
                     t.totalSeconds, t.selfSeconds);
        first = false;
    }
    std::fprintf(f, "},\n\"spans\": [");
    const std::vector<Span> all = spans();
    for (std::size_t i = 0; i < all.size(); ++i) {
        const Span &s = all[i];
        std::fprintf(f, "%s\n{\"id\": %zu, \"name\": \"%s\", \"start\": "
                     "%.6f, \"end\": %.6f, \"parent\": %lld, \"req\": %llu}",
                     i == 0 ? "" : ",", i, rc::jsonEscape(s.name).c_str(),
                     s.start, s.end, static_cast<long long>(s.parent),
                     static_cast<unsigned long long>(s.req));
    }
    std::fprintf(f, "\n]}\n");
    std::fclose(f);
}

void
JsonObject::keyOf(const std::string &key)
{
    if (!body.empty())
        body += ", ";
    body += "\"" + rc::jsonEscape(key) + "\": ";
}

void
JsonObject::num(const std::string &key, double v)
{
    keyOf(key);
    if (!std::isfinite(v)) {
        body += "null";
        return;
    }
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    body += buf;
}

void
JsonObject::integer(const std::string &key, std::uint64_t v)
{
    keyOf(key);
    body += std::to_string(v);
}

void
JsonObject::str(const std::string &key, const std::string &v)
{
    keyOf(key);
    body += "\"" + rc::jsonEscape(v) + "\"";
}

void
JsonObject::raw(const std::string &key, const std::string &json)
{
    keyOf(key);
    body += json;
}

void
JsonObject::numbers(const std::string &key, const std::vector<double> &vs)
{
    keyOf(key);
    body += "[";
    char buf[40];
    for (std::size_t i = 0; i < vs.size(); ++i) {
        std::snprintf(buf, sizeof(buf), "%s%.9g", i == 0 ? "" : ",", vs[i]);
        body += buf;
    }
    body += "]";
}

} // namespace perfbench
