/**
 * @file
 * Telemetry subsystem tests: ring-buffer overflow discipline (drop vs
 * spill, and a spill file no TraceReader accepts), Chrome trace_event
 * JSON validity and per-track timestamp monotonicity, epoch deltas
 * summing to end-of-run aggregates, the simulation staying
 * bit-identical with telemetry on vs off, and the sampler surviving
 * checkpoint/restore mid-measurement.
 */

#include <cctype>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <sys/stat.h>
#include <vector>

#include <gtest/gtest.h>

#include "scoped_dir.hh"
#include "sim/cmp.hh"
#include "sim/system_config.hh"
#include "sim/trace_file.hh"
#include "snapshot/serializer.hh"
#include "telemetry/epoch_sampler.hh"
#include "telemetry/telemetry.hh"
#include "telemetry/trace_event.hh"
#include "verify/integrity.hh"
#include "workloads/mixes.hh"

namespace rc
{
namespace
{

std::string
tempPath(const std::string &name)
{
    return std::string(::testing::TempDir()) + name;
}

// ---------------------------------------------------------------------
// Minimal JSON validator for the subset the exporter emits (objects,
// arrays, strings without exotic escapes, numbers, literals).  Consumes
// one value and returns the position after it; returns npos on any
// syntax error.

std::size_t skipValue(const std::string &s, std::size_t i);

std::size_t
skipWs(const std::string &s, std::size_t i)
{
    while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i])))
        ++i;
    return i;
}

std::size_t
skipString(const std::string &s, std::size_t i)
{
    if (i >= s.size() || s[i] != '"')
        return std::string::npos;
    for (++i; i < s.size(); ++i) {
        if (s[i] == '\\')
            ++i;
        else if (s[i] == '"')
            return i + 1;
    }
    return std::string::npos;
}

std::size_t
skipContainer(const std::string &s, std::size_t i, char open, char close,
              bool keyed)
{
    i = skipWs(s, i + 1); // past the opener
    if (i < s.size() && s[i] == close)
        return i + 1;
    while (i < s.size()) {
        if (keyed) {
            i = skipString(s, skipWs(s, i));
            if (i == std::string::npos)
                return i;
            i = skipWs(s, i);
            if (i >= s.size() || s[i] != ':')
                return std::string::npos;
            ++i;
        }
        i = skipValue(s, skipWs(s, i));
        if (i == std::string::npos)
            return i;
        i = skipWs(s, i);
        if (i < s.size() && s[i] == ',') {
            i = skipWs(s, i + 1);
            continue;
        }
        if (i < s.size() && s[i] == close)
            return i + 1;
        return std::string::npos;
    }
    return std::string::npos;
    (void)open;
}

std::size_t
skipValue(const std::string &s, std::size_t i)
{
    if (i >= s.size())
        return std::string::npos;
    switch (s[i]) {
    case '{':
        return skipContainer(s, i, '{', '}', true);
    case '[':
        return skipContainer(s, i, '[', ']', false);
    case '"':
        return skipString(s, i);
    default:
        break;
    }
    static const char *literals[] = {"true", "false", "null"};
    for (const char *lit : literals) {
        if (s.compare(i, std::strlen(lit), lit) == 0)
            return i + std::strlen(lit);
    }
    std::size_t j = i;
    if (j < s.size() && (s[j] == '-' || s[j] == '+'))
        ++j;
    const std::size_t digits = j;
    while (j < s.size() &&
           (std::isdigit(static_cast<unsigned char>(s[j])) || s[j] == '.' ||
            s[j] == 'e' || s[j] == 'E' || s[j] == '-' || s[j] == '+'))
        ++j;
    return j > digits ? j : std::string::npos;
}

::testing::AssertionResult
isValidJson(const std::string &s)
{
    const std::size_t end = skipValue(s, skipWs(s, 0));
    if (end == std::string::npos)
        return ::testing::AssertionFailure() << "JSON syntax error";
    if (skipWs(s, end) != s.size())
        return ::testing::AssertionFailure()
               << "trailing garbage at offset " << end;
    return ::testing::AssertionSuccess();
}

/** Extract the integer following @p key inside the object at @p pos. */
std::uint64_t
numberAfter(const std::string &s, std::size_t pos, const std::string &key)
{
    const std::size_t k = s.find("\"" + key + "\":", pos);
    EXPECT_NE(k, std::string::npos) << key;
    return std::strtoull(s.c_str() + k + key.size() + 3, nullptr, 10);
}

// ---------------------------------------------------------------------
// Ring-buffer overflow discipline.

TEST(TelemetryTracer, OverflowWithoutSpillDropsNewestAndCounts)
{
    EventTracer::Config cfg;
    cfg.ringCapacity = 8;
    EventTracer tracer(cfg);
    for (std::uint64_t i = 0; i < 20; ++i)
        tracer.record("evt", TraceDomain::Sim, 0, i);

    EXPECT_EQ(tracer.recorded(), 8u);
    EXPECT_EQ(tracer.dropped(), 12u);
    EXPECT_EQ(tracer.spilled(), 0u);

    std::ostringstream os;
    tracer.exportChromeJson(os);
    const std::string json = os.str();
    EXPECT_TRUE(isValidJson(json)) << json;
    // The survivors are the oldest 8 (drop-newest), and the drop count
    // is surfaced in the metadata.
    std::size_t events = 0;
    for (std::size_t p = json.find("\"evt\""); p != std::string::npos;
         p = json.find("\"evt\"", p + 1))
        ++events;
    EXPECT_EQ(events, 8u);
    EXPECT_NE(json.find("\"droppedEvents\":12"), std::string::npos)
        << json;
}

TEST(TelemetryTracer, OverflowWithSpillKeepsEveryEvent)
{
    EventTracer::Config cfg;
    cfg.ringCapacity = 8;
    cfg.spillPath = tempPath("tracer-overflow.spill");
    EventTracer tracer(cfg);
    for (std::uint64_t i = 0; i < 20; ++i)
        tracer.record("evt", TraceDomain::Sim, 0, i * 10);

    EXPECT_EQ(tracer.recorded(), 20u);
    EXPECT_EQ(tracer.dropped(), 0u);
    EXPECT_GE(tracer.spilled(), 12u);

    std::ostringstream os;
    tracer.exportChromeJson(os);
    const std::string json = os.str();
    EXPECT_TRUE(isValidJson(json)) << json;
    std::size_t events = 0;
    for (std::size_t p = json.find("\"evt\""); p != std::string::npos;
         p = json.find("\"evt\"", p + 1))
        ++events;
    EXPECT_EQ(events, 20u);
    EXPECT_EQ(json.find("droppedEvents"), std::string::npos);
}

TEST(TelemetryTracer, TraceReaderRejectsSpillFile)
{
    EventTracer::Config cfg;
    cfg.ringCapacity = 1;
    cfg.spillPath = tempPath("tracer-not-a-trace.spill");
    EventTracer tracer(cfg);
    // Two spilled records frame as whole 12-byte v1 trace records
    // (8-byte magic + 2 x 40-byte records = 16-byte header + 6 x 12),
    // so only the magic can tell the spill file from a memory trace.
    for (std::uint64_t i = 0; i < 3; ++i)
        tracer.record("evt", TraceDomain::Sim, 0, i * 10);
    ASSERT_EQ(tracer.spilled(), 2u);
    std::ostringstream os;
    tracer.exportChromeJson(os); // flushes the spill file to disk

    try {
        TraceReader reader(cfg.spillPath);
        FAIL() << "TraceReader accepted a telemetry spill file ("
               << reader.size() << " records)";
    } catch (const SimError &err) {
        EXPECT_EQ(err.kind(), SimError::Kind::Trace) << err.what();
        EXPECT_NE(std::string(err.what()).find("bad magic"),
                  std::string::npos)
            << err.what();
    }
}

TEST(TelemetryTracer, SpillFileIsRemovedByDestructor)
{
    const std::string path = tempPath("tracer-cleanup.spill");
    {
        EventTracer::Config cfg;
        cfg.ringCapacity = 2;
        cfg.spillPath = path;
        EventTracer tracer(cfg);
        for (std::uint64_t i = 0; i < 10; ++i)
            tracer.record("evt", TraceDomain::Sim, 0, i);
        struct ::stat st;
        EXPECT_EQ(::stat(path.c_str(), &st), 0);
    }
    struct ::stat st;
    EXPECT_NE(::stat(path.c_str(), &st), 0);
}

// ---------------------------------------------------------------------
// Export format.

TEST(TelemetryTracer, ExportIsValidAndTracksAreMonotonic)
{
    EventTracer tracer;
    // Deliberately out of order within each track, spread over both
    // clock domains and several tracks.
    tracer.record("a", TraceDomain::Sim, 0, 50, 5, 1);
    tracer.record("b", TraceDomain::Sim, 0, 10);
    tracer.record("c", TraceDomain::Sim, 1, 30, 0, 7);
    tracer.record("d", TraceDomain::Sim, 0, 30);
    tracer.record("e", TraceDomain::Host, 0, 40);
    tracer.record("f", TraceDomain::Host, 0, 20);

    std::ostringstream os;
    tracer.exportChromeJson(os);
    const std::string json = os.str();
    ASSERT_TRUE(isValidJson(json)) << json;

    // Perfetto-required scaffolding: a traceEvents array and the two
    // clock-domain process names.
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("simulated (cycles)"), std::string::npos);
    EXPECT_NE(json.find("host (us)"), std::string::npos);

    // Walk the emitted event objects in order; timestamps must never
    // decrease within one (pid, tid) track.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> seenTracks;
    std::vector<std::uint64_t> lastTs;
    std::size_t events = 0;
    // Event objects sit one per line and open with {"name":...;
    // metadata rows open with {"ph":"M" and their args objects are
    // inline, so neither matches the newline-anchored pattern.
    for (std::size_t p = json.find("\n{\"name\":\"");
         p != std::string::npos; p = json.find("\n{\"name\":\"", p + 1)) {
        const std::uint64_t pid = numberAfter(json, p, "pid");
        const std::uint64_t tid = numberAfter(json, p, "tid");
        const std::uint64_t ts = numberAfter(json, p, "ts");
        const auto key = std::make_pair(pid, tid);
        bool found = false;
        for (std::size_t t = 0; t < seenTracks.size(); ++t) {
            if (seenTracks[t] == key) {
                EXPECT_LE(lastTs[t], ts)
                    << "track (" << pid << "," << tid << ")";
                lastTs[t] = ts;
                found = true;
            }
        }
        if (!found) {
            seenTracks.push_back(key);
            lastTs.push_back(ts);
        }
        ++events;
    }
    EXPECT_EQ(events, 6u);
    // Three distinct tracks: (1,0), (1,1), (2,0).
    EXPECT_EQ(seenTracks.size(), 3u);
}

// ---------------------------------------------------------------------
// Epoch sampling against a real simulation.

constexpr Cycle kWarmup = 20'000;
constexpr Cycle kMeasure = 30'000;

std::unique_ptr<Cmp>
makeSystem(std::uint32_t mix_seed)
{
    const SystemConfig sys = reuseSystem(4.0, 1.0, 0, 8);
    const Mix mix = makeMixes(1, 8, mix_seed)[0];
    return std::make_unique<Cmp>(
        sys, buildMixStreams(mix, sys.seed, sys.capacityScale));
}

TEST(TelemetryEpochs, DeltasSumToEndOfRunAggregates)
{
    auto cmp = makeSystem(61);
    EpochSampler sampler(5'000);
    sampler.attach(*cmp);
    cmp->run(kWarmup);
    cmp->beginMeasurement();
    cmp->run(kMeasure);
    sampler.finish(*cmp, cmp->now());

    ASSERT_GE(sampler.rows().size(),
              (kWarmup + kMeasure) / 5'000 - 1);

    std::uint64_t refs = 0, accesses = 0, tagMisses = 0, dataHits = 0;
    std::uint64_t dramReads = 0, dramWrites = 0;
    std::vector<std::uint64_t> instr(cmp->numCores(), 0);
    for (const EpochSample &row : sampler.rows()) {
        refs += row.refs;
        accesses += row.llcAccesses;
        tagMisses += row.llcTagMisses;
        dataHits += row.llcDataHits;
        dramReads += row.dramReads;
        dramWrites += row.dramWrites;
        for (std::size_t c = 0; c < row.instr.size(); ++c)
            instr[c] += row.instr[c];
    }

    EXPECT_EQ(refs, cmp->referencesProcessed());
    EXPECT_EQ(accesses, cmp->llc().stats().ref("accesses"));
    EXPECT_EQ(tagMisses, cmp->llc().stats().ref("tagMisses"));
    // The reuse cache registers data hits as "tagHitsData".
    const Counter *dh = cmp->llc().stats().tryRef("tagHitsData");
    ASSERT_NE(dh, nullptr);
    EXPECT_EQ(dataHits, *dh);
    std::uint64_t endReads = 0, endWrites = 0;
    for (const auto &ch : cmp->memory().channels()) {
        endReads += ch->stats().ref("reads");
        endWrites += ch->stats().ref("writes");
    }
    EXPECT_EQ(dramReads, endReads);
    EXPECT_EQ(dramWrites, endWrites);
    for (CoreId c = 0; c < cmp->numCores(); ++c)
        EXPECT_EQ(instr[c], cmp->core(c).instructions()) << "core " << c;
    EXPECT_GT(accesses, 0u);
}

TEST(TelemetryEpochs, SimulationIsBitIdenticalWithTelemetryOnAndOff)
{
    auto plain = makeSystem(62);
    plain->run(kWarmup);
    plain->beginMeasurement();
    plain->run(kMeasure);

    auto traced = makeSystem(62);
    EventTracer tracer;
    ScopedTracer scope(&tracer);
    EpochSampler sampler(5'000);
    sampler.attach(*traced);
    traced->run(kWarmup);
    traced->beginMeasurement();
    traced->run(kMeasure);

#if RC_TRACE_ENABLED
    EXPECT_GT(tracer.recorded() + tracer.dropped(), 0u)
        << "tracer saw no events -- are the hooks compiled in?";
#endif
    EXPECT_EQ(plain->now(), traced->now());
    EXPECT_EQ(plain->referencesProcessed(),
              traced->referencesProcessed());
    EXPECT_EQ(plain->aggregateIpc(), traced->aggregateIpc());
    const auto &pa = plain->llc().stats().entries();
    const auto &pb = traced->llc().stats().entries();
    ASSERT_EQ(pa.size(), pb.size());
    for (std::size_t i = 0; i < pa.size(); ++i)
        EXPECT_EQ(pa[i].value, pb[i].value) << pa[i].name;
}

TEST(TelemetryEpochs, SamplerSurvivesCheckpointRestore)
{
    EpochSampler samplerA(5'000);
    std::vector<std::uint8_t> image;
    int phase = 0, capturedPhase = -1;

    auto a = makeSystem(63);
    samplerA.attach(*a);
    a->setSnapshotHook(2'000, [&](const Cmp &c, Cycle) {
        Serializer s;
        s.beginSection("cmp");
        c.save(s);
        s.endSection("cmp");
        samplerA.save(s);
        image = s.image();
        capturedPhase = phase;
    });
    a->run(kWarmup);
    a->beginMeasurement();
    phase = 1;
    a->run(kMeasure);
    ASSERT_EQ(capturedPhase, 1)
        << "no snapshot fired during measurement -- lower the cadence";
    samplerA.finish(*a, a->now());
    std::ostringstream csvA;
    samplerA.writeCsv(csvA);

    auto b = makeSystem(63);
    EpochSampler samplerB(5'000);
    Deserializer d(image);
    d.beginSection("cmp");
    b->restore(d);
    d.endSection("cmp");
    samplerB.restore(d);
    IntegrityChecker(*b).enforce(b->now());
    samplerB.attach(*b); // restored baselines survive the attach
    b->run(kMeasure);
    samplerB.finish(*b, b->now());
    std::ostringstream csvB;
    samplerB.writeCsv(csvB);

    EXPECT_GT(samplerA.rows().size(), 2u);
    EXPECT_EQ(csvA.str(), csvB.str());
}

TEST(TelemetryEpochs, MismatchedIntervalIsRejectedOnRestore)
{
    EpochSampler samplerA(5'000);
    auto cmp = makeSystem(64);
    samplerA.attach(*cmp);
    cmp->run(10'000);
    Serializer s;
    samplerA.save(s);

    EpochSampler samplerB(7'000);
    Deserializer d(s.image());
    try {
        samplerB.restore(d);
        FAIL() << "expected SimError(Snapshot)";
    } catch (const SimError &err) {
        EXPECT_EQ(err.kind(), SimError::Kind::Snapshot) << err.what();
    }
}

// ---------------------------------------------------------------------
// Stats export and the session plumbing.

TEST(TelemetryStats, StatsJsonIsValid)
{
    auto cmp = makeSystem(65);
    cmp->run(kWarmup);
    cmp->beginMeasurement();
    cmp->run(kMeasure);
    std::ostringstream os;
    writeStatsJson(*cmp, os);
    const std::string json = os.str();
    ASSERT_TRUE(isValidJson(json)) << json;
    EXPECT_NE(json.find("\"organization\""), std::string::npos);
    EXPECT_NE(json.find("\"cores\""), std::string::npos);
    EXPECT_NE(json.find("\"dram\""), std::string::npos);
}

TEST(TelemetrySession, WritesAllArtifacts)
{
    const ScopedDir scratch("telemetry-session");
    TelemetryConfig cfg;
    cfg.dir = scratch.path();
    cfg.traceEvents = true;
    cfg.sampleInterval = 5'000;
    ASSERT_TRUE(cfg.enabled());

    {
        TelemetrySession session(cfg, "unit");
        auto cmp = makeSystem(66);
        session.attach(*cmp);
        cmp->run(kWarmup);
        cmp->beginMeasurement();
        cmp->run(kMeasure);
        session.finalize(*cmp, cmp->now());
    }

    std::ifstream trace(cfg.dir + "/trace-unit.json");
    ASSERT_TRUE(trace.good());
    std::stringstream buf;
    buf << trace.rdbuf();
    EXPECT_TRUE(isValidJson(buf.str()));
#if RC_TRACE_ENABLED
    // The short window sees tag misses and tag-only hits; data hits
    // need a third touch and may not occur, so assert on the family.
    EXPECT_NE(buf.str().find("\"rc.tagMiss\""), std::string::npos);
    EXPECT_NE(buf.str().find("\"dram.read\""), std::string::npos);
#endif

    std::ifstream epochs(cfg.dir + "/epochs-unit.csv");
    ASSERT_TRUE(epochs.good());
    std::string header;
    std::getline(epochs, header);
    EXPECT_NE(header.find("epoch_end"), std::string::npos);
    EXPECT_NE(header.find("llc_tag_hit_rate"), std::string::npos);
    std::size_t rows = 0;
    for (std::string line; std::getline(epochs, line);)
        ++rows;
    EXPECT_GE(rows, (kWarmup + kMeasure) / cfg.sampleInterval - 1);

    std::ifstream stats(cfg.dir + "/stats-unit.json");
    ASSERT_TRUE(stats.good());
    std::stringstream sbuf;
    sbuf << stats.rdbuf();
    EXPECT_TRUE(isValidJson(sbuf.str()));
}

TEST(TelemetrySession, ConfigGatesRequireDirectory)
{
    TelemetryConfig cfg;
    EXPECT_FALSE(cfg.enabled());
    cfg.traceEvents = true;
    EXPECT_FALSE(cfg.enabled()); // no directory, nowhere to write
    cfg.dir = "/tmp/x";
    EXPECT_TRUE(cfg.enabled());
    cfg.traceEvents = false;
    EXPECT_FALSE(cfg.enabled());
    cfg.sampleInterval = 100;
    EXPECT_TRUE(cfg.enabled());
}

} // namespace
} // namespace rc
