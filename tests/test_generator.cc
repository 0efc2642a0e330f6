/** @file Unit tests for the synthetic stream generator. */

#include <gtest/gtest.h>

#include <cstdlib>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "workloads/app_profile.hh"
#include "workloads/generator.hh"
#include "workloads/mixes.hh"

namespace rc
{
namespace
{

AppProfile
simpleApp()
{
    AppProfile app;
    app.name = "test";
    app.memRatio = 0.35;
    app.writeRatio = 0.25;
    app.codeBytes = 16 * 1024;
    Component stream;
    stream.pattern = AccessPattern::Stream;
    stream.weight = 0.1;
    stream.regionBytes = 64ull << 20;
    Component zipf;
    zipf.pattern = AccessPattern::Zipf;
    zipf.weight = 0.05;
    zipf.regionBytes = 1ull << 20;
    zipf.zipfS = 0.9;
    app.components = {stream, zipf};
    return app;
}

TEST(Generator, Deterministic)
{
    SyntheticStream a(simpleApp(), 0, 42, 8);
    SyntheticStream b(simpleApp(), 0, 42, 8);
    for (int i = 0; i < 5000; ++i) {
        const MemRef ra = a.next();
        const MemRef rb = b.next();
        EXPECT_EQ(ra.addr, rb.addr);
        EXPECT_EQ(ra.op, rb.op);
        EXPECT_EQ(ra.think, rb.think);
        EXPECT_EQ(ra.isInstr, rb.isInstr);
    }
}

TEST(Generator, CoresGetDisjointPrivateRegions)
{
    SyntheticStream a(simpleApp(), 0, 42, 8);
    SyntheticStream b(simpleApp(), 1, 42, 8);
    std::unordered_set<Addr> lines_a;
    for (int i = 0; i < 20000; ++i)
        lines_a.insert(lineAlign(a.next().addr));
    for (int i = 0; i < 20000; ++i)
        EXPECT_EQ(lines_a.count(lineAlign(b.next().addr)), 0u);
}

TEST(Generator, MemRatioRealized)
{
    SyntheticStream s(simpleApp(), 0, 42, 8);
    std::uint64_t instr = 0, data_refs = 0;
    for (int i = 0; i < 100000; ++i) {
        const MemRef r = s.next();
        if (r.isInstr)
            continue;
        instr += r.think + 1;
        ++data_refs;
    }
    const double ratio = static_cast<double>(data_refs) /
                         static_cast<double>(instr);
    EXPECT_NEAR(ratio, 0.35, 0.01);
}

TEST(Generator, WriteRatioRealized)
{
    SyntheticStream s(simpleApp(), 0, 42, 8);
    std::uint64_t writes = 0, data_refs = 0;
    for (int i = 0; i < 100000; ++i) {
        const MemRef r = s.next();
        if (r.isInstr) {
            EXPECT_EQ(r.op, MemOp::Read);
            continue;
        }
        ++data_refs;
        writes += r.op == MemOp::Write;
    }
    EXPECT_NEAR(static_cast<double>(writes) / data_refs, 0.25, 0.02);
}

TEST(Generator, InstructionFetchCadence)
{
    SyntheticStream s(simpleApp(), 0, 42, 8);
    std::uint64_t instr = 0, fetches = 0;
    for (int i = 0; i < 100000; ++i) {
        const MemRef r = s.next();
        if (r.isInstr)
            ++fetches;
        else
            instr += r.think + 1;
    }
    // One fetch per 32 instructions.
    EXPECT_NEAR(static_cast<double>(instr) / fetches, 32.0, 1.0);
}

TEST(Generator, ZipfConcentratesTraffic)
{
    // The hottest few lines of the Zipf component must receive a
    // disproportionate share - that is the reuse locality of Section 2.
    AppProfile app = simpleApp();
    app.components[1].weight = 0.5; // crank up zipf for signal
    app.components[0].weight = 0.0;
    SyntheticStream s(app, 0, 42, 8);
    std::unordered_map<Addr, std::uint64_t> counts;
    std::uint64_t zipf_total = 0;
    for (int i = 0; i < 200000; ++i) {
        const MemRef r = s.next();
        if (r.isInstr)
            continue;
        ++counts[lineAlign(r.addr)];
        ++zipf_total;
    }
    std::vector<std::uint64_t> sorted;
    for (const auto &[a, c] : counts)
        sorted.push_back(c);
    std::sort(sorted.begin(), sorted.end(), std::greater<>());
    std::uint64_t top_decile = 0;
    for (std::size_t i = 0; i < counts.size() / 10 + 1; ++i)
        top_decile += sorted[i];
    EXPECT_GT(static_cast<double>(top_decile) / zipf_total, 0.4);
}

TEST(Generator, StreamNeverRepeatsWithinWindow)
{
    AppProfile app = simpleApp();
    app.components[0].weight = 1.0;
    app.components[1].weight = 0.0;
    SyntheticStream s(app, 0, 42, 8);
    std::unordered_set<Addr> seen;
    for (int i = 0; i < 50000; ++i) {
        const MemRef r = s.next();
        if (r.isInstr)
            continue;
        EXPECT_TRUE(seen.insert(lineAlign(r.addr)).second);
    }
}

TEST(Generator, PhaseChangesRelocateHotSet)
{
    AppProfile app = simpleApp();
    app.components.clear(); // hot loop only
    app.phaseRefs = 80'000; // scaled by 8 -> 10'000 refs per phase
    SyntheticStream s(app, 0, 42, 8);
    // Collect the data-line set in two windows separated by > one phase.
    auto collect = [&s](int n) {
        std::set<Addr> lines;
        int taken = 0;
        while (taken < n) {
            const MemRef r = s.next();
            if (r.isInstr)
                continue;
            lines.insert(lineAlign(r.addr));
            ++taken;
        }
        return lines;
    };
    const auto w1 = collect(2000);
    collect(30000); // cross several phase boundaries
    const auto w2 = collect(2000);
    std::size_t common = 0;
    for (Addr a : w2)
        common += w1.count(a);
    // The hot window moved inside its universe: overlap is partial at
    // most (identical windows would mean phases are broken).
    EXPECT_LT(common, std::min(w1.size(), w2.size()));
}

TEST(Generator, ScaleShrinksRegions)
{
    AppProfile app = simpleApp();
    app.components[0].weight = 0.0;
    app.components[1].weight = 1.0; // zipf over 1 MB
    SyntheticStream s1(app, 0, 42, 1);
    SyntheticStream s8(app, 0, 42, 8);
    auto span = [](SyntheticStream &s) {
        std::set<Addr> lines;
        for (int i = 0; i < 50000; ++i) {
            const MemRef r = s.next();
            if (!r.isInstr)
                lines.insert(lineAlign(r.addr));
        }
        return lines.size();
    };
    EXPECT_GT(span(s1), 2 * span(s8));
}

TEST(Generator, AddressesFitPhysicalSpace)
{
    SyntheticStream s(simpleApp(), 7, 42, 1, 8);
    for (int i = 0; i < 50000; ++i)
        EXPECT_LT(s.next().addr, Addr{1} << physAddrBits);
}

TEST(Generator, EnvironmentCannotReshapeAWorkload)
{
    // No cache key covers the environment, so no variable may change a
    // profile or a stream; these three once did.
    const auto profile = [] {
        return makeSpecAnalog("probe", 30.0, 20.0, 5.0, MissStyle::Chase);
    };
    const auto refs = [] {
        std::vector<MemRef> out;
        const auto streams = buildMixStreams(exampleMix(), 42, 8);
        for (int i = 0; i < 100'000; ++i)
            out.push_back(streams.front()->next());
        return out;
    };
    const AppProfile before = profile();
    const std::vector<MemRef> beforeRefs = refs();
    ::setenv("RC_PHASE_REFS", "1000", 1);
    ::setenv("RC_ZR_MULT", "3", 1);
    ::setenv("RC_ZS_ADD", "0.5", 1);
    const AppProfile after = profile();
    const std::vector<MemRef> afterRefs = refs();
    ::unsetenv("RC_PHASE_REFS");
    ::unsetenv("RC_ZR_MULT");
    ::unsetenv("RC_ZS_ADD");

    ASSERT_EQ(after.components.size(), before.components.size());
    for (std::size_t i = 0; i < before.components.size(); ++i) {
        const Component &a = before.components[i], &b = after.components[i];
        EXPECT_EQ(a.pattern, b.pattern) << i;
        EXPECT_EQ(a.weight, b.weight) << i;
        EXPECT_EQ(a.regionBytes, b.regionBytes) << i;
        EXPECT_EQ(a.zipfS, b.zipfS) << i;
        EXPECT_EQ(a.burstLines, b.burstLines) << i;
        EXPECT_EQ(a.shared, b.shared) << i;
        EXPECT_EQ(a.sharedId, b.sharedId) << i;
    }
    std::size_t differing = 0;
    for (std::size_t i = 0; i < beforeRefs.size(); ++i) {
        const MemRef &a = beforeRefs[i], &b = afterRefs[i];
        if (a.addr != b.addr || a.op != b.op || a.think != b.think ||
            a.isInstr != b.isInstr || a.pc != b.pc)
            ++differing;
    }
    EXPECT_EQ(differing, 0u);
}

TEST(Generator, Label)
{
    SyntheticStream s(simpleApp(), 0, 42, 8);
    EXPECT_STREQ(s.label(), "test");
}

TEST(Generator, SharedComponentsOverlapAcrossCores)
{
    AppProfile app;
    app.name = "par";
    Component shared;
    shared.pattern = AccessPattern::Zipf;
    shared.weight = 1.0;
    shared.regionBytes = 256 * 1024;
    shared.shared = true;
    shared.sharedId = 9;
    app.components = {shared};
    SyntheticStream a(app, 0, 42, 8);
    SyntheticStream b(app, 5, 42, 8);
    std::unordered_set<Addr> lines_a;
    for (int i = 0; i < 20000; ++i) {
        const MemRef r = a.next();
        if (!r.isInstr)
            lines_a.insert(lineAlign(r.addr));
    }
    std::uint64_t overlap = 0, total = 0;
    for (int i = 0; i < 20000; ++i) {
        const MemRef r = b.next();
        if (r.isInstr)
            continue;
        ++total;
        overlap += lines_a.count(lineAlign(r.addr));
    }
    EXPECT_GT(static_cast<double>(overlap) / total, 0.5);
}

} // namespace
} // namespace rc
