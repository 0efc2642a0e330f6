/**
 * @file
 * Figure 1a reproduction: fraction of live SLLC lines over time for the
 * Section 2 example workload on the 8 MB LRU baseline, with the DRRIP
 * and NRR comparison points of Section 2.1.
 */

#include <algorithm>
#include <cstdio>

#include "analysis/liveness.hh"
#include "harness.hh"

int
main(int argc, char **argv)
{
    using namespace rc;
    const auto opt = bench::initBench(
        argc, argv,
        "Figure 1a: live-line fraction over time (example workload)",
        "LRU varies 5.7-29.8%, average 17.4%; DRRIP 34.8%, NRR 37.9%");

    const Mix mix = exampleMix();

    struct Row
    {
        const char *name;
        ReplKind repl;
        double paperAvg;
    };
    const Row rows[] = {
        {"LRU", ReplKind::LRU, 0.174},
        {"DRRIP", ReplKind::DRRIP, 0.348},
        {"NRR", ReplKind::NRR, 0.379},
    };

    for (const Row &row : rows) {
        const SystemConfig sys =
            conventionalSystem(8, row.repl, opt.scale);
        GenerationTracker tracker;
        Cycle start = 0, end = 0;
        bench::runMix(sys, mix, opt, &tracker, &start, &end);
        const LiveSeries series = computeLiveSeries(
            tracker.records(), start, end, liveSamplePeriod,
            sys.conv.capacityBytes / lineBytes);

        std::printf("\n%s: mean live fraction %.1f%% (paper %.1f%%), "
                    "range %.1f%%..%.1f%%\n",
                    row.name, series.mean * 100.0, row.paperAvg * 100.0,
                    *std::min_element(series.fraction.begin(),
                                      series.fraction.end()) * 100.0,
                    *std::max_element(series.fraction.begin(),
                                      series.fraction.end()) * 100.0);
        std::printf("series (one sample per %llu cycles):\n",
                    static_cast<unsigned long long>(series.period));
        for (std::size_t i = 0; i < series.fraction.size(); ++i) {
            std::printf("%5.1f%%%s", series.fraction[i] * 100.0,
                        (i + 1) % 10 == 0 ? "\n" : " ");
        }
        std::printf("\n");
    }
    return 0;
}
