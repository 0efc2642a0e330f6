/**
 * @file
 * Figure 10 reproduction: per-application speedup distributions
 * (min / Q1 / median / Q3 / max) across all mixes containing each
 * application, for RC-8/4, RC-8/2 and RC-8/1.
 */

#include <iostream>
#include <iterator>
#include <map>

#include "common/stats.hh"
#include "common/table.hh"
#include "harness.hh"

int
main(int argc, char **argv)
{
    using namespace rc;
    const auto opt = bench::initBench(
        argc, argv,
        "Figure 10: per-application speedup quartiles",
        "RC-8/4 improves nearly every application (worst Q1 ~0.98); "
        "with RC-8/1 a handful of applications with long reuse "
        "distances lose",
        [](bench::RunOptions &o) {
            // Per-application distributions need a fair number of
            // occurrences.
            if (o.mixCount < 16)
                o.mixCount = 16;
        });

    const auto mixes = makeMixes(opt.mixCount, 8, 7);

    struct Cfg { const char *name; double tag, data; };
    const Cfg cfgs[] = {{"RC-8/4", 8, 4}, {"RC-8/2", 8, 2},
                        {"RC-8/1", 8, 1}};

    // Baseline in column 0; the per-application aggregation below stays
    // sequential so the sample order (and the quartiles) match for any
    // --jobs value.
    std::vector<SystemConfig> grid = {bench::baselineFor(opt)};
    for (const Cfg &cfg : cfgs)
        grid.push_back(reuseSystem(cfg.tag, cfg.data, 0, opt.scale));
    const auto res = bench::runConfigsOverMixes(grid, mixes, opt);
    const auto &base = res[0];
    std::cout << "  baseline done\n";

    for (std::size_t k = 0; k < std::size(cfgs); ++k) {
        const Cfg &cfg = cfgs[k];
        std::map<std::string, std::vector<double>> per_app;
        for (std::size_t i = 0; i < mixes.size(); ++i) {
            const auto &run = res[k + 1][i];
            for (std::size_t c = 0; c < run.coreIpc.size(); ++c) {
                if (base[i].coreIpc[c] > 0.0) {
                    per_app[mixes[i].apps[c]].push_back(
                        run.coreIpc[c] / base[i].coreIpc[c]);
                }
            }
        }
        Table t(std::string(cfg.name) +
                ": per-application speedup vs conv-8MB-LRU");
        t.header({"application", "n", "min", "Q1", "median", "Q3",
                  "max"});
        for (const auto &[app, samples] : per_app) {
            const Quartiles q = computeQuartiles(samples);
            t.row({app, std::to_string(samples.size()),
                   fmtDouble(q.min, 2), fmtDouble(q.q1, 2),
                   fmtDouble(q.median, 2), fmtDouble(q.q3, 2),
                   fmtDouble(q.max, 2)});
        }
        t.print(std::cout);
    }
    return 0;
}
