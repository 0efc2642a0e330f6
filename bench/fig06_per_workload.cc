/**
 * @file
 * Figure 6 reproduction: per-workload speedups of the selected reuse
 * cache configurations (RC-8/4, RC-8/2, RC-4/1, RC-4/0.5), each sorted
 * ascending as in the paper's plots.
 */

#include <algorithm>
#include <cstdio>
#include <iterator>

#include "harness.hh"

int
main(int argc, char **argv)
{
    using namespace rc;
    const auto opt = bench::initBench(
        argc, argv,
        "Figure 6: per-workload speedups of the selected configurations",
        "RC-8/4 beats the baseline on 99/100 workloads; RC-4/1 wins on "
        "64/100 with range 0.82..1.14");

    struct Cfg
    {
        const char *name;
        double tag, data;
    };
    const Cfg cfgs[] = {
        {"RC-8/4", 8, 4}, {"RC-8/2", 8, 2}, {"RC-4/1", 4, 1},
        {"RC-4/0.5", 4, 0.5},
    };

    std::vector<SystemConfig> grid = {bench::baselineFor(opt)};
    for (const Cfg &cfg : cfgs)
        grid.push_back(reuseSystem(cfg.tag, cfg.data, 0, opt.scale));
    const auto res = bench::runConfigsOverMixes(
        grid, makeMixes(opt.mixCount, 8, 7), opt);

    for (std::size_t k = 0; k < std::size(cfgs); ++k) {
        const Cfg &cfg = cfgs[k];
        auto s = bench::speedups(res[k + 1], res[0]);
        std::sort(s.perMix.begin(), s.perMix.end());
        std::uint32_t wins = 0;
        for (double v : s.perMix)
            wins += v >= 1.0;
        std::printf("\n%s: mean %.3f, range %.3f..%.3f, beats baseline "
                    "on %u/%zu workloads\n",
                    cfg.name, s.mean, s.min, s.max, wins,
                    s.perMix.size());
        std::printf("sorted speedups: ");
        for (std::size_t i = 0; i < s.perMix.size(); ++i)
            std::printf("%.3f%s", s.perMix[i],
                        (i + 1) % 10 == 0 ? "\n                 " : " ");
        std::printf("\n");
    }
    return 0;
}
