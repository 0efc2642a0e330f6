/**
 * @file
 * Table 6 reproduction: mean and minimum percentage of lines never
 * entering the data array, relative to tags entered in the tag array,
 * for the selected reuse cache configurations.
 */

#include <iostream>
#include <iterator>

#include "common/stats.hh"
#include "common/table.hh"
#include "harness.hh"

int
main(int argc, char **argv)
{
    using namespace rc;
    const auto opt = bench::initBench(
        argc, argv,
        "Table 6: lines not entered in the data array",
        "RC-8/4 discards 93% on average, RC-4/1 95.4%; even the most "
        "demanding workload discards >80% (conv: 0%)");

    struct Cfg
    {
        const char *name;
        double tag, data;
        double paperAvg;
        double paperMin;
    };
    const Cfg cfgs[] = {
        {"RC-8/4", 8, 4, 0.93, 0.81},
        {"RC-8/2", 8, 2, 0.93, 0.81},
        {"RC-4/1", 4, 1, 0.954, 0.89},
        {"RC-4/0.5", 4, 0.5, 0.96, 0.89},
    };

    std::vector<SystemConfig> grid;
    for (const Cfg &cfg : cfgs)
        grid.push_back(reuseSystem(cfg.tag, cfg.data, 0, opt.scale));
    const auto res = bench::runConfigsOverMixes(
        grid, makeMixes(opt.mixCount, 8, 7), opt);

    Table t("Percentage of tag generations never entering the data array");
    t.header({"config", "avg", "min", "paper avg", "paper min",
              "reloaded (avg)"});
    for (std::size_t k = 0; k < std::size(cfgs); ++k) {
        const Cfg &cfg = cfgs[k];
        Accum acc;
        for (const bench::RunResult &r : res[k])
            acc.add(r.fracNeverEnteredData);
        t.row({cfg.name, fmtPercent(acc.mean()), fmtPercent(acc.min()),
               fmtPercent(cfg.paperAvg), fmtPercent(cfg.paperMin),
               fmtPercent(1.0 - acc.mean())});
        std::cout << "  " << cfg.name << " done\n";
    }
    t.row({"Conv.", "0%", "0%", "0%", "0%", "-"});
    t.print(std::cout);

    std::cout << "\n(the 'reloaded' column is Section 5.3's downside: "
                 "that fraction of data lines pays the main-memory cost "
                 "twice)\n";
    return 0;
}
