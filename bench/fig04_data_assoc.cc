/**
 * @file
 * Figure 4 reproduction: average speedup vs the 8 MB LRU baseline for
 * reuse caches with an 8 MBeq tag array, sweeping data-array size
 * (4, 2, 1, 0.5 MB) and associativity (16, 32, 64, 128, FA).
 */

#include <iostream>

#include "common/table.hh"
#include "harness.hh"

int
main(int argc, char **argv)
{
    using namespace rc;
    const auto opt = bench::initBench(
        argc, argv,
        "Figure 4: data array size and associativity (8 MBeq tags)",
        "performance varies little with associativity (FA best by <=1%); "
        "RC-8/2 beats baseline by ~2.4%, RC-8/1 slightly below (-0.5%)");

    const double dataMbs[] = {4.0, 2.0, 1.0, 0.5};
    const std::uint32_t wayCounts[] = {16, 32, 64, 128, 0};
    std::vector<SystemConfig> cfgs = {bench::baselineFor(opt)};
    for (double data_mb : dataMbs)
        for (std::uint32_t ways : wayCounts)
            cfgs.push_back(reuseSystem(8, data_mb, ways, opt.scale));
    const auto res = bench::runConfigsOverMixes(
        cfgs, makeMixes(opt.mixCount, 8, 7), opt);

    Table t("Average speedup over conv-8MB-LRU");
    t.header({"config", "16-way", "32-way", "64-way", "128-way", "FA"});
    std::size_t col = 1;
    for (double data_mb : dataMbs) {
        std::vector<std::string> row;
        char name[32];
        std::snprintf(name, sizeof(name), "RC-8/%g", data_mb);
        row.push_back(name);
        for (std::uint32_t ways : wayCounts) {
            const auto s = bench::speedups(res[col++], res[0]);
            row.push_back(fmtDouble(s.mean));
            std::cout << "  " << name << " "
                      << (ways ? std::to_string(ways) + "-way" : "FA")
                      << ": " << fmtDouble(s.mean) << "\n";
        }
        t.row(std::move(row));
    }
    t.print(std::cout);

    std::cout << "\npaper reference (FA column): RC-8/4 ~1.056, "
                 "RC-8/2 ~1.024, RC-8/1 ~0.995, RC-8/0.5 lower; "
                 "16-way vs FA differs by -0.1%..+1%\n";
    return 0;
}
