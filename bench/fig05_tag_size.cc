/**
 * @file
 * Figure 5 reproduction: speedup vs the 8 MB LRU baseline, sweeping the
 * tag array size for each data array size (fully-associative data).
 * The paper's conclusion: the optimum tag:data capacity ratio is 4.
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
        "Figure 5: tag array size per data array size",
        "optimum tag:data ratio is 4; RC-16/8 outperforms conv 16MB; "
        "RC-4/0.5 matches conv 4MB; conv 4/16MB lines at ~0.95/1.094");

    // Tag sweeps per data size.  The tag array must cover at least the
    // private caches (2 MBeq) and the data array.
    struct Sweep
    {
        double dataMb;
        std::vector<double> tagMbeq;
    };
    const Sweep sweeps[] = {
        {8.0, {16, 32, 64}},
        {4.0, {8, 16, 32}},
        {2.0, {4, 8, 16}},
        {1.0, {2, 4, 8}},
        {0.5, {2, 4, 8}},
    };
    const double convMbs[] = {4.0, 16.0};

    std::vector<SystemConfig> cfgs = {bench::baselineFor(opt)};
    for (double mb : convMbs)
        cfgs.push_back(conventionalSystem(mb, ReplKind::LRU, opt.scale));
    for (const Sweep &sw : sweeps)
        for (double tag : sw.tagMbeq)
            cfgs.push_back(reuseSystem(tag, sw.dataMb, 0, opt.scale));
    const auto res = bench::runConfigsOverMixes(
        cfgs, makeMixes(opt.mixCount, 8, 7), opt);
    std::size_t col = 1;

    // Conventional reference lines.
    Table refs("Conventional LRU references (lines in the figure)");
    refs.header({"config", "speedup"});
    for (double mb : convMbs) {
        const auto s = bench::speedups(res[col++], res[0]);
        char name[32];
        std::snprintf(name, sizeof(name), "conv-%gMB", mb);
        refs.row({name, fmtDouble(s.mean)});
        std::cout << "  " << name << ": " << fmtDouble(s.mean) << "\n";
    }
    refs.print(std::cout);

    Table t("Reuse cache speedup by tag and data size");
    t.header({"config", "speedup", "tag:data"});
    for (const Sweep &sw : sweeps) {
        for (double tag : sw.tagMbeq) {
            const auto s = bench::speedups(res[col++], res[0]);
            char name[32];
            std::snprintf(name, sizeof(name), "RC-%g/%g", tag, sw.dataMb);
            char ratio[16];
            std::snprintf(ratio, sizeof(ratio), "%g", tag / sw.dataMb);
            t.row({name, fmtDouble(s.mean), ratio});
            std::cout << "  " << name << ": " << fmtDouble(s.mean) << "\n";
        }
    }
    t.print(std::cout);

    std::cout << "\npaper reference: per data size, speedup saturates "
                 "once tag:data reaches ~4 (RC-16/4 barely beats RC-8/4, "
                 "RC-32/8 barely beats RC-16/8)\n";
    return 0;
}
