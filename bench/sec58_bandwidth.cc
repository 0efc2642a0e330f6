/**
 * @file
 * Section 5.8 reproduction: sensitivity to memory bandwidth.  Repeats
 * the baseline and RC-4/1 comparisons with 2 and 4 DDR3 channels; the
 * paper observes <1% performance variation.
 */

#include <iostream>
#include <string>

#include "common/table.hh"
#include "harness.hh"

int
main(int argc, char **argv)
{
    using namespace rc;
    const auto opt = bench::initBench(
        argc, argv,
        "Section 5.8: higher memory bandwidth",
        "with 2 and 4 memory channels, system performance varies by "
        "less than 1% for both organizations");

    struct Org
    {
        std::string name;
        SystemConfig sys;
    };
    const SystemConfig conv = bench::baselineFor(opt);
    const Org orgs[] = {
        {std::string("conv-8MB-") + toString(conv.conv.repl), conv},
        {"RC-4/1", reuseSystem(4, 1, 0, opt.scale)},
    };
    const std::uint32_t channelCounts[] = {1, 2, 4};

    // Channels are a back-end field, so all six configs share one front
    // end per mix.
    std::vector<SystemConfig> cfgs;
    for (const Org &org : orgs) {
        for (std::uint32_t channels : channelCounts) {
            cfgs.push_back(org.sys);
            cfgs.back().memory.numChannels = channels;
        }
    }
    const auto res = bench::runConfigsOverMixes(
        cfgs, makeMixes(opt.mixCount, 8, 7), opt);

    Table t("Aggregate IPC relative to the same organization with "
            "1 channel");
    t.header({"organization", "1 ch", "2 ch", "4 ch"});
    std::size_t col = 0;
    for (const Org &org : orgs) {
        std::vector<double> means;
        for (std::uint32_t channels : channelCounts) {
            Accum acc;
            for (const bench::RunResult &r : res[col++])
                acc.add(r.aggregateIpc);
            means.push_back(acc.mean());
            std::cout << "  " << org.name << " x" << channels
                      << " channels done\n";
        }
        t.row({org.name, "1.000", fmtDouble(means[1] / means[0]),
               fmtDouble(means[2] / means[0])});
    }
    t.print(std::cout);

    std::cout << "\npaper reference: <1% variation with extra channels "
                 "(no significant memory-controller contention)\n";
    return 0;
}
