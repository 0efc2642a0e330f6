/**
 * @file
 * Figure 7 reproduction: average fraction of live data-array lines for
 * the 8 MB conventional cache under LRU / DRRIP / NRR and for the
 * selected reuse-cache configurations (plus the Section 2.1 averages).
 */

#include <iostream>

#include "analysis/liveness.hh"
#include "common/stats.hh"
#include "common/table.hh"
#include "harness.hh"

namespace
{

double
liveOf(const rc::SystemConfig &sys, std::uint64_t capacity_lines,
       const std::vector<rc::Mix> &mixes, const rc::bench::RunOptions &opt)
{
    rc::Accum acc;
    for (const rc::Mix &mix : mixes) {
        rc::GenerationTracker tracker;
        rc::Cycle start = 0, end = 0;
        rc::bench::runMix(sys, mix, opt, &tracker, &start, &end);
        acc.add(rc::averageLiveFraction(tracker.records(), start, end,
                                        rc::liveSamplePeriod,
                                        capacity_lines));
    }
    return acc.mean();
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace rc;
    const auto opt = bench::initBench(
        argc, argv,
        "Figure 7: average live fraction of the data array",
        "LRU 16.1%, DRRIP 35.9%, NRR 40.0% (conv 8MB); RC-8/4 55.1%, "
        "RC-8/2 57.3%, RC-4/1 48.7%, RC-4/0.5 41.5%");

    const auto mixes = makeMixes(opt.mixCount, 8, 7);

    Table t("Average fraction of live lines in the data array");
    t.header({"config", "live fraction", "paper"});

    struct ConvRow { const char *name; ReplKind repl; double paper; };
    const ConvRow convs[] = {
        {"LRU", ReplKind::LRU, 0.161},
        {"DRRIP", ReplKind::DRRIP, 0.359},
        {"NRR", ReplKind::NRR, 0.400},
    };
    for (const ConvRow &c : convs) {
        const SystemConfig sys = conventionalSystem(8, c.repl, opt.scale);
        const double live =
            liveOf(sys, sys.conv.capacityBytes / lineBytes, mixes, opt);
        t.row({c.name, fmtPercent(live), fmtPercent(c.paper)});
        std::cout << "  " << c.name << ": " << fmtPercent(live) << "\n"
                  << std::flush;
    }

    struct RcRow { const char *name; double tag, data, paper; };
    const RcRow rcs[] = {
        {"RC-8/4", 8, 4, 0.551},
        {"RC-8/2", 8, 2, 0.573},
        {"RC-4/1", 4, 1, 0.487},
        {"RC-4/0.5", 4, 0.5, 0.415},
    };
    for (const RcRow &c : rcs) {
        const SystemConfig sys = reuseSystem(c.tag, c.data, 0, opt.scale);
        const double live =
            liveOf(sys, sys.reuse.dataBytes / lineBytes, mixes, opt);
        t.row({c.name, fmtPercent(live), fmtPercent(c.paper)});
        std::cout << "  " << c.name << ": " << fmtPercent(live) << "\n"
                  << std::flush;
    }
    t.print(std::cout);

    std::cout << "\npaper headline: with half the lines, RC-8/4 almost "
                 "doubles the number of live lines of the baseline\n";
    return 0;
}
