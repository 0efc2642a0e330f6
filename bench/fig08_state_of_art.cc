/**
 * @file
 * Figure 8 reproduction: reuse caches vs conventional caches running
 * TA-DRRIP and NRR, with the hardware storage of every configuration.
 */

#include <iostream>

#include "common/table.hh"
#include "harness.hh"
#include "model/cost_model.hh"

int
main(int argc, char **argv)
{
    using namespace rc;
    const auto opt = bench::initBench(
        argc, argv,
        "Figure 8: comparison with TA-DRRIP and NRR",
        "RC-8/4 (40448 Kbits) beats DRRIP-8MB (70016 Kbits) by ~2%; "
        "RC-16/8 edges DRRIP/NRR-16MB with 41% less storage; RC-4/0.5 "
        "matches DRRIP-4MB at 80% less storage");

    constexpr std::uint64_t MiB = 1ull << 20;

    struct ConvCfg
    {
        const char *name;
        double mb;
        ReplKind repl;
        double paper;
    };
    const ConvCfg convs[] = {
        {"DRRIP-16MB", 16, ReplKind::DRRIP, 1.094},
        {"NRR-16MB", 16, ReplKind::NRR, 1.094},
        {"DRRIP-8MB", 8, ReplKind::DRRIP, 1.037},
        {"NRR-8MB", 8, ReplKind::NRR, 1.037},
        {"DRRIP-4MB", 4, ReplKind::DRRIP, 0.974},
        {"NRR-4MB", 4, ReplKind::NRR, 0.975},
    };
    struct RcCfg
    {
        const char *name;
        double tag, data;
        double paper;
    };
    const RcCfg rcs[] = {
        {"RC-16/8", 16, 8, 1.099},
        {"RC-8/4", 8, 4, 1.056},
        {"RC-8/2", 8, 2, 1.024},
        {"RC-4/1", 4, 1, 1.004},
        {"RC-4/0.5", 4, 0.5, 0.974},
    };

    std::vector<SystemConfig> cfgs = {bench::baselineFor(opt)};
    for (const ConvCfg &c : convs)
        cfgs.push_back(conventionalSystem(c.mb, c.repl, opt.scale));
    for (const RcCfg &c : rcs)
        cfgs.push_back(reuseSystem(c.tag, c.data, 0, opt.scale));
    const auto res = bench::runConfigsOverMixes(
        cfgs, makeMixes(opt.mixCount, 8, 7), opt);
    std::size_t col = 1;

    Table t("Speedup over conv-8MB-LRU and hardware storage");
    t.header({"config", "speedup", "storage (Kbits)", "paper speedup"});
    for (const ConvCfg &c : convs) {
        const auto s = bench::speedups(res[col++], res[0]);
        const double kbits = conventionalCost(
            static_cast<std::uint64_t>(c.mb * MiB), 16, 8,
            c.repl).totalKbits();
        t.row({c.name, fmtDouble(s.mean),
               fmtInt(static_cast<std::uint64_t>(kbits)),
               fmtDouble(c.paper)});
        std::cout << "  " << c.name << ": " << fmtDouble(s.mean) << "\n";
    }
    for (const RcCfg &c : rcs) {
        const auto s = bench::speedups(res[col++], res[0]);
        const double kbits = reuseCost(
            static_cast<std::uint64_t>(c.tag * MiB), 16,
            static_cast<std::uint64_t>(c.data * MiB), 0).totalKbits();
        t.row({c.name, fmtDouble(s.mean),
               fmtInt(static_cast<std::uint64_t>(kbits)),
               fmtDouble(c.paper)});
        std::cout << "  " << c.name << ": " << fmtDouble(s.mean) << "\n";
    }
    t.print(std::cout);

    std::cout << "\npaper storage reference: DRRIP-16MB 140032, NRR-16MB "
                 "139776, DRRIP-8MB 70016, NRR-8MB 69888, DRRIP-4MB "
                 "35008, NRR-4MB 34944; RC-16/8 81024, RC-8/4 40448, "
                 "RC-8/2 23360, RC-4/1 11664, RC-4/0.5 7368 Kbits\n"
                 "(ours differ by <1%: the paper reuses the 8MB 21-bit "
                 "tag field for all sizes, we recompute per geometry)\n";
    return 0;
}
