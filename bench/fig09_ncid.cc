/**
 * @file
 * Figure 9 reproduction: reuse cache vs NCID with an 8 MBeq tag array
 * and data arrays of 4, 2, 1 and 0.5 MB.  NCID's same-set-count
 * decoupling turns the size reduction into an associativity reduction
 * and its selective allocation ignores reuse, so the reuse cache wins
 * at every size.
 */

#include <iostream>
#include <iterator>

#include "common/table.hh"
#include "harness.hh"

int
main(int argc, char **argv)
{
    using namespace rc;
    const auto opt = bench::initBench(
        argc, argv,
        "Figure 9: reuse cache vs NCID (8 MBeq tags)",
        "RC beats NCID by 7.0 / 6.4 / 5.2 / 5.3% at 4 / 2 / 1 / 0.5 MB; "
        "no NCID setting matches the 8 MB baseline");

    // Fair comparison (paper): same number of sets and data ways, so
    // each RC uses a set-associative data array matching its NCID's.
    const double dataMbs[] = {4.0, 2.0, 1.0, 0.5};
    std::vector<SystemConfig> cfgs = {bench::baselineFor(opt)};
    std::vector<std::uint32_t> dataWays;
    for (double data_mb : dataMbs) {
        const SystemConfig ncid_sys = ncidSystem(8, data_mb, opt.scale);
        const auto tag_geom = CacheGeometry::fromBytes(
            ncid_sys.ncid.tagEquivBytes, 16);
        dataWays.push_back(static_cast<std::uint32_t>(
            ncid_sys.ncid.dataBytes / lineBytes / tag_geom.numSets()));

        SystemConfig rc_sys = reuseSystem(8, data_mb, 0, opt.scale);
        rc_sys.reuse.dataWays = dataWays.back();
        rc_sys.reuse.dataRepl = ReplKind::NRU;
        cfgs.push_back(rc_sys);
        cfgs.push_back(ncid_sys);
    }
    const auto res = bench::runConfigsOverMixes(
        cfgs, makeMixes(opt.mixCount, 8, 7), opt);

    Table t("Average speedup over conv-8MB-LRU");
    t.header({"data size", "RC", "NCID", "RC gain", "paper RC gain"});
    const double paper_gain[] = {0.070, 0.064, 0.052, 0.053};
    for (std::size_t i = 0; i < std::size(dataMbs); ++i) {
        const auto rc = bench::speedups(res[1 + 2 * i], res[0]);
        const auto nc = bench::speedups(res[2 + 2 * i], res[0]);

        char name[32];
        std::snprintf(name, sizeof(name), "%g MB (%u-way)", dataMbs[i],
                      dataWays[i]);
        t.row({name, fmtDouble(rc.mean), fmtDouble(nc.mean),
               fmtPercent(rc.mean / nc.mean - 1.0),
               fmtPercent(paper_gain[i])});
        std::cout << "  " << name << ": RC " << fmtDouble(rc.mean)
                  << " vs NCID " << fmtDouble(nc.mean) << "\n";
    }
    t.print(std::cout);
    return 0;
}
