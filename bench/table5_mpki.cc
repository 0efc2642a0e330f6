/**
 * @file
 * Table 5 reproduction: average per-application MPKI at each cache level
 * of the baseline system (8 MB LRU), measured over homogeneous runs of
 * each SPEC analog (all eight cores run the same application, mirroring
 * "the average of all instances of an application").
 */

#include <iostream>

#include "common/table.hh"
#include "harness.hh"

namespace
{

/** Paper Table 5 values for the reference column. */
struct PaperRow
{
    const char *name;
    double l1, l2, llc;
};

const PaperRow paperRows[] = {
    {"perlbench", 3.7, 0.8, 0.6},    {"bzip2", 8.2, 4.3, 2.1},
    {"gcc", 21.8, 7.1, 6.2},         {"bwaves", 20.3, 19.6, 19.6},
    {"gamess", 75.3, 46.2, 28.6},    {"mcf", 22.9, 22.2, 18.1},
    {"milc", 21.6, 21.6, 21.5},      {"zeusmp", 12.3, 6.4, 6.3},
    {"gromacs", 8.71, 5.91, 5.91},   {"cactusADM", 13.9, 1.4, 0.7},
    {"leslie3d", 29.5, 18.1, 17.7},  {"namd", 1.4, 0.2, 0.1},
    {"gobmk", 9.5, 0.5, 0.4},        {"dealII", 2.3, 0.3, 0.3},
    {"soplex", 6.7, 5.8, 4.8},       {"povray", 11.0, 0.3, 0.3},
    {"calculix", 13.8, 3.7, 1.5},    {"hmmer", 2.9, 2.2, 1.7},
    {"sjeng", 4.2, 0.5, 0.5},        {"GemsFDTD", 25.8, 25.7, 21.6},
    {"libquantum", 36.6, 36.6, 36.6}, {"h264ref", 3.5, 0.7, 0.6},
    {"tonto", 4.88, 0.86, 0.52},     {"lbm", 68.1, 39.2, 39.2},
    {"omnetpp", 7.3, 4.4, 1.2},      {"astar", 6.9, 0.9, 0.7},
    {"wrf", 4.1, 1.6, 0.5},          {"sphinx3", 13.8, 8.0, 6.3},
    {"xalancbmk", 8.2, 7.0, 6.4},
};

} // namespace

int
main(int argc, char **argv)
{
    using namespace rc;
    const auto opt = bench::initBench(
        argc, argv,
        "Table 5: baseline per-application MPKI (L1/L2/LLC)",
        "the synthetic analogs are calibrated to reproduce this "
        "qualitative pattern; measured vs paper shown side by side");

    Table t("Average MPKI on the 8 MB LRU baseline "
            "(measured | paper target)");
    t.header({"application", "L1", "L1 paper", "L2", "L2 paper", "LLC",
              "LLC paper"});

    // One homogeneous mix per application on the baseline; rows are
    // emitted afterwards in table order so output is identical for any
    // --jobs value.
    constexpr std::size_t numRows = std::size(paperRows);
    std::vector<Mix> mixes(numRows);
    for (std::size_t i = 0; i < numRows; ++i)
        mixes[i].apps.assign(8, paperRows[i].name);
    const auto results =
        bench::runConfigsOverMixes({bench::baselineFor(opt)}, mixes, opt);

    for (std::size_t i = 0; i < numRows; ++i) {
        const PaperRow &row = paperRows[i];
        const auto &res = results[0][i];
        double l1 = 0, l2 = 0, llc = 0;
        for (const MpkiTriple &m : res.mpki) {
            l1 += m.l1;
            l2 += m.l2;
            llc += m.llc;
        }
        const double n = static_cast<double>(res.mpki.size());
        t.row({row.name, fmtDouble(l1 / n, 1), fmtDouble(row.l1, 1),
               fmtDouble(l2 / n, 1), fmtDouble(row.l2, 1),
               fmtDouble(llc / n, 1), fmtDouble(row.llc, 1)});
    }
    std::cout << "  " << numRows << " applications simulated\n"
              << std::flush;
    t.print(std::cout);
    return 0;
}
