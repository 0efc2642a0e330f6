/**
 * @file
 * Ablation study of the reuse cache's design choices (not a paper
 * figure; supports DESIGN.md):
 *
 *  1. tag-array replacement: the paper argues NRR (reuse bits + full-map
 *     presence) is the right policy; compare against LRU/NRU/DRRIP tags;
 *  2. data-array replacement: the paper uses Clock for the fully
 *     associative array "even cheaper than NRU"; compare Clock, NRU,
 *     LRU and Random;
 *  3. the Section 6 extension: a bimodal reuse predictor that installs
 *     predicted-reused lines in the data array on the first access,
 *     avoiding the double memory fetch.
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
        "Ablation: reuse-cache design choices (RC-4/1)",
        "NRR tags and Clock data are the paper's picks; the reuse "
        "predictor is the paper's suggested extension");

    // The whole ablation as one grid: names[k] labels column k + 1.
    std::vector<std::string> names;
    std::vector<SystemConfig> cfgs = {bench::baselineFor(opt)};
    auto add = [&](const std::string &name, const SystemConfig &sys) {
        names.push_back(name);
        cfgs.push_back(sys);
    };

    // 1. Tag replacement.
    for (ReplKind tag_repl : {ReplKind::NRR, ReplKind::LRU, ReplKind::NRU,
                              ReplKind::DRRIP}) {
        SystemConfig sys = reuseSystem(4, 1, 0, opt.scale);
        sys.reuse.tagRepl = tag_repl;
        add(std::string("tags=") + toString(tag_repl) + " data=Clock",
            sys);
    }

    // 2. Data replacement (fully associative array).
    for (ReplKind data_repl : {ReplKind::NRU, ReplKind::LRU,
                               ReplKind::Random}) {
        SystemConfig sys = reuseSystem(4, 1, 0, opt.scale);
        sys.reuse.dataRepl = data_repl;
        add(std::string("tags=NRR data=") + toString(data_repl), sys);
    }

    // 3. Reuse predictor extension.
    {
        SystemConfig sys = reuseSystem(4, 1, 0, opt.scale);
        sys.reuse.usePredictor = true;
        add("tags=NRR data=Clock + reuse predictor", sys);
    }

    // 4. Prefetching (Section 6): the stride prefetcher feeds the
    //    prefetch-aware policies; prefetched lines never allocate data
    //    and a prefetch hit is not a reuse.  Prefetching changes the
    //    front end, so these two rows form their own group and run as
    //    independent jobs.
    {
        SystemConfig sys = reuseSystem(4, 1, 0, opt.scale);
        sys.prefetch.enable = true;
        add("tags=NRR data=Clock + stride prefetcher", sys);
    }
    {
        SystemConfig sys = bench::baselineFor(opt);
        sys.prefetch.enable = true;
        add("conv-8MB-LRU + stride prefetcher (reference)", sys);
    }

    const auto res = bench::runConfigsOverMixes(
        cfgs, makeMixes(opt.mixCount, 8, 7), opt);

    Table t("RC-4/1 variants, speedup over conv-8MB-LRU");
    t.header({"variant", "mean", "min", "max"});
    for (std::size_t k = 0; k < names.size(); ++k) {
        const auto s = bench::speedups(res[k + 1], res[0]);
        t.row({names[k], fmtDouble(s.mean), fmtDouble(s.min),
               fmtDouble(s.max)});
        std::cout << "  " << names[k] << ": " << fmtDouble(s.mean) << "\n";
    }

    t.print(std::cout);
    std::cout << "\nexpected: NRR tags beat recency-only tag policies "
                 "(they protect private-cache lines and reused lines); "
                 "data policies differ little (recency suffices); the "
                 "predictor recovers part of the double-fetch cost\n";
    return 0;
}
