/**
 * @file
 * Policy arena tournament: every registered replacement policy races on
 * the same conventional 8 MB SLLC over the same mixes, ranked against
 * the paper's two reference points — the NRR reuse cache (RC-4/1) and
 * the NRU conventional cache the paper costs its baseline with.
 *
 * All (policy x mix) runs go through runConfigsOverMixes, so the whole
 * field shares one front-end pass per mix via the fan-out machinery and
 * the results — and therefore the leaderboard and BENCH_arena.json —
 * are bit-identical at any --jobs=N.
 *
 * Outputs:
 *   stdout          ranked markdown leaderboard (also BENCH_arena.md)
 *   BENCH_arena.json  full per-policy, per-mix results
 *
 * --policy=NAME restricts the field to one contender (the two baselines
 * always run); --mixes floors at 8 so a rank is never decided by fewer
 * workloads than the acceptance bar demands.
 */

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "arena/arena_registry.hh"
#include "harness.hh"

namespace
{

using namespace rc;

/** One ranked row of the leaderboard. */
struct Standing
{
    const arena::PolicyInfo *info = nullptr;
    double llcMpki = 0.0;     //!< mean per-core LLC MPKI over all mixes
    double vsConvNru = 0.0;   //!< mean speedup vs conventional NRU
    double vsReuseNrr = 0.0;  //!< mean speedup vs the NRR reuse cache
    std::vector<double> perMixIpc; //!< aggregate IPC per mix
};

double
meanLlcMpki(const std::vector<bench::RunResult> &rows)
{
    double sum = 0.0;
    std::size_t n = 0;
    for (const bench::RunResult &r : rows) {
        for (const MpkiTriple &m : r.mpki) {
            sum += m.llc;
            ++n;
        }
    }
    return n ? sum / static_cast<double>(n) : 0.0;
}

/** Markdown leaderboard (printed and written to BENCH_arena.md). */
std::string
leaderboardMarkdown(const std::vector<Standing> &ranked,
                    std::size_t mix_count)
{
    std::ostringstream os;
    os << "# Policy arena leaderboard\n\n"
       << "Conventional 8 MB SLLC per contender, " << mix_count
       << " mixes; speedups are mean per-mix aggregate-IPC ratios.\n\n"
       << "| rank | policy | LLC MPKI | vs conv-NRU | vs RC-4/1 (NRR) "
          "| notes |\n"
       << "|-----:|--------|---------:|------------:|----------------:"
          "|-------|\n";
    char buf[64];
    for (std::size_t i = 0; i < ranked.size(); ++i) {
        const Standing &st = ranked[i];
        os << "| " << (i + 1) << " | " << st.info->name << " | ";
        std::snprintf(buf, sizeof(buf), "%.3f", st.llcMpki);
        os << buf << " | ";
        std::snprintf(buf, sizeof(buf), "%.4f", st.vsConvNru);
        os << buf << " | ";
        std::snprintf(buf, sizeof(buf), "%.4f", st.vsReuseNrr);
        os << buf << " | " << st.info->summary << " |\n";
    }
    return os.str();
}

/** Full-precision JSON record (doubles carry their exact bits). */
std::string
tournamentJson(const std::vector<Standing> &ranked,
               const std::vector<Mix> &mixes,
               const bench::RunOptions &opt)
{
    std::ostringstream os;
    char buf[64];
    auto num = [&](double v) {
        std::snprintf(buf, sizeof(buf), "%.17g", v);
        return std::string(buf);
    };
    os << "{\n  \"bench\": \"arena_tournament\",\n"
       << "  \"mixes\": " << mixes.size() << ",\n"
       << "  \"scale\": " << opt.scale << ",\n"
       << "  \"seed\": " << opt.seed << ",\n"
       << "  \"mix_labels\": [";
    for (std::size_t m = 0; m < mixes.size(); ++m)
        os << (m ? ", " : "") << "\"" << mixes[m].label() << "\"";
    os << "],\n  \"standings\": [";
    for (std::size_t i = 0; i < ranked.size(); ++i) {
        const Standing &st = ranked[i];
        os << (i ? "," : "") << "\n    {\"rank\": " << (i + 1)
           << ", \"policy\": \"" << st.info->name << "\""
           << ", \"llc_mpki\": " << num(st.llcMpki)
           << ", \"speedup_vs_conv_nru\": " << num(st.vsConvNru)
           << ", \"speedup_vs_reuse_nrr\": " << num(st.vsReuseNrr)
           << ", \"per_mix_ipc\": [";
        for (std::size_t m = 0; m < st.perMixIpc.size(); ++m)
            os << (m ? ", " : "") << num(st.perMixIpc[m]);
        os << "]}";
    }
    os << "\n  ]\n}\n";
    return os.str();
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace rc;
    const auto opt = bench::initBench(
        argc, argv,
        "Policy arena: replacement-policy tournament",
        "ChampSim CRC2-family ports race the paper's six built-ins on "
        "one conventional SLLC; the NRR reuse cache (RC-4/1) and the "
        "conventional NRU baseline anchor the ranking",
        [](bench::RunOptions &o) {
            // A rank from fewer than 8 workloads is noise.
            o.mixCount = std::max<std::uint32_t>(o.mixCount, 8);
            // The tournament is the feed cache's home game — the whole
            // field shares 8 front-end streams per launch, and reruns
            // (policy tweaks, --jobs comparisons) share them across
            // processes — so it defaults on.  --no-feed-cache (or an
            // explicit --feed-cache=DIR) overrides.
            if (o.feedCacheDir.empty() && !o.feedCacheDisabled)
                o.feedCacheDir = "feedcache";
        });

    // The contenders: the whole registry, or one chosen by --policy.
    std::vector<const arena::PolicyInfo *> field;
    for (const arena::PolicyInfo &info : arena::policyRegistry()) {
        if (!info.inTournament)
            continue;
        if (!opt.policy.empty() && opt.policy != info.name)
            continue;
        field.push_back(&info);
    }

    // One config per contender plus the two anchors, simulated in a
    // single sweep: the conventional configs share their front end, so
    // fan-out pays one reference stream per mix for the whole field.
    std::vector<SystemConfig> cfgs;
    for (const arena::PolicyInfo *info : field)
        cfgs.push_back(conventionalSystem(8.0, info->kind, opt.scale));
    const std::size_t convNruIdx = cfgs.size();
    cfgs.push_back(conventionalSystem(8.0, ReplKind::NRU, opt.scale));
    const std::size_t reuseNrrIdx = cfgs.size();
    cfgs.push_back(reuseSystem(4.0, 1.0, 16, opt.scale));

    const auto mixes = makeMixes(opt.mixCount, 8, 7);
    const auto results = bench::runConfigsOverMixes(cfgs, mixes, opt);
    const auto &nruRows = results[convNruIdx];
    const auto &nrrRows = results[reuseNrrIdx];

    std::vector<Standing> ranked;
    for (std::size_t i = 0; i < field.size(); ++i) {
        Standing st;
        st.info = field[i];
        st.llcMpki = meanLlcMpki(results[i]);
        st.vsConvNru = bench::speedups(results[i], nruRows).mean;
        st.vsReuseNrr = bench::speedups(results[i], nrrRows).mean;
        for (const bench::RunResult &r : results[i])
            st.perMixIpc.push_back(r.aggregateIpc);
        ranked.push_back(std::move(st));
    }
    std::sort(ranked.begin(), ranked.end(),
              [](const Standing &a, const Standing &b) {
                  if (a.vsConvNru != b.vsConvNru)
                      return a.vsConvNru > b.vsConvNru;
                  return std::string(a.info->name) < b.info->name;
              });

    const std::string md = leaderboardMarkdown(ranked, mixes.size());
    std::cout << "\n" << md << std::flush;
    {
        std::ofstream out("BENCH_arena.md");
        if (out)
            out << md;
        else
            warn("cannot write BENCH_arena.md");
    }
    {
        std::ofstream out("BENCH_arena.json");
        if (out)
            out << tournamentJson(ranked, mixes, opt);
        else
            warn("cannot write BENCH_arena.json");
    }
    std::cout << field.size() << " contender(s) ranked over "
              << mixes.size() << " mixes; BENCH_arena.json and "
                 "BENCH_arena.md written\n";
    return 0;
}
