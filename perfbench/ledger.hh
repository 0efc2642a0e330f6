/**
 * @file
 * Per-layer ledger of a traced run.  The program calls into its inner
 * layers (stream generation, private hierarchy, SLLCs, memory) itself,
 * out of sight of the benchmark, so the traced run replays the
 * workload's own inputs -- same seed, mixes and windows, and the front
 * end's LLC-bound records -- through those layers' public functions
 * and times each one.
 */

#ifndef RC_PERFBENCH_LEDGER_HH
#define RC_PERFBENCH_LEDGER_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common.hh"
#include "service/run_request.hh"
#include "sim/system_config.hh"
#include "workloads/mixes.hh"

namespace perfbench
{

/** A configuration with the label the benchmark reports it under. */
struct NamedConfig
{
    std::string name;
    rc::SystemConfig cfg;
};

/** What the ledger replays: one workload's inputs. */
struct LedgerInput
{
    std::vector<rc::Mix> mixes;       //!< each distinct mix once
    std::vector<NamedConfig> configs; //!< the workload's own configs
    std::uint64_t seed = 42;
    std::uint32_t scale = 8;
    std::uint64_t warmup = 0;
    std::uint64_t measure = 0;
    std::size_t sampleMix = 0;        //!< mix of the single-run replays
    std::string scratchDir;           //!< feed/journal/cache replays
};

/** Per-layer metrics by name (see BENCHMARK.json "per_layer"). */
using Ledger = std::map<std::string, double>;

/**
 * Replay @p in through every inner layer and add the metrics of the
 * workloads, cache (private, conventional), arena, reuse, ncid, mem,
 * sim (plain, fan-out, feed) and snapshot layers to @p out.  Every
 * replay runs inside a span of @p spans.
 */
void replayLayers(const LedgerInput &in, SpanLog &spans, Ledger &out);

/** One service request per (config, mix) of @p in, config-major. */
std::vector<rc::svc::RunRequest> requestsOf(const LedgerInput &in);

/**
 * Service-layer replay over @p in's (config x mix) requests with their
 * known @p results: request digests, frame codec and result-cache
 * store/lookup timings (service.digest_us, frame_us, cache_lookup_us,
 * cache_store_ms).
 */
void replayServiceCodec(const LedgerInput &in,
                        const std::vector<rc::RunResult> &results,
                        SpanLog &spans, Ledger &out);

/** Median of @p v (0 when empty). */
double median(std::vector<double> v);

} // namespace perfbench

#endif // RC_PERFBENCH_LEDGER_HH
