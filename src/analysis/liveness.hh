/**
 * @file
 * Line-generation tracking and live-line analysis.
 *
 * A generation is one stay of a line in the SLLC data array (paper
 * Section 2.2 follows [Kaxiras et al.] in calling reloads new
 * generations).  A line is LIVE at time t if it will receive another hit
 * before being evicted (Section 2.1); its live interval is therefore
 * [fill, lastHit).  The tracker observes data-array fill/hit/evict
 * events through the LlcObserver interface and produces the records
 * behind Figures 1a, 1b and 7.
 */

#ifndef RC_ANALYSIS_LIVENESS_HH
#define RC_ANALYSIS_LIVENESS_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "cache/llc_iface.hh"
#include "common/types.hh"

namespace rc
{

/** One completed (or force-closed) data-array generation. */
struct GenRecord
{
    Cycle fill = 0;      //!< data-array entry cycle
    Cycle evict = 0;     //!< data-array exit cycle
    Cycle lastHit = 0;   //!< cycle of the final hit (== fill when none)
    std::uint32_t hits = 0; //!< hits received during the stay
};

/** Observer that logs every data-array generation. */
class GenerationTracker : public LlcObserver
{
  public:
    void onDataFill(Addr line_addr, Cycle now) override;
    void onDataHit(Addr line_addr, Cycle now) override;
    void onDataEvict(Addr line_addr, Cycle now) override;

    /**
     * Close every still-resident generation with @p end as its eviction
     * time.  Call once when the simulation window ends.
     */
    void finalize(Cycle end);

    /** Completed generations (finalize() moves residents here). */
    const std::vector<GenRecord> &records() const { return done; }

    /** Generations still open. */
    std::uint64_t residentCount() const { return resident.size(); }

    /** Total hits observed across all generations. */
    std::uint64_t totalHits() const { return hitsSeen; }

    /**
     * Drop all recorded state so the tracker can observe a fresh run.
     * Quarantine retries re-create the Cmp from scratch; a tracker that
     * stayed attached across the failed attempt must start clean too.
     */
    void reset();

  private:
    std::unordered_map<Addr, GenRecord> resident;
    std::vector<GenRecord> done;
    std::uint64_t hitsSeen = 0;
};

/** Sampling period of the live-line series behind Figures 1a and 7
 *  (cycles). */
constexpr Cycle liveSamplePeriod = 20'000;

/** Sampled live-line fraction over time (Figure 1a). */
struct LiveSeries
{
    Cycle start = 0;                //!< first sample time
    Cycle period = 0;               //!< sampling period
    std::vector<double> fraction;   //!< live lines / capacity per sample
    double mean = 0.0;              //!< average across samples
};

/**
 * Compute the instantaneous live fraction at each sample point.
 *
 * @param records completed generations (finalize() first).
 * @param start first cycle of the observation window.
 * @param end last cycle of the observation window.
 * @param period sampling period (the paper samples every 100 Kcycles).
 * @param capacity_lines data-array capacity in lines (denominator).
 */
LiveSeries computeLiveSeries(const std::vector<GenRecord> &records,
                             Cycle start, Cycle end, Cycle period,
                             std::uint64_t capacity_lines);

/**
 * Average live fraction over the window (Figure 7's bar heights):
 * shorthand for computeLiveSeries(...).mean.
 */
double averageLiveFraction(const std::vector<GenRecord> &records,
                           Cycle start, Cycle end, Cycle period,
                           std::uint64_t capacity_lines);

} // namespace rc

#endif // RC_ANALYSIS_LIVENESS_HH
