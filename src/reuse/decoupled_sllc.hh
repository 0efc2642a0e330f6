/**
 * @file
 * What the reuse cache and NCID share: tags and data in separate arrays
 * linked by forward and reverse pointers.  The verify layer walks and
 * corrupts both organizations through this base.
 */

#ifndef RC_REUSE_DECOUPLED_SLLC_HH
#define RC_REUSE_DECOUPLED_SLLC_HH

#include "cache/llc_iface.hh"
#include "reuse/data_array.hh"
#include "reuse/tag_array.hh"

namespace rc
{

/** An SLLC with a decoupled tag array and data array. */
class DecoupledSllc : public Sllc
{
  public:
    std::uint64_t
    dataLinesResident() const override
    {
        return data.residentCount();
    }
    std::uint64_t
    dataLinesTotal() const override
    {
        return data.geometry().numLines();
    }

    /** State of a line; I when absent. */
    LlcState stateOf(Addr line_addr) const;

    /** Directory entry of a line; nullptr when absent. */
    const DirectoryEntry *dirOf(Addr line_addr) const;

    const ReuseTagArray &tagArray() const { return tags; }
    const ReuseDataArray &dataArray() const { return data; }

    /** Fault-injection hooks (verify/tests only). */
    ReuseTagArray &tagArrayMut() { return tags; }
    ReuseDataArray &dataArrayMut() { return data; }

    /**
     * Verify the pointer invariants: every tag in a tag+data state names
     * a valid data entry whose reverse pointer names it back, and vice
     * versa.  Throws SimError(Integrity) on violation.
     */
    void checkInvariants() const;

  protected:
    /** The data array's replacement is seeded with @p seed + 1. */
    DecoupledSllc(const CacheGeometry &tag_geom, ReplKind tag_repl,
                  std::uint32_t num_cores, std::uint64_t seed,
                  const CacheGeometry &data_geom, ReplKind data_repl)
        : tags(tag_geom, tag_repl, num_cores, seed),
          data(data_geom, data_repl, seed + 1)
    {
    }

    ReuseTagArray tags;
    ReuseDataArray data;
};

} // namespace rc

#endif // RC_REUSE_DECOUPLED_SLLC_HH
