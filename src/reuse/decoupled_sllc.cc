#include "reuse/decoupled_sllc.hh"

#include "common/log.hh"

namespace rc
{

LlcState
DecoupledSllc::stateOf(Addr line_addr) const
{
    std::uint32_t way = 0;
    const ReuseTagArray::Entry *e =
        const_cast<ReuseTagArray &>(tags).find(lineAlign(line_addr), way);
    return e ? e->state : LlcState::I;
}

const DirectoryEntry *
DecoupledSllc::dirOf(Addr line_addr) const
{
    std::uint32_t way = 0;
    const ReuseTagArray::Entry *e =
        const_cast<ReuseTagArray &>(tags).find(lineAlign(line_addr), way);
    return e ? &e->dir : nullptr;
}

void
DecoupledSllc::checkInvariants() const
{
    std::uint64_t tags_with_data = 0;
    const auto &tg = tags.geometry();
    for (std::uint64_t s = 0; s < tg.numSets(); ++s) {
        for (std::uint32_t w = 0; w < tg.numWays(); ++w) {
            const ReuseTagArray::Entry &e = tags.at(s, w);
            if (!llcHasData(e.state))
                continue;
            ++tags_with_data;
            const std::uint64_t ds = data.setFor(s);
            RC_CHECK(e.fwdWay < data.geometry().numWays(),
                     SimError::Kind::Integrity,
                     "forward pointer out of range");
            const ReuseDataArray::Entry &d = data.at(ds, e.fwdWay);
            RC_CHECK(data.validAt(ds, e.fwdWay), SimError::Kind::Integrity,
                     "forward pointer to an empty data entry");
            RC_CHECK(d.tagSet == s && d.tagWay == w,
                     SimError::Kind::Integrity,
                     "reverse pointer does not match forward pointer");
        }
    }
    std::uint64_t valid_data = 0;
    const auto &dg = data.geometry();
    for (std::uint64_t s = 0; s < dg.numSets(); ++s) {
        for (std::uint32_t w = 0; w < dg.numWays(); ++w) {
            const ReuseDataArray::Entry &d = data.at(s, w);
            if (!data.validAt(s, w))
                continue;
            ++valid_data;
            const ReuseTagArray::Entry &e = tags.at(d.tagSet, d.tagWay);
            RC_CHECK(llcHasData(e.state), SimError::Kind::Integrity,
                     "data entry owned by tag in state %s",
                     toString(e.state));
            RC_CHECK(e.fwdWay == w && data.setFor(d.tagSet) == s,
                     SimError::Kind::Integrity,
                     "forward pointer does not match reverse pointer");
        }
    }
    RC_CHECK(tags_with_data == valid_data, SimError::Kind::Integrity,
             "tag/data population mismatch: %llu tags vs %llu data",
             static_cast<unsigned long long>(tags_with_data),
             static_cast<unsigned long long>(valid_data));
}

} // namespace rc
