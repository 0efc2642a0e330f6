#include "verify/integrity.hh"

#include <cstdio>

#include "cache/conventional_llc.hh"
#include "cache/mshr.hh"
#include "common/log.hh"
#include "reuse/decoupled_sllc.hh"
#include "sim/cmp.hh"

namespace rc
{

namespace
{

std::string
hexLine(Addr line)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "0x%llx",
                  static_cast<unsigned long long>(line));
    return buf;
}

void
add(IntegrityReport &r, Invariant inv, std::string detail)
{
    r.violations.push_back(Violation{inv, std::move(detail)});
}

} // namespace

const char *
toString(Invariant inv)
{
    switch (inv) {
      case Invariant::TagDataPointers: return "TagDataPointers";
      case Invariant::DirectoryInclusion: return "DirectoryInclusion";
      case Invariant::DirectoryEncoding: return "DirectoryEncoding";
      case Invariant::PrivateInclusion: return "PrivateInclusion";
      case Invariant::StateEncoding: return "StateEncoding";
      case Invariant::ReplMetadata: return "ReplMetadata";
      case Invariant::MshrLeak: return "MshrLeak";
      case Invariant::FrameIntegrity: return "FrameIntegrity";
      case Invariant::BlobIntegrity: return "BlobIntegrity";
      case Invariant::CrashContainment: return "CrashContainment";
      case Invariant::PoisonQuarantine: return "PoisonQuarantine";
      case Invariant::FeedIntegrity: return "FeedIntegrity";
    }
    return "unknown";
}

bool
IntegrityReport::has(Invariant inv) const
{
    return countOf(inv) > 0;
}

std::size_t
IntegrityReport::countOf(Invariant inv) const
{
    std::size_t n = 0;
    for (const auto &v : violations)
        n += v.invariant == inv;
    return n;
}

std::string
IntegrityReport::summary(std::size_t max_details) const
{
    std::string out = "integrity walk at cycle " +
                      std::to_string(checkedAt) + ": " +
                      std::to_string(violations.size()) + " violation(s)";
    const std::size_t shown =
        violations.size() < max_details ? violations.size() : max_details;
    for (std::size_t i = 0; i < shown; ++i)
        out += std::string("; [") + toString(violations[i].invariant) +
               "] " + violations[i].detail;
    if (shown < violations.size())
        out += "; ... " + std::to_string(violations.size() - shown) +
               " more";
    return out;
}

IntegrityChecker::IntegrityChecker(const Cmp &cmp) : sys(cmp) {}

void
IntegrityChecker::checkLlc(IntegrityReport &r) const
{
    const std::uint32_t cores = sys.numCores();

    if (const auto *dec = dynamic_cast<const DecoupledSllc *>(&sys.llc())) {
        const ReuseTagArray &tags = dec->tagArray();
        const ReuseDataArray &data = dec->dataArray();
        const auto &tg = tags.geometry();
        const auto &dg = data.geometry();

        std::uint64_t tags_with_data = 0;
        for (std::uint64_t s = 0; s < tg.numSets(); ++s) {
            for (std::uint32_t w = 0; w < tg.numWays(); ++w) {
                const ReuseTagArray::Entry &e = tags.at(s, w);
                if (e.state == LlcState::I)
                    continue;
                ++r.tagsWalked;
                std::string why;
                if (!e.dir.encodingSane(cores, &why))
                    add(r, Invariant::DirectoryEncoding,
                        "tag (" + std::to_string(s) + "," +
                            std::to_string(w) + "): " + why);
                if (!llcHasData(e.state))
                    continue;
                ++tags_with_data;
                if (e.fwdWay >= dg.numWays()) {
                    add(r, Invariant::TagDataPointers,
                        "tag (" + std::to_string(s) + "," +
                            std::to_string(w) + ") forward pointer " +
                            std::to_string(e.fwdWay) + " out of range");
                    continue;
                }
                const ReuseDataArray::Entry &d =
                    data.at(data.setFor(s), e.fwdWay);
                if (!data.validAt(data.setFor(s), e.fwdWay))
                    add(r, Invariant::TagDataPointers,
                        "tag (" + std::to_string(s) + "," +
                            std::to_string(w) +
                            ") points at an empty data entry");
                else if (d.tagSet != s || d.tagWay != w)
                    add(r, Invariant::TagDataPointers,
                        "tag (" + std::to_string(s) + "," +
                            std::to_string(w) +
                            ") reverse pointer names (" +
                            std::to_string(d.tagSet) + "," +
                            std::to_string(d.tagWay) + ")");
            }
        }

        std::uint64_t valid_data = 0;
        for (std::uint64_t s = 0; s < dg.numSets(); ++s) {
            for (std::uint32_t w = 0; w < dg.numWays(); ++w) {
                const ReuseDataArray::Entry &d = data.at(s, w);
                if (!data.validAt(s, w))
                    continue;
                ++r.dataWalked;
                ++valid_data;
                if (d.tagSet >= tg.numSets() || d.tagWay >= tg.numWays()) {
                    add(r, Invariant::TagDataPointers,
                        "data (" + std::to_string(s) + "," +
                            std::to_string(w) +
                            ") reverse pointer out of range");
                    continue;
                }
                const ReuseTagArray::Entry &e = tags.at(d.tagSet, d.tagWay);
                if (!llcHasData(e.state))
                    add(r, Invariant::TagDataPointers,
                        "data (" + std::to_string(s) + "," +
                            std::to_string(w) +
                            ") owned by a tag in state " +
                            toString(e.state) + " (orphan data block)");
                else if (e.fwdWay != w || data.setFor(d.tagSet) != s)
                    add(r, Invariant::TagDataPointers,
                        "data (" + std::to_string(s) + "," +
                            std::to_string(w) +
                            ") not named back by its owning tag");
            }
        }

        if (tags_with_data != valid_data)
            add(r, Invariant::TagDataPointers,
                "population mismatch: " + std::to_string(tags_with_data) +
                    " data-holding tags vs " + std::to_string(valid_data) +
                    " valid data entries");

        std::string why;
        if (!tags.policy().metadataSane(&why))
            add(r, Invariant::ReplMetadata, "tag array: " + why);
        if (!data.policy().metadataSane(&why))
            add(r, Invariant::ReplMetadata, "data array: " + why);
        return;
    }

    if (const auto *conv =
            dynamic_cast<const ConventionalLlc *>(&sys.llc())) {
        conv->forEachResident([&](Addr line, LlcState st,
                                  const DirectoryEntry &dir) {
            ++r.tagsWalked;
            if (st == LlcState::TO)
                add(r, Invariant::StateEncoding,
                    "line " + hexLine(line) +
                        " holds the reuse-cache-only TO state");
            std::string why;
            if (!dir.encodingSane(cores, &why))
                add(r, Invariant::DirectoryEncoding,
                    "line " + hexLine(line) + ": " + why);
        });
        std::string why;
        if (!conv->policy().metadataSane(&why))
            add(r, Invariant::ReplMetadata, why);
    }
}

void
IntegrityChecker::checkDirectoryInclusion(IntegrityReport &r) const
{
    const std::uint32_t cores = sys.numCores();

    // One direction: every directory bit must match an actual private
    // copy.  The walk and dir lookup depend on the organization.
    auto checkLine = [&](Addr line, const DirectoryEntry &dir) {
        for (CoreId c = 0; c < cores; ++c) {
            const bool in_dir = dir.isSharer(c);
            const bool held = sys.core(c).priv().present(line);
            if (in_dir && !held)
                add(r, Invariant::DirectoryInclusion,
                    "line " + hexLine(line) + ": directory lists core " +
                        std::to_string(c) + " but its L2 has no copy");
            else if (!in_dir && held)
                add(r, Invariant::DirectoryInclusion,
                    "line " + hexLine(line) + ": core " +
                        std::to_string(c) +
                        " holds a copy the directory does not list");
        }
    };

    const auto *dec = dynamic_cast<const DecoupledSllc *>(&sys.llc());
    const auto *conv = dynamic_cast<const ConventionalLlc *>(&sys.llc());
    if (dec) {
        const ReuseTagArray &tags = dec->tagArray();
        const auto &tg = tags.geometry();
        for (std::uint64_t s = 0; s < tg.numSets(); ++s) {
            for (std::uint32_t w = 0; w < tg.numWays(); ++w) {
                const ReuseTagArray::Entry &e = tags.at(s, w);
                if (e.state != LlcState::I)
                    checkLine(tags.lineAddrOf(s, w), e.dir);
            }
        }
    } else if (conv) {
        conv->forEachResident(
            [&](Addr line, LlcState, const DirectoryEntry &dir) {
                checkLine(line, dir);
            });
    } else {
        return; // no directory to cross-check
    }

    // The other direction: every private L2 line must be covered by a
    // resident LLC tag (inclusion over the tag array).
    for (CoreId c = 0; c < cores; ++c) {
        sys.core(c).priv().forEachL2Resident(
            [&](Addr line, const TagStore::Way &) {
                const DirectoryEntry *dir =
                    dec ? dec->dirOf(line) : conv->dirOf(line);
                if (!dir)
                    add(r, Invariant::DirectoryInclusion,
                        "core " + std::to_string(c) + " L2 holds line " +
                            hexLine(line) + " with no LLC tag "
                            "(inclusion violated)");
            });
    }
}

void
IntegrityChecker::checkPrivate(IntegrityReport &r) const
{
    for (CoreId c = 0; c < sys.numCores(); ++c) {
        const PrivateHierarchy &priv = sys.core(c).priv();
        priv.forEachL2Resident(
            [&](Addr, const TagStore::Way &) { ++r.privateWalked; });
        priv.forEachL1Resident(
            [&](Addr line, const TagStore::Way &, bool is_instr) {
                ++r.privateWalked;
                if (!priv.present(line))
                    add(r, Invariant::PrivateInclusion,
                        "core " + std::to_string(c) + " L1" +
                            (is_instr ? "I" : "D") + " holds line " +
                            hexLine(line) + " absent from its L2");
            });
    }
}

void
IntegrityChecker::checkMshrs(IntegrityReport &r, bool quiesce) const
{
    const Cycle latest = quiesce ? sys.maxCoreReadyAt() : 0;
    std::uint32_t bank = 0;
    for (const auto &file : sys.crossbar().mshrs()) {
        ++r.mshrWalked;
        const std::uint32_t leaked = quiesce
            ? file->inFlightAt(latest)  // nothing may outlive quiesce
            : file->leakedEntries();    // mid-run: only unretirable ones
        if (leaked > 0)
            add(r, Invariant::MshrLeak,
                "bank " + std::to_string(bank) + ": " +
                    std::to_string(leaked) + " MSHR entr" +
                    (leaked == 1 ? "y" : "ies") +
                    (quiesce ? " still live at quiesce"
                             : " can never retire"));
        ++bank;
    }
}

IntegrityReport
IntegrityChecker::check(Cycle now) const
{
    IntegrityReport r;
    r.checkedAt = now;
    checkLlc(r);
    checkDirectoryInclusion(r);
    checkPrivate(r);
    checkMshrs(r, false);
    ++walksDone;
    return r;
}

IntegrityReport
IntegrityChecker::checkQuiesce(Cycle now) const
{
    IntegrityReport r;
    r.checkedAt = now;
    checkLlc(r);
    checkDirectoryInclusion(r);
    checkPrivate(r);
    checkMshrs(r, true);
    ++walksDone;
    return r;
}

void
IntegrityChecker::enforce(Cycle now) const
{
    const IntegrityReport r = check(now);
    if (!r.clean())
        throw SimError(SimError::Kind::Integrity,
                       "[integrity] " + r.summary());
}

void
IntegrityChecker::enforceQuiesce(Cycle now) const
{
    const IntegrityReport r = checkQuiesce(now);
    if (!r.clean())
        throw SimError(SimError::Kind::Integrity,
                       "[integrity] " + r.summary());
}

} // namespace rc
