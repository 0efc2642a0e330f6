#include "service/poison.hh"

#include <cerrno>
#include <cstring>

#include <sys/stat.h>

#include "common/log.hh"
#include "snapshot/blob_store.hh"

namespace rc::svc
{

namespace
{

constexpr const char *poisonName = "poison.index";
constexpr const char *poisonHeader = "# rc poison index v1\n";

} // namespace

PoisonIndex::PoisonIndex(const std::string &dir)
    : path(dir + "/" + poisonName)
{
    if (::mkdir(dir.c_str(), 0777) != 0 && errno != EEXIST)
        throwSimError(SimError::Kind::Io,
                      "cannot create poison directory '%s': %s",
                      dir.c_str(), std::strerror(errno));
    blacklist = readDigestLines(path, "poison");
    recoveredCount = blacklist.size();
}

bool
PoisonIndex::quarantined(std::uint64_t digest) const
{
    std::lock_guard<std::mutex> lock(mu);
    return blacklist.count(digest) != 0;
}

bool
PoisonIndex::recordCrash(std::uint64_t digest, std::uint64_t worker_uid,
                         std::uint32_t threshold)
{
    {
        std::lock_guard<std::mutex> lock(mu);
        if (blacklist.count(digest))
            return false; // already condemned
        auto &uids = crashes[digest];
        uids.insert(worker_uid);
        if (uids.size() < threshold)
            return false;
        blacklist.insert(digest);
        crashes.erase(digest);
    }
    // Persist outside the lock: a slow fsync must not stall the
    // supervisor's crash handling for other digests.
    appendLocked(path, poisonHeader, digestLine("poison", digest));
    return true;
}

PoisonStats
PoisonIndex::stats() const
{
    std::lock_guard<std::mutex> lock(mu);
    PoisonStats out;
    out.tracked = crashes.size();
    out.quarantined = blacklist.size();
    out.recovered = recoveredCount;
    return out;
}

} // namespace rc::svc
