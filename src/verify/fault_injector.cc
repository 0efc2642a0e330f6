#include "verify/fault_injector.hh"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <thread>
#include <utility>

#include "cache/conventional_llc.hh"
#include "cache/mshr.hh"
#include "common/log.hh"
#include "reuse/decoupled_sllc.hh"
#include "sim/cmp.hh"
#include "sim/feed_cache.hh"

namespace rc
{

namespace
{

struct TagCoord
{
    std::uint64_t set;
    std::uint32_t way;
};

/** Resident tag-array coordinates satisfying @p pred, in array order. */
template <typename Pred>
std::vector<TagCoord>
reuseCandidates(const ReuseTagArray &tags, Pred pred)
{
    std::vector<TagCoord> out;
    const auto &g = tags.geometry();
    for (std::uint64_t s = 0; s < g.numSets(); ++s) {
        for (std::uint32_t w = 0; w < g.numWays(); ++w) {
            const ReuseTagArray::Entry &e = tags.at(s, w);
            if (e.state != LlcState::I && pred(e))
                out.push_back(TagCoord{s, w});
        }
    }
    return out;
}

/** Resident conventional lines satisfying @p pred, in array order. */
template <typename Pred>
std::vector<Addr>
convCandidates(const ConventionalLlc &llc, Pred pred)
{
    std::vector<Addr> out;
    llc.forEachResident(
        [&](Addr line, LlcState st, const DirectoryEntry &dir) {
            if (pred(st, dir))
                out.push_back(line);
        });
    return out;
}

std::string
coordStr(const TagCoord &c)
{
    return "(" + std::to_string(c.set) + "," + std::to_string(c.way) + ")";
}

std::string
lineStr(Addr line)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "0x%llx",
                  static_cast<unsigned long long>(line));
    return buf;
}

} // namespace

const char *
toString(FaultClass cls)
{
    switch (cls) {
      case FaultClass::TagStateFlip: return "tag-state";
      case FaultClass::DirectoryDropBit: return "dir-drop";
      case FaultClass::DirectoryGhostBit: return "dir-ghost";
      case FaultClass::OwnerCorrupt: return "owner";
      case FaultClass::OrphanDataBlock: return "orphan-data";
      case FaultClass::LeakedMshr: return "mshr-leak";
      case FaultClass::ReplMetadata: return "repl-meta";
      case FaultClass::TruncatedFrame: return "truncated-frame";
      case FaultClass::CorruptBlob: return "corrupt-blob";
      case FaultClass::WorkerCrash: return "worker-crash";
      case FaultClass::WorkerOom: return "worker-oom";
      case FaultClass::WorkerHang: return "worker-hang";
      case FaultClass::FeedTruncate: return "feed-truncate";
      case FaultClass::FeedFlip: return "feed-flip";
      case FaultClass::FeedVersion: return "feed-version";
    }
    return "unknown";
}

bool
faultClassFromName(const std::string &name, FaultClass &out)
{
    for (std::size_t i = 0; i < numFaultClasses; ++i) {
        const auto cls = static_cast<FaultClass>(i);
        if (name == toString(cls)) {
            out = cls;
            return true;
        }
    }
    return false;
}

Invariant
detectedBy(FaultClass cls, LlcKind kind)
{
    switch (cls) {
      case FaultClass::TagStateFlip:
        return kind == LlcKind::Conventional ? Invariant::StateEncoding
                                             : Invariant::TagDataPointers;
      case FaultClass::DirectoryDropBit:
      case FaultClass::DirectoryGhostBit:
        return Invariant::DirectoryInclusion;
      case FaultClass::OwnerCorrupt:
        return Invariant::DirectoryEncoding;
      case FaultClass::OrphanDataBlock:
        return Invariant::TagDataPointers;
      case FaultClass::LeakedMshr:
        return Invariant::MshrLeak;
      case FaultClass::ReplMetadata:
        return Invariant::ReplMetadata;
      case FaultClass::TruncatedFrame:
        return Invariant::FrameIntegrity;
      case FaultClass::CorruptBlob:
        return Invariant::BlobIntegrity;
      case FaultClass::WorkerCrash:
      case FaultClass::WorkerOom:
      case FaultClass::WorkerHang:
        return Invariant::CrashContainment;
      case FaultClass::FeedTruncate:
      case FaultClass::FeedFlip:
      case FaultClass::FeedVersion:
        return Invariant::FeedIntegrity;
    }
    return Invariant::TagDataPointers;
}

FaultInjector::FaultInjector(std::uint64_t seed) : rng(seed) {}

InjectionResult
FaultInjector::inject(Cmp &cmp, FaultClass cls)
{
    InjectionResult res;
    res.fault = cls;

    // The reuse cache and NCID keep tags and data in the same arrays, so
    // every fault that targets them applies to both.
    auto *dec = dynamic_cast<DecoupledSllc *>(&cmp.llc());
    auto *conv = dynamic_cast<ConventionalLlc *>(&cmp.llc());
    const LlcKind kind = dec ? LlcKind::Reuse : LlcKind::Conventional;
    const std::uint32_t cores = cmp.numCores();

    auto pickTag = [&](const std::vector<TagCoord> &cands) {
        return cands[rng.below(cands.size())];
    };
    auto pickLine = [&](const std::vector<Addr> &cands) {
        return cands[rng.below(cands.size())];
    };
    auto done = [&](std::string detail) {
        res.applied = true;
        res.detail = std::move(detail);
        if (res.expected.empty())
            res.expected.push_back(detectedBy(cls, kind));
    };

    switch (cls) {
      case FaultClass::TagStateFlip: {
        if (dec) {
            ReuseTagArray &tags = dec->tagArrayMut();
            // Preferred target: a tag+data state demoted to TO leaves
            // its data entry orphaned (TagDataPointers, both walks).
            auto cands = reuseCandidates(tags, [](const auto &e) {
                return llcHasData(e.state);
            });
            if (!cands.empty()) {
                const TagCoord c = pickTag(cands);
                tags.at(c.set, c.way).state = LlcState::TO;
                done("reuse tag " + coordStr(c) + " demoted to TO with "
                     "its data entry left behind");
                return res;
            }
            // Fallback: promote a TO tag to S with a dangling forward
            // pointer — still a TagDataPointers violation.
            cands = reuseCandidates(tags, [](const auto &e) {
                return e.state == LlcState::TO;
            });
            if (cands.empty())
                break;
            const TagCoord c = pickTag(cands);
            tags.at(c.set, c.way).state = LlcState::S;
            done("reuse TO tag " + coordStr(c) +
                 " promoted to S with no data entry");
            return res;
        }
        if (conv) {
            auto cands = convCandidates(
                *conv, [](LlcState, const DirectoryEntry &) {
                    return true;
                });
            if (cands.empty())
                break;
            const Addr line = pickLine(cands);
            conv->corruptStateForTest(line, LlcState::TO);
            done("conventional line " + lineStr(line) +
                 " forced into the TO state");
            return res;
        }
        break;
      }

      case FaultClass::DirectoryDropBit: {
        auto drop = [&](DirectoryEntry &dir, const std::string &what) {
            std::vector<CoreId> sharers;
            for (CoreId c = 0; c < cores; ++c) {
                if (dir.isSharer(c))
                    sharers.push_back(c);
            }
            const CoreId victim =
                sharers[rng.below(sharers.size())];
            // removeSharer also dissolves ownership when the victim
            // owned the line, so the encoding stays sane and only
            // DirectoryInclusion can fire.
            dir.removeSharer(victim);
            done(what + ": dropped presence bit of core " +
                 std::to_string(victim));
        };
        if (dec) {
            ReuseTagArray &tags = dec->tagArrayMut();
            auto cands = reuseCandidates(tags, [](const auto &e) {
                return !e.dir.empty();
            });
            if (cands.empty())
                break;
            const TagCoord c = pickTag(cands);
            drop(tags.at(c.set, c.way).dir, "reuse tag " + coordStr(c));
            return res;
        }
        if (conv) {
            auto cands = convCandidates(
                *conv, [](LlcState, const DirectoryEntry &dir) {
                    return !dir.empty();
                });
            if (cands.empty())
                break;
            const Addr line = pickLine(cands);
            drop(*conv->dirOfMut(line), "line " + lineStr(line));
            return res;
        }
        break;
      }

      case FaultClass::DirectoryGhostBit: {
        auto ghost = [&](DirectoryEntry &dir, const std::string &what) {
            std::vector<CoreId> absent;
            for (CoreId c = 0; c < cores; ++c) {
                if (!dir.isSharer(c))
                    absent.push_back(c);
            }
            const CoreId ghost_core = absent[rng.below(absent.size())];
            dir.addSharer(ghost_core);
            done(what + ": added ghost presence bit for core " +
                 std::to_string(ghost_core));
        };
        if (dec) {
            ReuseTagArray &tags = dec->tagArrayMut();
            auto cands = reuseCandidates(tags, [&](const auto &e) {
                return e.dir.sharerCount() < cores;
            });
            if (cands.empty())
                break;
            const TagCoord c = pickTag(cands);
            ghost(tags.at(c.set, c.way).dir, "reuse tag " + coordStr(c));
            return res;
        }
        if (conv) {
            auto cands = convCandidates(
                *conv, [&](LlcState, const DirectoryEntry &dir) {
                    return dir.sharerCount() < cores;
                });
            if (cands.empty())
                break;
            const Addr line = pickLine(cands);
            ghost(*conv->dirOfMut(line), "line " + lineStr(line));
            return res;
        }
        break;
      }

      case FaultClass::OwnerCorrupt: {
        // An owner id == numCores is out of range; encodingSane rejects
        // it before ever using it as a shift amount.
        if (dec) {
            ReuseTagArray &tags = dec->tagArrayMut();
            auto cands =
                reuseCandidates(tags, [](const auto &) { return true; });
            if (cands.empty())
                break;
            const TagCoord c = pickTag(cands);
            tags.at(c.set, c.way).dir.corruptOwnerForTest(cores);
            done("reuse tag " + coordStr(c) +
                 ": owner id set out of range");
            return res;
        }
        if (conv) {
            auto cands = convCandidates(
                *conv,
                [](LlcState, const DirectoryEntry &) { return true; });
            if (cands.empty())
                break;
            const Addr line = pickLine(cands);
            conv->dirOfMut(line)->corruptOwnerForTest(cores);
            done("line " + lineStr(line) + ": owner id set out of range");
            return res;
        }
        break;
      }

      case FaultClass::OrphanDataBlock: {
        if (!dec)
            break; // coupled tag/data caches cannot orphan data
        ReuseTagArray &tags = dec->tagArrayMut();
        // Prefer a tag with no private copies: invalidating it then
        // violates only the tag/data pointer invariant.
        auto cands = reuseCandidates(tags, [](const auto &e) {
            return llcHasData(e.state) && e.dir.empty();
        });
        if (cands.empty()) {
            cands = reuseCandidates(tags, [](const auto &e) {
                return llcHasData(e.state);
            });
            if (cands.empty())
                break;
            // Dropping a tag with live sharers also breaks inclusion.
            res.expected.push_back(detectedBy(cls, kind));
            res.expected.push_back(Invariant::DirectoryInclusion);
        }
        const TagCoord c = pickTag(cands);
        tags.invalidate(c.set, c.way);
        done("reuse tag " + coordStr(c) +
             " invalidated, orphaning its data entry");
        return res;
      }

      case FaultClass::LeakedMshr: {
        const auto &files = cmp.crossbar().mshrs();
        for (std::uint32_t attempt = 0; attempt < 8; ++attempt) {
            const Addr line =
                (Addr{0xdead} << 32) | (rng.below(1u << 20) << 6);
            for (std::size_t bank = 0; bank < files.size(); ++bank) {
                const auto outcome =
                    files[bank]->request(line, cmp.now(), neverCycle);
                if (outcome == MshrFile::Outcome::Allocated) {
                    done("bank " + std::to_string(bank) +
                         ": leaked an MSHR entry for line " +
                         lineStr(line) + " (doneAt = never)");
                    return res;
                }
            }
        }
        break;
      }

      case FaultClass::ReplMetadata: {
        auto corrupt = [&](ReplacementPolicy &p, const std::string &what) {
            const std::uint64_t set = rng.below(p.numSets());
            const std::uint32_t way =
                static_cast<std::uint32_t>(rng.below(p.numWays()));
            if (!p.corruptMetadata(set, way))
                return false;
            done(what + ": replacement metadata of (" +
                 std::to_string(set) + "," + std::to_string(way) +
                 ") forced out of range");
            return true;
        };
        if (dec) {
            if (corrupt(dec->dataArrayMut().policyMut(),
                        "reuse data array") ||
                corrupt(dec->tagArrayMut().policyMut(),
                        "reuse tag array"))
                return res;
            break;
        }
        if (conv && corrupt(conv->policyMut(), "conventional LLC"))
            return res;
        break;
      }

      case FaultClass::TruncatedFrame:
      case FaultClass::CorruptBlob:
      case FaultClass::WorkerCrash:
      case FaultClass::WorkerOom:
      case FaultClass::WorkerHang:
      case FaultClass::FeedTruncate:
      case FaultClass::FeedFlip:
      case FaultClass::FeedVersion:
        // Service-layer classes corrupt bytes in flight/at rest or a
        // worker process, not simulated state; see truncateFrame(),
        // corruptBlobFile(), corruptFeedBlob() and detonateChaos().
        // The checker-vs-injector matrix skips them like any other
        // inapplicable (class, organization) pair.
        break;
    }

    res.applied = false;
    res.detail = std::string("no viable target for ") + toString(cls);
    return res;
}

std::vector<std::uint8_t>
FaultInjector::truncateFrame(const std::vector<std::uint8_t> &frame_bytes)
{
    if (frame_bytes.empty())
        return frame_bytes;
    // Keep at least one byte and lose at least one: a frame cut inside
    // its header and one cut inside its payload are both defects the
    // reader must flag, so any split point in [1, size) is a valid
    // injection.
    const std::size_t keep =
        1 + static_cast<std::size_t>(rng.below(frame_bytes.size() - 1));
    return std::vector<std::uint8_t>(frame_bytes.begin(),
                                     frame_bytes.begin() +
                                         static_cast<std::ptrdiff_t>(keep));
}

namespace
{

/** High bits marking a chaos seed ("CA05" ~ chaos, never a real seed). */
constexpr std::uint64_t chaosMagic = 0xCA05;

} // namespace

std::uint64_t
chaosSeed(FaultClass cls, std::uint32_t salt)
{
    RC_ASSERT(isServiceFault(cls) && cls != FaultClass::TruncatedFrame &&
                  cls != FaultClass::CorruptBlob,
              "chaos seeds encode worker fault classes only");
    return (chaosMagic << 48) |
           (static_cast<std::uint64_t>(cls) << 40) | salt;
}

bool
chaosFromSeed(std::uint64_t seed, FaultClass &out)
{
    if ((seed >> 48) != chaosMagic)
        return false;
    const auto raw = static_cast<std::uint8_t>((seed >> 40) & 0xff);
    if (raw < static_cast<std::uint8_t>(FaultClass::WorkerCrash) ||
        raw > static_cast<std::uint8_t>(FaultClass::WorkerHang))
        return false;
    out = static_cast<FaultClass>(raw);
    return true;
}

void
detonateChaos(FaultClass cls, std::atomic<std::uint64_t> *heartbeat)
{
    switch (cls) {
      case FaultClass::WorkerCrash:
        // abort(), not a raw segfault: identical containment coverage
        // (fatal signal mid-job), without tripping sanitizer
        // crash-report machinery in sanitizer CI legs.
        std::abort();

      case FaultClass::WorkerOom: {
        // Allocate AND touch (a reservation alone never fails under
        // overcommit).  The budget bounds the damage on an uncapped
        // host: with RLIMIT_AS the operator new below throws early,
        // without it the loop throws at the budget — same observable
        // behaviour either way.
        std::vector<std::unique_ptr<char[]>> hoard;
        constexpr std::size_t chunkBytes = 32u << 20;
        constexpr std::size_t budgetChunks = 64; // 2 GiB ceiling
        for (std::size_t i = 0; i < budgetChunks; ++i) {
            auto chunk = std::make_unique<char[]>(chunkBytes);
            for (std::size_t off = 0; off < chunkBytes; off += 4096)
                chunk[off] = static_cast<char>(off);
            hoard.push_back(std::move(chunk));
            // A runaway sim still beats; without this the hang watchdog
            // would kill the bomb before the allocator fails and the
            // death would be mistyped as a hang.
            if (heartbeat)
                heartbeat->fetch_add(1, std::memory_order_relaxed);
        }
        throw std::bad_alloc();
      }

      case FaultClass::WorkerHang:
        // Spin forever WITHOUT consulting the abort flag: only the
        // supervisor's grace-period SIGKILL (or RLIMIT_CPU) ends this.
        for (;;)
            std::this_thread::sleep_for(std::chrono::milliseconds(50));

      default:
        panic("detonateChaos called with non-chaos class %s",
              toString(cls));
    }
}

bool
FaultInjector::corruptBlobFile(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "r+b");
    if (!f)
        return false;
    std::fseek(f, 0, SEEK_END);
    const long size = std::ftell(f);
    if (size <= 0) {
        std::fclose(f);
        return false;
    }
    const long at = static_cast<long>(
        rng.below(static_cast<std::uint64_t>(size)));
    std::fseek(f, at, SEEK_SET);
    const int c = std::fgetc(f);
    std::fseek(f, at, SEEK_SET);
    // XOR with a non-zero mask guarantees the byte actually changes.
    std::fputc((c == EOF ? 0 : c) ^ 0x5a, f);
    std::fclose(f);
    return true;
}

bool
FaultInjector::corruptFeedBlob(const std::string &path, FaultClass cls)
{
    try {
        switch (cls) {
          case FaultClass::FeedTruncate:
            feedTruncateBlob(path);
            return true;
          case FaultClass::FeedFlip:
            feedFlipBlobByte(path);
            return true;
          case FaultClass::FeedVersion:
            feedStaleVersionBlob(path);
            return true;
          default:
            return false;
        }
    } catch (const SimError &) {
        // The blob was too damaged to damage further (missing, shorter
        // than a header); an injection that cannot land reports false.
        return false;
    }
}

} // namespace rc
