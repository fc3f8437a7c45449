/**
 * @file
 * lp::repair::RegionParity -- incremental XOR parity over one
 * append-only persistent buffer.
 *
 * Pangolin (PAPERS.md) turns media-fault *detection* into *repair* by
 * keeping parity pages over data it can restore; this class is that
 * idea specialized to the store's batch journals, whose two
 * properties make incremental parity cheap and crash-safe:
 *
 *  - the buffer is APPEND-ONLY within a generation (the journal
 *    restarts at offset 0 on every fold), so each group of 64B
 *    regions is covered once, when the sealed prefix first passes
 *    its end -- no read-modify-write of parity for data overwrites,
 *    ever;
 *  - coverage is a strict PREFIX watermark, so "which bytes the
 *    parity vouches for" is a single counter.
 *
 * Every 8 regions share one XOR parity block (~12.5% space). The
 * parity only RECONSTRUCTS; it detects nothing. The caller's own
 * checksum decides whether a reconstruction is right: the store
 * accepts one only when the batch digest it restores validates
 * (store/backend_lp.hh), so stale parity left by a crash can never
 * fabricate data.
 *
 * Coverage advances ONE WHOLE GROUP at a time. When the sealed prefix
 * completes a group, its XOR parity is computed on the host and its
 * 64B line is written with 8 back-to-back STREAMING stores
 * (Env::stStream): a full line leaves the write-combining buffer at
 * once as one NVMM write, with no write-allocate fill, and no parity
 * line ever waits in the buffer. (A plain store would first fetch the
 * line from NVMM whenever the cache had evicted it.) The header is
 * restated with plain stores after the group's line has left, so
 * after a crash it can only be stale-small. The trailing partial
 * group is covered only when the shard is marked clean (coverTail),
 * since strict recovery assumes every whole sealed region is
 * covered. Restores (recovery/scrub, both eager phases) and the
 * header store + clwb and let the caller fence: clwb keeps the line
 * cached clean for the next header update or read.
 *
 * Coverage reads nothing back: the appender hands over the words it
 * just stored, because a journal streams its lines past the cache and
 * a load would have to fetch each one from NVMM again.
 * Reconstruction and the parity scrub read with STREAMING loads
 * (Env::ldStream): a cached copy is used -- required for
 * correctness, since a restored line may still be cache-dirty -- and
 * a write-combined line still pending is drained first -- but a miss
 * reads NVMM without installing a line. An allocating sweep would
 * cycle the small LLC and evict exactly the dirty coalescing lines
 * Lazy Persistency's write efficiency comes from; real scrubbers use
 * non-temporal reads for the same reason.
 *
 * The header block records (coveredRegions, lastSealedEpoch) under a
 * check word. After a crash the durable header may be stale-small --
 * that is the safe direction (fewer regions claimed repairable); an
 * invalid check word degrades to zero coverage, i.e. exactly the
 * store's historical crash semantics.
 */

#ifndef LP_REPAIR_PARITY_HH
#define LP_REPAIR_PARITY_HH

#include <cstddef>
#include <cstdint>

#include "base/logging.hh"
#include "pmem/arena.hh"
#include "repair/repair.hh"

namespace lp::repair
{

template <typename Env>
class RegionParity
{
  public:
    /**
     * Protect @p dataBytes bytes at @p data (64B-aligned, arena
     * memory). Allocates, in deterministic order: the parity blocks,
     * the header block. With @p attach the allocations re-derive an
     * existing image; call loadDurable() before trusting coverage.
     */
    RegionParity(pmem::PersistentArena &arena, const void *data,
                 std::size_t dataBytes, bool attach)
        : words_(static_cast<const std::uint64_t *>(data)),
          regions_(parityRegionCount(dataBytes)),
          groups_(parityGroupCount(regions_))
    {
        parity_ = arena.alloc<std::uint64_t>(
            (groups_ ? groups_ : 1) * regionWords);
        hdr_ = arena.alloc<Header>(1);
        if (!attach) {
            hdr_->covered = 0;
            hdr_->lastSealed = 0;
            hdr_->check = parityHeaderCheck(0, 0);
        }
    }

    std::size_t regions() const { return regions_; }
    std::size_t coveredRegions() const { return covered_; }
    std::size_t coveredBytes() const { return covered_ * regionBytes; }
    std::uint64_t lastSealedEpoch() const { return lastSealed_; }

    /**
     * Adopt the durable header: true and coverage restored when its
     * check word validates, false (and zero coverage -- plain crash
     * semantics) when it does not. Recovery calls this first.
     */
    bool
    loadDurable(Env &env)
    {
        const std::uint64_t cov = env.ld(&hdr_->covered);
        const std::uint64_t seal = env.ld(&hdr_->lastSealed);
        const std::uint64_t chk = env.ld(&hdr_->check);
        env.tick(4);
        if (chk == parityHeaderCheck(cov, seal) && cov <= regions_) {
            covered_ = std::size_t(cov);
            lastSealed_ = seal;
            return true;
        }
        covered_ = 0;
        lastSealed_ = 0;
        return false;
    }

    /**
     * First region of the group coverage has not completed: the
     * words handed to cover() and coverTail() start here.
     */
    std::size_t
    pendingRegion() const
    {
        return covered_ / groupRegions * groupRegions;
    }

    /**
     * After the commit of @p epoch, extend coverage over every group
     * the sealed prefix (@p sealedBytes) completes, then restate the
     * header. @p stored holds the words from pendingRegion() on,
     * exactly as the appender stored them: the appender streams its
     * lines past the cache, so loading them back would read NVMM.
     * Streaming stores for the group lines, plain ones for the header.
     */
    void
    cover(Env &env, std::uint64_t epoch, std::size_t sealedBytes,
          const std::uint64_t *stored)
    {
        const std::size_t sealed = sealedRegions(sealedBytes);
        coverTo(env, sealed == regions_
                         ? sealed
                         : sealed / groupRegions * groupRegions,
                stored);
        lastSealed_ = epoch;
        storeHeader(env);
    }

    /**
     * Clean-shutdown aid: also cover the whole sealed regions of the
     * trailing partial group, with partial parity, and flush the
     * header; the caller's fence makes it all durable. A later cover()
     * that completes the group rewrites both of its lines.
     */
    void
    coverTail(Env &env, std::size_t sealedBytes,
              const std::uint64_t *stored)
    {
        coverTo(env, sealedRegions(sealedBytes), stored);
        storeHeader(env);
        env.clwb(hdr_);
    }

    /**
     * Start a new generation (fold, recovery end): zero coverage,
     * remember @p epoch as the last sealed watermark. Stores + flush;
     * the caller's phase fence orders it.
     */
    void
    resetGeneration(Env &env, std::uint64_t epoch)
    {
        covered_ = 0;
        lastSealed_ = epoch;
        storeHeader(env);
        env.clwb(hdr_);
    }

    /**
     * Candidate content of covered region @p r (< coveredRegions()):
     * its group's parity XOR every other covered region of the group,
     * into @p out. Right only if the parity and those peers are; the
     * caller's checksum decides.
     */
    void
    reconstruct(Env &env, std::size_t r, std::uint64_t *out)
    {
        LP_ASSERT(r < covered_, "reconstruct outside the coverage");
        const std::size_t g = r / groupRegions;
        const std::uint64_t *par = groupParity(g);
        for (std::size_t w = 0; w < regionWords; ++w)
            out[w] = env.ldStream(&par[w]);
        const std::size_t lo = g * groupRegions;
        const std::size_t hi =
            lo + groupRegions < covered_ ? lo + groupRegions : covered_;
        for (std::size_t peer = lo; peer < hi; ++peer) {
            if (peer == r)
                continue;
            for (std::size_t w = 0; w < regionWords; ++w)
                out[w] ^= env.ldStream(&words_[peer * regionWords + w]);
            env.tick(regionWords);
        }
    }

    /**
     * Write @p n words of @p src back over data words [@p w, w + n),
     * all inside one region: store + clwb, the caller fences.
     */
    void
    restore(Env &env, std::size_t w, std::size_t n,
            const std::uint64_t *src)
    {
        auto *dst = const_cast<std::uint64_t *>(&words_[w]);
        for (std::size_t i = 0; i < n; ++i)
            env.st(&dst[i], src[i]);
        env.clwb(dst);
    }

    /**
     * Scrub aid: recompute group @p g's parity over its covered
     * regions, whose words @p stored holds from the group's first
     * word on, and rewrite the parity block if it diverged (the
     * "parity page itself is the corrupt one" case -- only pass words
     * that every checksum over them validated, so the divergence is
     * provably the parity's). Returns true when rewritten.
     */
    bool
    scrubGroupParity(Env &env, std::size_t g, const std::uint64_t *stored)
    {
        const std::size_t lo = g * groupRegions;
        const std::size_t hi =
            lo + groupRegions < covered_ ? lo + groupRegions : covered_;
        if (lo >= hi)
            return false;
        std::uint64_t want[regionWords] = {};
        for (std::size_t r = 0; r < hi - lo; ++r) {
            for (std::size_t w = 0; w < regionWords; ++w)
                want[w] ^= stored[r * regionWords + w];
            env.tick(regionWords);
        }
        std::uint64_t *par = groupParity(g);
        bool diff = false;
        for (std::size_t w = 0; w < regionWords; ++w)
            if (env.ldStream(&par[w]) != want[w])
                diff = true;
        if (!diff)
            return false;
        for (std::size_t w = 0; w < regionWords; ++w)
            env.st(&par[w], want[w]);
        env.clwb(par);
        return true;
    }

    /// @name Introspection for fault injection (store FaultSurface).
    /// @{
    const void *parityBlocks() const { return parity_; }
    std::size_t parityBytes() const
    {
        return groups_ * regionBytes;
    }
    const void *header() const { return hdr_; }
    /// @}

  private:
    struct Header
    {
        std::uint64_t covered;
        std::uint64_t lastSealed;
        std::uint64_t check;
        std::uint64_t pad[5];
    };
    static_assert(sizeof(Header) == regionBytes);

    std::uint64_t *
    groupParity(std::size_t g)
    {
        return &parity_[g * regionWords];
    }

    std::size_t
    sealedRegions(std::size_t sealedBytes) const
    {
        const std::size_t r = sealedBytes / regionBytes;
        return r < regions_ ? r : regions_;
    }

    /**
     * Cover regions [covered_, @p newCov): recompute the XOR parity
     * line of each group they touch, from its first region on
     * (@p stored starts at pendingRegion()), and stream it out whole.
     */
    void
    coverTo(Env &env, std::size_t newCov, const std::uint64_t *stored)
    {
        if (newCov <= covered_)
            return;
        const std::size_t first = pendingRegion();
        for (std::size_t lo = first; lo < newCov; lo += groupRegions) {
            const std::size_t hi =
                lo + groupRegions < newCov ? lo + groupRegions : newCov;
            std::uint64_t par[regionWords] = {};
            for (std::size_t r = lo; r < hi; ++r) {
                const std::uint64_t *w8 =
                    stored + (r - first) * regionWords;
                for (std::size_t w = 0; w < regionWords; ++w)
                    par[w] ^= w8[w];
                env.tick(2 * regionWords);
            }
            streamLine(env, groupParity(lo / groupRegions), par);
        }
        covered_ = newCov;
    }

    /** Write one whole 64B line with back-to-back streaming stores. */
    static void
    streamLine(Env &env, std::uint64_t *dst, const std::uint64_t *src)
    {
        for (std::size_t w = 0; w < regionWords; ++w)
            env.stStream(&dst[w], src[w]);
    }

    void
    storeHeader(Env &env)
    {
        env.st(&hdr_->covered, std::uint64_t(covered_));
        env.st(&hdr_->lastSealed, lastSealed_);
        env.st(&hdr_->check,
               parityHeaderCheck(covered_, lastSealed_));
        env.tick(3);
    }

    const std::uint64_t *words_;
    std::size_t regions_;
    std::size_t groups_;
    std::uint64_t *parity_ = nullptr;
    Header *hdr_ = nullptr;

    std::size_t covered_ = 0;
    std::uint64_t lastSealed_ = 0;
};

} // namespace lp::repair

#endif // LP_REPAIR_PARITY_HH
