/**
 * @file
 * The EagerRecompute baseline (Elnawawy et al., PACT 2017), the
 * state-of-the-art Eager Persistency scheme the paper compares
 * against (Section V-C).
 *
 * EagerRecompute is application-level in-place checkpointing: a
 * transaction covers one region (a tile); the program persists results
 * in place as it goes (no logging), then waits at the end of the
 * region until everything modified is durable, and finally persists a
 * progress marker. There is no guarantee of a precisely consistent
 * state *during* a region; on failure, recovery rolls back to the last
 * persisted marker and recomputes everything after it.
 *
 * The pieces here are the per-thread progress markers and the region
 * commit helper; the recompute recovery itself is kernel logic (each
 * kernel knows how to redo work after a marker).
 */

#ifndef LP_EP_EAGER_RECOMPUTE_HH
#define LP_EP_EAGER_RECOMPUTE_HH

#include <cstdint>

#include "base/logging.hh"
#include "ep/pmem_ops.hh"
#include "pmem/arena.hh"

namespace lp::ep
{

/**
 * Per-thread persistent progress markers. Each marker occupies its
 * own cache block so threads never contend on a line and a marker
 * flush persists exactly one marker.
 */
class ProgressMarkers
{
  public:
    /** Marker value meaning "no region completed yet". */
    static constexpr std::uint64_t none = ~0ull;

    ProgressMarkers(pmem::PersistentArena &arena, int num_threads)
        : numThreads(num_threads)
    {
        LP_ASSERT(num_threads > 0, "need at least one thread");
        // One block per marker to avoid false sharing.
        slots = static_cast<std::uint64_t *>(
            arena.allocRaw(static_cast<std::size_t>(num_threads) *
                           blockBytes));
        for (int t = 0; t < num_threads; ++t)
            *slot(t) = none;
    }

    /** Host pointer to thread @p t's marker word. */
    std::uint64_t *
    slot(int t)
    {
        LP_ASSERT(t >= 0 && t < numThreads, "bad thread id");
        return slots + static_cast<std::size_t>(t) *
                           (blockBytes / sizeof(std::uint64_t));
    }

    /** Uninstrumented read for recovery on the restored image. */
    std::uint64_t
    value(int t)
    {
        return *slot(t);
    }

  private:
    std::uint64_t *slots;
    int numThreads;
};

/**
 * The marker half of an EagerRecompute region commit, once the
 * region's stores are flushed and fenced: persist @p marker_value as
 * @p thread's progress marker, fence, and count the commit.
 */
template <typename Env>
void
commitMarker(Env &env, ProgressMarkers &markers, int thread,
             std::uint64_t marker_value)
{
    std::uint64_t *m = markers.slot(thread);
    env.st(m, marker_value);
    env.clflushopt(m);
    env.sfence();
    env.onRegionCommit();
}

/**
 * Commit one EagerRecompute region: flush every range the region
 * modified, fence, then persist the progress marker. Two fences per
 * region -- the scheme's fundamental cost (vs. four for WAL and zero
 * for Lazy Persistency).
 *
 * @param ranges  (pointer, bytes) pairs covering the region's stores
 */
template <typename Env, typename Ranges>
void
eagerCommitRegion(Env &env, const Ranges &ranges,
                  ProgressMarkers &markers, int thread,
                  std::uint64_t marker_value)
{
    for (const auto &[p, bytes] : ranges)
        flushRange(env, p, bytes);
    env.sfence();
    commitMarker(env, markers, thread, marker_value);
}

} // namespace lp::ep

#endif // LP_EP_EAGER_RECOMPUTE_HH
