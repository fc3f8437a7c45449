/**
 * @file
 * Non-template helpers of lp::repair: the mixing hash behind the
 * journal's batch digest and the metadata check words, and the
 * parity geometry shared between RegionParity (repair/parity.hh) and
 * the store's arena budget (store/store.cc).
 *
 * Geometry: the protected buffer is cut into 64-byte REGIONS (one
 * cache block, the unit the simulated NVMM persists atomically) and
 * every 8 consecutive regions form a GROUP sharing one 64-byte XOR
 * parity block -- Pangolin's parity scheme at ~12.5% space. Parity
 * holds no checksum of its own: the owner's checksum accepts a
 * reconstruction only when it reproduces the committed bytes.
 */

#ifndef LP_REPAIR_REPAIR_HH
#define LP_REPAIR_REPAIR_HH

#include <cstddef>
#include <cstdint>

namespace lp::repair
{

/** Bytes per protected region: one cache block. */
inline constexpr std::size_t regionBytes = 64;

/** 64-bit words per region. */
inline constexpr std::size_t regionWords =
    regionBytes / sizeof(std::uint64_t);

/** Regions sharing one XOR parity block. */
inline constexpr std::size_t groupRegions = 8;

/** splitmix64 finalizer: the avalanche mixer behind every check word. */
std::uint64_t mix64(std::uint64_t x);

/** Whole regions a buffer of @p dataBytes holds (floor). */
std::size_t parityRegionCount(std::size_t dataBytes);

/** Parity groups covering @p regions regions (ceil). */
std::size_t parityGroupCount(std::size_t regions);

/**
 * Arena bytes RegionParity allocates for a @p dataBytes buffer
 * (parity blocks + header), before per-allocation
 * block-alignment padding.
 */
std::size_t parityArenaBytes(std::size_t dataBytes);

/**
 * Check word sealing a (coveredRegions, lastSealedEpoch) header pair.
 * Never zero, so an all-zero (freshly formatted or dead) header block
 * always reads as invalid.
 */
std::uint64_t parityHeaderCheck(std::uint64_t covered,
                                std::uint64_t lastSealed);

/**
 * Check word sealing a shard superblock's (foldedEpoch, flags,
 * appliedSeq) words; same never-zero guarantee as parityHeaderCheck.
 * An appliedSeq of 0 leaves the (foldedEpoch, flags) check as it is.
 */
std::uint64_t shardMetaCheck(std::uint64_t foldedEpoch,
                             std::uint64_t flags,
                             std::uint64_t appliedSeq = 0);

} // namespace lp::repair

#endif // LP_REPAIR_REPAIR_HH
