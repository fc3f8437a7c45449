#include "repair/repair.hh"

namespace lp::repair
{

std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

std::size_t
parityRegionCount(std::size_t dataBytes)
{
    return dataBytes / regionBytes;
}

std::size_t
parityGroupCount(std::size_t regions)
{
    return (regions + groupRegions - 1) / groupRegions;
}

std::size_t
parityArenaBytes(std::size_t dataBytes)
{
    const std::size_t regions = parityRegionCount(dataBytes);
    // One parity line per group, plus the header block.
    return (parityGroupCount(regions) + 1) * regionBytes;
}

namespace
{

std::uint64_t
neverZero(std::uint64_t w)
{
    return w == 0 ? 1 : w;
}

} // namespace

std::uint64_t
parityHeaderCheck(std::uint64_t covered, std::uint64_t lastSealed)
{
    return neverZero(
        mix64(covered ^ mix64(lastSealed ^ 0x7061726974796864ull)));
}

std::uint64_t
shardMetaCheck(std::uint64_t foldedEpoch, std::uint64_t flags,
               std::uint64_t appliedSeq)
{
    const std::uint64_t h =
        mix64(foldedEpoch ^ mix64(flags ^ 0x73686172646d6574ull));
    return neverZero(appliedSeq == 0 ? h : mix64(h ^ appliedSeq));
}

} // namespace lp::repair
