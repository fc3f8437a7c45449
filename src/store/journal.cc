#include "store/journal.hh"

#include <bit>

namespace lp::store
{

std::size_t
journalCapacity(const StoreConfig &cfg)
{
    // foldBatches batches between folds plus slack for the batch that
    // triggers the fold and one more opening before the room check,
    // each batch costing batchOps records + 1 trailer.
    return std::size_t(cfg.foldBatches + 2) * (cfg.batchOps + 1);
}

std::uint64_t
epochWindowFor(const StoreConfig &cfg)
{
    return std::bit_ceil(4ull * cfg.foldBatches);
}

std::uint64_t
checksumEpochKey(int shard, std::uint64_t epoch, std::uint64_t window)
{
    return (std::uint64_t(shard + 1) << 40) | (epoch & (window - 1));
}

std::size_t
checksumEpochSlot(int shard, std::uint64_t epoch, std::uint64_t window)
{
    return std::size_t(std::uint64_t(shard) * window +
                       (epoch & (window - 1)));
}

} // namespace lp::store
