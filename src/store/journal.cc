#include "store/journal.hh"

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

} // namespace lp::store
