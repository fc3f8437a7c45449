#include "store/layout.hh"

#include <bit>

#include "base/logging.hh"
#include "base/types.hh"
#include "store/backend.hh"
#include "store/journal.hh"

namespace lp::store
{

std::string
backendName(Backend b)
{
    switch (b) {
      case Backend::Lp:         return "lp";
      case Backend::EagerPerOp: return "eager";
      case Backend::Wal:        return "wal";
    }
    return "?";
}

Backend
parseBackend(const std::string &s)
{
    if (s == "lp")
        return Backend::Lp;
    if (s == "eager")
        return Backend::EagerPerOp;
    if (s == "wal")
        return Backend::Wal;
    fatal("unknown store backend '" + s + "' (lp | eager | wal)");
}

engine::CommitPolicy
commitPolicyFor(Backend backend, const StoreConfig &cfg)
{
    engine::CommitPolicy pol;
    // The eager backend persists each op in place: every mutation is
    // its own durably-committed epoch, so its pipeline runs with
    // one-op batches and the epoch number doubles as an op sequence.
    pol.batchOps = backend == Backend::EagerPerOp ? 1 : cfg.batchOps;
    pol.foldBatches = cfg.foldBatches;
    return pol;
}

std::size_t
storeArenaBytes(const StoreConfig &cfg)
{
    // Mirrors the backends' allocation geometry (journal.cc helpers),
    // over-approximated: charge the union of every backend's
    // structures so one budget fits all three, then pad
    // per-allocation block alignment and arena slack.
    const std::size_t slots = std::bit_ceil(
        cfg.capacity * 2 < 64 ? std::size_t{64} : cfg.capacity * 2);
    const std::size_t jcap = journalCapacity(cfg);
    const std::size_t walEntries = 2 * std::size_t(cfg.batchOps) + 8;

    std::size_t bytes = slots * 16 + std::size_t(cfg.shards) *
             (2 * sizeof(ShardMeta) +       // superblock pair
              jcap * sizeof(JEntry) +       // journal
              repair::parityArenaBytes(     // parity + coverage
                  jcap * sizeof(JEntry)) +  //   header
              walEntries * 16 + 2 * 64);    // WAL log + count + status
    // ~10 allocations per shard plus 4 global, each padded to a block.
    bytes += (std::size_t(cfg.shards) * 10 + 10) * blockBytes;
    return bytes + 4096;
}

} // namespace lp::store
