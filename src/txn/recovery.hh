/**
 * @file
 * txn recovery -- replaying the commit-protocol decision after a
 * crash.
 *
 * Runs after the store's own journal recovery, which leaves each
 * shard at a durable watermark W (every epoch <= W replayed, later
 * epochs discarded). For every PREPARE slot the rules are:
 *
 *   slot checksum invalid ............................ ROLL BACK
 *       (a torn vote: the shard never finished preparing)
 *   valid, no decision record ........................ ROLL BACK
 *       (coordinator never committed; the client was not acked)
 *   valid, decision, marker valid and epoch <= W ..... SKIP
 *       (the applies survived replay; re-applying would clobber any
 *        *later* committed plain put to the same keys, which journal
 *        replay already restored)
 *   valid, decision, no marker or epoch > W .......... ROLL FORWARD
 *       (committed but the lazy applies were lost)
 *
 * Roll-forwards are re-applied in decision-sequence order -- commit
 * order. Two committed transactions can only overlap if the second
 * locked after the first released, and release happens after the
 * decision, so decision order is the correct last-writer-wins order.
 *
 * After re-applying, the store is checkpointed (making the applies
 * durable) and only then are slots freed; the frees themselves are
 * lazy, which is safe because a re-crash that loses a free simply
 * re-runs the (idempotent) skip/roll-forward analysis.
 */

#ifndef LP_TXN_RECOVERY_HH
#define LP_TXN_RECOVERY_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "store/kv_store.hh"
#include "txn/decision_log.hh"
#include "txn/prepare_log.hh"
#include "txn/protocol.hh"

namespace lp::txn
{

struct TxnRecoveryReport
{
    std::uint64_t slotsScanned = 0;
    std::uint64_t rolledForward = 0;  ///< committed, applies re-done
    std::uint64_t rolledBack = 0;     ///< undecided or torn votes freed
    std::uint64_t skipped = 0;        ///< committed and already durable
    std::uint64_t opsReplayed = 0;    ///< individual writes re-applied
    std::uint64_t maxTxnId = 0;       ///< for reseeding the id counter

    void
    merge(const TxnRecoveryReport &o)
    {
        slotsScanned += o.slotsScanned;
        rolledForward += o.rolledForward;
        rolledBack += o.rolledBack;
        skipped += o.skipped;
        opsReplayed += o.opsReplayed;
        maxTxnId = std::max(maxTxnId, o.maxTxnId);
    }
};

/**
 * Apply the decision rules over @p plogs (one per shard of @p kv;
 * entries may be null for shards without a prepare table).
 * @p watermarks are the per-shard committed epochs journal recovery
 * reported. @p dec is the coordinator's rebuilt decision index.
 * Ends with a checkpoint when anything was re-applied, then frees
 * resolved slots.
 */
template <typename Env>
TxnRecoveryReport
recoverTxns(Env &env, store::KvStore<Env> &kv,
            const std::vector<PrepareLog<Env> *> &plogs,
            const std::vector<std::uint64_t> &watermarks,
            const DecisionIndex &dec)
{
    TxnRecoveryReport rep;
    struct Pending
    {
        std::uint64_t seq;
        int shard;
        std::size_t slot;
        std::size_t nOps;
    };
    std::vector<Pending> forward;
    std::vector<std::pair<int, std::size_t>> resolved;

    for (int s = 0; s < int(plogs.size()); ++s) {
        PrepareLog<Env> *pl = plogs[std::size_t(s)];
        if (pl == nullptr)
            continue;
        const std::uint64_t w = watermarks[std::size_t(s)];
        for (std::size_t i = 0; i < pl->size(); ++i) {
            const auto v = pl->inspect(env, i);
            if (v.txnid == 0)
                continue;
            ++rep.slotsScanned;
            if (!v.valid) {
                pl->free(env, i);  // torn vote
                ++rep.rolledBack;
                continue;
            }
            rep.maxTxnId = std::max(rep.maxTxnId, v.txnid);
            const auto it = dec.seqOf.find(v.txnid);
            if (it == dec.seqOf.end()) {
                pl->free(env, i);  // prepared, never decided
                ++rep.rolledBack;
                continue;
            }
            if (v.applied && v.appliedEpoch <= w) {
                ++rep.skipped;
                resolved.emplace_back(s, i);
                continue;
            }
            forward.push_back(Pending{it->second, s, i, v.nOps});
        }
    }

    std::sort(forward.begin(), forward.end(),
              [](const Pending &a, const Pending &b) {
                  return a.seq < b.seq;
              });
    for (const auto &p : forward) {
        PrepareLog<Env> &pl = *plogs[std::size_t(p.shard)];
        std::uint64_t epoch = 0;
        for (std::size_t i = 0; i < p.nOps; ++i) {
            epoch = stageWrite(env, kv, pl.op(env, p.slot, i));
            ++rep.opsReplayed;
        }
        pl.markApplied(env, p.slot, epoch);
        resolved.emplace_back(p.shard, p.slot);
        ++rep.rolledForward;
    }
    if (!forward.empty())
        kv.checkpoint(env);
    for (const auto &[s, i] : resolved)
        plogs[std::size_t(s)]->free(env, i);
    return rep;
}

} // namespace lp::txn

#endif // LP_TXN_RECOVERY_HH
