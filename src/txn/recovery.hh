/**
 * @file
 * txn recovery -- rolling committed transactions forward after a
 * crash.
 *
 * Runs after the store's own recovery, which leaves each shard at
 * its durable image and reports A, the highest decision seq whose
 * part that image holds (store::RecoveryReport::appliedSeqs). For
 * every decision-ring entry the rules are:
 *
 *   checksum invalid (a torn append) ............... ROLL BACK
 *       (the append never finished, so the client was never
 *        acknowledged and no shard applied it: nothing to undo)
 *   valid, seq <= A of a shard it touches ........... SKIP there
 *       (the part survived; re-applying it would clobber any later
 *        durable write to the same keys)
 *   valid, seq > A of a shard it touches ............ ROLL FORWARD
 *       (committed, but the part's lazy applies were lost)
 *
 * Roll-forwards run per shard in seq order -- commit order. Two
 * committed transactions can only overlap if the second locked after
 * the first released, and release happens after the decision, so
 * decision order is the correct last-writer-wins order. Each
 * roll-forward is an ordinary applyPart, Applied record included,
 * and a checkpoint ends the pass, so a crash during recovery simply
 * runs the same rules again.
 */

#ifndef LP_TXN_RECOVERY_HH
#define LP_TXN_RECOVERY_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "store/kv_store.hh"
#include "txn/decision_log.hh"
#include "txn/protocol.hh"

namespace lp::txn
{

struct TxnRecoveryReport
{
    std::uint64_t rolledForward = 0;  ///< committed parts re-applied
    std::uint64_t rolledBack = 0;     ///< torn decisions discarded
    std::uint64_t skipped = 0;        ///< committed parts already durable
    std::uint64_t opsReplayed = 0;    ///< individual writes re-applied
};

/**
 * Apply the rules above to @p kv, freshly recovered, over the valid
 * entries of @p dlog's last scan(). Only writes whose key @p mine
 * accepts belong to @p kv (a server worker's store holds one shard
 * of the key space). A quarantined shard is left as it is. Ends with
 * a checkpoint when anything was re-applied. rolledBack is the
 * coordinator's to fill (DecisionLog::torn()).
 */
template <typename Env, typename Mine>
TxnRecoveryReport
recoverTxns(Env &env, store::KvStore<Env> &kv,
            const DecisionLog<Env> &dlog, const Mine &mine)
{
    TxnRecoveryReport rep;
    std::vector<std::vector<WriteOp>> parts(
        std::size_t(kv.config().shards));
    dlog.forEachDecision(env, [&](std::uint64_t seq,
                                  const std::vector<WriteOp> &writes) {
        for (auto &p : parts)
            p.clear();
        for (const WriteOp &w : writes)
            if (mine(w.key))
                parts[std::size_t(kv.shardOf(w.key))].push_back(w);
        for (int s = 0; s < int(parts.size()); ++s) {
            const auto &part = parts[std::size_t(s)];
            if (part.empty() || kv.quarantined(s))
                continue;
            if (seq <= kv.durableAppliedSeq(s)) {
                ++rep.skipped;
                continue;
            }
            applyPart(env, kv, s, seq, part);
            ++rep.rolledForward;
            rep.opsReplayed += part.size();
        }
    });
    if (rep.rolledForward > 0)
        kv.checkpoint(env);
    return rep;
}

} // namespace lp::txn

#endif // LP_TXN_RECOVERY_HH
