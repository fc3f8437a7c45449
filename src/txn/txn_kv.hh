/**
 * @file
 * txn::TxnKv -- the embedded (single-threaded) transactional facade
 * over a multi-shard KvStore, running the full cross-shard commit
 * protocol inline: lock acquisition, Add-delta resolution, the
 * DecisionLog append (the durability point, carrying the write-set),
 * and the lazy applies with their Applied records.
 *
 * This is the same protocol lp::server's acceptor/worker split runs
 * across threads, from the same txn/protocol.hh, collapsed into one
 * call stack so the crash matrix can kill it at every named step (the
 * Hook) and the sim can account every persistent store. Two commit
 * paths, chosen by txn::fastPath():
 *
 *  - Fast path (every op on one shard, batching backend, write ops
 *    fit one epoch): writes are staged as one epoch, which the
 *    backend already makes crash-atomic (LP discards unsealed
 *    batches, WAL rolls back incomplete ones). No decision record:
 *    commit latency is one lazy stage -- this is where LP's latency
 *    win over WAL must survive, so single-shard transactions must
 *    not pay eager protocol writes.
 *  - General path (ops on several shards, more write ops than one
 *    epoch holds, forced, or the eager backend, whose per-op
 *    persists have no batch atomicity): one DecisionLog append
 *    holding the whole write-set, then each shard's lazy applies.
 *
 * Read semantics: ops execute in order against an overlay, so a Get
 * after a Put/Add in the same transaction sees the transaction's own
 * write; Gets before it see pre-transaction state. Locks make the
 * whole transaction atomic against concurrent transactions (in the
 * server); here they mostly exercise the same code paths.
 *
 * After a crash (CrashException from the hook or the sim), callers
 * MUST recover() before using the instance again, mirroring the
 * KvStore contract.
 */

#ifndef LP_TXN_TXN_KV_HH
#define LP_TXN_TXN_KV_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <numeric>
#include <optional>
#include <utility>
#include <vector>

#include "store/kv_store.hh"
#include "store/layout.hh"
#include "txn/decision_log.hh"
#include "txn/lock_table.hh"
#include "txn/protocol.hh"
#include "txn/recovery.hh"

namespace lp::txn
{

template <typename Env>
class TxnKv
{
  public:
    struct Config
    {
        store::StoreConfig store;
        std::size_t decisionEntries = 1024;
    };

    /** Arena budget: store + decision ring, in the exact allocation
     *  order the constructor uses. */
    static std::size_t
    arenaBytes(const Config &c)
    {
        return store::storeArenaBytes(c.store) +
               decisionLogBytes(c.decisionEntries);
    }

    /** Commit-protocol steps the crash hook fires at. PrePrepare,
     *  PostPrepare, PreMarker and PostMarker keep their names from
     *  the PREPARE-log protocol, which fixes the crash-matrix test
     *  IDs; the comments say where each fires now. */
    enum class Step
    {
        PrePrepare,    ///< id taken, no lock held, nothing read
        PreDecision,   ///< locks held, writes resolved, nothing durable
        PostPrepare,   ///< decision-ring entry reserved, append not begun
        TornDecision,  ///< the decision append is about to start
        PostDecision,  ///< decision durable, nothing applied
        MidApply,      ///< first participant's part applied (lazily)
        PreMarker,     ///< every write staged, last Applied record not
        PostApply,     ///< every part applied with its Applied record
        PostMarker,    ///< locks released, the transaction complete
    };

    /** May throw pmem::CrashException to simulate dying there. */
    using Hook = std::function<void(Step)>;

    using Op = txn::Op;

    struct Result
    {
        bool committed = false;
        /** One {found, value} per Get, in op order. */
        std::vector<std::pair<bool, std::uint64_t>> reads;
    };

    TxnKv(pmem::PersistentArena &arena, const Config &cfg,
          store::Backend backend, bool attach = false)
        : cfg_(cfg), kv_(arena, cfg.store, backend, attach),
          backend_(backend), dlog_(arena, cfg.decisionEntries, attach)
    {
        locks_.resize(std::size_t(cfg.store.shards));
    }

    store::KvStore<Env> &kv() { return kv_; }

    /** Host pointer to the decision ring (fault injection). */
    const void *decisionRing() const { return dlog_.data(); }
    const Config &config() const { return cfg_; }
    std::uint64_t nextTxnId() const { return nextTxn_; }

    /**
     * Execute one transaction. @p forceGeneral routes even
     * single-shard transactions through the decision record (the
     * crash matrix uses this to reach every protocol step).
     */
    Result
    run(Env &env, const std::vector<Op> &ops, const Hook &hook = {},
        bool forceGeneral = false)
    {
        LP_ASSERT(!ops.empty() && ops.size() <= maxTxnWriteOps,
                  "transaction op count out of range");
        const TxnId id = nextTxn_++;
        Result res;
        std::vector<std::uint32_t> all(ops.size());
        std::iota(all.begin(), all.end(), 0u);

        if (hook)
            hook(Step::PrePrepare);
        const LockPlan locks = lockPlan(ops, all);
        for (std::size_t i = 0; i < locks.keys.size(); ++i) {
            const auto got = lockTable(locks.keys[i])
                                 .acquire(id, locks.keys[i],
                                          locks.modes[i]);
            LP_ASSERT(got == Acquire::Granted,
                      "embedded txn lock conflict (single-threaded)");
        }
        const std::vector<WriteOp> writes = resolve(
            ops, all,
            [&](std::uint64_t key) { return kv_.get(env, key); },
            [&](std::uint32_t, const std::optional<std::uint64_t> &v) {
                res.reads.emplace_back(v.has_value(), v.value_or(0));
            });
        if (hook)
            hook(Step::PreDecision);

        const auto shardOf = [&](std::uint64_t key) {
            return kv_.shardOf(key);
        };
        if (writes.empty()) {
            // Read-only: nothing to make durable on either path.
        } else if (!forceGeneral &&
                   fastPath(ops, shardOf, backend_,
                            cfg_.store.batchOps)) {
            stageOneEpoch(env, kv_, shardOf(writes.front().key),
                          writes);
        } else {
            commitGeneral(env, id, writes, hook);
        }
        res.committed = true;
        LockTable::Events ev;
        for (const auto k : locks.keys)
            lockTable(k).release(id, k, ev);
        LP_ASSERT(ev.granted.empty() && ev.died.empty(),
                  "embedded txn released onto waiters");
        if (hook)
            hook(Step::PostMarker);
        return res;
    }

    /**
     * Recover after a crash: store recovery, decision-ring scan, the
     * txn roll-forward rules, the next seq moved past every shard's
     * applied seq, and a reset of all volatile protocol state (locks,
     * id counter).
     */
    TxnRecoveryReport
    recover(Env &env)
    {
        kv_.recover(env);
        locks_.assign(std::size_t(cfg_.store.shards), LockTable{});
        nextTxn_ = dlog_.scan(env) + 1;
        auto rep = recoverTxns(env, kv_, dlog_,
                               [](std::uint64_t) { return true; });
        rep.rolledBack = dlog_.torn();
        std::uint64_t applied = 0;
        for (int s = 0; s < cfg_.store.shards; ++s)
            applied = std::max(applied, kv_.durableAppliedSeq(s));
        dlog_.advancePast(applied);
        return rep;
    }

    /** Full durability: every applied part durable, the ring free. */
    void checkpoint(Env &env) { kv_.checkpoint(env); }

  private:
    void
    commitGeneral(Env &env, TxnId id, const std::vector<WriteOp> &all,
                  const Hook &hook)
    {
        // Per-shard parts, keys in first-write order.
        std::map<int, std::vector<WriteOp>> parts;
        for (const auto &w : all)
            parts[kv_.shardOf(w.key)].push_back(w);
        std::vector<int> shards;
        for (const auto &[shard, part] : parts)
            shards.push_back(shard);

        // The ring's pressure valve: a checkpoint makes every applied
        // part durable, which frees every entry.
        const auto durableSeqOf = [&](int s) {
            return kv_.durableAppliedSeq(s);
        };
        if (!dlog_.reserve(durableSeqOf)) {
            kv_.checkpoint(env);
            LP_ASSERT(dlog_.reserve(durableSeqOf),
                      "decision ring pinned after a checkpoint");
        }
        if (hook) {
            hook(Step::PostPrepare);
            hook(Step::TornDecision);
        }
        const std::uint64_t seq =
            dlog_.append(env, id, all, std::move(shards));  // THE commit
        if (hook)
            hook(Step::PostDecision);

        // applyPart, spelled out so the hook can land between the
        // last part's writes and its Applied record.
        std::size_t left = parts.size();
        for (const auto &[shard, part] : parts) {
            for (const auto &w : part)
                stageWrite(env, kv_, w);
            if (--left == 0 && hook)
                hook(Step::PreMarker);
            kv_.stageApplied(env, shard, seq);
            if (left + 1 == parts.size() && hook)
                hook(Step::MidApply);
        }
        if (hook)
            hook(Step::PostApply);
    }

    LockTable &
    lockTable(std::uint64_t key)
    {
        return locks_[std::size_t(kv_.shardOf(key))];
    }

    Config cfg_;
    store::KvStore<Env> kv_;
    store::Backend backend_;
    DecisionLog<Env> dlog_;
    std::vector<LockTable> locks_;
    TxnId nextTxn_ = 1;
};

} // namespace lp::txn

#endif // LP_TXN_TXN_KV_HH
