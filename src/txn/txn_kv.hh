/**
 * @file
 * txn::TxnKv -- the embedded (single-threaded) transactional facade
 * over a multi-shard KvStore, running the full cross-shard commit
 * protocol inline: lock acquisition, Add-delta resolution, PREPARE
 * publication, the DecisionLog append (the durability point), lazy
 * applies, applied markers, and gated slot frees.
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
 *    batches, WAL rolls back incomplete ones). No prepare, no
 *    decision record: commit latency is one lazy stage -- this is
 *    where LP's latency win over WAL must survive, so single-shard
 *    transactions must not pay eager protocol writes.
 *  - General path (ops on several shards, more write ops than one
 *    epoch holds, forced, or the eager backend, whose per-op
 *    persists have no batch atomicity): PREPARE per shard with
 *    writes, one DecisionLog append, then lazy applies.
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

#include <cstddef>
#include <cstdint>
#include <deque>
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
#include "txn/prepare_log.hh"
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
        std::size_t prepareSlots = 64;     ///< per shard
        std::size_t decisionEntries = 1024;
    };

    /** Arena budget: store + per-shard prepare tables + decision
     *  ring, in the exact allocation order the constructor uses. */
    static std::size_t
    arenaBytes(const Config &c)
    {
        return store::storeArenaBytes(c.store) +
               std::size_t(c.store.shards) *
                   prepareLogBytes(c.prepareSlots) +
               decisionLogBytes(c.decisionEntries);
    }

    /** Commit-protocol steps the crash hook fires at. */
    enum class Step
    {
        PrePrepare,    ///< locks held, writes resolved, nothing durable
        MidPrepare,    ///< first participant prepared, others not
        PostPrepare,   ///< all votes durable, no decision
        PostDecision,  ///< decision durable, nothing applied
        MidApply,      ///< first write applied (lazily)
        PreMarker,     ///< all writes applied, no marker
        PostMarker,    ///< all markers durable
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
          backend_(backend)
    {
        for (int s = 0; s < cfg.store.shards; ++s)
            plogs_.emplace_back(arena, cfg.prepareSlots, attach);
        dlog_.emplace(arena, cfg.decisionEntries, attach);
        locks_.resize(std::size_t(cfg.store.shards));
        frees_.resize(std::size_t(cfg.store.shards));
    }

    store::KvStore<Env> &kv() { return kv_; }
    const Config &config() const { return cfg_; }
    std::uint64_t nextTxnId() const { return nextTxn_; }

    /**
     * Execute one transaction. @p forceGeneral routes even
     * single-shard transactions through prepare/decision (the crash
     * matrix uses this to reach every protocol step).
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
            hook(Step::PrePrepare);

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
        for (int s = 0; s < cfg_.store.shards; ++s)
            frees_[std::size_t(s)].sweep(env, kv_, s,
                                         plogs_[std::size_t(s)]);
        return res;
    }

    /**
     * Recover after a crash: journal replay, decision-index rebuild,
     * the txn decision rules, and a reset of all volatile protocol
     * state (locks, pending frees, id counter).
     */
    TxnRecoveryReport
    recover(Env &env)
    {
        const auto kvRep = kv_.recover(env);
        locks_.assign(std::size_t(cfg_.store.shards), LockTable{});
        for (auto &f : frees_)
            f.clear();
        const std::uint64_t decMax = dlog_->scan(env);
        std::vector<PrepareLog<Env> *> pls;
        for (auto &pl : plogs_)
            pls.push_back(&pl);
        auto rep = recoverTxns(env, kv_, pls, kvRep.committedEpochs,
                               dlog_->index());
        rep.maxTxnId = std::max(rep.maxTxnId, decMax);
        nextTxn_ = rep.maxTxnId + 1;
        return rep;
    }

    /** Full durability plus a pending-slot-free sweep. */
    void
    checkpoint(Env &env)
    {
        kv_.checkpoint(env);
        for (int s = 0; s < cfg_.store.shards; ++s)
            frees_[std::size_t(s)].sweep(env, kv_, s,
                                         plogs_[std::size_t(s)]);
    }

    /** Prepare slots awaiting their durability gate (tests). */
    std::size_t
    pendingSlotFrees() const
    {
        std::size_t n = 0;
        for (const auto &f : frees_)
            n += f.size();
        return n;
    }

  private:
    void
    commitGeneral(Env &env, TxnId id, const std::vector<WriteOp> &all,
                  const Hook &hook)
    {
        // Per-shard write-sets, keys in first-write order.
        std::map<int, std::vector<WriteOp>> writes;
        for (const auto &w : all)
            writes[kv_.shardOf(w.key)].push_back(w);

        std::vector<std::size_t> slots;
        bool first = true;
        for (const auto &[shard, ws] : writes) {
            auto &pl = plogs_[std::size_t(shard)];
            const std::size_t slot = allocSlot(
                env, kv_, shard, pl, frees_[std::size_t(shard)]);
            LP_ASSERT(slot != PrepareLog<Env>::npos,
                      "prepare table exhausted");
            pl.publish(env, slot, id, ws.data(), ws.size());
            slots.push_back(slot);
            if (first && writes.size() > 1 && hook)
                hook(Step::MidPrepare);
            first = false;
        }
        if (hook)
            hook(Step::PostPrepare);

        dlog_->append(env, id);  // THE commit point
        if (hook)
            hook(Step::PostDecision);

        std::vector<std::uint64_t> epochs;
        bool firstApply = true;
        for (const auto &[shard, ws] : writes) {
            std::uint64_t e = 0;
            for (const auto &w : ws) {
                e = stageWrite(env, kv_, w);
                if (firstApply && hook)
                    hook(Step::MidApply);
                firstApply = false;
            }
            epochs.push_back(e);
        }
        if (hook)
            hook(Step::PreMarker);
        std::size_t i = 0;
        for (const auto &[shard, ws] : writes) {
            plogs_[std::size_t(shard)].markApplied(env, slots[i],
                                                   epochs[i]);
            frees_[std::size_t(shard)].add(slots[i], epochs[i]);
            ++i;
        }
        if (hook)
            hook(Step::PostMarker);
    }

    LockTable &
    lockTable(std::uint64_t key)
    {
        return locks_[std::size_t(kv_.shardOf(key))];
    }

    Config cfg_;
    store::KvStore<Env> kv_;
    store::Backend backend_;
    std::deque<PrepareLog<Env>> plogs_;
    std::optional<DecisionLog<Env>> dlog_;
    std::vector<LockTable> locks_;
    std::vector<GatedFrees> frees_;  ///< per shard
    TxnId nextTxn_ = 1;
};

} // namespace lp::txn

#endif // LP_TXN_TXN_KV_HH
