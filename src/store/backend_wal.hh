/**
 * @file
 * The write-ahead-logging baseline backend of `lp::store`: the same
 * batches the LP backend journals are instead grouped into
 * undo-logged durable transactions (Figure 2) over the table.
 *
 * Probe targets depend on earlier ops in the same batch, so a batch
 * is first PLANNED: each op is resolved against a scratch view of
 * the table (raw host writes, recording pre- and post-images), then
 * the scratch writes are reverted and the real mutation runs under a
 * WalTx. The batch names every key before the plan touches the
 * first, so each op's home line is prefetched
 * SlotTable::prefetchDistance ops ahead of planning it, as the LP
 * fold does, and the batch's independent table misses overlap. The
 * transaction persists with clwb: the log, status, superblock and
 * table lines stay cached clean, so the next batch's log appends
 * and the GETs that follow hit instead of reading NVMM again. The
 * shard's durable epoch watermark joins the transaction, making
 * "which batches committed" exact for recovery verification.
 */

#ifndef LP_STORE_BACKEND_WAL_HH
#define LP_STORE_BACKEND_WAL_HH

#include <memory>
#include <unordered_set>
#include <vector>

#include "ep/wal.hh"
#include "obs/shard_obs.hh"
#include "store/backend.hh"

namespace lp::store
{

template <typename Env>
class WalBackend : public PersistencyBackend<Env>
{
    using Base = PersistencyBackend<Env>;
    using Base::cfg;
    using Base::pipeline;
    using Base::table;

  public:
    WalBackend(const StoreContext<Env> &ctx, bool attach) : Base(ctx)
    {
        shards_.reserve(std::size_t(cfg().shards));
        for (int i = 0; i < cfg().shards; ++i) {
            Shard sh;
            sh.meta = this->allocMeta(attach);
            // Up to two table words per op, plus the six superblock
            // words (epoch/flags/check on both copies) and slack: an
            // Applied record takes an op's place and adds two.
            sh.wal = std::make_unique<ep::WalArea>(
                *ctx.arena, 2 * std::size_t(cfg().batchOps) + 8,
                attach);
            shards_.push_back(std::move(sh));
        }
    }

    std::uint64_t
    stage(Env &env, int shard, JOp op, std::uint64_t key,
          std::uint64_t value) override
    {
        Shard &sh = shards_[std::size_t(shard)];
        auto &pl = pipeline(shard);
        if (!pl.epochOpen())
            pl.beginEpoch();
        const std::uint64_t epoch = pl.openEpoch();
        if (op == JOp::Applied) {
            this->stageApplied(shard, value);
        } else {
            sh.pending.push_back(PendingOp{op, key, value});
            this->delta(shard)[key] = DeltaVal{op == JOp::Put, value};
        }
        env.tick(4);
        if (pl.stageOp())
            commitEpoch(env, shard);
        return epoch;
    }

    /** Commit one batch as an undo-logged durable transaction. */
    void
    commitEpoch(Env &env, int shard) override
    {
        Shard &sh = shards_[std::size_t(shard)];
        auto &pl = pipeline(shard);
        // An Applied record not yet durable is the batch's only
        // trace when it carries no op.
        const std::uint64_t seq = this->appliedSeq(shard);
        const bool applied = seq != this->durableAppliedSeq(shard);
        if (sh.pending.empty() && !applied)
            return;
        const std::uint64_t epoch = pl.openEpoch();
        obs::ShardObs *ob = pl.obs();
        obs::Span span(obs::ringOf(ob), "wal_commit", epoch,
                       pl.openTraceId(), ob ? &ob->commitNs : nullptr);
        struct PlanWrite
        {
            std::uint64_t *ptr;
            std::uint64_t old;
            std::uint64_t neu;
        };
        std::vector<PlanWrite> plan;
        std::size_t claims = 0;
        auto planStore = [&plan](std::uint64_t *p, std::uint64_t v) {
            plan.push_back(PlanWrite{p, *p, v});
            *p = v;
        };
        table().walkPrefetched(
            env, sh.pending, [](const PendingOp &op) { return op.key; },
            [&](const PendingOp &op) {
                const auto r = table().applyOpWith(
                    env, op.op == JOp::Put, op.key, op.value, planStore);
                if (r.claimedEmpty)
                    ++claims;
            });
        // The watermark advance joins the transaction -- on BOTH
        // superblock copies, check words restated so the pair stays
        // valid at every durable point -- and so does the applied
        // seq of a batch that carries an Applied record.
        const std::uint64_t flags = seq != 0 ? shardAppliedSeq : 0;
        for (ShardMeta *c :
             {sh.meta, this->replicas_[std::size_t(shard)]}) {
            planStore(&c->foldedEpoch, epoch);
            planStore(&c->flags, flags);
            if (applied)
                planStore(&c->appliedSeq, seq);
            planStore(&c->check,
                      repair::shardMetaCheck(epoch, flags, seq));
        }
        for (auto it = plan.rbegin(); it != plan.rend(); ++it)
            *(it->ptr) = it->old;

        ep::WalTx<Env> tx(env, *sh.wal, ep::WriteBack::Clwb);
        // Log only the first pre-image of each word: applyUndo()
        // replays the log forward, so a later duplicate would win and
        // restore an intra-batch intermediate value.
        std::unordered_set<std::uint64_t *> logged;
        for (const PlanWrite &w : plan)
            if (logged.insert(w.ptr).second)
                tx.logKnown(w.ptr, w.old);
        tx.seal();
        for (const PlanWrite &w : plan)
            env.st(w.ptr, w.neu);
        tx.commit();

        for (std::size_t c = 0; c < claims; ++c)
            table().noteClaim();
        pl.commitEpoch();
        pl.syncDurable();
        this->promoteApplied(shard);
        sh.pending.clear();
        this->delta(shard).clear();
        env.onRegionCommit();
    }

    void
    recover(Env &env, int shard, RecoveryReport &rep) override
    {
        Shard &sh = shards_[std::size_t(shard)];
        if (ep::applyUndo(env, *sh.wal)) {
            rep.walUndone = true;
            ++rep.batchesDiscarded;
        }
        // The undo pass has restored any torn transaction, so the
        // superblock pair is back at a transaction boundary; an
        // invalid check word now is a media fault.
        const auto ms = this->auditMeta(env, shard, &rep);
        sh.pending.clear();
        this->delta(shard).clear();
        this->setApplied(shard, ms.ok ? this->durableAppliedSeq(shard) : 0);
        if (!ms.ok) {
            pipeline(shard).rebase(0);
            rep.committedEpochs[std::size_t(shard)] = 0;
            return;
        }
        const std::uint64_t committed = ms.epoch;
        this->persistMeta(env, shard, committed, 0);
        env.sfence();
        pipeline(shard).rebase(committed);
        rep.committedEpochs[std::size_t(shard)] = committed;
    }

  private:
    struct PendingOp
    {
        JOp op;
        std::uint64_t key;
        std::uint64_t value;
    };

    struct Shard
    {
        ShardMeta *meta = nullptr;
        std::unique_ptr<ep::WalArea> wal;

        /** This batch's ops, in arrival order (for the plan phase). */
        std::vector<PendingOp> pending;
    };

    std::vector<Shard> shards_;
};

} // namespace lp::store

#endif // LP_STORE_BACKEND_WAL_HH
