/**
 * @file
 * The eager per-op baseline backend of `lp::store`: every mutation
 * is applied to the table and persisted in place with clwb + sfence
 * (the Intel PMEM idiom, Section II-A). clwb, not clflushopt, so the
 * slot's line stays cached clean and a GET of a hot key after its PUT
 * hits instead of reading NVMM again. There is nothing to
 * batch, fold, or replay -- each op is its own durably-committed
 * epoch, which the pipeline models as batchOps = 1 (so the epoch a
 * stage() returns doubles as the shard's op sequence number, and
 * group-commit consumers like lp::server need no special case).
 */

#ifndef LP_STORE_BACKEND_EAGER_HH
#define LP_STORE_BACKEND_EAGER_HH

#include "store/backend.hh"

namespace lp::store
{

template <typename Env>
class EagerBackend : public PersistencyBackend<Env>
{
    using Base = PersistencyBackend<Env>;
    using Base::cfg;
    using Base::pipeline;
    using Base::table;

  public:
    EagerBackend(const StoreContext<Env> &ctx, bool attach) : Base(ctx)
    {
        for (int i = 0; i < cfg().shards; ++i)
            this->allocMeta(attach);
    }

    std::uint64_t
    stage(Env &env, int shard, JOp op, std::uint64_t key,
          std::uint64_t value) override
    {
        if (op == JOp::Applied) {
            // The part's ops are already durable in place: one
            // superblock write records it.
            this->setApplied(shard, value);
            this->persistMeta(env, shard, 0, 0);
            env.sfence();
            return pipeline(shard).lastCommitted();
        }
        KvSlot *slot =
            table().applyOp(env, op == JOp::Put, key, value);
        if (slot) {
            env.clwb(slot);
            env.sfence();
        }
        env.onRegionCommit();
        auto &pl = pipeline(shard);
        pl.beginEpoch();
        pl.stageOp();
        pl.commitEpoch();
        pl.syncDurable();
        return pl.lastCommitted();
    }

    void
    commitEpoch(Env &env, int shard) override
    {
        // Nothing is ever open: each op commits inside stage().
        (void)env;
        (void)shard;
    }

    void
    recover(Env &env, int shard, RecoveryReport &rep) override
    {
        // Every op was persisted in place; the table is already
        // consistent. The superblock pair still carries the clean-
        // shutdown flag and can rot, so it is audited (and repaired
        // from its twin) like every backend's.
        const auto ms = this->auditMeta(env, shard, &rep);
        this->setApplied(shard, ms.ok ? this->durableAppliedSeq(shard) : 0);
        if (ms.ok) {
            this->persistMeta(env, shard, 0, 0);
            env.sfence();
        }
        // The op-sequence numbering restarts at zero.
        pipeline(shard).rebase(0);
        rep.committedEpochs[std::size_t(shard)] = 0;
    }
};

} // namespace lp::store

#endif // LP_STORE_BACKEND_EAGER_HH
