/**
 * @file
 * The persistency-backend contract of the `lp::store` key-value
 * store (docs/engine_design.md is the narrative version).
 *
 * A backend is the policy that makes mutations durable. It owns the
 * per-shard persistent structures its discipline needs (journal,
 * parity, WAL, metadata blocks) and mutates the shared
 * SlotTable through the StoreContext; epoch numbering and
 * batch/fold/deadline accounting are delegated to the per-shard
 * engine::CommitPipeline so the same scheduling drives the store and
 * lp::server.
 *
 * Hook contract (all per shard; see each backend for its story):
 *
 *  - stage(op): admit one mutation into the open epoch, committing
 *    (and folding) when the pipeline says the period elapsed; returns
 *    the epoch the op landed in. JOp::Applied (value = a transaction
 *    decision seq) is not a mutation but the shard's record that it
 *    applied its part of that decision: it rides the same durability
 *    unit as the ops staged before it -- an LP journal record, the
 *    WAL batch's superblock update, or (eager) one superblock write
 *    -- and a durable one lands in ShardMeta::appliedSeq.
 *  - commitEpoch(): close and commit the open epoch even if
 *    underfilled (group-commit deadline, checkpoint).
 *  - fold(): eager checkpoint -- make every committed epoch durable
 *    in the table. No-op for backends whose commit is already
 *    durable (eager, WAL).
 *  - recover(): rebuild from the durable image after a crash; must
 *    leave the shard ready for new mutations and the pipeline
 *    rebased to the committed watermark. Attempts media-fault repair
 *    (parity reconstruction, superblock replicas) before falling
 *    back to epoch discard, and quarantines on provable-but-
 *    unrepairable corruption (docs/repair_design.md).
 *  - scrub(): incremental online validate-and-repair walk over the
 *    backend's sealed media-protected structures; bounded work per
 *    call so the caller (the server's idle loop) can rate-limit it.
 *
 * Read-your-writes over mutations that are staged but not yet
 * applied to the table is shared, not a hook: a backend that stages
 * (LP until the fold, WAL until the batch commits) records each
 * mutation's coalesced effect in delta(shard), and staged() /
 * mergeStaged() read it for every backend (eager never stages, so
 * its delta stays empty).
 *
 * Media-fault tolerance plumbing shared by ALL backends lives here:
 * every shard's superblock (ShardMeta) is kept in TWO copies sealed
 * by a check word, so recovery can prove corruption (a crash leaves
 * each block-atomic copy self-consistent) and repair from the twin.
 * Per-shard MediaCounters record repairs/unrepairable faults for
 * STATS/METRICS; unrepairable > 0 means the shard is QUARANTINED
 * (callers must stop mutating it; lp::server serves it read-only).
 *
 * Allocation-order determinism: a backend's constructor must
 * allocate its arena structures in a fixed order (globals first,
 * then per shard), because attach mode re-derives offsets purely by
 * re-running the same allocation sequence over the existing image.
 * allocMeta() allocates the superblock replica immediately after the
 * primary, preserving that order for all three backends.
 */

#ifndef LP_STORE_BACKEND_HH
#define LP_STORE_BACKEND_HH

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <unordered_map>
#include <vector>

#include "engine/commit_pipeline.hh"
#include "pmem/arena.hh"
#include "repair/repair.hh"
#include "store/journal.hh"
#include "store/layout.hh"

namespace lp::store
{

/** Coalesced effect of one staged-but-unapplied mutation. */
struct DeltaVal
{
    bool isPut;
    std::uint64_t value;
};

/** What a backend borrows from the KvStore that owns it. */
template <typename Env>
struct StoreContext
{
    pmem::PersistentArena *arena;
    const StoreConfig *cfg;
    SlotTable<Env> *table;
    std::deque<engine::CommitPipeline> *pipelines;
};

/** CommitPolicy a store pipeline runs under @p backend and @p cfg. */
engine::CommitPolicy commitPolicyFor(Backend backend,
                                     const StoreConfig &cfg);

/**
 * Cumulative media-fault counters of one shard. The shard's single
 * writer updates them (recovery, scrub); any thread may read (the
 * server's acceptor exports them in STATS/METRICS), hence atomics.
 */
struct MediaCounters
{
    std::atomic<std::uint64_t> repaired{0};
    std::atomic<std::uint64_t> unrepairable{0};
    std::atomic<std::uint64_t> scrubRegions{0};
    std::atomic<std::uint64_t> scrubPasses{0};
};

/**
 * Host-pointer map of one shard's media-protected structures, for
 * fault injection (pmem/fault.hh, `lazyper_cli inject`), the
 * corruption-matrix tests, and attributing NVMM traffic to structures
 * (store/driver.hh). Null / zero fields simply do not exist for the
 * backend (only LP has a journal and parity).
 */
struct FaultSurface
{
    const void *table = nullptr;         ///< slot table (all shards)
    std::size_t tableBytes = 0;
    const void *metaPrimary = nullptr;   ///< 64B shard superblock
    const void *metaReplica = nullptr;   ///< its 64B replica
    const void *journal = nullptr;       ///< journal record buffer
    std::size_t journalBytes = 0;
    std::size_t sealedBytes = 0;         ///< sealed journal prefix
    std::size_t coveredBytes = 0;        ///< parity-covered prefix
    const void *parity = nullptr;        ///< XOR parity blocks
    std::size_t parityBytes = 0;
    const void *parityHashes = nullptr;  ///< region fingerprints
    std::size_t parityHashBytes = 0;
    const void *parityHeader = nullptr;  ///< coverage header block
};

/**
 * One persistency policy; see the file comment for the hook
 * contract. A backend instance serves every shard of its store (the
 * per-shard state lives in its own vectors), and is driven only by
 * the owning KvStore.
 */
template <typename Env>
class PersistencyBackend
{
  public:
    explicit PersistencyBackend(const StoreContext<Env> &ctx)
        : ctx_(ctx)
    {
    }

    virtual ~PersistencyBackend() = default;

    PersistencyBackend(const PersistencyBackend &) = delete;
    PersistencyBackend &operator=(const PersistencyBackend &) = delete;

    /** Admit one mutation; returns the epoch it landed in. */
    virtual std::uint64_t stage(Env &env, int shard, JOp op,
                                std::uint64_t key,
                                std::uint64_t value) = 0;

    /** Commit the shard's open epoch, if any (may be underfilled). */
    virtual void commitEpoch(Env &env, int shard) = 0;

    /** Eager checkpoint; default no-op for durable-on-commit backends. */
    virtual void
    fold(Env &env, int shard)
    {
        (void)env;
        (void)shard;
    }

    /** Crash recovery of one shard (see the hook contract). */
    virtual void recover(Env &env, int shard,
                         RecoveryReport &rep) = 0;

    /**
     * Online scrub step: validate (and repair) up to @p maxRegions
     * regions of the shard's sealed media-protected structures.
     * Returns regions actually examined (0 when there is nothing to
     * scrub or the shard is quarantined). The base implementation
     * audits the superblock pair -- the only media-protected
     * structure the eager and WAL backends own -- and counts a scrub
     * pass; the LP backend extends it over journal parity.
     */
    virtual std::size_t
    scrub(Env &env, int shard, std::size_t maxRegions)
    {
        (void)maxRegions;
        if (quarantined(shard))
            return 0;
        auditMeta(env, shard, nullptr);
        media_[std::size_t(shard)].scrubPasses.fetch_add(
            1, std::memory_order_relaxed);
        return 0;
    }

    /**
     * Read-your-writes lookup over staged-but-unapplied mutations;
     * std::nullopt (and no Env effect) when the key is not staged.
     */
    std::optional<DeltaVal>
    staged(Env &env, int shard, std::uint64_t key) const
    {
        const auto &d = deltas_[std::size_t(shard)];
        const auto it = d.find(key);
        if (it == d.end())
            return std::nullopt;
        env.tick(4);
        return it->second;
    }

    /** Overlay staged mutations onto a host-side snapshot. */
    void
    mergeStaged(int shard,
                std::map<std::uint64_t, std::uint64_t> &out) const
    {
        for (const auto &[k, dv] : deltas_[std::size_t(shard)]) {
            if (dv.isPut)
                out[k] = dv.value;
            else
                out.erase(k);
        }
    }

    /** Where this shard's media-protected structures live. */
    virtual FaultSurface
    faultSurface(int shard) const
    {
        FaultSurface fs;
        fs.metaPrimary = metas_[std::size_t(shard)];
        fs.metaReplica = replicas_[std::size_t(shard)];
        return fs;
    }

    /** Durable (shadow) epoch watermark of one shard. */
    std::uint64_t
    durableEpoch(int shard) const
    {
        return ctx_.arena->peekDurable(&metas_[shard]->foldedEpoch);
    }

    /** Highest decision seq whose part the shard staged (Applied). */
    std::uint64_t
    appliedSeq(int shard) const
    {
        return applied_[std::size_t(shard)];
    }

    /** Highest decision seq whose part the shard made durable. */
    std::uint64_t
    durableAppliedSeq(int shard) const
    {
        return durableApplied_[std::size_t(shard)];
    }

    /** This shard's cumulative media-fault counters (any thread). */
    const MediaCounters &
    mediaCounters(int shard) const
    {
        return media_[std::size_t(shard)];
    }

    /**
     * True when the shard hit provable-but-unrepairable corruption:
     * callers must stop mutating it (reads over the recovered prefix
     * stay safe -- nothing invalid was ever applied to the table).
     */
    bool
    quarantined(int shard) const
    {
        return media_[std::size_t(shard)].unrepairable.load(
                   std::memory_order_relaxed) > 0;
    }

    /**
     * Durably mark the shard cleanly shut down. Call only when every
     * committed byte has drained (after checkpoint + persistAll /
     * msync): the flag switches the NEXT recovery into strict mode,
     * where validation failures are media faults, not crash tears.
     * The LP backend first completes its parity coverage, which
     * strict recovery relies on.
     */
    virtual void
    markClean(Env &env, int shard)
    {
        const std::uint64_t epoch =
            env.ld(&metas_[std::size_t(shard)]->foldedEpoch);
        persistMeta(env, shard, epoch, shardCleanShutdown);
        env.sfence();
    }

  protected:
    /**
     * Allocate one shard's superblock pair in arena order (replica
     * immediately after the primary -- part of the deterministic
     * allocation sequence attach mode replays).
     */
    ShardMeta *
    allocMeta(bool attach)
    {
        pmem::PersistentArena &arena = *ctx_.arena;
        ShardMeta *m = arena.alloc<ShardMeta>(1);
        ShardMeta *r = arena.alloc<ShardMeta>(1);
        if (!attach) {
            for (ShardMeta *c : {m, r}) {
                c->foldedEpoch = 0;
                c->flags = 0;
                c->check = repair::shardMetaCheck(0, 0);
                c->appliedSeq = 0;
            }
        }
        metas_.push_back(m);
        replicas_.push_back(r);
        lives_.push_back(0);
        applied_.push_back(0);
        durableApplied_.push_back(0);
        media_.emplace_back();
        deltas_.emplace_back();
        return m;
    }

    /** The shard's coalesced last op per staged-but-unapplied key. */
    std::unordered_map<std::uint64_t, DeltaVal> &
    delta(int shard)
    {
        return deltas_[std::size_t(shard)];
    }

    /** Both applied seqs of @p shard become @p seq (eager, and
     *  recovery: the staged records of a crashed run are gone). */
    void
    setApplied(int shard, std::uint64_t seq)
    {
        applied_[std::size_t(shard)] = seq;
        durableApplied_[std::size_t(shard)] = seq;
    }

    /** Stage the Applied record of decision @p seq (stage()). */
    void
    stageApplied(int shard, std::uint64_t seq)
    {
        applied_[std::size_t(shard)] = seq;
    }

    /** Every staged Applied record is durable (fold, WAL commit). */
    void
    promoteApplied(int shard)
    {
        durableApplied_[std::size_t(shard)] = applied_[std::size_t(shard)];
    }

    /**
     * Store (@p epoch, @p flags with the shard's life, the durable
     * applied seq when there is one) + check word into both
     * superblock copies and flush them; the caller's fence orders
     * the pair.
     */
    void
    persistMeta(Env &env, int shard, std::uint64_t epoch,
                std::uint64_t flags)
    {
        flags |= lives_[std::size_t(shard)] << shardLifeShift;
        const std::uint64_t seq = durableApplied_[std::size_t(shard)];
        if (seq != 0)
            flags |= shardAppliedSeq;
        const std::uint64_t check =
            repair::shardMetaCheck(epoch, flags, seq);
        for (ShardMeta *c : {metas_[std::size_t(shard)],
                             replicas_[std::size_t(shard)]}) {
            env.st(&c->foldedEpoch, epoch);
            env.st(&c->flags, flags);
            if (seq != 0)
                env.st(&c->appliedSeq, seq);
            env.st(&c->check, check);
            env.clwb(c);
        }
        env.tick(6);
    }

    /** What auditMeta() concluded about a superblock pair. */
    struct MetaState
    {
        std::uint64_t epoch = 0;
        bool clean = false;  ///< strict recovery mode earned
        bool ok = false;     ///< at least one copy validated
    };

    /** Life of @p shard as its superblock last recorded it. */
    std::uint64_t
    life(int shard) const
    {
        return lives_[std::size_t(shard)];
    }

    /**
     * Start a new life of @p shard (LP recovery epilogue); the next
     * persistMeta() makes it durable.
     */
    void beginLife(int shard) { ++lives_[std::size_t(shard)]; }

    /**
     * Validate the superblock pair, repairing a check-invalid copy
     * from its valid twin (a media fault by the block-atomicity
     * argument in layout.hh). Both copies valid but divergent is
     * crash-normal (one drained, one did not): adopt the higher
     * epoch, silently resync the other, count nothing. Both copies
     * invalid is unrepairable: quarantine. Strict (clean-shutdown)
     * mode is granted only when it is provable: both copies valid
     * and flagged clean at the same epoch, or one copy rotted but
     * the surviving valid copy is flagged clean. The adopted copy's
     * life becomes life(shard) (the higher one when the epochs
     * tie).
     */
    MetaState
    auditMeta(Env &env, int shard, RecoveryReport *rep)
    {
        ShardMeta *p = metas_[std::size_t(shard)];
        ShardMeta *r = replicas_[std::size_t(shard)];
        // The applied seq is read only where the flags say it is set.
        const auto seqOf = [&env](ShardMeta *c, std::uint64_t f) {
            return f & shardAppliedSeq ? env.ld(&c->appliedSeq)
                                       : std::uint64_t{0};
        };
        const std::uint64_t pe = env.ld(&p->foldedEpoch);
        const std::uint64_t pf = env.ld(&p->flags);
        const std::uint64_t ps = seqOf(p, pf);
        const bool pOk =
            env.ld(&p->check) == repair::shardMetaCheck(pe, pf, ps);
        const std::uint64_t re = env.ld(&r->foldedEpoch);
        const std::uint64_t rf = env.ld(&r->flags);
        const std::uint64_t rs = seqOf(r, rf);
        const bool rOk =
            env.ld(&r->check) == repair::shardMetaCheck(re, rf, rs);
        env.tick(8);
        MetaState st;
        const auto lifeOf = [](std::uint64_t f) {
            return f >> shardLifeShift;
        };
        // Take @p f's life as the shard's and @p seq as its durable
        // applied seq (recovery makes it the staged one too); returns
        // the flags below the life but for the seq bit.
        const auto adopt = [&](std::uint64_t f, std::uint64_t seq) {
            lives_[std::size_t(shard)] = lifeOf(f);
            durableApplied_[std::size_t(shard)] = seq;
            return f & ((1ull << shardLifeShift) - 1) & ~shardAppliedSeq;
        };
        if (pOk && rOk) {
            st.ok = true;
            if (pe == re) {
                st.epoch = pe;
                st.clean = (pf & rf & shardCleanShutdown) != 0;
                // A crash between the copies of a recovery's life
                // advance: either life is safe, as none wrote yet.
                // Nor between an eager Applied write's copies: either
                // seq's part is durable, so the higher is safe.
                adopt(lifeOf(pf) > lifeOf(rf) ? pf : rf,
                      ps > rs ? ps : rs);
            } else {
                // Crash between the copies' drains: the fold's data
                // fence precedes the meta store, so the higher epoch
                // is safe (and replaying from the lower would be,
                // too -- replay is idempotent). Resync silently.
                st.epoch = pe > re ? pe : re;
                st.clean = false;
                adopt(pe > re ? pf : rf, pe > re ? ps : rs);
                persistMeta(env, shard, st.epoch, 0);
                env.sfence();
            }
            return st;
        }
        if (pOk != rOk) {
            // One copy rotted (an invalid check cannot come from a
            // crash): restore it from the valid twin.
            const std::uint64_t e = pOk ? pe : re;
            const std::uint64_t f = adopt(pOk ? pf : rf, pOk ? ps : rs);
            persistMeta(env, shard, e, f);
            env.sfence();
            noteRepaired(shard, rep, 1);
            st.ok = true;
            st.epoch = e;
            st.clean = (f & shardCleanShutdown) != 0;
            return st;
        }
        // Both copies rotted: nothing to trust.
        noteUnrepairable(shard, rep, 1);
        return st;
    }

    /** Count @p n repaired media faults (counters + report). */
    void
    noteRepaired(int shard, RecoveryReport *rep, std::uint64_t n)
    {
        media_[std::size_t(shard)].repaired.fetch_add(
            n, std::memory_order_relaxed);
        if (rep)
            rep->mediaRepaired += n;
    }

    /** Count @p n unrepairable faults (quarantines the shard). */
    void
    noteUnrepairable(int shard, RecoveryReport *rep, std::uint64_t n)
    {
        media_[std::size_t(shard)].unrepairable.fetch_add(
            n, std::memory_order_relaxed);
        if (rep)
            rep->mediaUnrepairable += n;
    }

    const StoreConfig &cfg() const { return *ctx_.cfg; }
    SlotTable<Env> &table() { return *ctx_.table; }

    engine::CommitPipeline &
    pipeline(int shard)
    {
        return (*ctx_.pipelines)[std::size_t(shard)];
    }

    StoreContext<Env> ctx_;
    std::vector<ShardMeta *> metas_;
    std::vector<ShardMeta *> replicas_;
    /// Per shard: the life persistMeta() stores (see shardLifeShift).
    std::vector<std::uint64_t> lives_;
    /// Per shard: the last Applied seq staged, and the last durable
    /// one (what persistMeta() stores).
    std::vector<std::uint64_t> applied_;
    std::vector<std::uint64_t> durableApplied_;
    /// Deque: atomics must never relocate (acceptor threads read).
    std::deque<MediaCounters> media_;
    std::vector<std::unordered_map<std::uint64_t, DeltaVal>> deltas_;
};

} // namespace lp::store

#endif // LP_STORE_BACKEND_HH
