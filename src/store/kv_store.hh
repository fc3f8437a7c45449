/**
 * @file
 * lp::store -- a crash-recoverable persistent key-value store built
 * on Lazy Persistency.
 *
 * This header is the thin facade over the store's layers:
 *
 *  - layout.hh     -- persistent structures + the shared SlotTable
 *  - journal.hh    -- per-shard batch journal (append/seal/replay)
 *  - backend_*.hh  -- the three persistency policies (Lazy
 *                     Persistency, eager per-op, WAL) behind the
 *                     PersistencyBackend interface of backend.hh
 *  - engine/commit_pipeline.hh -- per-shard epoch/batch/fold
 *                     scheduling, shared with lp::server
 *
 * Keys are partitioned across shards; each shard owns its own epoch
 * sequence (a CommitPipeline) and whatever persistent structures its
 * backend needs. All shards share one open-addressing persistent
 * table. The KvStore routes, enforces the shard ownership
 * contract, and delegates durability entirely to the backend; the
 * full persistency story lives in backend_lp.hh and
 * docs/engine_design.md.
 *
 * All backends run the same probe and layout code and are templated
 * over Env: the identical source instantiates against SimEnv
 * (measured) and NativeEnv (native).
 *
 * Concurrency: one thread at a time per shard. A KvStore instance and
 * every shard inside it are unsynchronized: all calls on one
 * instance must come from the thread that currently owns it (see the
 * contract block in src/kernels/env.hh). A concurrent service shards
 * at the process level -- one single-shard KvStore per worker over
 * its own arena, as lp::server does -- and hands a store between
 * threads only under a lock, calling claimShards() once it holds it.
 * Debug builds assert the owning-thread contract on every shard
 * access; recover() and claimShards() rebind ownership to the
 * calling thread.
 */

#ifndef LP_STORE_KV_STORE_HH
#define LP_STORE_KV_STORE_HH

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "base/logging.hh"
#include "engine/commit_pipeline.hh"
#include "index/ordered_index.hh"
#include "obs/shard_obs.hh"
#include "pmem/arena.hh"
#include "store/backends.hh"

namespace lp::store
{

/**
 * The persistent KV store. One instance owns its arena allocations;
 * callers must arena.persistAll() after construction to establish
 * the initial durable image (as all workloads in this repo do).
 */
template <typename Env>
class KvStore
{
  public:
    static constexpr std::size_t npos = SlotTable<Env>::npos;

    /**
     * Construct over @p arena. With @p attach false (the default) all
     * persistent structures are formatted empty; the caller should
     * arena.persistAll() afterwards. With @p attach true, nothing is
     * initialized: the arena holds an existing durable image (a
     * re-mapped backing file after a process restart) and the
     * allocation sequence -- which is deterministic in @p cfg and
     * @p backend -- re-derives the same offsets the previous
     * incarnation used. An attached store MUST recover() before any
     * other call.
     */
    KvStore(pmem::PersistentArena &arena, const StoreConfig &cfg,
            Backend backend, bool attach = false)
        : cfg_(cfg), backendKind_(backend),
          table_(arena, cfg.capacity, attach)
    {
        LP_ASSERT(cfg.shards >= 1, "need at least one shard");
        LP_ASSERT(cfg.batchOps >= 1,
                  "need at least one op per batch");
        LP_ASSERT(cfg.foldBatches >= 1,
                  "need at least one batch per fold");
        // Per-shard pipelines and observability bundles (deques:
        // their counters and histograms are atomics other threads
        // read, so they must never relocate).
        for (int i = 0; i < cfg.shards; ++i) {
            pipelines_.emplace_back(commitPolicyFor(backend, cfg));
            obs_.emplace_back();
            pipelines_.back().attachObs(&obs_.back());
        }
        owners_.resize(std::size_t(cfg.shards));
        // Per-shard ordered indexes (deque for the same stable-address
        // reason as obs_: OrderedIndex is non-copyable). On attach the
        // indexes start empty; recover() rebuilds them from the
        // recovered table.
        for (int i = 0; i < cfg.shards; ++i)
            index_.emplace_back();
        const StoreContext<Env> ctx{&arena, &cfg_, &table_,
                                    &pipelines_};
        backend_ = makeBackend<Env>(backend, ctx, attach);
    }

    KvStore(const KvStore &) = delete;
    KvStore &operator=(const KvStore &) = delete;

    Backend backend() const { return backendKind_; }
    const StoreConfig &config() const { return cfg_; }
    int shardOf(std::uint64_t key) const { return shardIndex(key); }

    /** One shard's commit scheduling state (and stat counters). */
    engine::CommitPipeline &
    pipeline(int shard)
    {
        return pipelines_[std::size_t(shard)];
    }

    const engine::CommitPipeline &
    pipeline(int shard) const
    {
        return pipelines_[std::size_t(shard)];
    }

    /**
     * One shard's latency histograms (always recording) and trace
     * ring. Histograms follow the obs::Histogram concurrency
     * contract: any thread may read them while the shard's owner
     * records (the server's acceptor does, for STATS/METRICS).
     */
    obs::ShardObs &
    shardObs(int shard)
    {
        return obs_[std::size_t(shard)];
    }

    const obs::ShardObs &
    shardObs(int shard) const
    {
        return obs_[std::size_t(shard)];
    }

    /**
     * Route shard @p shard's trace spans (epoch commits, folds,
     * recovery) to @p ring; null detaches. The ring must outlive
     * this store.
     */
    void
    attachTraceRing(int shard, obs::TraceRing *ring)
    {
        obs_[std::size_t(shard)].ring = ring;
    }

    /** Durable (shadow) epoch watermark of one shard. */
    std::uint64_t
    durableEpoch(int shard) const
    {
        return backend_->durableEpoch(shard);
    }

    /** Volatile epoch watermark (last committed batch) of one shard. */
    std::uint64_t
    committedEpoch(int shard) const
    {
        return pipelines_[std::size_t(shard)].lastCommitted();
    }

    /** One shard's cumulative media-fault counters (any thread). */
    const MediaCounters &
    mediaCounters(int shard) const
    {
        return backend_->mediaCounters(shard);
    }

    /**
     * True when the shard hit provable-but-unrepairable corruption
     * and must not be mutated; reads stay safe (nothing invalid was
     * ever applied to the table). The server maps this to read-only
     * Fault replies (docs/repair_design.md).
     */
    bool
    quarantined(int shard) const
    {
        return backend_->quarantined(shard);
    }

    /**
     * Where one shard's media-protected structures, and the shared
     * slot table, live (testing, traffic attribution).
     */
    FaultSurface
    faultSurface(int shard) const
    {
        FaultSurface fs = backend_->faultSurface(shard);
        fs.table = &table_.slot(0);
        fs.tableBytes = table_.slotCount() * sizeof(KvSlot);
        return fs;
    }

    /**
     * One online-scrub step of @p shard: validate about
     * @p maxRegions protected regions, repairing from parity where
     * the checksum proves it. Owner-thread only (it may write);
     * cheap enough for an idle loop. Returns regions examined.
     */
    std::size_t
    scrubStep(Env &env, int shard, std::size_t maxRegions)
    {
        checkShardOwner(shard);
        obs::ShardObs &ob = obs_[std::size_t(shard)];
        obs::Span span(ob.ring, "scrub", std::uint64_t(shard), 0,
                       &ob.scrubNs);
        return backend_->scrub(env, shard, maxRegions);
    }

    /**
     * Durably mark every non-quarantined shard cleanly shut down.
     * Call ONLY after checkpoint() (or commitBatches() +
     * persistAll() on a simulated arena) so the claim is true: the
     * flag switches the next recovery into strict mode, where a
     * validation failure is a media fault rather than a crash tear.
     */
    void
    markClean(Env &env)
    {
        for (int s = 0; s < cfg_.shards; ++s) {
            if (backend_->quarantined(s))
                continue;
            checkShardOwner(s);
            backend_->markClean(env, s);
        }
    }

    /**
     * Insert or update @p key. Returns the epoch (batch) the op
     * landed in, which drivers use to tag ops for committed-replay
     * verification; under the eager backend every op is its own
     * epoch, so this doubles as a per-shard op sequence number.
     * @p traceId (when nonzero) attributes the op to a request
     * trace: it becomes the stage-latency exemplar and flows into
     * the epoch-commit span of the epoch that makes the op durable.
     */
    std::uint64_t
    put(Env &env, std::uint64_t key, std::uint64_t value,
        std::uint64_t traceId = 0)
    {
        return mutate(env, JOp::Put, key, value, traceId);
    }

    /** Delete @p key (a no-op if absent); returns the op's epoch. */
    std::uint64_t
    del(Env &env, std::uint64_t key, std::uint64_t traceId = 0)
    {
        return mutate(env, JOp::Del, key, 0, traceId);
    }

    /**
     * Record that @p shard applied its part of transaction decision
     * @p seq (txn::applyPart, after staging the part's writes). The
     * record rides the durability unit of the writes staged before
     * it (backend.hh), so once it is durable the part is; parts must
     * reach a shard in seq order. Returns the record's epoch.
     */
    std::uint64_t
    stageApplied(Env &env, int shard, std::uint64_t seq)
    {
        checkShardOwner(shard);
        LP_ASSERT(seq > backend_->appliedSeq(shard),
                  "decision parts must reach a shard in seq order");
        return backend_->stage(env, shard, JOp::Applied, 0, seq);
    }

    /** Highest decision seq whose part @p shard staged. */
    std::uint64_t
    appliedSeq(int shard) const
    {
        return backend_->appliedSeq(shard);
    }

    /** Highest decision seq whose part @p shard made durable. */
    std::uint64_t
    durableAppliedSeq(int shard) const
    {
        return backend_->durableAppliedSeq(shard);
    }

    /** Read @p key, observing this handle's own uncommitted writes. */
    std::optional<std::uint64_t>
    get(Env &env, std::uint64_t key)
    {
        LP_ASSERT(key <= maxUserKey, "key in reserved sentinel range");
        const int sh = shardIndex(key);
        checkShardOwner(sh);
        // Batched backends keep unfolded/unapplied ops out of the
        // table; the staged lookup provides read-your-writes over
        // them (and is a free no-op for the eager backend).
        if (const auto d = backend_->staged(env, sh, key)) {
            if (!d->isPut)
                return std::nullopt;
            return d->value;
        }
        const std::size_t i = table_.probeFind(env, key);
        if (i == npos)
            return std::nullopt;
        return env.ld(&table_.slot(i).value);
    }

    /**
     * Ordered range read: up to @p limit records with key >= @p start,
     * ascending, merged across every shard's ordered index. Each key
     * is resolved through get(), so a scan observes exactly the state
     * point reads observe -- staged (unfolded) puts and deletes
     * included -- and crash consistency still comes entirely from the
     * journal checksums, never from the index itself. Whole-scan
     * latency and returned-record count land in shard 0's scanNs /
     * scanLen histograms (exactly per-shard for the server's
     * single-shard worker stores).
     */
    std::vector<std::pair<std::uint64_t, std::uint64_t>>
    scan(Env &env, std::uint64_t start, std::size_t limit)
    {
        obs::ScopedTimer timer(obs_[0].scanNs);
        std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
        std::vector<index::OrderedIndex::Cursor> cur;
        cur.reserve(std::size_t(cfg_.shards));
        for (int s = 0; s < cfg_.shards; ++s)
            cur.push_back(indexFrom(s, start));
        // The index tracks staged deletes eagerly, so a key it yields
        // should always resolve; skip defensively if the backend
        // disagrees rather than emit a phantom.
        index::mergeCursors(cur, limit, [&](std::size_t, std::uint64_t k) {
            const auto v = get(env, k);
            if (v)
                out.emplace_back(k, *v);
            return v.has_value();
        });
        obs_[0].scanLen.record(out.size());
        return out;
    }

    /**
     * Cursor on shard @p shard's first indexed key >= @p start, for a
     * caller that merges shards itself (index::mergeCursors). Owner
     * only; valid until the shard's next mutation. get() never
     * touches the index, so values may be resolved between advances.
     */
    index::OrderedIndex::Cursor
    indexFrom(int shard, std::uint64_t start)
    {
        checkShardOwner(shard);
        return index_[std::size_t(shard)].lowerBound(start);
    }

    /**
     * Make the calling thread the owner of every shard. A service
     * that hands the store between threads under a lock calls this
     * right after taking it (rule 1 of the contract in
     * src/kernels/env.hh); debug builds then fail any access from a
     * thread that skipped the lock.
     */
    void
    claimShards()
    {
        for (int s = 0; s < cfg_.shards; ++s)
            rebindShardOwner(s);
    }

    /** Live keys in one shard's ordered index (any thread). */
    std::uint64_t
    indexEntries(int shard) const
    {
        return index_[std::size_t(shard)].entries();
    }

    /** Resident bytes of one shard's ordered index (any thread). */
    std::uint64_t
    indexBytes(int shard) const
    {
        return index_[std::size_t(shard)].residentBytes();
    }

    /** Close and commit every shard's open batch (partial batches). */
    void
    commitBatches(Env &env)
    {
        for (int s = 0; s < cfg_.shards; ++s) {
            backend_->commitEpoch(env, s);
            if (pipelines_[std::size_t(s)].foldDue())
                backend_->fold(env, s);
        }
    }

    /**
     * Commit all open batches and make every committed op durable:
     * after this returns, recover() would find nothing to do. The LP
     * backend folds every shard's journal.
     */
    void
    checkpoint(Env &env)
    {
        commitBatches(env);
        for (int s = 0; s < cfg_.shards; ++s)
            backend_->fold(env, s);
    }

    /**
     * Crash recovery. Call on a freshly restored durable image (after
     * Machine::powerFail()); repairs the table with Eager Persistency
     * and rebuilds all volatile bookkeeping. Idempotent: a crash
     * during recovery is handled by running recovery again.
     */
    RecoveryReport
    recover(Env &env)
    {
        RecoveryReport rep;
        rep.committedEpochs.assign(std::size_t(cfg_.shards), 0);
        rep.appliedSeqs.assign(std::size_t(cfg_.shards), 0);
        for (int s = 0; s < cfg_.shards; ++s) {
            rebindShardOwner(s);
            obs::ShardObs &ob = obs_[std::size_t(s)];
            obs::Span span(ob.ring, "recover_shard", std::uint64_t(s),
                           0, &ob.recoverNs);
            backend_->recover(env, s, rep);
            rep.appliedSeqs[std::size_t(s)] =
                backend_->durableAppliedSeq(s);
        }
        table_.resyncUsed();
        // Rebuild the ordered indexes from the recovered table. The
        // table now holds exactly the checksum-validated committed
        // prefix (staged volatile deltas died with the crash), so the
        // rebuilt index agrees with point-GET recovery by
        // construction. Host-side walk, like snapshot(): recovery
        // already paid its simulated cost in the backend replay.
        for (int s = 0; s < cfg_.shards; ++s)
            index_[std::size_t(s)].clear();
        for (std::size_t i = 0; i < table_.slotCount(); ++i) {
            const KvSlot &slot = table_.slot(i);
            if (slot.key <= maxUserKey)
                index_[std::size_t(shardIndex(slot.key))].insert(
                    slot.key);
        }
        return rep;
    }

    /**
     * Host-side view of the full logical map, including this handle's
     * uncommitted ops (test oracle; not instrumented).
     */
    std::map<std::uint64_t, std::uint64_t>
    snapshot() const
    {
        std::map<std::uint64_t, std::uint64_t> out;
        for (std::size_t i = 0; i < table_.slotCount(); ++i) {
            const KvSlot &s = table_.slot(i);
            if (s.key <= maxUserKey)
                out[s.key] = s.value;
        }
        for (int s = 0; s < cfg_.shards; ++s)
            backend_->mergeStaged(s, out);
        return out;
    }

    /** Number of live keys (host-side). */
    std::size_t liveKeys() const { return snapshot().size(); }

  private:
    int
    shardIndex(std::uint64_t key) const
    {
        return shardOfKey(key, cfg_.shards);
    }

    /**
     * Enforce (debug builds) the one-thread-at-a-time contract
     * documented in src/kernels/env.hh: every access to a shard must
     * come from the thread that owns it now. The first toucher owns
     * an unclaimed shard, so single-threaded callers are unaffected;
     * recover() and claimShards() hand it to the calling thread, so
     * a thread that touches a shard without having taken it over
     * fails here.
     */
    void
    checkShardOwner(int shard)
    {
#ifndef NDEBUG
        const std::thread::id self = std::this_thread::get_id();
        std::thread::id &owner = owners_[std::size_t(shard)];
        if (owner == std::thread::id{})
            owner = self;
        LP_ASSERT(owner == self,
                  "lp::store shard ownership contract violated:"
                  " shard " + std::to_string(shard) +
                  " accessed by a thread that did not claim it (see "
                  "the concurrency contract in src/kernels/env.hh)");
#else
        (void)shard;
#endif
    }

    /** Hand the shard to the calling thread (recover, claimShards). */
    void
    rebindShardOwner(int shard)
    {
#ifndef NDEBUG
        owners_[std::size_t(shard)] = std::this_thread::get_id();
#else
        (void)shard;
#endif
    }

    std::uint64_t
    mutate(Env &env, JOp op, std::uint64_t key, std::uint64_t value,
           std::uint64_t traceId)
    {
        LP_ASSERT(key <= maxUserKey, "key in reserved sentinel range");
        const int sh = shardIndex(key);
        checkShardOwner(sh);
        // Attribute the request to the open epoch BEFORE staging:
        // stage() may close the epoch (batch full), and the backend's
        // epoch-commit span wants this op's trace id as its flow id.
        pipelines_[std::size_t(sh)].noteTrace(traceId);
        // Per-mutation latency: includes any epoch commit or fold
        // stage() triggers, so the histogram tail is exactly the
        // fold-pause story the paper's Figure 10 argues about. Timed
        // explicitly (not ScopedTimer) so the same sample can feed
        // the stage-latency exemplar for this request's trace.
        const std::uint64_t t0 = obs::nowNs();
        const std::uint64_t epoch =
            backend_->stage(env, sh, op, key, value);
        const std::uint64_t dt = obs::nowNs() - t0;
        obs_[std::size_t(sh)].stageNs.record(dt);
        if (traceId)
            obs_[std::size_t(sh)].stageNs.recordExemplar(dt, traceId);
        // Mirror the mutation into the shard's ordered index AFTER it
        // is staged (a simulated crash inside stage() aborts before
        // the index update; recover() rebuilds it regardless). Erase
        // on delete keeps scans in lockstep with get()'s staged-delete
        // visibility.
        if (op == JOp::Put)
            index_[std::size_t(sh)].insert(key);
        else
            index_[std::size_t(sh)].erase(key);
        return epoch;
    }

    StoreConfig cfg_;
    Backend backendKind_;
    SlotTable<Env> table_;
    std::deque<engine::CommitPipeline> pipelines_;
    std::deque<obs::ShardObs> obs_;  // stable addresses (attached)
    std::deque<index::OrderedIndex> index_;  // per-shard, volatile
    std::unique_ptr<PersistencyBackend<Env>> backend_;
    std::vector<std::thread::id> owners_;  // debug owner binding
};

} // namespace lp::store

#endif // LP_STORE_KV_STORE_HH
