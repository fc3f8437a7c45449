/**
 * @file
 * The Lazy Persistency backend of `lp::store`.
 *
 * Mutations append journal records and update a running checksum
 * -- no flush, no fence. Every batchOps mutations (or fewer, at a
 * group-commit deadline) close an epoch: the journal seals the batch
 * with a trailer record that carries the batch's salted digest
 * (journal.hh), the Figure 8 region-commit idiom with the checksum
 * kept beside its region instead of in a table. Journal records are
 * STREAMING stores: each journal line is written once, front to
 * back, and leaves the core's write-combining buffer for NVMM as one
 * write when full -- no write-allocate read, no cache pollution --
 * while a partial tail line waits in the buffer. Every foldBatches
 * committed batches the shard FOLDS: one fence drains the journal's
 * partial tail line; then the coalesced last-op-per-key effects are
 * applied to the table with Eager Persistency (store + clwb, so the
 * applied lines stay cached for the GETs that follow), and the
 * shard's durable watermark (ShardMeta::foldedEpoch) advances. The
 * fold is the Section VI-A periodic flush: it bounds journal space
 * and recovery replay length.
 *
 * Why a journal at all? In-place lazy mutation of live table slots
 * is unsound: a plain store from an UNCOMMITTED batch may drain over
 * the only copy of committed data, and recovery -- which discards
 * the failed batch -- would have nothing to restore the slot from.
 * Lazy Persistency therefore only ever lazily writes APPEND-ONLY
 * bytes (journal records and trailers) whose corruption is detected
 * by the checksum and repaired by replay; the table itself is
 * written solely inside eager phases (fold, recovery), so a
 * committed table byte can never be clobbered by an uncommitted lazy
 * store.
 *
 * Media-fault tolerance (docs/repair_design.md). The journal is the
 * only structure whose loss silently loses committed data, so it
 * gets the heaviest protection: a repair::RegionParity instance per
 * shard fingerprints and XOR-folds the sealed 64B journal regions
 * one whole 8-region group at a time, at the commit that completes
 * the group, from the words the journal streamed out. Each group's
 * fingerprint and parity lines are streamed whole, so they cost one
 * NVMM write each and no read; markClean() covers the trailing
 * partial group, which strict recovery relies on. A batch's digest
 * lives in its trailer, a journal word like any other, so the same
 * parity repairs a rotted trailer; no digest replica is needed.
 * The shard superblock pair is the base class's. Crash tears and
 * media faults are disambiguated by the clean-shutdown flag
 * (store/layout.hh): recovery after a PROVEN clean shutdown runs
 * STRICT -- a validation failure there is a media fault, repaired
 * via parity or counted unrepairable (quarantine) -- while recovery
 * after a crash keeps the historical discard semantics and only
 * counts repairs the fingerprints prove.
 *
 * Recovery. Per shard, arbitrate the superblock pair for the durable
 * foldedEpoch W and the shard's life, and walk the journal from
 * offset 0 expecting epochs W+1, W+2, ... (the BatchJournal::replay
 * walk): find each batch's trailer and check its tag, recompute the
 * life-salted digest over the records that actually reached NVMM,
 * and compare it with the digest the trailer carries. On the first
 * validation failure the parity sweep runs once and the position is
 * retried. The walk stops at the first batch that still fails
 * validation -- journal appends are sequential, so durability is
 * prefix-shaped and later batches cannot have committed either. The
 * accepted prefix coalesces into the last op per key, as a fold
 * window does, and is applied to the table with Eager Persistency
 * (Section III-E: recovery uses EP so it always makes forward
 * progress) in the fold's table-order pass, which ends in one fence;
 * only then does the watermark move. Replay is idempotent and
 * convergent even across crashes *during*
 * fold or recovery because (a) table writers only apply committed
 * ops, (b) deletes tombstone rather than empty slots, and (c) the
 * insert probe scans the whole chain up to the first never-used slot
 * before reusing a tombstone, so a half-drained earlier apply of the
 * same key is always found and reused, never duplicated. The
 * epilogue starts a new life: epoch numbers restart at the recovered
 * watermark, and batches the crashed life left on media past it --
 * records and trailers alike -- must never validate again,
 * so the next life salts its digests differently.
 */

#ifndef LP_STORE_BACKEND_LP_HH
#define LP_STORE_BACKEND_LP_HH

#include <memory>
#include <vector>

#include "obs/shard_obs.hh"
#include "repair/parity.hh"
#include "store/backend.hh"

namespace lp::store
{

template <typename Env>
class LpBackend : public PersistencyBackend<Env>
{
    using Base = PersistencyBackend<Env>;
    using Base::cfg;
    using Base::pipeline;
    using Base::table;

  public:
    LpBackend(const StoreContext<Env> &ctx, bool attach) : Base(ctx)
    {
        const std::size_t jcap = journalCapacity(cfg());
        shards_.reserve(std::size_t(cfg().shards));
        for (int i = 0; i < cfg().shards; ++i) {
            Shard sh;
            sh.meta = this->allocMeta(attach);
            sh.acc = core::ChecksumAcc(kStoreChecksum);
            sh.journal =
                std::make_unique<BatchJournal<Env>>(*ctx.arena, jcap);
            sh.parity = std::make_unique<repair::RegionParity<Env>>(
                *ctx.arena, sh.journal->data(),
                sh.journal->dataBytes(), attach);
            shards_.push_back(std::move(sh));
        }
    }

    std::uint64_t
    stage(Env &env, int shard, JOp op, std::uint64_t key,
          std::uint64_t value) override
    {
        Shard &sh = shards_[std::size_t(shard)];
        auto &pl = pipeline(shard);
        if (!pl.epochOpen()) {
            // Fold first if the journal lacks room for a full batch.
            if (!sh.journal->roomFor(cfg().batchOps))
                fold(env, shard);
            pl.beginEpoch();
            sh.journal->open(env, sh.acc);
        }
        const std::uint64_t epoch = pl.openEpoch();
        sh.journal->append(env, op, key, value, epoch, sh.acc);
        if (op == JOp::Applied)
            this->stageApplied(shard, value);
        else
            this->delta(shard)[key] = DeltaVal{op == JOp::Put, value};
        if (pl.stageOp()) {
            commitEpoch(env, shard);
            if (pl.foldDue())
                fold(env, shard);
        }
        return epoch;
    }

    /**
     * Close the open batch: append the journal trailer carrying the
     * batch digest, then extend parity coverage over every parity
     * group the sealed prefix completed, from the words the journal
     * stored -- all with streaming stores (the Figure 8 commit). No
     * flush, no fence.
     */
    void
    commitEpoch(Env &env, int shard) override
    {
        Shard &sh = shards_[std::size_t(shard)];
        auto &pl = pipeline(shard);
        if (!pl.epochOpen())
            return;
        const std::uint64_t epoch = pl.openEpoch();
        obs::ShardObs *ob = pl.obs();
        // Flow id = the latest request staged into this epoch
        // (captured before pl.commitEpoch() clears it), so one
        // request's trace arc connects through the group commit that
        // sealed it. The commit does not make it durable: that waits
        // for the fold's fence.
        obs::Span span(obs::ringOf(ob), "epoch_commit", epoch,
                       pl.openTraceId(), ob ? &ob->commitNs : nullptr);
        sh.journal->seal(env, epoch, sh.acc);
        sh.parity->cover(
            env, epoch, sh.journal->sealedBytes(),
            sh.journal->storedWords(sh.parity->pendingRegion()));
        pl.commitEpoch();
        env.onRegionCommit();
    }

    /**
     * Eager checkpoint of one shard (Section VI-A periodic flush):
     * (a) fence, which drains the journal's partial tail line from
     *     the write-combining buffer (its full lines were written as
     *     they filled), so every batch the fold applies is one
     *     recovery would accept;
     * (b) apply the coalesced last op per key to the table with
     *     Eager Persistency -- one table write per DISTINCT key in
     *     the window, which is where LP's write savings over per-op
     *     flushing comes from on skewed workloads -- in one
     *     table-order pass (SlotTable::applyInTableOrder). The delta
     *     names every key before the first is applied, so the pass
     *     sorts the keys by home slot (host bookkeeping, uncharged,
     *     in the shard's reused key vector), prefetches each key's
     *     home line SlotTable::prefetchDistance keys ahead of its
     *     apply, so those independent table misses overlap, and
     *     clwbs each touched block once as soon as the walk has
     *     passed it, so the write-backs drain behind the apply and
     *     the pass's closing sfence waits for only the last few. clwb
     *     leaves the blocks cached clean for later GETs;
     * (c) restart the parity generation (the journal is about to
     *     restart at offset 0) and advance the durable watermark --
     *     and the applied seq, when the window carried an Applied
     *     record -- in both superblock copies.
     * A crash anywhere in between leaves a state recover() handles:
     * before (c) the watermark is old and every applied batch is
     * durably committed, so replay just re-applies them.
     */
    void
    fold(Env &env, int shard) override
    {
        Shard &sh = shards_[std::size_t(shard)];
        auto &pl = pipeline(shard);
        LP_ASSERT(!pl.epochOpen(), "fold with an open batch");
        if (sh.journal->tail() == 0)
            return;
        obs::ShardObs *ob = pl.obs();
        obs::Span span(obs::ringOf(ob), "fold", pl.lastCommitted(), 0,
                       ob ? &ob->foldNs : nullptr);
        env.sfence();
        applyDelta(env, shard);
        sh.parity->resetGeneration(env, pl.lastCommitted());
        this->promoteApplied(shard);
        this->persistMeta(env, shard, pl.lastCommitted(), 0);
        env.sfence();
        pl.noteFold();
        sh.journal->reset();
        this->delta(shard).clear();
        sh.scrubCursor = 0;
        sh.scrubGroupClean = true;
    }

    void
    recover(Env &env, int shard, RecoveryReport &rep) override
    {
        Shard &sh = shards_[std::size_t(shard)];
        const auto ms = this->auditMeta(env, shard, &rep);
        if (!ms.ok) {
            // Both superblock copies rotted: the fold watermark is
            // gone, so nothing in the journal can be validated
            // against a known base. The folded table image itself is
            // intact; leave it, quarantine the shard (auditMeta
            // already counted the unrepairable fault).
            this->setApplied(shard, 0);
            resetShard(env, sh, shard, 0, rep);
            return;
        }
        const bool strict = ms.clean;
        const std::uint64_t base = ms.epoch;
        sh.journal->setLife(this->life(shard));
        const bool hdrOk = sh.parity->loadDurable(env);
        if (strict && !hdrOk) {
            // No crash happened, so the parity header was rotted: a
            // media fault. It self-heals (resetShard starts a fresh
            // generation below) but costs us the sealed-epoch
            // watermark, so the lost-batch check cannot run.
            this->noteRepaired(shard, &rep, 1);
        }
        // Media-repair hook for the replay walk: when the batch that
        // failed starts inside the parity-covered journal prefix,
        // sweep that prefix once, restoring every region whose parity
        // reconstruction reproduces its fingerprint. A batch starting
        // past it has no covered byte -- at the journal's natural end
        // there is nothing to repair, and the digest check alone
        // decides.
        auto repairFn = [&](std::size_t failedAt) {
            if (failedAt >= sh.parity->coveredBytes())
                return false;
            const repair::SweepResult res =
                sh.parity->repairCovered(env);
            if (res.repaired) {
                env.sfence();
                this->noteRepaired(shard, &rep, res.repaired);
            }
            return res.repaired > 0;
        };
        // The validated prefix coalesces into the delta exactly as
        // stage() builds it, and repairs the table with Eager
        // Persistency (Section III-E) in the fold's table-order pass:
        // one apply per distinct key, one fence for the whole replay.
        // An Applied record raises the shard's applied seq instead.
        auto &delta = this->delta(shard);
        delta.clear();
        std::uint64_t applied = this->durableAppliedSeq(shard);
        const std::uint64_t committed = sh.journal->replay(
            env, cfg(), base,
            [&](bool isPut, std::uint64_t key, std::uint64_t value) {
                if (key == slotAppliedKey)
                    applied = value;
                else
                    delta[key] = DeltaVal{isPut, value};
            },
            repairFn, rep);
        this->setApplied(shard, applied);
        applyDelta(env, shard);
        if (strict && hdrOk &&
            committed < sh.parity->lastSealedEpoch()) {
            // Clean shutdown proved every sealed epoch was durable,
            // yet replay could not validate up to the sealed
            // watermark: committed batches are LOST to media faults
            // parity could not undo. Quarantine.
            this->noteUnrepairable(shard, &rep, 1);
        }
        resetShard(env, sh, shard, committed, rep);
    }

    /**
     * Online scrub: advance a region cursor over the covered journal
     * prefix, validating fingerprints and repairing from parity.
     * The store is LIVE here -- no crash ambiguity -- so every
     * mismatch is a media fault: repairs and unrepairable regions
     * both count. When a parity group's covered regions all verified
     * clean, the group's parity block itself is recomputed and
     * rewritten if it diverged (the "parity page is the corrupt one"
     * case). Reaching the end of the covered prefix audits the
     * superblock pair and completes a pass.
     */
    std::size_t
    scrub(Env &env, int shard, std::size_t maxRegions) override
    {
        if (this->quarantined(shard))
            return 0;
        Shard &sh = shards_[std::size_t(shard)];
        const std::size_t covered = sh.parity->coveredRegions();
        if (sh.scrubCursor >= covered) {
            // Pass complete (or a fold restarted the generation):
            // close out with the superblock audit and wrap.
            this->auditMeta(env, shard, nullptr);
            this->media_[std::size_t(shard)].scrubPasses.fetch_add(
                1, std::memory_order_relaxed);
            sh.scrubCursor = 0;
            sh.scrubGroupClean = true;
            return 0;
        }
        std::size_t done = 0;
        bool wrote = false;
        while (done < maxRegions && sh.scrubCursor < covered) {
            const std::size_t r = sh.scrubCursor++;
            switch (sh.parity->repairRegion(env, r)) {
              case repair::RegionState::Clean:
                break;
              case repair::RegionState::Repaired:
                this->noteRepaired(shard, nullptr, 1);
                wrote = true;
                break;
              case repair::RegionState::Unrepairable:
                this->noteUnrepairable(shard, nullptr, 1);
                sh.scrubGroupClean = false;
                break;
            }
            ++done;
            const bool groupEnd =
                (r + 1) % repair::groupRegions == 0 ||
                r + 1 == covered;
            if (groupEnd) {
                if (sh.scrubGroupClean &&
                    sh.parity->scrubGroupParity(
                        env, r / repair::groupRegions)) {
                    this->noteRepaired(shard, nullptr, 1);
                    wrote = true;
                }
                sh.scrubGroupClean = true;
            }
            if (this->quarantined(shard))
                break;
        }
        if (wrote)
            env.sfence();
        this->media_[std::size_t(shard)].scrubRegions.fetch_add(
            done, std::memory_order_relaxed);
        return done;
    }

    FaultSurface
    faultSurface(int shard) const override
    {
        FaultSurface fs = Base::faultSurface(shard);
        const Shard &sh = shards_[std::size_t(shard)];
        fs.journal = sh.journal->data();
        fs.journalBytes = sh.journal->dataBytes();
        fs.sealedBytes = sh.journal->sealedBytes();
        fs.coveredBytes = sh.parity->coveredBytes();
        fs.parity = sh.parity->parityBlocks();
        fs.parityBytes = sh.parity->parityBytes();
        fs.parityHashes = sh.parity->hashes();
        fs.parityHashBytes = sh.parity->hashBytes();
        fs.parityHeader = sh.parity->header();
        return fs;
    }

    /**
     * Strict recovery treats every whole sealed region as covered, so
     * first cover the trailing partial group too (streaming stores
     * and a header flush that the base's fence drains).
     */
    void
    markClean(Env &env, int shard) override
    {
        Shard &sh = shards_[std::size_t(shard)];
        sh.parity->coverTail(
            env, sh.journal->sealedBytes(),
            sh.journal->storedWords(sh.parity->pendingRegion()));
        Base::markClean(env, shard);
    }

  private:
    struct Shard
    {
        ShardMeta *meta = nullptr;
        std::unique_ptr<BatchJournal<Env>> journal;
        std::unique_ptr<repair::RegionParity<Env>> parity;
        core::ChecksumAcc acc;

        /** The delta's keys in table order; reused by every fold. */
        std::vector<std::uint64_t> keys;

        /// @name Online-scrub walk state (owner thread only).
        /// @{
        std::size_t scrubCursor = 0;
        bool scrubGroupClean = true;
        /// @}
    };

    /**
     * Apply @p shard's delta to the table with Eager Persistency (the
     * fold's step (b), and recovery's replay): one table-order pass.
     * The delta accumulates since the last fold.
     */
    void
    applyDelta(Env &env, int shard)
    {
        std::vector<std::uint64_t> &keys = shards_[std::size_t(shard)].keys;
        const auto &delta = this->delta(shard);
        keys.clear();
        for (const auto &kv : delta)
            keys.push_back(kv.first);
        table().applyInTableOrder(env, keys, [&delta](std::uint64_t k) {
            return delta.find(k)->second;
        });
    }

    /**
     * Recovery epilogue: start a new life and restate the superblock
     * pair at @p committed with it, the applied seq replay found, and
     * the clean flag CLEARED (we are running again), restart the
     * journal/parity generation, and rebase the pipeline.
     */
    void
    resetShard(Env &env, Shard &sh, int shard,
               std::uint64_t committed, RecoveryReport &rep)
    {
        this->beginLife(shard);
        sh.journal->setLife(this->life(shard));
        if (!this->quarantined(shard))
            this->persistMeta(env, shard, committed, 0);
        sh.parity->resetGeneration(env, committed);
        env.sfence();
        sh.journal->reset();
        sh.acc.reset();
        this->delta(shard).clear();
        sh.scrubCursor = 0;
        sh.scrubGroupClean = true;
        pipeline(shard).rebase(committed);
        rep.committedEpochs[std::size_t(shard)] = committed;
    }

    std::vector<Shard> shards_;
};

} // namespace lp::store

#endif // LP_STORE_BACKEND_LP_HH
