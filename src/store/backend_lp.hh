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
 * shard XOR-folds the sealed 64B journal regions one whole 8-region
 * group at a time, at the commit that completes the group, from the
 * words the journal streamed out. Each group's parity line is
 * streamed whole, so it costs one NVMM write and no read;
 * markClean() covers the trailing partial group, which strict
 * recovery relies on. The batch digest is the journal's only
 * checksum, and it both detects a rotted batch and tells which
 * parity reconstruction restores it: REPAIR BY TRIAL (repairBatch)
 * offers, per parity group the batch overlaps, the reconstruction of
 * each of its covered regions, and accepts a choice of at most one
 * per group only when the batch's digest then validates. A batch's
 * digest lives in its trailer, a journal word like any other, so the
 * same trial repairs a rotted trailer. The shard superblock pair is
 * the base class's. Crash tears and media faults are disambiguated
 * by the clean-shutdown flag (store/layout.hh): recovery after a
 * PROVEN clean shutdown runs STRICT -- a validation failure there is
 * a media fault, repaired by trial or counted unrepairable
 * (quarantine) -- while recovery after a crash keeps the historical
 * discard semantics and only counts repairs the digest proves.
 *
 * Recovery. Per shard, arbitrate the superblock pair for the durable
 * foldedEpoch W and the shard's life, and walk the journal from
 * offset 0 expecting epochs W+1, W+2, ... (the BatchJournal::replay
 * walk): find each batch's trailer and check its tag, recompute the
 * life-salted digest over the records that actually reached NVMM,
 * and compare it with the digest the trailer carries. On the first
 * validation failure of a batch starting inside the parity-covered
 * prefix the batch is repaired by trial and, if that restored it,
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

#include <algorithm>
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
            sh.journal->open(env, pl.beginEpoch());
        }
        const std::uint64_t epoch = pl.openEpoch();
        sh.journal->append(env, op, key, value);
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
        sh.journal->seal(env);
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
        sh.scrub = ScrubCursor{};
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
        // repair it by trial. A batch starting past it has no covered
        // byte -- at the journal's natural end there is nothing to
        // repair, and the digest check alone decides.
        auto repairFn = [&](std::size_t pos, std::uint64_t e) {
            if (pos * sizeof(JEntry) >= sh.parity->coveredBytes())
                return false;
            const std::size_t n = repairBatch(env, sh, pos, e);
            if (n) {
                env.sfence();
                this->noteRepaired(shard, &rep, n);
            }
            return n > 0;
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
     * Online scrub: advance a cursor over the sealed batches that
     * start inside the covered journal prefix, validating each by its
     * digest (streaming loads) and repairing a failing one by trial.
     * The store is LIVE here -- no crash ambiguity -- so every
     * failure is a media fault: repairs count, and a batch no trial
     * restores counts unrepairable (which quarantines the shard and
     * ends the walk). Once the cursor has passed a parity group, every
     * batch overlapping it has validated, so the group's parity line
     * itself is recomputed from the words the walk read and rewritten
     * if it diverged (the "parity page is the corrupt one" case).
     * Reaching the end of the covered prefix audits the superblock
     * pair and completes a pass. Returns the covered regions the
     * cursor passed.
     */
    std::size_t
    scrub(Env &env, int shard, std::size_t maxRegions) override
    {
        if (this->quarantined(shard))
            return 0;
        Shard &sh = shards_[std::size_t(shard)];
        ScrubCursor &cur = sh.scrub;
        const std::size_t coveredBytes = sh.parity->coveredBytes();
        if (cur.pos * sizeof(JEntry) >= coveredBytes) {
            // Pass complete (or a fold restarted the generation):
            // close out with the superblock audit and wrap.
            this->auditMeta(env, shard, nullptr);
            this->media_[std::size_t(shard)].scrubPasses.fetch_add(
                1, std::memory_order_relaxed);
            cur = ScrubCursor{};
            return 0;
        }
        const auto load = [&](const std::uint64_t *p) {
            cur.words.push_back(env.ldStream(p));
            return cur.words.back();
        };
        const std::size_t groupBytes =
            repair::groupRegions * repair::regionBytes;
        // Whole covered regions the walk has passed once it reaches
        // @p pos; a step that does not end the pass passes at least
        // one.
        const auto passed = [&](std::size_t pos) {
            return std::min(pos * sizeof(JEntry), coveredBytes) /
                   repair::regionBytes;
        };
        const std::size_t start = passed(cur.pos);
        bool wrote = false;
        while (passed(cur.pos) - start < maxRegions &&
               cur.pos * sizeof(JEntry) < coveredBytes) {
            const std::uint64_t e =
                pipeline(shard).foldedEpoch() + 1 + cur.batches;
            std::uint64_t count = 0;
            const std::size_t mark = cur.words.size();
            auto c = sh.journal->check(env, cfg(), cur.pos, e, count, load);
            if (c != BatchJournal<Env>::Check::Valid) {
                cur.words.resize(mark);
                const std::size_t n = repairBatch(env, sh, cur.pos, e);
                if (n) {
                    this->noteRepaired(shard, nullptr, n);
                    wrote = true;
                    c = sh.journal->check(env, cfg(), cur.pos, e, count,
                                          load);
                }
                if (c != BatchJournal<Env>::Check::Valid) {
                    this->noteUnrepairable(shard, nullptr, 1);
                    break;
                }
            }
            cur.pos += count + 1;
            ++cur.batches;
            const std::size_t end =
                std::min(cur.pos * sizeof(JEntry), coveredBytes);
            for (; cur.groups * groupBytes < coveredBytes &&
                   std::min((cur.groups + 1) * groupBytes,
                            coveredBytes) <= end;
                 ++cur.groups) {
                if (sh.parity->scrubGroupParity(env, cur.groups,
                                                cur.words.data())) {
                    this->noteRepaired(shard, nullptr, 1);
                    wrote = true;
                }
                const std::size_t drop =
                    std::min(cur.words.size(), groupBytes / 8);
                cur.words.erase(cur.words.begin(),
                                cur.words.begin() +
                                    static_cast<std::ptrdiff_t>(drop));
            }
        }
        if (wrote)
            env.sfence();
        const std::size_t done = passed(cur.pos) - start;
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
    /**
     * Online-scrub walk state (owner thread only): the next batch's
     * journal entry; the batches and parity groups the walk has
     * passed since the generation began; and the words it validated
     * from the first one of the next group to re-check.
     */
    struct ScrubCursor
    {
        std::size_t pos = 0;
        std::uint64_t batches = 0;
        std::size_t groups = 0;
        std::vector<std::uint64_t> words;
    };

    struct Shard
    {
        ShardMeta *meta = nullptr;
        std::unique_ptr<BatchJournal<Env>> journal;
        std::unique_ptr<repair::RegionParity<Env>> parity;

        /** The delta's keys in table order; reused by every fold. */
        std::vector<std::uint64_t> keys;

        ScrubCursor scrub;
    };

    /** Trials repairBatch runs at most per batch. */
    static constexpr std::size_t kMaxRepairTrials = 1024;

    /**
     * Repair by trial the batch of epoch @p e expected at journal
     * entry @p pos, which failed validation. Every covered region of
     * the batch's window (BatchJournal::windowEnd) whose parity
     * reconstruction differs from what is stored there is a
     * candidate. XOR parity restores one region per group, so a trial
     * picks at most one candidate per parity group: trials over one
     * group run first, then over two, and so on, kMaxRepairTrials at
     * most. The first trial whose words validate the batch is written
     * back -- only the window's words, since the digest vouches for
     * nothing else. Returns the regions restored, 0 when no trial
     * validates; the caller fences.
     */
    std::size_t
    repairBatch(Env &env, Shard &sh, std::size_t pos, std::uint64_t e)
    {
        constexpr std::size_t rw = repair::regionWords;
        const auto *words =
            static_cast<const std::uint64_t *>(sh.journal->data());
        const std::size_t lo = 2 * pos;
        const std::size_t hi = 2 * sh.journal->windowEnd(cfg(), pos);
        const std::size_t rEnd = std::min((hi + rw - 1) / rw,
                                          sh.parity->coveredRegions());
        std::vector<std::uint64_t> view(hi - lo);
        for (std::size_t w = lo; w < hi; ++w)
            view[w - lo] = env.ldStream(&words[w]);

        // The window's words of each candidate, grouped by parity
        // group.
        struct Cand
        {
            std::size_t at;  ///< first window word it covers
            std::size_t n;
            std::uint64_t w[rw];
        };
        std::vector<std::vector<Cand>> groups;
        std::size_t lastGroup = 0;
        for (std::size_t r = lo / rw; r < rEnd; ++r) {
            std::uint64_t rec[rw];
            sh.parity->reconstruct(env, r, rec);
            Cand c;
            c.at = std::max(lo, r * rw);
            c.n = std::min(hi, r * rw + rw) - c.at;
            std::copy_n(rec + (c.at - r * rw), c.n, c.w);
            if (std::equal(c.w, c.w + c.n, view.begin() + (c.at - lo)))
                continue;
            const std::size_t g = r / repair::groupRegions;
            if (groups.empty() || g != lastGroup)
                groups.emplace_back();
            lastGroup = g;
            groups.back().push_back(c);
        }

        const auto swapIn = [&](Cand &c) {
            std::swap_ranges(c.w, c.w + c.n, view.begin() + (c.at - lo));
        };
        std::size_t trials = 0;
        const auto valid = [&] {
            ++trials;
            std::uint64_t count = 0;
            return sh.journal->check(
                       env, cfg(), pos, e, count,
                       [&](const std::uint64_t *p) {
                           return view[std::size_t(p - words) - lo];
                       }) == BatchJournal<Env>::Check::Valid;
        };
        // Try one candidate in each of @p left more groups, from group
        // @p g on; on success the chosen candidates are in `view`.
        std::vector<Cand *> chosen;
        const auto pick = [&](auto &self, std::size_t g,
                              std::size_t left) -> bool {
            if (left == 0)
                return valid();
            for (std::size_t h = g; h + left <= groups.size(); ++h) {
                for (Cand &c : groups[h]) {
                    if (trials >= kMaxRepairTrials)
                        return false;
                    swapIn(c);
                    chosen.push_back(&c);
                    if (self(self, h + 1, left - 1))
                        return true;
                    chosen.pop_back();
                    swapIn(c);
                }
            }
            return false;
        };
        for (std::size_t n = 1; n <= groups.size(); ++n) {
            if (!pick(pick, 0, n))
                continue;
            for (const Cand *c : chosen)
                sh.parity->restore(env, c->at, c->n, &view[c->at - lo]);
            return chosen.size();
        }
        return 0;
    }

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
        this->delta(shard).clear();
        sh.scrub = ScrubCursor{};
        pipeline(shard).rebase(committed);
        rep.committedEpochs[std::size_t(shard)] = committed;
    }

    std::vector<Shard> shards_;
};

} // namespace lp::store

#endif // LP_STORE_BACKEND_LP_HH
