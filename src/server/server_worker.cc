/**
 * @file
 * The shard worker: store open/recovery, the dequeue-dispatch-
 * commit-release round on engine::planShardRound's schedule,
 * strict-FIFO deferral, and the ack release (a reply waits for its
 * epoch's commit, bounded by the flush deadline). One thread per
 * shard; each round runs under the shard lock (Worker::storeMu),
 * which the acceptor also takes to serve a read or stage a mutation
 * of an idle shard. See server_impl.hh for the ownership contract.
 */

#include "server/server_impl.hh"

#include <sys/stat.h>

#include <algorithm>

#include "base/logging.hh"

namespace lp::server
{

/**
 * Open (or re-attach) this worker's single-shard store. Runs on
 * the worker's own thread so the debug owner binding and all
 * recovery table writes happen on the thread that will serve the
 * shard.
 */
void
Server::Impl::openStore(Worker &w)
{
    store::StoreConfig scfg;
    scfg.capacity = cfg.capacityPerShard;
    scfg.shards = 1;
    scfg.batchOps = cfg.batchOps;
    scfg.foldBatches = cfg.foldBatches;
    const std::string path = shardPath(w.index);
    struct stat st{};
    const bool attach = ::stat(path.c_str(), &st) == 0 &&
                        st.st_size > 0;
    // Arena budget: the flight-recorder ring FIRST (so postmortem
    // finds it at the arena base offset in the raw file -- the
    // obs::FlightRing placement contract), then the store image,
    // allocated in that order on every open (the arena attach
    // contract).
    w.arena = std::make_unique<pmem::PersistentArena>(
        obs::FlightRing::bytesFor(kFlightEvents) +
            store::storeArenaBytes(scfg),
        path);
    w.flight = std::make_unique<obs::FlightRing>(
        *w.arena, kFlightEvents, std::uint32_t(w.index));
    w.kv = std::make_unique<store::KvStore<kernels::NativeEnv>>(
        *w.arena, scfg, cfg.backend, attach);
    // Attach the trace ring before recovery so the replay's
    // "recover_shard" span lands in the collector -- and tee it
    // into the flight recorder, which persists every span this
    // worker emits (the volatile ring stops at capacity, and stores
    // nothing unless a trace file will be written; the flight copy
    // keeps wrapping).
    if (w.ring) {
        w.kv->attachTraceRing(0, w.ring);
        w.ring->attachSink(w.flight.get());
    }
    if (attach) {
        w.report = w.kv->recover(w.env);
        w.attached = true;
    } else {
        w.arena->persistAll();
    }
    w.statCommittedEpoch.store(w.kv->committedEpoch(0),
                               std::memory_order_relaxed);
    w.lastScrubNs = obs::nowNs();
    if (w.kv->quarantined(0)) {
        w.quarantineLogged = true;
        warn("lp::server shard " + std::to_string(w.index) +
             " has unrepairable media corruption; serving "
             "read-only (mutations get Fault)");
    }
}

/** Acknowledge one released pending entry: a PUT/DEL, a BATCH
 *  sub-op, a fast-path TXN, or an applied TXN part. */
void
Server::Impl::releaseAck(Worker &w, Worker::Pending &p)
{
    // Commit-wait span + exemplar: staged -> its epoch committed.
    // Every branch below records commitWaitNs; doing it here once
    // keeps the histogram, the exemplar, and the trace span over
    // the identical interval.
    const std::uint64_t waitDt = obs::nowNs() - p.tStagedNs;
    if (p.connId != 0 || p.txn) {
        obs::traceSpanFrom(w.ring, "commit_wait", p.tStagedNs,
                           p.epoch, p.traceId);
        if (p.traceId)
            w.commitWaitNs.recordExemplar(waitDt, p.traceId);
    }
    if (p.txn) {
        // Fast-path TXN: the epoch carrying the whole write-set
        // committed, so the transaction is durable -- reply, then
        // release the locks (held until now so no later
        // transaction could commit against values a crash might
        // still have discarded with the unsealed batch).
        w.commitWaitNs.record(waitDt);
        finishFastTxn(w, *p.txn, std::move(p.txnBody));
        return;
    }
    if (p.connId == 0)
        return;  // internal apply of a committed TXN: no reply
    w.commitWaitNs.record(waitDt);
    if (p.batch) {
        if (!p.batch->remaining.arrive())
            return;  // not the last sub-op yet
        Response r;
        r.status = p.batch->faulted.load(std::memory_order_acquire)
                       ? Status::Fault
                       : Status::Ok;
        r.id = p.batch->reqId;
        postReply(*p.batch, std::move(r));
        return;
    }
    Response r;
    r.status = Status::Ok;
    r.id = p.reqId;
    postReply(p.connId, std::move(r));
}

/**
 * Release every pending ack whose epoch has committed. An ack that
 * releaseAck() itself stages (a lock grant running a parked
 * transaction) carries an epoch past the watermark read on entry,
 * so it waits for a later round.
 */
void
Server::Impl::releaseCommitted(Worker &w)
{
    const std::uint64_t ce = w.kv->committedEpoch(0);
    const std::uint64_t prevCe =
        w.statCommittedEpoch.load(std::memory_order_relaxed);
    while (!w.pending.empty() && w.pending.front().epoch <= ce) {
        w.statAcksReleased.fetch_add(1, std::memory_order_relaxed);
        releaseAck(w, w.pending.front());
        w.pending.pop_front();
    }
    w.durableApplied.store(w.kv->durableAppliedSeq(0),
                           std::memory_order_release);
    w.statCommittedEpoch.store(ce, std::memory_order_relaxed);
    // Seal the flight recorder on the epoch-commit cadence: the
    // watermark publish is one header write, and riding commits
    // means everything up to the last committed epoch's spans is
    // recoverable by postmortem after a SIGKILL.
    if (ce != prevCe)
        w.flight->seal();
}

/** @p w's schedule (engine::planShardRound) as of now. The caller
 *  holds w.storeMu or w.mu: either keeps pending's front in place. */
engine::ShardPlan
Server::Impl::planRound(const Worker &w, bool stopping, bool dequeued) const
{
    std::optional<std::uint64_t> oldestAck;
    if (!w.pending.empty())
        oldestAck = w.pending.front().tStagedNs;
    return engine::planShardRound(
        {obs::nowNs(), oldestAck, stopping, dequeued, w.lastScrubNs,
         w.kv->appliedSeq(0) > w.kv->durableAppliedSeq(0)},
        cfg.flushDeadlineUs, cfg.scrubIntervalMs);
}

/// Can this kind join Worker::deferred? Single-key Gets bypass
/// (a point read tears nothing: prepared writes are invisible
/// until apply), as do the TxnApply/TxnAbort decision fan-outs
/// that drain the queue.
bool
Server::Impl::deferrable(OpItem::Kind k)
{
    return k == OpItem::Kind::Scan || k == OpItem::Kind::Put ||
           k == OpItem::Kind::Del || k == OpItem::Kind::Txn;
}

/**
 * Must @p op wait for a lock-state change before running? Only
 * meaningful when nothing older is queued ahead of it (strict
 * FIFO handles that part).
 */
bool
Server::Impl::deferNow(Worker &w, const OpItem &op) const
{
    switch (op.kind) {
      case OpItem::Kind::Scan:
        // A granted write lock may cover a prepared-but-
        // unapplied transaction write; a sub-scan passing
        // through it could hand the k-way merge a half-applied
        // transaction.
        return w.unappliedTxns > 0 &&
               w.lockTable.anyWriteLockedAtOrAbove(op.key);
      case OpItem::Kind::Put:
      case OpItem::Kind::Del:
        // A plain store between a transaction's resolve and its
        // apply would be clobbered by the apply (lost update).
        return w.unappliedTxns > 0 &&
               w.lockTable.writeLocked(op.key);
      default:
        // Txn parts always run once they reach the front: lock
        // acquisition itself resolves conflicts (grant, park,
        // or wait-die abort).
        return false;
    }
}

/// Run @p op now unless strict FIFO or its own defer condition
/// says it must queue (see Worker::deferred).
void
Server::Impl::dispatchOp(Worker &w, OpItem &op)
{
    if (deferrable(op.kind) &&
        (!w.deferred.empty() || deferNow(w, op))) {
        op.tEnqNs = obs::nowNs();
        w.deferred.push_back(std::move(op));
        return;
    }
    processOp(w, op);
}

/**
 * After a lock-state change, drain deferred work from the
 * front, stopping at the first item that must still wait --
 * never past it, or a later scan/part would observe a cut
 * inconsistent with its siblings on other shards.
 */
void
Server::Impl::retryDeferred(Worker &w)
{
    while (!w.deferred.empty() &&
           !deferNow(w, w.deferred.front())) {
        OpItem op = std::move(w.deferred.front());
        w.deferred.pop_front();
        processOp(w, op);
    }
}

/** GET @p key on @p w's shard; the caller holds w.storeMu. */
Response
Server::Impl::readKey(Worker &w, std::uint64_t key, std::uint64_t reqId)
{
    const auto v = w.kv->get(w.env, key);
    w.statGets.fetch_add(1, std::memory_order_relaxed);
    Response r;
    r.status = v ? Status::Ok : Status::NotFound;
    r.id = reqId;
    r.hasValue = v.has_value();
    r.value = v.value_or(0);
    return r;
}

/**
 * Stage one PUT or DEL (a request or a BATCH sub-op) on @p w's shard
 * and queue its ack. The caller holds w.storeMu; the acceptor's
 * inline stage also holds w.mu (see Worker::pending).
 */
void
Server::Impl::stageMutation(Worker &w, const OpItem &op)
{
    // Quarantine backstop: the acceptor's fast-path check can race
    // with a scrub discovering corruption, so the authoritative
    // refusal lives here, under the shard lock.
    if (w.kv->quarantined(0)) {
        if (BatchCtx *b = op.batch()) {
            b->faulted.store(true, std::memory_order_release);
            if (b->remaining.arrive())
                postReply(*b, statusReply(Status::Fault, b->reqId));
            return;
        }
        postReply(op.connId, statusReply(Status::Fault, op.reqId));
        return;
    }
    const std::uint64_t traceId = op.traceId();
    const std::uint64_t epoch =
        op.kind == OpItem::Kind::Put
            ? w.kv->put(w.env, op.key, op.value, traceId)
            : w.kv->del(w.env, op.key, traceId);
    w.statMuts.fetch_add(1, std::memory_order_relaxed);
    // Every mutation waits for its epoch to commit; the worker's
    // next releaseCommitted() releases it the same round for
    // backends that commit per op (eager, and WAL when the op
    // filled its batch).
    w.pending.push_back(Worker::Pending{
        op.connId, op.reqId, epoch, obs::nowNs(), traceId,
        std::static_pointer_cast<BatchCtx>(op.ctx), nullptr, {}});
}

/**
 * Sub-scan of @p w's shard into @p out; the caller holds w.storeMu.
 * KvStore::scan records the per-shard scan latency/length histograms
 * itself (single-shard store: shard 0 is exactly this shard).
 */
void
Server::Impl::scanShard(Worker &w, std::uint64_t start,
                        std::uint32_t limit, std::vector<ScanRecord> &out)
{
    const auto recs = w.kv->scan(w.env, start, std::size_t(limit));
    w.statScans.fetch_add(1, std::memory_order_relaxed);
    out.reserve(recs.size());
    for (const auto &[k, v] : recs)
        out.push_back(ScanRecord{k, v});
}

Response
scanReply(const std::vector<ScanRecord> &records, std::uint64_t reqId)
{
    Response r;
    r.status = Status::Ok;
    r.id = reqId;
    r.body = encodeScanBody(records);
    return r;
}

Response
mergedScanReply(const std::vector<std::vector<ScanRecord>> &parts,
                std::uint32_t limit, std::uint64_t reqId)
{
    struct Part
    {
        const ScanRecord *at;
        const ScanRecord *end;
        bool valid() const { return at != end; }
        std::uint64_t key() const { return at->key; }
        void advance() { ++at; }
    };
    std::vector<Part> cur;
    cur.reserve(parts.size());
    for (const auto &p : parts)
        cur.push_back(Part{p.data(), p.data() + p.size()});
    std::vector<ScanRecord> merged;
    merged.reserve(limit);
    index::mergeCursors(cur, limit, [&](std::size_t s, std::uint64_t) {
        merged.push_back(*cur[s].at);
        return true;
    });
    return scanReply(merged, reqId);
}

void
Server::Impl::processOp(Worker &w, OpItem &op)
{
    const std::uint64_t queueDt = obs::nowNs() - op.tEnqNs;
    w.queueNs.record(queueDt);
    if (const std::uint64_t traceId = op.traceId()) {
        obs::traceSpanFrom(w.ring, "queue", op.tEnqNs, op.reqId, traceId);
        w.queueNs.recordExemplar(queueDt, traceId);
    }
    switch (op.kind) {
      case OpItem::Kind::Get:
        postReply(op.connId, readKey(w, op.key, op.reqId));
        return;
      case OpItem::Kind::Scan: {
        // Defer conditions were checked by dispatchOp /
        // retryDeferred; by the time a sub-scan runs here, no
        // prepared-but-unapplied transaction write can be under
        // its range.
        ScanCtx &ctx = *op.scan();
        scanShard(w, op.key, ctx.limit, ctx.parts[std::size_t(w.index)]);
        if (!ctx.remaining.arrive())
            return;  // other shards still scanning
        postReply(ctx, mergedScanReply(ctx.parts, ctx.limit, ctx.reqId));
        return;
      }
      case OpItem::Kind::Put:
      case OpItem::Kind::Del:
        stageMutation(w, op);
        return;
      case OpItem::Kind::Txn: {
        const auto ctx = std::static_pointer_cast<TxnCtx>(op.ctx);
        txn::LockTable::Events ev;
        if (acquireTxnLocks(w, ctx, op.part, 0, ev))
            voteTxnPart(w, ctx, op.part);
        serviceLockEvents(w, std::move(ev));
        return;
      }
      case OpItem::Kind::TxnApply: {
        // Coordinator decided commit: apply this part's write-set
        // lazily (the decision record makes it recoverable), its
        // Applied record riding the same epochs, then release the
        // locks. The record is staged before any later write to
        // these keys, so a durable later write implies a durable
        // record and recovery never re-runs a superseded apply.
        TxnCtx &ctx = *op.txn();
        TxnCtx::Part &part = ctx.parts[op.part];
        if (!part.writes.empty()) {
            const std::uint64_t epoch =
                txn::applyPart(w.env, *w.kv, 0, ctx.seq, part.writes);
            w.statMuts.fetch_add(part.writes.size(),
                                 std::memory_order_relaxed);
            // One internal ack for the part, at its last epoch: the
            // one the deadline commit has to reach.
            w.pending.push_back(Worker::Pending{
                0, 0, epoch, obs::nowNs(), ctx.traceId(), nullptr,
                nullptr, {}});
            --w.unappliedTxns;
        }
        txn::LockTable::Events ev;
        w.lockTable.releaseAll(ctx.txnid, part.locks.keys, ev);
        serviceLockEvents(w, std::move(ev));
        return;
      }
      case OpItem::Kind::TxnAbort: {
        // Coordinator decided abort and this part had voted commit:
        // nothing of it was persisted, so dropping its locks IS the
        // roll-back.
        TxnCtx &ctx = *op.txn();
        TxnCtx::Part &part = ctx.parts[op.part];
        if (!part.writes.empty())
            --w.unappliedTxns;
        txn::LockTable::Events ev;
        w.lockTable.releaseAll(ctx.txnid, part.locks.keys, ev);
        serviceLockEvents(w, std::move(ev));
        return;
      }
      case OpItem::Kind::TxnRecover: {
        // Startup phase 2 (after every shard's own recovery and
        // the coordinator's decision-ring scan): roll this shard's
        // part of every later decision forward.
        w.txnReport = txn::recoverTxns(
            w.env, *w.kv, *dlog, [&](std::uint64_t key) {
                return routeShard(key, cfg.shards) == w.index;
            });
        w.durableApplied.store(w.kv->durableAppliedSeq(0),
                               std::memory_order_release);
        {
            std::lock_guard<std::mutex> g(readyMu);
            ++txnReadyCount;
        }
        readyCv.notify_all();
        return;
      }
    }
}

void
Server::Impl::workerMain(Worker &w)
{
    openStore(w);
    {
        std::lock_guard<std::mutex> g(readyMu);
        ++readyCount;
    }
    readyCv.notify_all();

    std::vector<OpItem> local;
    for (;;) {
        bool stopping = false;
        local.clear();
        {
            std::unique_lock<std::mutex> lk(w.mu);
            const auto woken = [&] {
                return w.stopFlag || !w.q.empty();
            };
            if (w.q.empty() && !w.stopFlag) {
                w.statWakeups.fetch_add(1, std::memory_order_relaxed);
                const auto wake = planRound(w, false, false).wakeNs;
                if (wake)
                    w.cv.wait_for(lk,
                                  std::chrono::nanoseconds(std::int64_t(
                                      *wake - obs::nowNs())),
                                  woken);
                else
                    w.cv.wait(lk, woken);
            }
        }

        // The round runs under the shard lock, taken with w.mu
        // released (lock order: storeMu, then mu). Dequeuing under
        // it is what lets the acceptor read inline: while it holds
        // storeMu, an empty queue means every request routed here
        // so far has run.
        std::lock_guard<std::mutex> shard(w.storeMu);
        w.kv->claimShards();
        {
            std::lock_guard<std::mutex> g(w.mu);
            while (!w.q.empty() && local.size() < 128) {
                local.push_back(std::move(w.q.front()));
                w.q.pop_front();
            }
            stopping = w.stopFlag && w.q.empty();
            w.statQueueDepth.store(w.q.size(),
                                   std::memory_order_relaxed);
        }

        for (OpItem &op : local)
            dispatchOp(w, op);

        const engine::ShardPlan plan =
            planRound(w, stopping, !local.empty());
        if (plan.commit == engine::CommitReason::Deadline) {
            w.statDeadlineCommits.fetch_add(1, std::memory_order_relaxed);
            obs::traceInstant(w.ring, "deadline_commit",
                              w.kv->pipeline(0).lastCommitted() + 1);
        } else if (plan.commit == engine::CommitReason::Drain) {
            w.statDrainCommits.fetch_add(1, std::memory_order_relaxed);
        }
        if (plan.fold)
            w.kv->checkpoint(w.env);
        else if (plan.commit != engine::CommitReason::None)
            w.kv->commitBatches(w.env);
        releaseCommitted(w);

        if (plan.scrub) {
            w.lastScrubNs = obs::nowNs();
            w.kv->scrubStep(w.env, 0, kScrubRegions);
            if (!w.quarantineLogged && w.kv->quarantined(0)) {
                w.quarantineLogged = true;
                warn("lp::server shard " + std::to_string(w.index) +
                     " quarantined by scrub: unrepairable "
                     "media corruption; serving read-only");
            }
        }

        if (stopping) {
            // Parked, deferred, and voted-but-undecided
            // transaction work dies with the connections -- to a
            // client an unacked request lost at shutdown is
            // indistinguishable from one lost in flight. Nothing
            // of an undecided transaction was persisted; a decided
            // one's applies are already staged.
            w.parked.clear();
            w.deferred.clear();
            // Graceful drain: everything committed and folded, so
            // a restart recovers instantly. The clean-shutdown
            // mark switches the next recovery into strict mode,
            // where a validation failure is a media fault (repair
            // or quarantine) rather than a crash tear. A
            // quarantined shard keeps its pre-fault superblock
            // untouched so the restart re-detects the quarantine.
            if (!w.kv->quarantined(0))
                w.kv->checkpoint(w.env);
            w.kv->markClean(w.env);
            w.arena->persistAll();
            releaseCommitted(w);
            // Final flight watermark: the drain marker plus every
            // span the epoch-cadence seal had not covered yet.
            obs::traceInstant(w.ring, "drain", w.kv->committedEpoch(0));
            w.flight->seal();
            LP_ASSERT(w.pending.empty(),
                      "worker drained with unreleased acks");
            break;
        }
    }
    workersExited.fetch_add(1, std::memory_order_release);
    wakeFd.signal();  // let the acceptor notice the exit
}

void
Server::Impl::enqueue(int shard, OpItem &&op)
{
    Worker &w = *workers[shard];
    bool wasEmpty;
    {
        std::lock_guard<std::mutex> g(w.mu);
        wasEmpty = w.q.empty();
        w.q.push_back(std::move(op));
    }
    // Notify only on the empty->nonempty edge: the worker checks the
    // queue under the same mutex before sleeping, so a push onto a
    // non-empty queue is already covered by an earlier notify (or by
    // the worker being awake).
    if (wasEmpty)
        w.cv.notify_one();
}

} // namespace lp::server
