/**
 * @file
 * Cross-shard transaction machinery (docs/txn_design.md): the
 * acceptor-side coordinator (routeTxn, vote collection, the
 * decision append) and the worker-side participant (lock
 * acquisition, resolution and vote, fast-path commit).
 */

#include "server/server_impl.hh"

#include <sys/stat.h>

#include <algorithm>
#include <optional>

#include "base/logging.hh"

namespace lp::server
{

/**
 * Service the fallout of a lock release: resume parked parts the
 * release granted, abort the ones it killed (whose own releases
 * can grant/kill further waiters -- hence the worklist), then
 * retry deferred work.
 */
void
Server::Impl::serviceLockEvents(Worker &w, txn::LockTable::Events ev)
{
    while (!ev.granted.empty() || !ev.died.empty()) {
        txn::LockTable::Events next;
        for (const auto id : ev.died)
            abortParked(w, id, next);
        for (const auto id : ev.granted)
            resumeParked(w, id, next);
        ev = std::move(next);
    }
    retryDeferred(w);
}

void
Server::Impl::resumeParked(Worker &w, txn::TxnId id,
                           txn::LockTable::Events &ev)
{
    const auto it = w.parked.find(id);
    if (it == w.parked.end())
        return;
    const Worker::ParkedTxn pk = std::move(it->second);
    w.parked.erase(it);
    // The awaited key (index pk.next) was just granted to us;
    // continue the plan past it.
    if (acquireTxnLocks(w, pk.ctx, pk.part, pk.next + 1, ev))
        voteTxnPart(w, pk.ctx, pk.part);
}

void
Server::Impl::abortParked(Worker &w, txn::TxnId id,
                          txn::LockTable::Events &ev)
{
    const auto it = w.parked.find(id);
    if (it == w.parked.end())
        return;
    const Worker::ParkedTxn pk = std::move(it->second);
    w.parked.erase(it);
    const TxnCtx::Part &part = pk.ctx->parts[pk.part];
    // Keys before the awaited index are held; drop them. (The
    // lock table already removed the killed waiter entry.)
    w.lockTable.releaseAll(
        id,
        {part.locks.keys.begin(),
         part.locks.keys.begin() + std::ptrdiff_t(pk.next)},
        ev);
    abortTxnPart(w, pk.ctx, false);
}

/**
 * Drive @p partIdx's lock plan from index @p next. True once
 * every lock is held; false when the part parked (resumed by a
 * later grant) or died (already aborted here).
 */
bool
Server::Impl::acquireTxnLocks(Worker &w,
                              const std::shared_ptr<TxnCtx> &ctx,
                              std::size_t partIdx, std::size_t next,
                              txn::LockTable::Events &ev)
{
    const TxnCtx::Part &part = ctx->parts[partIdx];
    for (; next < part.locks.keys.size(); ++next) {
        const auto got =
            w.lockTable.acquire(ctx->txnid, part.locks.keys[next],
                                part.locks.modes[next]);
        if (got == txn::Acquire::Granted)
            continue;
        if (got == txn::Acquire::Waiting) {
            w.parked[ctx->txnid] =
                Worker::ParkedTxn{ctx, partIdx, next};
            return false;
        }
        // Wait-die says die: drop what we hold and abort.
        w.lockTable.releaseAll(
            ctx->txnid,
            {part.locks.keys.begin(),
             part.locks.keys.begin() + std::ptrdiff_t(next)},
            ev);
        abortTxnPart(w, ctx, false);
        return false;
    }
    return true;
}

/** This part is out (locks already dropped): reply directly on
 *  the fast path, else vote Aborted to the coordinator. */
void
Server::Impl::abortTxnPart(Worker &w,
                           const std::shared_ptr<TxnCtx> &ctx,
                           bool faulted)
{
    if (faulted)
        ctx->faulted.store(true, std::memory_order_release);
    if (ctx->fastPath) {
        w.statTxnAborts.fetch_add(1, std::memory_order_relaxed);
        w.txnAbortNs.record(obs::nowNs() - ctx->tStartNs);
        postReply(*ctx, statusReply(faulted ? Status::Fault
                                            : Status::Aborted,
                                    ctx->reqId));
        return;
    }
    ctx->abortedParts.fetch_add(1, std::memory_order_relaxed);
    postReply(ReplyMsg{0, 0, {}, ctx});
}

/**
 * Locks held: resolve this part's ops (txn::resolve) into its
 * write-set, fill the transaction's read slots, then run the
 * single-shard fast path or vote commit. The vote persists nothing:
 * the coordinator's decision entry will carry the write-set.
 */
void
Server::Impl::voteTxnPart(Worker &w,
                          const std::shared_ptr<TxnCtx> &ctx,
                          std::size_t partIdx)
{
    TxnCtx::Part &part = ctx->parts[partIdx];
    part.writes = txn::resolve(
        ctx->ops, part.ops,
        [&](std::uint64_t key) { return w.kv->get(w.env, key); },
        [&](std::uint32_t i, const std::optional<std::uint64_t> &v) {
            ctx->reads[std::size_t(ctx->readSlot[i])] =
                TxnRead{v.has_value(), v.value_or(0)};
        });

    // Quarantine backstop on the owning thread (the acceptor's
    // precheck can race with a scrub discovering corruption).
    const bool faulted = !part.writes.empty() && w.kv->quarantined(0);
    if (!faulted && ctx->fastPath) {
        commitTxnFast(w, ctx, part);
        return;
    }
    if (faulted) {
        txn::LockTable::Events ev;
        w.lockTable.releaseAll(ctx->txnid, part.locks.keys, ev);
        abortTxnPart(w, ctx, true);
        serviceLockEvents(w, std::move(ev));
        return;
    }
    if (!part.writes.empty())
        ++w.unappliedTxns;
    part.prepared = true;
    postReply(ReplyMsg{0, 0, {}, ctx});
}

/**
 * Single-shard fast path: stage the whole write-set as one epoch
 * (txn::stageOneEpoch), with no decision record and no eager
 * protocol flush. This is where LP's commit-latency win over WAL
 * must survive. The reply and the lock release both
 * wait for the epoch commit (releaseAck).
 */
void
Server::Impl::commitTxnFast(Worker &w,
                            const std::shared_ptr<TxnCtx> &ctx,
                            TxnCtx::Part &part)
{
    std::string body = encodeTxnReadsBody(ctx->reads);
    if (part.writes.empty()) {
        // Read-only: nothing to persist, commit straight away.
        finishFastTxn(w, *ctx, std::move(body));
        return;
    }
    const std::uint64_t epoch =
        txn::stageOneEpoch(w.env, *w.kv, 0, part.writes);
    w.statMuts.fetch_add(part.writes.size(), std::memory_order_relaxed);
    w.pending.push_back(Worker::Pending{ctx->connId, ctx->reqId, epoch,
                                        obs::nowNs(), 0, nullptr, ctx,
                                        std::move(body)});
}

/** A fast-path TXN committed: reply with its reads @p body, then
 *  release its locks. */
void
Server::Impl::finishFastTxn(Worker &w, const TxnCtx &ctx,
                            std::string body)
{
    Response r;
    r.status = Status::Ok;
    r.id = ctx.reqId;
    r.body = std::move(body);
    postReply(ctx, std::move(r));
    w.statTxnCommits.fetch_add(1, std::memory_order_relaxed);
    w.txnCommitNs.record(obs::nowNs() - ctx.tStartNs);
    txn::LockTable::Events ev;
    w.lockTable.releaseAll(ctx.txnid, ctx.parts[0].locks.keys, ev);
    serviceLockEvents(w, std::move(ev));
}

/**
 * Coordinator entry: validate, pick the path, reserve a decision-ring
 * entry for a general-path TXN that writes (Retry when the ring is
 * pinned), split the wire ops into per-shard parts with their lock
 * plans, and fan out.
 */
void
Server::Impl::routeTxn(Conn &c, Request &req)
{
    for (const TxnOp &t : req.txn) {
        if (t.key > store::maxUserKey)
            return refuse(c, statErrs, Status::Err, req.id);
    }
    // Quarantine precheck. Unlike BATCH (per-op Fault votes)
    // the worker-side backstop aborts the WHOLE transaction,
    // so this mirror read just refuses early.
    for (const TxnOp &t : req.txn) {
        if (t.kind != TxnOp::Kind::Get &&
            workers[std::size_t(routeShard(t.key, cfg.shards))]
                ->kv->quarantined(0))
            return refuse(c, statFaults, Status::Fault, req.id);
    }
    if (c.inflight >= cfg.maxInflightPerConn)
        return refuse(c, statRetries, Status::Retry, req.id);
    const auto shardOf = [&](std::uint64_t key) {
        return routeShard(key, cfg.shards);
    };
    const bool fastPath =
        txn::fastPath(req.txn, shardOf, cfg.backend, cfg.batchOps);
    const bool writes = std::any_of(
        req.txn.begin(), req.txn.end(),
        [](const TxnOp &t) { return t.kind != TxnOp::Kind::Get; });
    if (!fastPath && writes &&
        !dlog->reserve([&](int s) {
            return workers[std::size_t(s)]->durableApplied.load(
                std::memory_order_acquire);
        })) {
        statTxnRingFull.fetch_add(1, std::memory_order_relaxed);
        return refuse(c, statRetries, Status::Retry, req.id);
    }
    auto ctx = std::make_shared<TxnCtx>();
    ctx->fastPath = fastPath;
    ctx->ringReserved = !fastPath && writes;
    ctx->txnid = nextTxnId++;
    ctx->connId = c.id;
    ctx->reqId = req.id;
    ctx->tStartNs = obs::nowNs();
    ctx->ops = std::move(req.txn);
    ctx->readSlot.assign(ctx->ops.size(), -1);
    // Split ops by shard into parts (wire order preserved
    // within a part), each with its lock plan.
    std::unordered_map<int, std::size_t> partOf;
    for (std::size_t i = 0; i < ctx->ops.size(); ++i) {
        const TxnOp &t = ctx->ops[i];
        const int shard = shardOf(t.key);
        const auto [pit, fresh] =
            partOf.try_emplace(shard, ctx->parts.size());
        if (fresh) {
            ctx->parts.emplace_back();
            ctx->parts.back().shard = shard;
        }
        TxnCtx::Part &part = ctx->parts[pit->second];
        part.ops.push_back(std::uint32_t(i));
        if (t.kind == TxnOp::Kind::Get) {
            ctx->readSlot[i] = int(ctx->reads.size());
            ctx->reads.emplace_back();
        }
    }
    for (auto &part : ctx->parts)
        part.locks = txn::lockPlan(ctx->ops, part.ops);
    ctx->votesLeft = int(ctx->parts.size());
    ctx->weight = std::uint32_t(ctx->parts.size());
    c.admit(ctx->weight);
    const std::uint64_t tEnq = obs::nowNs();
    for (std::size_t i = 0; i < ctx->parts.size(); ++i) {
        OpItem it;
        it.kind = OpItem::Kind::Txn;
        it.part = std::uint32_t(i);
        it.connId = c.id;
        it.reqId = req.id;
        it.tEnqNs = tEnq;
        it.ctx = ctx;
        enqueue(ctx->parts[i].shard, std::move(it));
    }
}

/**
 * Every participant voted (general path only; the fast path never
 * votes). A unanimous commit vote commits; any Aborted vote aborts.
 * Either way every part gets a follow-up op -- read-only parts
 * included, since they hold locks to release -- and the client's
 * reply is returned for drainReplies() to deliver.
 */
Response
Server::Impl::finishTxn(const std::shared_ptr<TxnCtx> &ctx)
{
    const std::uint64_t tEnq = obs::nowNs();
    if (ctx->abortedParts.load(std::memory_order_acquire) > 0) {
        if (ctx->ringReserved)
            dlog->unreserve();
        for (std::size_t i = 0; i < ctx->parts.size(); ++i) {
            if (!ctx->parts[i].prepared)
                continue;
            OpItem it;
            it.kind = OpItem::Kind::TxnAbort;
            it.part = std::uint32_t(i);
            it.tEnqNs = tEnq;
            it.ctx = ctx;
            enqueue(ctx->parts[i].shard, std::move(it));
        }
        const bool faulted =
            ctx->faulted.load(std::memory_order_acquire);
        if (faulted)
            statFaults.fetch_add(1, std::memory_order_relaxed);
        statTxnAborts.fetch_add(1, std::memory_order_relaxed);
        txnAbortNs.record(obs::nowNs() - ctx->tStartNs);
        return statusReply(faulted ? Status::Fault : Status::Aborted,
                           ctx->reqId);
    }
    // The decision append (stores, a clwb per line, one fence) IS
    // the commit: the entry holds every part's write-set, so the
    // outcome is recoverable from it alone, the client reply goes
    // out now and the applies stay lazy.
    if (ctx->ringReserved) {
        std::vector<txn::WriteOp> writes;
        std::vector<int> shards;
        for (const auto &part : ctx->parts) {
            writes.insert(writes.end(), part.writes.begin(),
                          part.writes.end());
            if (!part.writes.empty())
                shards.push_back(part.shard);
        }
        ctx->seq = dlog->append(txnEnv, ctx->txnid, writes,
                                std::move(shards));
    }
    Response r;
    r.status = Status::Ok;
    r.id = ctx->reqId;
    r.body = encodeTxnReadsBody(ctx->reads);
    statTxnCommits.fetch_add(1, std::memory_order_relaxed);
    const std::uint64_t commitDt = obs::nowNs() - ctx->tStartNs;
    txnCommitNs.record(commitDt);
    // Coordinator-side span covering route->decision; the flow id
    // connects it to the per-shard vote/apply queue spans.
    obs::traceSpanFrom(acceptRing, "txn_commit", ctx->tStartNs,
                       ctx->txnid, ctx->traceId());
    txnCommitNs.recordExemplar(commitDt, ctx->traceId());
    for (std::size_t i = 0; i < ctx->parts.size(); ++i) {
        OpItem it;
        it.kind = OpItem::Kind::TxnApply;
        it.part = std::uint32_t(i);
        it.tEnqNs = tEnq;
        it.ctx = ctx;
        enqueue(ctx->parts[i].shard, std::move(it));
    }
    return r;
}

/**
 * Map (or create) the coordinator's decision log and scan it.
 * Runs on the start() thread before the acceptor spawns; the
 * thread-creation fence publishes dlog to the acceptor, and the
 * readiness latch orders the scan before any worker's TxnRecover.
 */
void
Server::Impl::openTxnLog()
{
    const std::string path = cfg.dataDir + "/txnlog.lpdb";
    struct stat st{};
    const bool attach =
        ::stat(path.c_str(), &st) == 0 && st.st_size > 0;
    txnArena = std::make_unique<pmem::PersistentArena>(
        txn::decisionLogBytes(kTxnDecisionEntries), path);
    dlog = std::make_unique<txn::DecisionLog<kernels::NativeEnv>>(
        *txnArena, kTxnDecisionEntries, attach);
    if (!attach)
        txnArena->persistAll();
    dlogMaxTxnId = dlog->scan(txnEnv);
}

} // namespace lp::server
