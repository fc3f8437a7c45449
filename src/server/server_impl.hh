/**
 * @file
 * Internal definition of Server::Impl, shared by the server's
 * translation units:
 *
 *   server.cc        -- lifecycle + the acceptor datapath (accept,
 *                       frame decode, reply flush) on lp::net
 *   server_worker.cc -- the shared-nothing shard worker loop
 *   server_txn.cc    -- the transaction coordinator + participant
 *   server_stats.cc  -- STATS JSON and METRICS exposition rendering
 *
 * Not installed, not part of the public API: include server/server.hh
 * from outside.
 */

#ifndef LP_SERVER_SERVER_IMPL_HH
#define LP_SERVER_SERVER_IMPL_HH

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "engine/commit_pipeline.hh"
#include "kernels/env.hh"
#include "net/connection.hh"
#include "net/event_loop.hh"
#include "obs/flight.hh"
#include "obs/histogram.hh"
#include "obs/trace.hh"
#include "pmem/arena.hh"
#include "server/protocol.hh"
#include "server/server.hh"
#include "store/kv_store.hh"
#include "txn/decision_log.hh"
#include "txn/lock_table.hh"
#include "txn/protocol.hh"
#include "txn/recovery.hh"

namespace lp::server
{

/**
 * Server-level key router: store::shardOfKey, the exact function
 * KvStore routes with, so the distribution matches the store's own
 * sharding. Each worker's store is configured with shards = 1, so
 * inside a worker every key maps to the single shard that worker
 * owns.
 */
inline int
routeShard(std::uint64_t key, int shards)
{
    return store::shardOfKey(key, shards);
}

/** A payload-less response (Ok/NotFound/Retry/Err ack). */
inline Response
statusReply(Status s, std::uint64_t id)
{
    Response r;
    r.status = s;
    r.id = id;
    return r;
}

/**
 * The last-finisher countdown of a scatter-gather request: every
 * participant calls arrive() exactly once when its part is done, and
 * only the last one sees true and emits the single reply. The
 * acq_rel decrement publishes each earlier participant's writes to
 * that last one.
 */
struct Countdown
{
    explicit Countdown(std::uint32_t n) : left(n) {}

    bool
    arrive()
    {
        return left.fetch_sub(1, std::memory_order_acq_rel) == 1;
    }

    std::atomic<std::uint32_t> left;
};

/**
 * What every fanned-out request shares: whose request it is, and its
 * weight -- the OpItems it created, which count against its
 * connection's in-flight ops (Conn::inflightOps) until its one reply
 * is drained. The reply carries the weight back (postReply(ctx, r)).
 */
struct RequestCtx
{
    std::uint64_t connId = 0;
    std::uint64_t reqId = 0;
    std::uint32_t weight = 0;

    /** The request's flow id, derived like every hop's. */
    std::uint64_t traceId() const { return obs::traceIdOf(connId, reqId); }
};

/**
 * One BATCH request in flight: its sub-ops scatter across workers;
 * the worker that releases the last acknowledgement emits the single
 * reply.
 */
struct BatchCtx : RequestCtx
{
    BatchCtx(std::uint32_t n, std::uint64_t conn, std::uint64_t req)
        : RequestCtx{conn, req, n}, remaining(n)
    {
    }

    Countdown remaining;

    /**
     * Set by any worker that refused its sub-ops because its shard is
     * quarantined; the final reply then reports Fault.
     * remaining.arrive() publishes it to the replier.
     */
    std::atomic<bool> faulted{false};
};

/** The Ok reply of a SCAN carrying @p records. */
Response scanReply(const std::vector<ScanRecord> &records,
                   std::uint64_t reqId);

/**
 * The single reply of a fanned-out SCAN: the k-way merge
 * (index::mergeCursors) of every shard's sorted partial result, cut
 * at @p limit records. The last sub-scan worker replies through it.
 */
Response mergedScanReply(const std::vector<std::vector<ScanRecord>> &parts,
                         std::uint32_t limit, std::uint64_t reqId);

/**
 * One SCAN request in flight on the queued path: the acceptor fans
 * one sub-scan out to every worker (each worker owns one shard of
 * the key space), each worker fills only its own partial-result
 * slot, and the last one to finish merges the sorted partials and
 * posts the single reply (remaining.arrive() publishes each worker's
 * slot to the merger).
 */
struct ScanCtx : RequestCtx
{
    ScanCtx(int shards, std::uint64_t conn, std::uint64_t req,
            std::uint32_t lim)
        : RequestCtx{conn, req, std::uint32_t(shards)},
          remaining(std::uint32_t(shards)), limit(lim),
          parts(std::size_t(shards))
    {
    }

    Countdown remaining;
    std::uint32_t limit;
    std::vector<std::vector<ScanRecord>> parts;  ///< slot per shard
};

/**
 * One TXN request in flight. The acceptor is the coordinator: it
 * splits the wire ops into one Part per participant shard and fans a
 * Txn item out to each owning worker. Workers lock, resolve, and
 * vote (a ReplyMsg carrying the TxnCtx); once every part has voted
 * the acceptor either appends the COMMIT record with every part's
 * write-set -- the transaction's linearization and durability point
 * -- and fans out TxnApply, or tells the prepared parts to drop
 * their locks (TxnAbort).
 *
 * Field ownership: the acceptor writes the routing plan before
 * fan-out; each worker writes only its own Part and the read slots
 * its gets own. Every handoff rides a mutex (worker queues, the
 * reply queue), so no field needs to be atomic except the abort
 * flags, which several workers may set at once. The vote counter
 * is plain: only the acceptor counts votes (drainReplies()).
 */
struct TxnCtx : RequestCtx
{
    std::uint64_t txnid = 0;
    std::uint64_t tStartNs = 0;
    bool fastPath = false;  ///< single shard, batching backend
    bool ringReserved = false;  ///< holds a decision-ring reservation
    std::uint64_t seq = 0;      ///< decision seq, once committed

    std::vector<TxnOp> ops;     ///< wire order
    std::vector<int> readSlot;  ///< per op: index into reads, or -1
    std::vector<TxnRead> reads; ///< one slot per get sub-op

    /** One participant shard's slice of the transaction. */
    struct Part
    {
        int shard = 0;
        std::vector<std::uint32_t> ops;  ///< indices into ctx.ops

        txn::LockPlan locks;

        // Filled by the owning worker:
        bool prepared = false;  ///< locked and resolved; voted commit
        std::vector<txn::WriteOp> writes;  ///< resolved write-set
    };
    std::vector<Part> parts;

    int votesLeft = 0;
    std::atomic<int> abortedParts{0};
    std::atomic<bool> faulted{false};  ///< abort cause was quarantine
};

/** One operation handed from the acceptor to a worker. */
struct OpItem
{
    enum class Kind : std::uint8_t
    {
        Get,
        Put,
        Del,
        Scan,
        Txn,        ///< lock + resolve + vote one participant part
        TxnApply,   ///< decision = commit: apply the part's write-set
        TxnAbort,   ///< decision = abort: drop the part's locks
        TxnRecover, ///< startup: roll the shard's decisions forward
    };

    Kind kind;
    std::uint32_t part = 0;    ///< Txn*: index into txn()->parts
    std::uint64_t connId = 0;  ///< 0: a decision or recovery item
    std::uint64_t reqId = 0;
    std::uint64_t key = 0;    ///< SCAN: start_key
    std::uint64_t value = 0;  ///< PUT: value
    std::uint64_t tEnqNs = 0;  ///< enqueue time (queue-wait latency)

    /** A BATCH sub-op's BatchCtx, a sub-scan's ScanCtx or a Txn*
     *  item's TxnCtx: kind says which; unset for a lone op. */
    std::shared_ptr<RequestCtx> ctx;

    BatchCtx *batch() const { return static_cast<BatchCtx *>(ctx.get()); }
    ScanCtx *scan() const { return static_cast<ScanCtx *>(ctx.get()); }
    TxnCtx *txn() const { return static_cast<TxnCtx *>(ctx.get()); }

    /** Request flow id (obs::traceIdOf); 0 for TxnRecover. A
     *  decision item (TxnApply/TxnAbort) takes its TxnCtx's. */
    std::uint64_t
    traceId() const
    {
        if (ctx)
            return ctx->traceId();
        return connId ? obs::traceIdOf(connId, reqId) : 0;
    }
};
static_assert(sizeof(OpItem) <= 64, "an OpItem fits one cache line");

/** One response traveling worker -> acceptor, or (vote set, no
 *  connection) a TXN participant's vote, its outcome in the TxnCtx. */
struct ReplyMsg
{
    std::uint64_t connId = 0;
    std::uint64_t tPostNs = 0;  ///< post time (ack-path latency)
    Response resp;
    std::shared_ptr<TxnCtx> vote;
    std::uint32_t weight = 1;  ///< the request's in-flight ops
};
static_assert(sizeof(ReplyMsg) <= 96,
              "the op weight must not grow a ReplyMsg");

/**
 * Per-connection acceptor-side state: the net::Connection datapath
 * state machine plus the request-routing bookkeeping layered on it.
 */
struct Conn
{
    Conn(int fd, net::DatapathStats *stats) : nc(fd, stats) {}

    net::Connection nc;
    std::uint64_t id = 0;
    std::uint64_t tOpenNs = 0;   ///< accept time (lifecycle span)
    std::uint32_t inflight = 0;  ///< worker-routed frames outstanding
    std::uint32_t inflightOps = 0;  ///< their weight (RequestCtx)
    bool wantWrite = false;      ///< EPOLLOUT currently armed

    /**
     * Backpressure: set once the outbuf reaches kOutbufLimitBytes or
     * inflightOps reaches kInflightOpsLimit -- decoding (and reading)
     * stops, so neither a slow reader nor a pipelined backlog can
     * balloon server memory: the bytes wait in the socket. Cleared
     * once both are at or below half their limit
     * (Server::Impl::pauseReads); the clearer must re-run readable(),
     * because the edge-triggered loop will never re-report bytes that
     * already arrived.
     */
    bool readPaused = false;

    /** Count a routed frame of @p ops OpItems in flight. */
    void
    admit(std::uint32_t ops)
    {
        ++inflight;
        inflightOps += ops;
    }
};

/** epoll user-data sentinels; connection ids start above these. */
constexpr std::uint64_t udListen = 0;
constexpr std::uint64_t udWake = 1;
constexpr std::uint64_t udStop = 2;
constexpr std::uint64_t firstConnId = 16;

struct Server::Impl
{
    explicit Impl(ServerConfig c)
        : cfg(std::move(c)),
          loop(std::size_t(cfg.maxConns) + 16)
    {
    }
    ~Impl();

    ServerConfig cfg;
    ServerRecovery recov;

    /// @name One shared-nothing worker per shard
    /// @{

    struct Worker
    {
        int index = 0;
        Impl *srv = nullptr;
        std::thread th;

        // Queue: acceptor -> worker (rule 2 of the env.hh contract:
        // ownership handoff synchronizes through this mutex).
        std::mutex mu;
        std::condition_variable cv;
        std::deque<OpItem> q;
        bool stopFlag = false;

        /**
         * The shard lock (rule 1 of the env.hh contract): its holder
         * owns the store and the state marked storeMu-only below,
         * and claims the store for its thread. The worker holds it
         * from its dequeue to the end of the round, never while it
         * sleeps; the acceptor try-locks it to serve a read or stage
         * a mutation of an idle shard itself (holdIdle). Lock order:
         * storeMu, then mu.
         */
        std::mutex storeMu;

        // Stats the acceptor may read (contract rule 3); epoch and
        // fold counts are the shard pipeline's counters().
        std::atomic<std::uint64_t> statGets{0};
        std::atomic<std::uint64_t> statMuts{0};
        std::atomic<std::uint64_t> statScans{0};
        std::atomic<std::uint64_t> statCommittedEpoch{0};
        std::atomic<std::uint64_t> statQueueDepth{0};
        std::atomic<std::uint64_t> statTxnCommits{0};  ///< fast path
        std::atomic<std::uint64_t> statTxnAborts{0};   ///< fast path
        std::atomic<std::uint64_t> statAcksReleased{0};
        std::atomic<std::uint64_t> statDeadlineCommits{0};
        std::atomic<std::uint64_t> statDrainCommits{0};
        std::atomic<std::uint64_t> statWakeups{0};  ///< rounds after a wait
        /** kv->durableAppliedSeq(0), for the acceptor's ring gate. */
        std::atomic<std::uint64_t> durableApplied{0};

        // Request-lifecycle histograms, recorded by this worker;
        // the acceptor reads them for STATS/METRICS under the
        // obs::Histogram single-writer/any-reader contract (the
        // store-side stage/commit/fold/recover histograms live in
        // kv->shardObs(0)).
        obs::Histogram queueNs;       ///< enqueue -> worker dequeue
        obs::Histogram commitWaitNs;  ///< staged -> ack released
        obs::Histogram txnCommitNs;   ///< fast-path TXN accept -> ack
        obs::Histogram txnAbortNs;    ///< fast-path TXN accept -> abort

        /** This worker's trace ring (start() always creates it). */
        obs::TraceRing *ring = nullptr;

        /**
         * Crash-persistent flight recorder, carved out of the FRONT
         * of this worker's shard arena (offset 64 -- the postmortem
         * placement contract) and teed from `ring`. Sealed as the
         * shard's committed epoch advances and on graceful drain.
         */
        std::unique_ptr<obs::FlightRing> flight;

        // Online-scrub throttle state (worker thread only).
        std::uint64_t lastScrubNs = 0;  ///< obs::nowNs() of the last step
        bool quarantineLogged = false;

        // Everything below is storeMu-only: the worker's rounds
        // touch it, and so do the acceptor's inline requests (the
        // store and env; deferred and unappliedTxns read-only;
        // pending, see there).
        kernels::NativeEnv env;
        std::unique_ptr<pmem::PersistentArena> arena;
        std::unique_ptr<store::KvStore<kernels::NativeEnv>> kv;
        store::RecoveryReport report;
        bool attached = false;

        // Cross-shard transaction state (docs/txn_design.md). All of
        // it is storeMu-only except txnReport, which start() reads
        // after the txn-recovery latch.
        txn::LockTable lockTable;
        txn::TxnRecoveryReport txnReport;

        /**
         * General-path parts on this shard between their vote and
         * their apply/abort. While non-zero, scans over write-locked
         * ranges and plain mutations of write-locked keys defer: the
         * part's write-set is resolved but not yet visible, so
         * reading around it would half-observe the transaction and
         * writing under it would be clobbered by the apply.
         */
        int unappliedTxns = 0;

        /** A part parked on a lock-table Waiting verdict. */
        struct ParkedTxn
        {
            std::shared_ptr<TxnCtx> ctx;
            std::size_t part = 0;
            std::size_t next = 0;  ///< locks.keys index being awaited
        };
        std::unordered_map<txn::TxnId, ParkedTxn> parked;

        /**
         * Deferred work, in strict arrival order. The acceptor
         * enqueues every multi-shard operation (scan pieces,
         * transaction parts) to all shards from one program point,
         * so per-shard arrival order is a consistent cut of the
         * global order; cross-shard atomicity of scans rests
         * entirely on every shard preserving it. Hence one FIFO,
         * not per-kind lists: when the item at the front must wait
         * (a scan blocked by a prepared-but-unapplied part's
         * locks), everything behind it waits too. Letting ANY
         * later item overtake re-creates the torn read -- e.g. a
         * part overtaking a deferred scan prepares/applies inside
         * the scan's cut on this shard only, and a scan overtaking
         * a queued part runs pre-part here while its sibling
         * sub-scan on a shard where the same transaction already
         * prepared defers and runs post-apply. Decision fan-outs
         * (TxnApply/TxnAbort) bypass the queue: they are the
         * drain, and their transactions are strictly older than
         * everything queued here.
         */
        std::deque<OpItem> deferred;

        /**
         * Acks awaiting their epoch's commit, in staging order (so
         * in epoch order): the shard's whole ack schedule. The
         * front entry's tStagedNs + cfg.flushDeadlineUs is when the
         * worker commits an underfilled epoch; releaseCommitted()
         * pops every entry whose epoch <= the committed epoch.
         *
         * Who writes it: the worker, under storeMu, in its rounds;
         * and the acceptor's inline stage (inlineStage), which
         * appends to the back under storeMu AND mu, because the
         * worker reads the front under mu alone while it sleeps on
         * the deadline. Only the worker pops it.
         */
        struct Pending
        {
            std::uint64_t connId;  ///< 0: internal apply, no reply
            std::uint64_t reqId;
            std::uint64_t epoch;
            std::uint64_t tStagedNs;  ///< commit-wait latency start
            std::uint64_t traceId = 0;  ///< request flow id
            std::shared_ptr<BatchCtx> batch;
            std::shared_ptr<TxnCtx> txn;  ///< fast-path commit reply
            std::string txnBody;          ///< encoded reads (with txn)
        };
        std::deque<Pending> pending;
    };

    std::vector<std::unique_ptr<Worker>> workers;
    std::atomic<int> workersExited{0};

    // Startup latch: workers recover before the port binds. The
    // second counter latches the txn-recovery phase, which needs the
    // decision index and therefore runs after the first latch.
    std::mutex readyMu;
    std::condition_variable readyCv;
    int readyCount = 0;
    int txnReadyCount = 0;
    /// @}

    /// @name Acceptor state
    /// @{
    net::EventLoop loop;  ///< ready batch sized from cfg.maxConns
    net::WakeFd wakeFd;   ///< workers ring this when replies/votes queue
    net::WakeFd stopFd;   ///< requestStop()/signals ring this
    int listenFd = -1;
    int port_ = 0;
    std::thread acceptorTh;
    bool started = false;
    bool shutdownInformed = false;  ///< join() may run twice
    bool wantShutdown_ = false;     ///< acceptor thread only
    std::atomic<bool> finished{false};

    std::mutex replyMu;
    std::vector<ReplyMsg> replies;

    std::unordered_map<std::uint64_t, std::unique_ptr<Conn>>
        conns;  // acceptor-only
    std::uint64_t nextConnId = firstConnId;

    /** Per-fill read budget: one fire-hosing connection yields after
     *  this many bytes so a ready batch shares the loop fairly. */
    static constexpr std::size_t kReadBudget = 256 * 1024;

    /// Datapath counters shared by every connection (acceptor
    /// writes; STATS/METRICS snapshot cross-thread).
    net::DatapathStats netStats;

    std::atomic<std::uint64_t> statConns{0};
    std::atomic<std::uint64_t> statAccepted{0};
    std::atomic<std::uint64_t> statRetries{0};
    std::atomic<std::uint64_t> statErrs{0};
    std::atomic<std::uint64_t> statFaults{0};
    std::atomic<std::uint64_t> statMalformed{0};
    std::atomic<std::uint64_t> statTxnCommits{0};  ///< general path
    std::atomic<std::uint64_t> statTxnAborts{0};   ///< general path
    std::atomic<std::uint64_t> statTxnRingFull{0};  ///< pinned-ring Retry
    std::atomic<std::uint64_t> statGetsInline{0};   ///< inlineGet hits
    std::atomic<std::uint64_t> statScansInline{0};  ///< inlineScan hits
    std::atomic<std::uint64_t> statMutsInline{0};   ///< inlineStage hits
    std::atomic<std::uint64_t> statDoorbells{0};    ///< wakeFd rings
    // Read pauses (pauseReads), by the limit that began them.
    std::atomic<std::uint64_t> statPausesOutbuf{0};
    std::atomic<std::uint64_t> statPausesOps{0};

    // Acceptor-recorded request-lifecycle histograms (single writer:
    // the acceptor thread; STATS/METRICS render on the same thread).
    obs::Histogram parseNs;  ///< bytes on the wire -> decoded request
    obs::Histogram ackNs;    ///< worker posted reply -> encoded
    obs::Histogram txnCommitNs;  ///< general path: accept -> decision
    obs::Histogram txnAbortNs;   ///< general path: accept -> abort

    /// @name Transaction coordinator (docs/txn_design.md)
    /// The acceptor assigns ids, collects votes, and owns the
    /// persistent decision ring (dataDir/txnlog.lpdb). Workers post
    /// their votes through the reply queue and read the ring only
    /// during the startup recovery phase (ordered by the worker-queue
    /// handoff); the acceptor reads their durable applied seqs
    /// through Worker::durableApplied.
    /// @{
    kernels::NativeEnv txnEnv;
    std::unique_ptr<pmem::PersistentArena> txnArena;
    std::unique_ptr<txn::DecisionLog<kernels::NativeEnv>> dlog;
    std::uint64_t dlogMaxTxnId = 0;  ///< largest id the ring recalls
    std::uint64_t nextTxnId = 1;     ///< acceptor-thread only
    /// @}

    // Tracing, always on (start()): the collector owns every ring;
    // workers and the acceptor hold borrowed pointers.
    std::unique_ptr<obs::TraceCollector> trace;
    obs::TraceRing *acceptRing = nullptr;
    /// @}

    std::string
    shardPath(int i) const
    {
        return cfg.dataDir + "/shard-" + std::to_string(i) + ".lpdb";
    }

    // server_worker.cc -- the shard worker loop.
    void openStore(Worker &w);
    void releaseAck(Worker &w, Worker::Pending &p);
    void releaseCommitted(Worker &w);
    engine::ShardPlan planRound(const Worker &w, bool stopping,
                                bool dequeued) const;
    static bool deferrable(OpItem::Kind k);
    bool deferNow(Worker &w, const OpItem &op) const;
    void dispatchOp(Worker &w, OpItem &op);
    void retryDeferred(Worker &w);
    Response readKey(Worker &w, std::uint64_t key, std::uint64_t reqId);
    void stageMutation(Worker &w, const OpItem &op);
    void scanShard(Worker &w, std::uint64_t start, std::uint32_t limit,
                   std::vector<ScanRecord> &out);
    void processOp(Worker &w, OpItem &op);
    void workerMain(Worker &w);
    void enqueue(int shard, OpItem &&op);

    // server_txn.cc -- coordinator + participant txn machinery.
    void serviceLockEvents(Worker &w, txn::LockTable::Events ev);
    void resumeParked(Worker &w, txn::TxnId id,
                      txn::LockTable::Events &ev);
    void abortParked(Worker &w, txn::TxnId id,
                     txn::LockTable::Events &ev);
    bool acquireTxnLocks(Worker &w,
                         const std::shared_ptr<TxnCtx> &ctx,
                         std::size_t partIdx, std::size_t next,
                         txn::LockTable::Events &ev);
    void abortTxnPart(Worker &w, const std::shared_ptr<TxnCtx> &ctx,
                      bool faulted);
    void voteTxnPart(Worker &w, const std::shared_ptr<TxnCtx> &ctx,
                     std::size_t partIdx);
    void commitTxnFast(Worker &w, const std::shared_ptr<TxnCtx> &ctx,
                       TxnCtx::Part &part);
    void finishFastTxn(Worker &w, const TxnCtx &ctx, std::string body);
    void routeTxn(Conn &c, Request &req);
    Response finishTxn(const std::shared_ptr<TxnCtx> &ctx);
    void openTxnLog();

    // server_stats.cc -- observability rendering from one table.
    struct StatRow;
    static const StatRow statRows[];
    template <class Emit> void forEachStat(Emit &&emit) const;
    std::string statsJsonNow() const;
    std::string metricsTextNow() const;

    // server.cc -- lifecycle + acceptor datapath.
    void postReply(ReplyMsg m);
    void postReply(std::uint64_t connId, Response r);
    void postReply(const RequestCtx &ctx, Response r);
    void closeConn(std::uint64_t id);
    bool pauseReads(Conn &c);
    bool flushDatapath(Conn &c);
    void localReply(Conn &c, Response r);
    void refuse(Conn &c, std::atomic<std::uint64_t> &stat, Status s,
                std::uint64_t id);

    /**
     * The acceptor's hold on an idle shard (holdIdle): the shard
     * lock, then the queue lock. True when both are held; releases
     * them in reverse order.
     */
    struct IdleHold
    {
        std::unique_lock<std::mutex> shard;  ///< Worker::storeMu
        std::unique_lock<std::mutex> queue;  ///< Worker::mu

        explicit operator bool() const { return queue.owns_lock(); }
    };
    static IdleHold holdIdle(Worker &w);
    bool inlineGet(Conn &c, Worker &w, const Request &req,
                   std::uint64_t traceId);
    bool inlineStage(Worker &w, const OpItem &op);
    bool inlineScan(Conn &c, const Request &req, std::uint64_t traceId);
    void handleRequest(Conn &c, Request &req);
    void readable(std::uint64_t connId);
    void writable(std::uint64_t connId);
    void acceptPending();
    void drainReplies();
    void acceptorMain();
    void shutdownSequence();
    void writePortFile();
    void start();
    void join();
};

} // namespace lp::server

#endif // LP_SERVER_SERVER_IMPL_HH
