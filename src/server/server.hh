/**
 * @file
 * lp::server -- a sharded multi-threaded TCP front-end over the
 * lp::store key-value store (native build, NativeEnv).
 *
 * Architecture (docs/server_design.md has the full story):
 *
 *  - One acceptor thread owns the listen socket, a net::EventLoop
 *    (edge-triggered epoll), and every connection's datapath state
 *    machine (net::Connection: buffered non-blocking reads, gathered
 *    writev replies, outbuf backpressure). It decodes protocol
 *    frames (server/protocol.hh) and routes each operation by key
 *    hash to a worker. docs/net_design.md covers the datapath.
 *
 *  - N shared-nothing worker threads. Each worker owns one
 *    single-shard KvStore<NativeEnv> over its own file-backed
 *    PersistentArena (dataDir/shard-<i>.lpdb) and runs each round of
 *    work under its shard mutex, the hand-over point of the
 *    one-thread-at-a-time contract of src/kernels/env.hh. Workers
 *    coalesce mutations into the store's LP batches and commit on
 *    batch-full or when the oldest unacknowledged mutation exceeds
 *    the flush deadline. A GET or SCAN whose shards are idle (lock
 *    free, queue empty) runs on the acceptor under that mutex
 *    instead, skipping the worker wake-up and the reply doorbell.
 *
 *  - Acknowledgement = recoverability. A mutation's reply is held
 *    until its batch's epoch commits (LP/WAL); the eager backend
 *    replies per-op since each op persists in place. The SIGKILL
 *    integration test holds the server to exactly this promise.
 *
 *  - Backpressure, three limits per connection: a request frame
 *    beyond maxInflightPerConn outstanding ones gets Status::Retry;
 *    kInflightOpsLimit operations in flight, or kOutbufLimitBytes
 *    of unsent replies, pause reading it, so the backlog waits in
 *    the socket.
 *
 * Startup runs shard recovery (journal replay / WAL undo) on each
 * worker's own thread BEFORE the port is bound, so no request can
 * observe pre-recovery state. The bound port (ephemeral when
 * cfg.port == 0) is published to dataDir/PORT via atomic rename.
 * Graceful shutdown (SIGTERM/SIGINT via installSignalHandlers(), the
 * SHUTDOWN op, or stop()) stops accepting, drains worker queues,
 * checkpoints every shard (eager fold), flushes pending replies, and
 * closes.
 */

#ifndef LP_SERVER_SERVER_HH
#define LP_SERVER_SERVER_HH

#include <cstdint>
#include <memory>
#include <string>

#include "server/protocol.hh"
#include "store/layout.hh"

namespace lp::server
{

/**
 * COMMIT records in the coordinator ring (dataDir/txnlog.lpdb): the
 * general-path transactions that may be decided but not yet durably
 * applied on every shard they touch. Each entry carries its
 * write-set in 576 bytes, so the ring is 126 KiB. A TXN that finds
 * it pinned gets Retry while the pinning shards fold. Fixes the
 * file's layout, which a restart re-derives.
 */
inline constexpr std::size_t kTxnDecisionEntries = 224;

/**
 * Backpressure: at or above this many unsent reply bytes the acceptor
 * stops reading a connection until its outbuf drains to half, so a
 * slow reader cannot balloon server memory.
 */
inline constexpr std::size_t kOutbufLimitBytes = 1 << 20;

/**
 * Backpressure: at or above this many operations in flight (a BATCH
 * weighs its sub-ops, a SCAN its shards, a TXN its parts, any other
 * op 1) the acceptor stops reading a connection until they drain to
 * half, so a pipelined backlog waits in the socket, not in worker
 * queues: a connection holds at most kInflightOpsLimit +
 * maxBatchOps - 1 queued or unacknowledged ops.
 */
inline constexpr std::size_t kInflightOpsLimit = maxBatchOps;

/** Journal regions one online-scrub step validates (its work bound). */
inline constexpr std::size_t kScrubRegions = 32;

/**
 * Crash-persistent flight recorder: events per shard ring, a power
 * of two (obs::FlightRing). Each worker carves its ring out of the
 * FRONT of its shard arena and tees every trace span into it with
 * LP-style plain stores, sealing a watermark as epochs commit;
 * `lazyper_cli postmortem <dataDir>` decodes the rings from the raw
 * shard files after a crash. Fixes the shard file's layout, which a
 * restart (and `lazyper_cli inject`) re-derives.
 */
inline constexpr std::uint32_t kFlightEvents = 4096;

/** Tunables of one server instance. */
struct ServerConfig
{
    std::string host = "127.0.0.1";

    /** TCP port; 0 picks an ephemeral port (read it via port()). */
    int port = 0;

    /** Directory for shard backing files and the PORT file. */
    std::string dataDir = ".";

    /** Worker threads = store shards (each worker owns one). */
    int shards = 4;

    store::Backend backend = store::Backend::Lp;

    /** Max live keys per shard (each shard is its own KvStore). */
    std::size_t capacityPerShard = 1 << 14;

    /** Mutations per LP batch / WAL transaction (per shard). */
    int batchOps = 32;

    /** LP: eager fold period, in committed batches (per shard). */
    int foldBatches = 64;

    /**
     * Commit an underfilled batch once its oldest unacknowledged
     * mutation has waited this long, bounding ack latency for slow
     * or lone clients.
     */
    std::uint64_t flushDeadlineUs = 2000;

    /**
     * Backpressure: outstanding request frames allowed per
     * connection (a BATCH, SCAN or TXN is one); a frame beyond them
     * gets Status::Retry. Operations in flight are bounded apart
     * from this, by pausing reads (kInflightOpsLimit).
     */
    std::uint32_t maxInflightPerConn = 256;

    /** Connection cap; further accepts are closed immediately. */
    int maxConns = 256;

    /**
     * Online-scrub throttle: a worker runs one bounded scrub step
     * (kScrubRegions journal regions) at most once per this many
     * milliseconds, and only off the request path -- when its queue
     * drained empty that round. 0 disables scrubbing.
     */
    std::uint64_t scrubIntervalMs = 100;

    /** Suppress the startup/shutdown log lines. */
    bool quiet = false;

    /**
     * When non-empty, collect trace spans (epoch commits, folds,
     * recovery, deadline commits, connection lifecycles) and write a
     * Chrome trace-event JSON file here during shutdown.
     */
    std::string traceOut;

    /**
     * Trace ring capacity per traced thread (events; rounded up to a
     * power of 2). Used only when traceOut names a file: otherwise
     * the rings store nothing and only feed the flight recorder.
     */
    std::size_t traceRingCapacity = 1 << 14;
};

/** Aggregate of what startup recovery found across all shards. */
struct ServerRecovery
{
    /** Shards that re-attached an existing backing file. */
    int shardsAttached = 0;

    std::uint64_t batchesReplayed = 0;
    std::uint64_t entriesReplayed = 0;
    std::uint64_t batchesDiscarded = 0;

    /** WAL backend: shards that rolled back an armed transaction. */
    int walUndone = 0;

    /** Media faults repaired during recovery (parity/replica). */
    std::uint64_t mediaRepaired = 0;

    /** Proven-unrepairable faults; such shards start quarantined. */
    std::uint64_t mediaUnrepairable = 0;

    /// @name Cross-shard transaction recovery (docs/txn_design.md).
    /// @{

    /** Committed transaction parts re-applied, over all shards. */
    std::uint64_t txnRolledForward = 0;

    /** Torn decisions discarded (never acknowledged). */
    std::uint64_t txnRolledBack = 0;

    /** Committed transaction parts whose applies already survived. */
    std::uint64_t txnSkipped = 0;
    /// @}
};

/**
 * The server. start() recovers + binds + spawns threads and returns;
 * join() blocks until the server has shut down (signal, SHUTDOWN op,
 * or requestStop()). stop() = requestStop() + join(). The destructor
 * stops a still-running server.
 */
class Server
{
  public:
    explicit Server(ServerConfig cfg);
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /** Recover all shards, bind, listen, and start serving. */
    void start();

    /**
     * Ask the server to shut down gracefully. Async-signal-safe
     * (a single eventfd write); returns immediately.
     */
    void requestStop();

    /** Block until the server has fully shut down and drained. */
    void join();

    /** requestStop() + join(). */
    void stop();

    /** The bound TCP port (valid after start()). */
    int port() const;

    /** What startup recovery found (valid after start()). */
    const ServerRecovery &recovery() const;

    /**
     * Route SIGINT/SIGTERM to requestStop(). Install after start();
     * affects process-wide signal disposition.
     */
    void installSignalHandlers();

    /** The STATS-op JSON document (callable from any thread). */
    std::string statsJson() const;

    /**
     * The METRICS-op Prometheus text exposition (callable from any
     * thread): counters, gauges, recovery counters, and latency
     * histogram buckets, labelled per shard.
     */
    std::string metricsText() const;

  private:
    struct Impl;
    std::unique_ptr<Impl> impl;
};

} // namespace lp::server

#endif // LP_SERVER_SERVER_HH
