/**
 * @file
 * A small blocking client for lp::server, used by the CLI, the
 * integration tests, and the load generator. One Client owns one TCP
 * connection. Two usage styles:
 *
 *  - Synchronous helpers (get/put/del/stats/shutdownServer): send one
 *    request and wait for its reply. Simple, one op in flight.
 *
 *  - Pipelined: sendRequest() any number of frames, then recvResponse()
 *    them back (matching by the echoed id), which is how the load
 *    generator keeps a window of operations in flight.
 *
 * Not thread-safe; one thread per Client.
 */

#ifndef LP_SERVER_CLIENT_HH
#define LP_SERVER_CLIENT_HH

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "net/frame_cursor.hh"
#include "server/protocol.hh"

namespace lp::server
{

/**
 * Bounded exponential backoff with full jitter for Status::Retry
 * backpressure replies. Attempt k may sleep any duration in
 * [0, min(capDelayUs, baseDelayUs * 2^k)] -- full jitter decorrelates
 * a herd of clients that all got Retry at the same instant. After
 * maxAttempts the last Retry response is returned to the caller.
 * Status::Fault is never retried: it means a quarantined shard
 * (operator action required), not transient load.
 */
struct RetryPolicy
{
    int maxAttempts = 8;
    std::uint64_t baseDelayUs = 100;
    std::uint64_t capDelayUs = 50000;
};

/**
 * Outcome counters of backoff-retried requests. Every Client keeps
 * one (retryCounters()); the pipelined load generator aggregates its
 * own into the bench JSON. attempts counts wire round trips, so
 * attempts - retries - aborts is the number of first-try outcomes.
 */
struct RetryCounters
{
    std::uint64_t attempts = 0;   ///< requests actually sent
    std::uint64_t retries = 0;    ///< re-sends after Status::Retry
    std::uint64_t aborts = 0;     ///< re-sends after Status::Aborted
    std::uint64_t backoffUs = 0;  ///< total jittered sleep

    void
    merge(const RetryCounters &o)
    {
        attempts += o.attempts;
        retries += o.retries;
        aborts += o.aborts;
        backoffUs += o.backoffUs;
    }
};

/**
 * Full-jitter backoff delay for 0-based attempt @p attempt, advancing
 * the caller's xorshift state @p rngState (seed it non-zero, e.g. per
 * thread). Shared by the Client backoff helpers and the pipelined
 * load generator, which schedules its own re-sends.
 */
std::uint64_t retryDelayUs(const RetryPolicy &p, int attempt,
                           std::uint64_t &rngState);

class Client
{
  public:
    Client() = default;
    ~Client();

    Client(const Client &) = delete;
    Client &operator=(const Client &) = delete;

    /**
     * Connect to @p host:@p port, waiting up to @p timeoutMs for the
     * TCP handshake (non-blocking connect + poll, so an unresponsive
     * host cannot hang the caller for the kernel's SYN-retry
     * minutes). The same timeout is installed as the socket's
     * default send/receive timeout (SO_SNDTIMEO/SO_RCVTIMEO), which
     * bounds sendRequest() and every blocking read even when the
     * caller passes timeoutMs = -1 to recvResponse(). Pass
     * @p timeoutMs <= 0 for the old unbounded behavior. Returns
     * false on failure or timeout.
     */
    bool connectTo(const std::string &host, int port,
                   int timeoutMs = 10000);

    bool connected() const { return fd_ >= 0; }
    void close();

    /** A fresh request id (per-connection monotonic). */
    std::uint64_t nextId() { return ++lastId_; }

    /**
     * Encode and send one request. Returns false if the connection
     * broke (the peer closed it, e.g. after a malformed frame).
     */
    bool sendRequest(const Request &r);

    /** Encode @p rs back to back and send them with one write. */
    bool sendRequests(std::span<const Request> rs);

    /**
     * Receive the next response frame, waiting up to @p timeoutMs
     * (-1 = forever). Returns nullopt on timeout, disconnect, or a
     * malformed reply.
     */
    std::optional<Response> recvResponse(int timeoutMs = -1);

    /// @name Synchronous one-shot helpers (nullopt = transport error)
    /// @{
    std::optional<Response> get(std::uint64_t key, int timeoutMs = -1);
    std::optional<Response> put(std::uint64_t key, std::uint64_t value,
                                int timeoutMs = -1);
    std::optional<Response> del(std::uint64_t key, int timeoutMs = -1);
    std::optional<Response> stats(int timeoutMs = -1);
    std::optional<Response> metrics(int timeoutMs = -1);
    std::optional<Response> shutdownServer(int timeoutMs = -1);

    /**
     * SCAN: up to @p limit records with key >= @p start, ascending.
     * nullopt on transport error, a non-Ok status (e.g. Retry under
     * backpressure), or a malformed body -- the last also closes the
     * connection, matching the malformed-frame contract.
     */
    std::optional<std::vector<ScanRecord>> scan(std::uint64_t start,
                                                std::uint32_t limit,
                                                int timeoutMs = -1);
    /// @}

    /** What a TXN round trip produced (when the transport held up). */
    struct TxnResult
    {
        Status status = Status::Ok;
        /** One entry per get sub-op, request order; only on Ok. */
        std::vector<TxnRead> reads;
    };

    /**
     * TXN: commit @p ops atomically across shards. nullopt on
     * transport error or a malformed reads body (which also closes
     * the connection); otherwise the status is returned as-is --
     * Aborted and Retry are the caller's to handle, or use
     * txnBackoff.
     */
    std::optional<TxnResult> txn(const std::vector<TxnOp> &ops,
                                 int timeoutMs = -1);

    /**
     * TXN with backoff: retries both Status::Retry (backpressure)
     * and Status::Aborted (wait-die conflict; the retry gets a fresh
     * timestamp) per @p policy. Anything else returns at once.
     */
    std::optional<TxnResult> txnBackoff(const std::vector<TxnOp> &ops,
                                        const RetryPolicy &policy = {},
                                        int timeoutMs = -1);

    /** Lifetime backoff/abort counters of this connection. */
    const RetryCounters &retryCounters() const { return counters_; }

    /**
     * put() that retries Status::Retry per @p policy (sleeping
     * between attempts) instead of bouncing it straight back. Any
     * other status -- including Fault -- returns at once.
     */
    std::optional<Response> putBackoff(std::uint64_t key,
                                       std::uint64_t value,
                                       const RetryPolicy &policy = {},
                                       int timeoutMs = -1);

  private:
    std::optional<Response> roundTrip(const Request &r, int timeoutMs);
    std::optional<Response> retryLoop(Request r,
                                      const RetryPolicy &policy,
                                      int timeoutMs);

    int fd_ = -1;
    int readTimeoutMs_ = -1;  ///< connectTo deadline; -1 = unbounded
    RetryCounters counters_;
    std::uint64_t lastId_ = 0;
    std::uint64_t rng_ = 0x9e3779b97f4a7c15ull;  ///< backoff jitter
    net::FrameCursor in_;  ///< buffered unparsed response bytes
};

/**
 * Read dataDir/PORT (written atomically by the server once it is
 * listening), polling up to @p timeoutMs. Returns 0 on timeout.
 */
int waitForPortFile(const std::string &dataDir, int timeoutMs);

} // namespace lp::server

#endif // LP_SERVER_CLIENT_HH
