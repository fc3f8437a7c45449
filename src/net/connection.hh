/**
 * @file
 * net::Connection -- the per-socket non-blocking datapath state
 * machine: buffered edge-triggered reads on one side, gathered
 * writev of queued reply frames on the other.
 *
 * Read half: fill() drains the socket into a FrameCursor until a
 * short read or EAGAIN (or a byte budget), so the edge-triggered
 * contract of net::EventLoop is honored by construction. The caller
 * decodes frames from in() between fill() calls.
 *
 * Write half: replies are encoded into frameBuf() -- a recycled
 * scratch buffer -- then sealed with queueFrame(). flush() gathers
 * every queued frame into one writev(2) (up to kMaxIov iovecs per
 * call), resuming cleanly from partial writes. One readiness cycle
 * that produced N replies costs one syscall, not N blocking writes:
 * this is where the datapath's throughput comes from. Fully-sent
 * buffers recycle through a small free list, so steady state does
 * not allocate.
 *
 * Backpressure: outBytes() tracks queued-but-unsent bytes; the
 * server stops decoding (and reading) a connection whose outbuf
 * passes its limit and resumes below the low watermark. The
 * Connection only accounts -- the pause/resume policy lives in the
 * caller because resuming requires re-running the read handler
 * (no new epoll edge arrives for bytes that already landed).
 *
 * A Connection owns its fd (closed on destruction) and belongs to a
 * single thread. DatapathStats is the one cross-thread surface:
 * the owning thread writes, STATS/METRICS snapshots read.
 */

#ifndef LP_NET_CONNECTION_HH
#define LP_NET_CONNECTION_HH

#include <atomic>
#include <cstdint>
#include <deque>
#include <vector>

#include "net/frame_cursor.hh"
#include "obs/histogram.hh"

namespace lp::net
{

/**
 * Datapath counters shared by every Connection of one event loop.
 * Single-writer (the loop thread); readers snapshot via the atomics
 * and the histogram's relaxed buckets.
 */
struct DatapathStats {
    /// Bytes queued in per-connection outbufs, not yet on the wire.
    std::atomic<std::uint64_t> outbufBytes{0};
    /// read/writev calls that returned EAGAIN (socket saturation).
    std::atomic<std::uint64_t> eagainTotal{0};
    /// iovec count per writev(2) call -- the gathering win.
    obs::Histogram writevBatch;
};

class Connection
{
  public:
    /** Result of draining one direction of the socket. */
    enum class Io {
        Drained,  ///< short read or EAGAIN; no more until the next edge
        HasMore,  ///< stopped early (budget); more bytes are ready
        Closed,   ///< peer closed or hard error
    };

    enum class Flush {
        AllSent,  ///< outbuf empty; EPOLLOUT interest can drop
        Blocked,  ///< partial write; arm EPOLLOUT and resume later
        Closed,   ///< hard error (EPIPE/ECONNRESET)
    };

    /**
     * Take ownership of non-blocking @p fd. @p stats may be shared
     * across connections and must outlive them.
     */
    Connection(int fd, DatapathStats *stats);
    ~Connection();

    Connection(const Connection &) = delete;
    Connection &operator=(const Connection &) = delete;

    int fd() const { return fd_; }

    /**
     * Read until a read returns less than it asked for (the socket is
     * empty), EAGAIN, or about @p budget bytes have been consumed this
     * call (0 = unlimited). Budgeting keeps one fire-hosing connection
     * from starving the rest of a ready set. A short read does not
     * see a FIN that came with the last bytes: register for
     * kPeerClosed to learn of it.
     */
    Io fill(std::size_t budget);

    /** Inbound byte window; decode frames from it, then consume(). */
    FrameCursor &in() { return in_; }

    /**
     * Scratch buffer for encoding the next outbound frame. Cleared
     * and ready on each call; sealed by queueFrame(). Encoding
     * directly into it avoids a copy per reply.
     */
    std::vector<std::uint8_t> &frameBuf();

    /** Seal frameBuf() onto the send queue. */
    void queueFrame();

    /**
     * Gather queued frames into writev(2) calls until the queue is
     * empty (AllSent) or the socket blocks (Blocked).
     */
    Flush flush();

    /** True if queued bytes remain unsent. */
    bool wantWrite() const { return outBytes_ > 0; }

    /** Queued-but-unsent bytes. */
    std::uint64_t outBytes() const { return outBytes_; }

    /**
     * obs::nowNs() when the last fill() first read bytes off the
     * socket; 0 before any read. Request-parse trace spans start
     * here: it is the closest observable moment to "the request's
     * bytes reached the server" for every frame decoded out of that
     * fill.
     */
    std::uint64_t lastFillNs() const { return lastFillNs_; }

    /** iovecs per writev(2) call. */
    static constexpr std::size_t kMaxIov = 64;

  private:
    struct Buf {
        std::vector<std::uint8_t> data;
        std::size_t at = 0;  ///< bytes already on the wire
    };

    void recycle(std::vector<std::uint8_t> &&buf);

    static constexpr std::size_t kReadChunk = 16 * 1024;
    /// Oversized buffers (jumbo SCAN replies) are freed, not pooled.
    static constexpr std::size_t kRecycleMaxBytes = 64 * 1024;
    static constexpr std::size_t kFreeListCap = 8;

    int fd_;
    DatapathStats *stats_;
    FrameCursor in_;
    std::deque<Buf> out_;
    std::uint64_t outBytes_ = 0;
    std::uint64_t lastFillNs_ = 0;
    std::vector<std::uint8_t> scratch_;
    bool scratchReady_ = false;
    std::vector<std::vector<std::uint8_t>> freeList_;
};

} // namespace lp::net

#endif // LP_NET_CONNECTION_HH
