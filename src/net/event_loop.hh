/**
 * @file
 * net::EventLoop -- a thin readiness-notification abstraction over
 * epoll, plus the eventfd wake primitive that rides on it.
 *
 * One EventLoop belongs to one thread (the server's acceptor, or one
 * open-loop load-generator driver). File descriptors register with a
 * 64-bit user datum and an interest mask; wait() parks in epoll_wait
 * and exposes the ready set through data(i)/events(i). The ready
 * array is sized at construction from the expected connection count
 * (ServerConfig::maxConns), not a hard-coded 64, so a burst of
 * thousands of ready connections drains in one or two wait() calls
 * instead of dozens.
 *
 * Edge-triggered contract: callers that register with kEdge MUST
 * consume readiness to exhaustion before the next wait() -- write
 * until EAGAIN, read until EAGAIN or a short read (a read that
 * returns less than it asked for emptied the receive queue, and the
 * next byte to arrive raises a new edge; epoll(7)) -- and must re-run
 * a read handler themselves after un-pausing a connection: a level
 * change that already happened is never re-reported. A short read
 * cannot see a FIN that arrived with the last bytes, so a reader that
 * stops at one registers kPeerClosed, which reports the FIN in the
 * same event. net::Connection implements the read and write halves.
 *
 * io_uring seam: this class is the single point where the datapath
 * touches the readiness syscall API. A future UringLoop exposing the
 * same add/mod/del/wait surface (with completions mapped onto the
 * ready set) slots in behind the Connection/FrameCursor layers
 * without touching the server; see docs/net_design.md.
 */

#ifndef LP_NET_EVENT_LOOP_HH
#define LP_NET_EVENT_LOOP_HH

#include <sys/epoll.h>

#include <cstdint>
#include <vector>

namespace lp::net
{

/** Interest/readiness bits, re-exported so callers need no epoll.h. */
inline constexpr std::uint32_t kReadable = EPOLLIN;
inline constexpr std::uint32_t kWritable = EPOLLOUT;
inline constexpr std::uint32_t kEdge = EPOLLET;
inline constexpr std::uint32_t kHangup = EPOLLHUP | EPOLLERR;
inline constexpr std::uint32_t kPeerClosed = EPOLLRDHUP;  ///< peer's FIN

/** Set O_NONBLOCK on @p fd (asserts on failure). */
void setNonBlocking(int fd);

class EventLoop
{
  public:
    /**
     * @p maxEvents bounds one wait()'s ready batch; size it from the
     * connection cap (clamped to [64, 4096] internally).
     */
    explicit EventLoop(std::size_t maxEvents);
    ~EventLoop();

    EventLoop(const EventLoop &) = delete;
    EventLoop &operator=(const EventLoop &) = delete;

    /** Register @p fd with user datum @p ud (asserts on failure). */
    void add(int fd, std::uint64_t ud, std::uint32_t events);

    /**
     * Change @p fd's interest mask. Best-effort (false on failure):
     * the races a MOD can lose -- the peer closed and the fd is
     * already gone -- are all handled by the next wait() reporting
     * a hangup.
     */
    bool mod(int fd, std::uint64_t ud, std::uint32_t events);

    /** Deregister @p fd (ignores failure; close() deregisters too). */
    void del(int fd);

    /**
     * Block up to @p timeoutMs (-1 = forever) and return the number
     * of ready registrations, 0 on timeout. EINTR retries
     * internally. More ready fds than maxEvents are not lost: the
     * kernel reports the remainder on the next call.
     */
    int wait(int timeoutMs);

    /**
     * Like wait(), with a nanosecond timeout (epoll_pwait2). A
     * paced sender sleeping out a sub-millisecond arrival gap must
     * not round to milliseconds -- or spin. Falls back to a
     * millisecond wait (rounded up) on kernels without the syscall.
     */
    int waitNs(std::int64_t timeoutNs);

    /** User datum of ready slot @p i of the last wait(). */
    std::uint64_t
    data(int i) const
    {
        return evs_[std::size_t(i)].data.u64;
    }

    /** Readiness bits of ready slot @p i of the last wait(). */
    std::uint32_t
    events(int i) const
    {
        return evs_[std::size_t(i)].events;
    }

  private:
    int epfd_ = -1;
    std::vector<epoll_event> evs_;
};

/**
 * An eventfd doorbell: any thread (or signal handler) rings it with
 * signal(), the owning EventLoop sees kReadable on its fd(). signal()
 * is async-signal-safe (one write(2), EAGAIN ignored -- a saturated
 * counter still wakes the reader). drain() resets the counter with
 * one read(2), which returns and zeroes the whole count.
 */
class WakeFd
{
  public:
    WakeFd();
    ~WakeFd();

    WakeFd(const WakeFd &) = delete;
    WakeFd &operator=(const WakeFd &) = delete;

    int fd() const { return fd_; }

    void signal() const;
    void drain() const;

  private:
    int fd_ = -1;
};

} // namespace lp::net

#endif // LP_NET_EVENT_LOOP_HH
