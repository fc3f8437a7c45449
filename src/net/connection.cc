#include "net/connection.hh"

#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <utility>

#include "obs/time.hh"

namespace lp::net
{

Connection::Connection(int fd, DatapathStats *stats)
    : fd_(fd), stats_(stats)
{
}

Connection::~Connection()
{
    if (outBytes_ > 0)
        stats_->outbufBytes.fetch_sub(outBytes_,
                                      std::memory_order_relaxed);
    if (fd_ >= 0)
        ::close(fd_);
}

Connection::Io
Connection::fill(std::size_t budget)
{
    std::size_t got = 0;
    for (;;) {
        std::uint8_t *dst = in_.writePtr(kReadChunk);
        ssize_t n = ::read(fd_, dst, kReadChunk);
        if (n > 0) {
            if (got == 0)
                lastFillNs_ = obs::nowNs();
            in_.commit(std::size_t(n));
            got += std::size_t(n);
            // A short read emptied the receive queue (epoll(7)): the
            // next byte to arrive raises a new edge, so the read that
            // would only return EAGAIN is skipped.
            if (std::size_t(n) < kReadChunk)
                return Io::Drained;
            if (budget != 0 && got >= budget)
                return Io::HasMore;
            continue;
        }
        if (n == 0)
            return Io::Closed;
        if (errno == EINTR)
            continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) {
            stats_->eagainTotal.fetch_add(1,
                                          std::memory_order_relaxed);
            return Io::Drained;
        }
        return Io::Closed;
    }
}

std::vector<std::uint8_t> &
Connection::frameBuf()
{
    if (!scratchReady_) {
        if (!freeList_.empty()) {
            scratch_ = std::move(freeList_.back());
            freeList_.pop_back();
        }
        scratch_.clear();
        scratchReady_ = true;
    }
    return scratch_;
}

void
Connection::queueFrame()
{
    if (!scratchReady_ || scratch_.empty())
        return;
    outBytes_ += scratch_.size();
    stats_->outbufBytes.fetch_add(scratch_.size(),
                                  std::memory_order_relaxed);
    out_.push_back(Buf{std::move(scratch_), 0});
    scratch_ = {};
    scratchReady_ = false;
}

void
Connection::recycle(std::vector<std::uint8_t> &&buf)
{
    if (buf.capacity() <= kRecycleMaxBytes
        && freeList_.size() < kFreeListCap)
        freeList_.push_back(std::move(buf));
}

Connection::Flush
Connection::flush()
{
    while (!out_.empty()) {
        iovec iov[kMaxIov];
        std::size_t iovcnt = 0;
        for (const Buf &b : out_) {
            if (iovcnt == kMaxIov)
                break;
            iov[iovcnt].iov_base =
                const_cast<std::uint8_t *>(b.data.data()) + b.at;
            iov[iovcnt].iov_len = b.data.size() - b.at;
            ++iovcnt;
        }
        stats_->writevBatch.record(iovcnt);
        ssize_t n = ::writev(fd_, iov, int(iovcnt));
        if (n < 0) {
            if (errno == EINTR)
                continue;
            if (errno == EAGAIN || errno == EWOULDBLOCK) {
                stats_->eagainTotal.fetch_add(
                    1, std::memory_order_relaxed);
                return Flush::Blocked;
            }
            return Flush::Closed;
        }
        std::size_t sent = std::size_t(n);
        outBytes_ -= sent;
        stats_->outbufBytes.fetch_sub(sent,
                                      std::memory_order_relaxed);
        while (sent > 0) {
            Buf &front = out_.front();
            std::size_t left = front.data.size() - front.at;
            if (sent < left) {
                front.at += sent;
                break;
            }
            sent -= left;
            recycle(std::move(front.data));
            out_.pop_front();
        }
    }
    return Flush::AllSent;
}

} // namespace lp::net
