#include "net/event_loop.hh"

#include <fcntl.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <cassert>
#include <cerrno>
#include <cstdint>

namespace lp::net
{

void
setNonBlocking(int fd)
{
    int flags = ::fcntl(fd, F_GETFL, 0);
    assert(flags >= 0);
    int rc = ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
    assert(rc == 0);
    (void)rc;
}

EventLoop::EventLoop(std::size_t maxEvents)
{
    if (maxEvents < 64)
        maxEvents = 64;
    if (maxEvents > 4096)
        maxEvents = 4096;
    evs_.resize(maxEvents);
    epfd_ = ::epoll_create1(EPOLL_CLOEXEC);
    assert(epfd_ >= 0);
}

EventLoop::~EventLoop()
{
    if (epfd_ >= 0)
        ::close(epfd_);
}

void
EventLoop::add(int fd, std::uint64_t ud, std::uint32_t events)
{
    epoll_event ev{};
    ev.events = events;
    ev.data.u64 = ud;
    int rc = ::epoll_ctl(epfd_, EPOLL_CTL_ADD, fd, &ev);
    assert(rc == 0);
    (void)rc;
}

bool
EventLoop::mod(int fd, std::uint64_t ud, std::uint32_t events)
{
    epoll_event ev{};
    ev.events = events;
    ev.data.u64 = ud;
    return ::epoll_ctl(epfd_, EPOLL_CTL_MOD, fd, &ev) == 0;
}

void
EventLoop::del(int fd)
{
    ::epoll_ctl(epfd_, EPOLL_CTL_DEL, fd, nullptr);
}

int
EventLoop::wait(int timeoutMs)
{
    for (;;) {
        int n = ::epoll_wait(epfd_, evs_.data(),
                             int(evs_.size()), timeoutMs);
        if (n >= 0)
            return n;
        if (errno != EINTR)
            return 0;
    }
}

int
EventLoop::waitNs(std::int64_t timeoutNs)
{
    if (timeoutNs < 0)
        timeoutNs = 0;
    static bool havePwait2 = true;  // cleared on first ENOSYS
    if (havePwait2) {
        timespec ts{};
        ts.tv_sec = time_t(timeoutNs / 1000000000);
        ts.tv_nsec = long(timeoutNs % 1000000000);
        for (;;) {
            int n = ::epoll_pwait2(epfd_, evs_.data(),
                                   int(evs_.size()), &ts, nullptr);
            if (n >= 0)
                return n;
            if (errno == EINTR)
                continue;
            if (errno == ENOSYS) {
                havePwait2 = false;
                break;
            }
            return 0;
        }
    }
    // Round up so a sub-millisecond pacing gap does not degrade
    // into a zero-timeout spin.
    return wait(int((timeoutNs + 999999) / 1000000));
}

WakeFd::WakeFd()
{
    fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    assert(fd_ >= 0);
}

WakeFd::~WakeFd()
{
    if (fd_ >= 0)
        ::close(fd_);
}

void
WakeFd::signal() const
{
    std::uint64_t one = 1;
    // EAGAIN means the counter is saturated; the reader is already
    // going to wake, so dropping this increment is fine.
    [[maybe_unused]] ssize_t n = ::write(fd_, &one, sizeof(one));
}

void
WakeFd::drain() const
{
    std::uint64_t v;
    [[maybe_unused]] const ssize_t n = ::read(fd_, &v, sizeof(v));
}

} // namespace lp::net
