#include "server/client.hh"

#include <arpa/inet.h>
#include <cerrno>
#include <cstdio>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <thread>

namespace lp::server
{

std::uint64_t
retryDelayUs(const RetryPolicy &p, int attempt,
             std::uint64_t &rngState)
{
    // xorshift64*: tiny, stateless beyond the caller's word, and
    // plenty for jitter (this is decorrelation, not cryptography).
    std::uint64_t x = rngState ? rngState : 0x9e3779b97f4a7c15ull;
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    rngState = x;
    const std::uint64_t rnd = x * 0x2545f4914f6cdd1dull;
    std::uint64_t ceil = p.baseDelayUs;
    for (int i = 0; i < attempt && ceil < p.capDelayUs; ++i)
        ceil <<= 1;
    if (ceil > p.capDelayUs)
        ceil = p.capDelayUs;
    return ceil == 0 ? 0 : rnd % (ceil + 1);  // full jitter [0, ceil]
}

Client::~Client()
{
    close();
}

bool
Client::connectTo(const std::string &host, int port, int timeoutMs)
{
    close();
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0)
        return false;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(std::uint16_t(port));
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
        close();
        return false;
    }
    if (timeoutMs <= 0) {
        if (::connect(fd_, reinterpret_cast<sockaddr *>(&addr),
                      sizeof(addr)) != 0) {
            close();
            return false;
        }
        const int one = 1;
        ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one,
                     sizeof(one));
        return true;
    }

    // Bounded handshake: connect non-blocking, poll for writability,
    // then read the verdict out of SO_ERROR (the connect(2) idiom --
    // POLLOUT alone also fires on refusal).
    const int flags = ::fcntl(fd_, F_GETFL, 0);
    if (flags < 0 ||
        ::fcntl(fd_, F_SETFL, flags | O_NONBLOCK) != 0) {
        close();
        return false;
    }
    if (::connect(fd_, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        if (errno != EINPROGRESS) {
            close();
            return false;
        }
        pollfd pf{fd_, POLLOUT, 0};
        int pr;
        do {
            pr = ::poll(&pf, 1, timeoutMs);
        } while (pr < 0 && errno == EINTR);
        int soerr = 0;
        socklen_t len = sizeof(soerr);
        if (pr <= 0 ||
            ::getsockopt(fd_, SOL_SOCKET, SO_ERROR, &soerr, &len) !=
                0 ||
            soerr != 0) {
            close();
            return false;
        }
    }
    if (::fcntl(fd_, F_SETFL, flags) != 0) {  // back to blocking
        close();
        return false;
    }

    // Default I/O bound: a wedged server turns reads/writes into
    // clean failures instead of hangs, even with timeoutMs = -1 at
    // the recvResponse() layer.
    timeval tv{};
    tv.tv_sec = timeoutMs / 1000;
    tv.tv_usec = long(timeoutMs % 1000) * 1000;
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
    // poll(2) ignores SO_RCVTIMEO, so recvResponse() must apply the
    // same bound itself when called with timeoutMs = -1.
    readTimeoutMs_ = timeoutMs;
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    return true;
}

void
Client::close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
    readTimeoutMs_ = -1;
    in_.clear();
}

bool
Client::sendRequest(const Request &r)
{
    return sendRequests({&r, 1});
}

bool
Client::sendRequests(std::span<const Request> rs)
{
    if (fd_ < 0)
        return false;
    std::vector<std::uint8_t> buf;
    for (const Request &r : rs)
        encodeRequest(r, buf);
    std::size_t at = 0;
    while (at < buf.size()) {
        const ssize_t n = ::write(fd_, buf.data() + at,
                                  buf.size() - at);
        if (n <= 0) {
            if (n < 0 && errno == EINTR)
                continue;
            close();
            return false;
        }
        at += std::size_t(n);
    }
    return true;
}

std::optional<Response>
Client::recvResponse(int timeoutMs)
{
    if (fd_ < 0)
        return std::nullopt;
    if (timeoutMs < 0)
        timeoutMs = readTimeoutMs_;  // connectTo's read deadline
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::milliseconds(timeoutMs < 0 ? 0 : timeoutMs);
    for (;;) {
        // Try to decode from what we already have.
        Response resp;
        std::size_t used = 0;
        const Decode d =
            decodeResponse(in_.data(), in_.size(), used, resp);
        if (d == Decode::Ok) {
            in_.consume(used);
            return resp;
        }
        if (d == Decode::Malformed) {
            close();
            return std::nullopt;
        }

        // Need more bytes.
        int waitMs = -1;
        if (timeoutMs >= 0) {
            const auto left =
                std::chrono::duration_cast<std::chrono::milliseconds>(
                    deadline - std::chrono::steady_clock::now())
                    .count();
            if (left <= 0)
                return std::nullopt;
            waitMs = int(left);
        }
        pollfd pf{fd_, POLLIN, 0};
        const int pr = ::poll(&pf, 1, waitMs);
        if (pr == 0)
            return std::nullopt;  // timeout
        if (pr < 0) {
            if (errno == EINTR)
                continue;
            close();
            return std::nullopt;
        }
        const ssize_t n =
            ::read(fd_, in_.writePtr(64 * 1024), 64 * 1024);
        if (n <= 0) {
            if (n < 0 && errno == EINTR)
                continue;
            if (n < 0 &&
                (errno == EAGAIN || errno == EWOULDBLOCK))
                return std::nullopt;  // SO_RCVTIMEO elapsed
            close();  // EOF (server closed us) or hard error
            return std::nullopt;
        }
        in_.commit(std::size_t(n));
    }
}

std::optional<Response>
Client::roundTrip(const Request &r, int timeoutMs)
{
    if (!sendRequest(r))
        return std::nullopt;
    return recvResponse(timeoutMs);
}

std::optional<Response>
Client::get(std::uint64_t key, int timeoutMs)
{
    Request r;
    r.op = Op::Get;
    r.id = nextId();
    r.key = key;
    return roundTrip(r, timeoutMs);
}

std::optional<Response>
Client::put(std::uint64_t key, std::uint64_t value, int timeoutMs)
{
    Request r;
    r.op = Op::Put;
    r.id = nextId();
    r.key = key;
    r.value = value;
    return roundTrip(r, timeoutMs);
}

std::optional<Response>
Client::del(std::uint64_t key, int timeoutMs)
{
    Request r;
    r.op = Op::Del;
    r.id = nextId();
    r.key = key;
    return roundTrip(r, timeoutMs);
}

std::optional<Response>
Client::retryLoop(Request r, const RetryPolicy &policy, int timeoutMs)
{
    for (int attempt = 0;; ++attempt) {
        r.id = nextId();
        ++counters_.attempts;
        auto resp = roundTrip(r, timeoutMs);
        if (!resp || resp->status != Status::Retry ||
            attempt + 1 >= policy.maxAttempts)
            return resp;
        ++counters_.retries;
        const std::uint64_t delay =
            retryDelayUs(policy, attempt, rng_);
        counters_.backoffUs += delay;
        std::this_thread::sleep_for(
            std::chrono::microseconds(delay));
    }
}

std::optional<Response>
Client::putBackoff(std::uint64_t key, std::uint64_t value,
                   const RetryPolicy &policy, int timeoutMs)
{
    Request r;
    r.op = Op::Put;
    r.key = key;
    r.value = value;
    return retryLoop(std::move(r), policy, timeoutMs);
}

std::optional<Response>
Client::stats(int timeoutMs)
{
    Request r;
    r.op = Op::Stats;
    r.id = nextId();
    return roundTrip(r, timeoutMs);
}

std::optional<Response>
Client::metrics(int timeoutMs)
{
    Request r;
    r.op = Op::Metrics;
    r.id = nextId();
    return roundTrip(r, timeoutMs);
}

std::optional<std::vector<ScanRecord>>
Client::scan(std::uint64_t start, std::uint32_t limit, int timeoutMs)
{
    Request r;
    r.op = Op::Scan;
    r.id = nextId();
    r.key = start;
    r.limit = limit;
    const auto resp = roundTrip(r, timeoutMs);
    if (!resp || resp->status != Status::Ok)
        return std::nullopt;
    std::vector<ScanRecord> records;
    if (!decodeScanBody(resp->body, records)) {
        close();
        return std::nullopt;
    }
    return records;
}

std::optional<Client::TxnResult>
Client::txn(const std::vector<TxnOp> &ops, int timeoutMs)
{
    Request r;
    r.op = Op::Txn;
    r.id = nextId();
    r.txn = ops;
    const auto resp = roundTrip(r, timeoutMs);
    if (!resp)
        return std::nullopt;
    TxnResult out;
    out.status = resp->status;
    if (resp->status == Status::Ok &&
        !decodeTxnReadsBody(resp->body, out.reads)) {
        close();
        return std::nullopt;
    }
    return out;
}

std::optional<Client::TxnResult>
Client::txnBackoff(const std::vector<TxnOp> &ops,
                   const RetryPolicy &policy, int timeoutMs)
{
    for (int attempt = 0;; ++attempt) {
        ++counters_.attempts;
        auto res = txn(ops, timeoutMs);
        if (!res || (res->status != Status::Retry &&
                     res->status != Status::Aborted) ||
            attempt + 1 >= policy.maxAttempts)
            return res;
        if (res->status == Status::Aborted)
            ++counters_.aborts;
        else
            ++counters_.retries;
        const std::uint64_t delay =
            retryDelayUs(policy, attempt, rng_);
        counters_.backoffUs += delay;
        std::this_thread::sleep_for(
            std::chrono::microseconds(delay));
    }
}

std::optional<Response>
Client::shutdownServer(int timeoutMs)
{
    Request r;
    r.op = Op::Shutdown;
    r.id = nextId();
    return roundTrip(r, timeoutMs);
}

int
waitForPortFile(const std::string &dataDir, int timeoutMs)
{
    const std::string path = dataDir + "/PORT";
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeoutMs);
    for (;;) {
        if (FILE *f = std::fopen(path.c_str(), "r")) {
            int port = 0;
            const int got = std::fscanf(f, "%d", &port);
            std::fclose(f);
            if (got == 1 && port > 0)
                return port;
        }
        if (std::chrono::steady_clock::now() >= deadline)
            return 0;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
}

} // namespace lp::server
