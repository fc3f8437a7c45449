/**
 * @file
 * Datapath tests for lp::net and the server's non-blocking I/O: the
 * FrameCursor buffer contract, byte-dribbled requests (every opcode
 * split across many tiny reads, including inside the u32 length
 * field), and partial-write resumption (shrunk socket buffers, a
 * pipelined burst of maximum-size SCAN replies, and a client that
 * refuses to read until everything is queued -- forcing the server
 * through EAGAIN, EPOLLOUT re-arm, and outbuf backpressure).
 *
 * The server runs in-process (no fork): these tests exercise the
 * steady-state datapath, not crash recovery.
 */

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/frame_cursor.hh"
#include "server/client.hh"
#include "server/protocol.hh"
#include "server/server.hh"
#include "temp_dir.hh"

using namespace lp;
using namespace lp::server;

namespace
{

TEST(FrameCursor, AppendConsumeWindow)
{
    net::FrameCursor c;
    EXPECT_TRUE(c.empty());
    EXPECT_EQ(c.size(), 0u);

    const std::uint8_t a[] = {1, 2, 3, 4};
    const std::uint8_t b[] = {5, 6};
    c.append(a, sizeof(a));
    c.append(b, sizeof(b));
    ASSERT_EQ(c.size(), 6u);
    for (std::size_t i = 0; i < 6; ++i)
        EXPECT_EQ(c.data()[i], std::uint8_t(i + 1));

    c.consume(4);
    ASSERT_EQ(c.size(), 2u);
    EXPECT_EQ(c.data()[0], 5);
    EXPECT_EQ(c.data()[1], 6);

    // Appending after a partial consume extends the same window.
    const std::uint8_t d[] = {7};
    c.append(d, 1);
    ASSERT_EQ(c.size(), 3u);
    EXPECT_EQ(c.data()[2], 7);

    c.consume(3);
    EXPECT_TRUE(c.empty());
}

TEST(FrameCursor, WritePtrCommitMatchesAppend)
{
    net::FrameCursor c;
    std::uint8_t *w = c.writePtr(8);
    for (std::uint8_t i = 0; i < 8; ++i)
        w[i] = i;
    c.commit(5);  // a read(2) may return less than requested
    ASSERT_EQ(c.size(), 5u);
    for (std::uint8_t i = 0; i < 5; ++i)
        EXPECT_EQ(c.data()[i], i);

    // writePtr after a short commit continues where commit left off.
    w = c.writePtr(3);
    w[0] = 50;
    c.commit(1);
    ASSERT_EQ(c.size(), 6u);
    EXPECT_EQ(c.data()[5], 50);
}

TEST(FrameCursor, CompactsInsteadOfGrowingInSteadyState)
{
    net::FrameCursor c;
    // Prime to the minimum capacity.
    std::vector<std::uint8_t> chunk(1024, 0xab);
    c.append(chunk.data(), chunk.size());
    const std::size_t cap = c.capacity();
    ASSERT_GE(cap, 1024u);

    // Steady state: consume most of a window, append more than the
    // tail space so reserve() must compact -- capacity never grows.
    for (int round = 0; round < 64; ++round) {
        c.consume(c.size() - 16);  // keep an undecoded suffix
        c.append(chunk.data(), chunk.size());
        EXPECT_EQ(c.capacity(), cap) << "round " << round;
        ASSERT_EQ(c.size(), 16u + chunk.size());
    }

    // The preserved suffix survives every compaction intact.
    for (std::size_t i = 0; i < 16; ++i)
        EXPECT_EQ(c.data()[i], 0xab);
}

TEST(FrameCursor, ClearKeepsCapacity)
{
    net::FrameCursor c;
    std::vector<std::uint8_t> chunk(9000, 7);
    c.append(chunk.data(), chunk.size());
    const std::size_t cap = c.capacity();
    c.clear();
    EXPECT_TRUE(c.empty());
    EXPECT_EQ(c.capacity(), cap);
    c.append(chunk.data(), 10);
    EXPECT_EQ(c.size(), 10u);
    EXPECT_EQ(c.capacity(), cap);
}

/** In-process server + temp dir, torn down with the fixture. */
class ServerNet : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        ASSERT_FALSE(dir_.path.empty());
        cfg_.dataDir = dir_.path;
        cfg_.shards = 4;
        cfg_.quiet = true;
        srv_ = std::make_unique<Server>(cfg_);
        srv_->start();
    }

    void
    TearDown() override
    {
        if (srv_)
            srv_->stop();
        srv_.reset();
    }

    /**
     * Raw blocking socket to the server. @p rcvbufBytes, when
     * nonzero, shrinks SO_RCVBUF BEFORE connect (the window scale is
     * negotiated at SYN time) so the server's writes hit a tiny
     * in-flight ceiling.
     */
    int
    rawConnect(int rcvbufBytes = 0)
    {
        const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
        EXPECT_GE(fd, 0);
        if (rcvbufBytes > 0)
            ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbufBytes,
                         sizeof(rcvbufBytes));
        const int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(std::uint16_t(srv_->port()));
        ::inet_pton(AF_INET, cfg_.host.c_str(), &addr.sin_addr);
        EXPECT_EQ(::connect(fd,
                            reinterpret_cast<sockaddr *>(&addr),
                            sizeof(addr)),
                  0)
            << std::strerror(errno);
        return fd;
    }

    const TempDir dir_{"lpserver-net-test"};  ///< outlives srv_
    ServerConfig cfg_;
    std::unique_ptr<Server> srv_;
};

/** Send every byte of @p frame in its own write(2). */
void
sendDribble(int fd, const std::vector<std::uint8_t> &frame)
{
    for (std::size_t i = 0; i < frame.size(); ++i) {
        ASSERT_EQ(::send(fd, frame.data() + i, 1, 0), 1);
        // Pause inside the length field and around the opcode so the
        // server provably sees sub-header reads, then every few bytes
        // so larger bodies split too (TCP_NODELAY pushes each byte).
        if (i < 6 || i % 7 == 0)
            std::this_thread::sleep_for(
                std::chrono::microseconds(500));
    }
}

/** Blocking-read one response frame through a FrameCursor. */
std::optional<Response>
recvFrame(int fd, net::FrameCursor &in)
{
    for (;;) {
        Response resp;
        std::size_t used = 0;
        const Decode d =
            decodeResponse(in.data(), in.size(), used, resp);
        if (d == Decode::Ok) {
            in.consume(used);
            return resp;
        }
        if (d == Decode::Malformed)
            return std::nullopt;
        const ssize_t n = ::read(fd, in.writePtr(64 * 1024), 64 * 1024);
        if (n <= 0)
            return std::nullopt;
        in.commit(std::size_t(n));
    }
}

std::vector<std::uint8_t>
enc(const Request &r)
{
    std::vector<std::uint8_t> out;
    encodeRequest(r, out);
    return out;
}

/**
 * Every opcode, one byte per write: the server's FrameCursor must
 * reassemble frames split at arbitrary points -- including inside
 * the u32 length prefix -- and answer each correctly.
 */
TEST_F(ServerNet, DribbledRequestsEveryOpcode)
{
    const int fd = rawConnect();
    net::FrameCursor in;
    std::uint64_t id = 0;

    const auto roundTrip =
        [&](const Request &q) -> std::optional<Response> {
        sendDribble(fd, enc(q));
        return recvFrame(fd, in);
    };

    // PUT a few keys the later ops can see.
    for (std::uint64_t k = 1; k <= 8; ++k) {
        Request q;
        q.op = Op::Put;
        q.id = ++id;
        q.key = k;
        q.value = k * 100;
        const auto r = roundTrip(q);
        ASSERT_TRUE(r.has_value());
        EXPECT_EQ(r->status, Status::Ok);
        EXPECT_EQ(r->id, q.id);
    }

    {
        Request q;
        q.op = Op::Get;
        q.id = ++id;
        q.key = 3;
        const auto r = roundTrip(q);
        ASSERT_TRUE(r.has_value());
        EXPECT_EQ(r->status, Status::Ok);
        ASSERT_TRUE(r->hasValue);
        EXPECT_EQ(r->value, 300u);
    }
    {
        Request q;
        q.op = Op::Del;
        q.id = ++id;
        q.key = 4;
        const auto r = roundTrip(q);
        ASSERT_TRUE(r.has_value());
        EXPECT_EQ(r->status, Status::Ok);

        Request g;
        g.op = Op::Get;
        g.id = ++id;
        g.key = 4;
        const auto r2 = roundTrip(g);
        ASSERT_TRUE(r2.has_value());
        EXPECT_EQ(r2->status, Status::NotFound);
    }
    {
        Request q;
        q.op = Op::Batch;
        q.id = ++id;
        for (std::uint64_t k = 20; k < 40; ++k)
            q.batch.push_back(BatchOp{true, k, k + 1});
        const auto r = roundTrip(q);
        ASSERT_TRUE(r.has_value());
        EXPECT_EQ(r->status, Status::Ok);
    }
    {
        Request q;
        q.op = Op::Scan;
        q.id = ++id;
        q.key = 20;
        q.limit = 10;
        const auto r = roundTrip(q);
        ASSERT_TRUE(r.has_value());
        ASSERT_EQ(r->status, Status::Ok);
        std::vector<ScanRecord> recs;
        ASSERT_TRUE(decodeScanBody(r->body, recs));
        ASSERT_EQ(recs.size(), 10u);
        for (std::size_t i = 0; i < recs.size(); ++i) {
            EXPECT_EQ(recs[i].key, 20 + i);
            if (i > 0) {
                EXPECT_GT(recs[i].key, recs[i - 1].key);
            }
        }
    }
    {
        Request q;
        q.op = Op::Txn;
        q.id = ++id;
        q.txn.push_back({TxnOp::Kind::Put, 50, 500});
        q.txn.push_back({TxnOp::Kind::Add, 20, 9});
        q.txn.push_back({TxnOp::Kind::Get, 3, 0});
        const auto r = roundTrip(q);
        ASSERT_TRUE(r.has_value());
        ASSERT_EQ(r->status, Status::Ok);
        std::vector<TxnRead> reads;
        ASSERT_TRUE(decodeTxnReadsBody(r->body, reads));
        ASSERT_EQ(reads.size(), 1u);
        EXPECT_TRUE(reads[0].found);
        EXPECT_EQ(reads[0].value, 300u);
    }
    {
        Request q;
        q.op = Op::Metrics;
        q.id = ++id;
        const auto r = roundTrip(q);
        ASSERT_TRUE(r.has_value());
        ASSERT_EQ(r->status, Status::Ok);
        // The datapath gauges/counters this PR added must be present.
        EXPECT_NE(r->body.find("lp_conn_active"), std::string::npos);
        EXPECT_NE(r->body.find("lp_outbuf_bytes"), std::string::npos);
        EXPECT_NE(r->body.find("lp_eagain_total"), std::string::npos);
        EXPECT_NE(r->body.find("lp_writev_batch"), std::string::npos);
    }

    ::close(fd);
}

/**
 * Interleaved pipelining under dribble: queue several requests'
 * bytes in one buffer, send THAT byte-by-byte, and check every
 * reply arrives (matched by id -- shards may reorder).
 */
TEST_F(ServerNet, DribbledPipelinedBurst)
{
    const int fd = rawConnect();
    net::FrameCursor in;

    std::vector<std::uint8_t> wire;
    std::vector<std::uint64_t> ids;
    for (std::uint64_t i = 0; i < 24; ++i) {
        Request q;
        q.id = 1000 + i;
        if (i % 3 == 0) {
            q.op = Op::Put;
            q.key = 200 + i;
            q.value = i;
        } else {
            q.op = Op::Get;
            q.key = 200 + (i - i % 3);  // PUT of this round-of-3
        }
        encodeRequest(q, wire);
        ids.push_back(q.id);
    }
    sendDribble(fd, wire);

    std::unordered_map<std::uint64_t, Response> got;
    for (std::size_t i = 0; i < ids.size(); ++i) {
        const auto r = recvFrame(fd, in);
        ASSERT_TRUE(r.has_value()) << "reply " << i;
        EXPECT_TRUE(got.emplace(r->id, *r).second)
            << "duplicate id " << r->id;
    }
    for (const std::uint64_t id : ids)
        ASSERT_TRUE(got.count(id)) << "missing reply " << id;
    // GETs pipelined after their PUT on one connection see its value
    // (same shard => same worker queue => ordered).
    for (std::uint64_t i = 0; i < 24; ++i) {
        const Response &r = got[1000 + i];
        if (i % 3 == 0) {
            EXPECT_EQ(r.status, Status::Ok);
        } else {
            ASSERT_EQ(r.status, Status::Ok) << "GET " << i;
            ASSERT_TRUE(r.hasValue);
            EXPECT_EQ(r.value, (i - i % 3));
        }
    }
    ::close(fd);
}

/**
 * Partial-write resumption: a tiny client receive window, a burst of
 * maximum-size SCAN replies queued before the client reads a single
 * byte. The server's first writev can only land a few kilobytes; the
 * rest must survive EAGAIN, EPOLLOUT re-arm, and (past
 * kOutbufLimitBytes) read-side backpressure, then drain completely
 * once the client starts reading.
 */
TEST_F(ServerNet, PartialWriteLargeScanBurst)
{
    // ~2k records => SCAN(limit=2048) replies of ~32 KiB each.
    constexpr std::uint64_t kRecords = 2048;
    constexpr int kScans = 96;  // ~3 MiB of queued replies

    {
        Client loader;
        ASSERT_TRUE(loader.connectTo(cfg_.host, srv_->port()));
        for (std::uint64_t at = 0; at < kRecords; at += 256) {
            Request q;
            q.op = Op::Batch;
            q.id = loader.nextId();
            for (std::uint64_t k = at;
                 k < at + 256 && k < kRecords; ++k)
                q.batch.push_back(BatchOp{true, k + 1, k});
            ASSERT_TRUE(loader.sendRequest(q));
            const auto r = loader.recvResponse(30000);
            ASSERT_TRUE(r.has_value());
            ASSERT_EQ(r->status, Status::Ok);
        }
        loader.close();
    }

    const int fd = rawConnect(4096);  // tiny SO_RCVBUF, pre-connect

    // Queue every SCAN before reading anything.
    std::vector<std::uint8_t> wire;
    for (int i = 0; i < kScans; ++i) {
        Request q;
        q.op = Op::Scan;
        q.id = std::uint64_t(5000 + i);
        q.key = 1;
        q.limit = std::uint32_t(kRecords);
        encodeRequest(q, wire);
    }
    ssize_t sent = 0;
    while (sent < ssize_t(wire.size())) {
        const ssize_t n = ::send(fd, wire.data() + sent,
                                 wire.size() - std::size_t(sent), 0);
        ASSERT_GT(n, 0);
        sent += n;
    }
    // Let the server fill the socket and hit its outbuf ceiling
    // before the first read -- otherwise the test degenerates into
    // lockstep request/response.
    std::this_thread::sleep_for(std::chrono::milliseconds(200));

    net::FrameCursor in;
    std::unordered_map<std::uint64_t, bool> got;
    for (int i = 0; i < kScans; ++i) {
        const auto r = recvFrame(fd, in);
        ASSERT_TRUE(r.has_value()) << "reply " << i;
        ASSERT_EQ(r->status, Status::Ok) << "reply " << i;
        EXPECT_TRUE(got.emplace(r->id, true).second);
        std::vector<ScanRecord> recs;
        ASSERT_TRUE(decodeScanBody(r->body, recs)) << "reply " << i;
        ASSERT_EQ(recs.size(), std::size_t(kRecords));
        for (std::size_t j = 1; j < recs.size(); ++j)
            ASSERT_GT(recs[j].key, recs[j - 1].key);
    }
    ::close(fd);

    // The stressed connection's buffered bytes must not leak into
    // the gauge once it is gone; eagain_total should have counted at
    // least one short write under a 3 MiB burst into a 4 KiB window.
    Client probe;
    ASSERT_TRUE(probe.connectTo(cfg_.host, srv_->port()));
    const auto m = probe.metrics();
    ASSERT_TRUE(m.has_value());
    ASSERT_EQ(m->status, Status::Ok);
    const std::string &text = m->body;
    EXPECT_NE(text.find("lp_eagain_total"), std::string::npos);
    const std::size_t at = text.find("lp_outbuf_bytes ");
    ASSERT_NE(at, std::string::npos);
    EXPECT_EQ(std::atoll(text.c_str() + at +
                         std::strlen("lp_outbuf_bytes ")),
              0);
    probe.close();
}

/**
 * A client that writes one frame and closes at once: its FIN can
 * arrive with the frame, so the read that drains the frame is short
 * and never sees the close. The server still runs the request -- a
 * later client reads the PUT back -- and reaps the connection from
 * the same event (EPOLLRDHUP): conn_active returns to 0.
 */
TEST_F(ServerNet, WriteThenCloseIsServedAndReaped)
{
    const auto connActive = [&] {
        const std::string text = srv_->metricsText();
        const std::size_t at = text.find("lp_conn_active ");
        EXPECT_NE(at, std::string::npos);
        return std::atoll(text.c_str() + at +
                          std::strlen("lp_conn_active "));
    };
    const auto until =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    for (std::uint64_t i = 0; i < 20; ++i) {
        const int fd = rawConnect();
        Request q;
        q.op = Op::Put;
        q.id = 1;
        q.key = 300 + i;
        q.value = 3000 + i;
        const std::vector<std::uint8_t> frame = enc(q);
        ASSERT_EQ(::send(fd, frame.data(), frame.size(), 0),
                  ssize_t(frame.size()));
        ::close(fd);
    }
    while (connActive() != 0) {
        ASSERT_LT(std::chrono::steady_clock::now(), until)
            << "a closed connection was never reaped";
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }

    Client c;
    ASSERT_TRUE(c.connectTo(cfg_.host, srv_->port()));
    for (std::uint64_t i = 0; i < 20; ++i) {
        const auto g = c.get(300 + i, 10000);
        ASSERT_TRUE(g.has_value());
        ASSERT_EQ(g->status, Status::Ok) << "PUT " << i << " was lost";
        EXPECT_EQ(g->value, 3000 + i);
    }
    c.close();
}

/**
 * connectTo's timeout also arms the read deadline (SO_RCVTIMEO): a
 * peer that accepts and then goes silent cannot wedge a blocking
 * recvResponse(-1) forever.
 */
TEST(ClientConnect, ReadTimeoutOnSilentPeer)
{
    const int lfd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(lfd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    ASSERT_EQ(::bind(lfd, reinterpret_cast<sockaddr *>(&addr),
                     sizeof(addr)),
              0);
    ASSERT_EQ(::listen(lfd, 4), 0);
    socklen_t len = sizeof(addr);
    ASSERT_EQ(::getsockname(lfd,
                            reinterpret_cast<sockaddr *>(&addr),
                            &len),
              0);
    const int port = ntohs(addr.sin_port);

    Client c;
    ASSERT_TRUE(c.connectTo("127.0.0.1", port, 300));
    Request q;
    q.op = Op::Get;
    q.id = 1;
    q.key = 1;
    ASSERT_TRUE(c.sendRequest(q));

    const auto t0 = std::chrono::steady_clock::now();
    const auto r = c.recvResponse(-1);  // deadline is the socket's
    const auto elapsed =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - t0)
            .count();
    EXPECT_FALSE(r.has_value());
    EXPECT_GE(elapsed, 200);
    EXPECT_LT(elapsed, 5000);

    c.close();
    ::close(lfd);
}

/** A closed port refuses immediately -- no hang until the timeout. */
TEST(ClientConnect, ClosedPortFailsFast)
{
    // Bind-then-close reserves a port that is now certainly closed.
    const int tfd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(tfd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    ASSERT_EQ(::bind(tfd, reinterpret_cast<sockaddr *>(&addr),
                     sizeof(addr)),
              0);
    socklen_t len = sizeof(addr);
    ASSERT_EQ(::getsockname(tfd,
                            reinterpret_cast<sockaddr *>(&addr),
                            &len),
              0);
    const int port = ntohs(addr.sin_port);
    ::close(tfd);

    Client c;
    const auto t0 = std::chrono::steady_clock::now();
    EXPECT_FALSE(c.connectTo("127.0.0.1", port, 2000));
    const auto elapsed =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - t0)
            .count();
    EXPECT_LT(elapsed, 1500);
}

} // namespace
