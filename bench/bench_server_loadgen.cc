/**
 * @file
 * Multi-connection load generator for lp::server, two tiers:
 *
 * Closed loop: starts an in-process server (4 shard workers) on an
 * ephemeral port, loads a record set, then drives YCSB mixes A
 * (50/50), B (95/5), C (read-only) and E (scans) from 8 concurrent
 * client connections, each pipelining a 16-op window, for each
 * persistency backend (LP, eager per-op, WAL). Latency is
 * send-to-reply, and a reply is only sent once the mutation is
 * *recoverable* (its batch epoch committed), so the mix-A tail
 * directly exposes each backend's ack-deferral story.
 *
 * Open loop: drives the LP backend with YCSB-C GETs from a sweep of
 * connection counts (default 8/64/256/1024), every connection
 * multiplexed onto a shared net::EventLoop per driver thread. Sends
 * follow an arrival-time schedule (fixed or Poisson gaps) that does
 * NOT wait for replies -- requests pipeline on the wire up to a
 * per-connection window -- and latency is omission-corrected: measured
 * from the *intended* send time, so a stalled server cannot hide its
 * queueing delay by slowing the load down (the coordinated-omission
 * trap of closed loops). A connection that falls behind catches up
 * back-to-back, each op still charged from its own intended time.
 *
 * Open-loop flags: --ol-secs=N --ol-rate=OPS --ol-conns=8,64,...
 * --ol-dist=fixed|poisson --open-loop-only. With --trace-out=BASE,
 * each closed-loop server writes a Chrome trace-event JSON to
 * BASE.<backend>.json at shutdown.
 *
 * Writes the full grid to BENCH_server.json (or argv[1]) via the
 * stats JSON exporter; the open-loop tier lands under "open_loop"
 * with one curve entry per connection count.
 */

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/resource.h>
#include <sys/socket.h>

#include <algorithm>
#include <arpa/inet.h>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "base/logging.hh"
#include "base/rng.hh"
#include "bench/common.hh"
#include "net/connection.hh"
#include "net/event_loop.hh"
#include "obs/histogram.hh"
#include "server/client.hh"
#include "server/server.hh"
#include "stats/json.hh"
#include "stats/table.hh"
#include "store/ycsb.hh"

using namespace lp;
using namespace lp::server;
using namespace lp::store;

namespace
{

constexpr int kShards = 4;
constexpr int kClients = 8;
constexpr std::size_t kWindow = 16;
constexpr std::size_t kRecords = 2048;
constexpr std::size_t kOpsPerClient = 2048;
constexpr std::uint64_t kKeySeed = 42;  ///< keyOfRecord mapping seed

using Clock = std::chrono::steady_clock;

/** What one client connection observed during a mix. */
struct ClientResult
{
    obs::Histogram latNs;      ///< send-to-reply, completed ops only
    obs::Histogram scanLatNs;  ///< SCAN subset of latNs (YCSB-E)
    obs::Histogram scanLen;    ///< records per completed scan
    std::uint64_t reads = 0;
    std::uint64_t updates = 0;
    std::uint64_t scans = 0;   ///< SCAN frames issued
    std::uint64_t scanned = 0; ///< records returned across scans
    std::uint64_t retries = 0;  ///< Retry replies (each re-sent)
    std::uint64_t dropped = 0;  ///< ops abandoned after maxAttempts
    std::uint64_t errors = 0;
};

/**
 * Closed-loop client: keeps up to kWindow requests in flight, matches
 * replies by echoed id (the server may reorder across shards), and
 * records send-to-reply latency per completed op. A Status::Retry
 * reply re-enqueues the op after a full-jitter exponential backoff
 * (server::RetryPolicy) instead of hammering the server back-to-back;
 * latency still counts from the FIRST send, so backpressure stalls
 * show up in the tail rather than vanishing.
 */
void
runClient(Client &c, const YcsbParams &p, std::uint64_t rngSeed,
          ClientResult &out)
{
    Rng rng(rngSeed * 0x9e3779b97f4a7c15ull + 1);
    ZipfianGen zipf(p.records < 2 ? 2 : p.records, p.theta);

    const RetryPolicy policy;
    std::uint64_t jitterState = rngSeed * 0x2545f4914f6cdd1dull + 7;

    struct Pending
    {
        Clock::time_point t0;
        bool isScan;
        Request q;     ///< kept so a Retry reply can re-send it
        int attempt;   ///< 0 on first send
    };
    std::unordered_map<std::uint64_t, Pending> inflight;

    struct Deferred
    {
        Request q;
        Clock::time_point t0;        ///< original first-send time
        Clock::time_point notBefore; ///< backoff gate
        bool isScan;
        int attempt;
    };
    std::deque<Deferred> deferred;

    auto recvOne = [&]() -> bool {
        const auto r = c.recvResponse(30000);
        if (!r) {
            ++out.errors;
            return false;
        }
        const auto it = inflight.find(r->id);
        if (it == inflight.end()) {
            ++out.errors;  // reply to an id we never sent
            return false;
        }
        if (r->status == Status::Retry) {
            ++out.retries;
            Pending pend = std::move(it->second);
            inflight.erase(it);
            if (pend.attempt + 1 >= policy.maxAttempts) {
                ++out.dropped;
                return true;
            }
            const std::uint64_t delayUs =
                retryDelayUs(policy, pend.attempt, jitterState);
            deferred.push_back(Deferred{
                std::move(pend.q), pend.t0,
                Clock::now() + std::chrono::microseconds(delayUs),
                pend.isScan, pend.attempt + 1});
            return true;
        }
        {
            const auto ns = std::uint64_t(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    Clock::now() - it->second.t0)
                    .count());
            out.latNs.record(ns);
            if (it->second.isScan) {
                out.scanLatNs.record(ns);
                std::vector<ScanRecord> recs;
                if (r->status == Status::Ok &&
                    decodeScanBody(r->body, recs)) {
                    out.scanned += recs.size();
                    out.scanLen.record(recs.size());
                    for (std::size_t i = 1; i < recs.size(); ++i)
                        if (recs[i].key <= recs[i - 1].key)
                            ++out.errors;  // scan out of order
                } else {
                    ++out.errors;
                }
            }
        }
        inflight.erase(it);
        return true;
    };

    // E inserts fresh keys; disjoint id ranges per client keep the
    // growing key space collision-free across connections.
    std::uint64_t insertSeq =
        p.records + (rngSeed - 1) * kOpsPerClient;

    std::size_t sent = 0;
    while (sent < kOpsPerClient || !inflight.empty() ||
           !deferred.empty()) {
        // Backed-off ops take priority over fresh ones once their
        // gate has passed (they are the oldest work we owe).
        if (!deferred.empty() && inflight.size() < kWindow &&
            deferred.front().notBefore <= Clock::now()) {
            Deferred d = std::move(deferred.front());
            deferred.pop_front();
            d.q.id = c.nextId();
            inflight.emplace(d.q.id, Pending{d.t0, d.isScan, d.q,
                                             d.attempt});
            if (!c.sendRequest(d.q)) {
                ++out.errors;
                break;
            }
            continue;
        }
        if (inflight.empty() && sent >= kOpsPerClient) {
            // Only gated re-sends remain: sleep out the backoff.
            std::this_thread::sleep_until(deferred.front().notBefore);
            continue;
        }
        if (sent < kOpsPerClient && inflight.size() < kWindow) {
            Request q;
            q.id = c.nextId();
            bool isScan = false;
            if (p.mix == YcsbMix::E) {
                if (rng.chance(scanFraction(p.mix))) {
                    const std::uint64_t rank =
                        p.zipfian ? zipf.next(rng)
                                  : rng.below(p.records);
                    q.op = Op::Scan;
                    q.key = keyOfRecord(rank % p.records, kKeySeed);
                    q.limit = std::uint32_t(
                        1 + rng.below(p.maxScanLen));
                    isScan = true;
                    ++out.scans;
                } else {
                    q.op = Op::Put;
                    q.key = keyOfRecord(insertSeq++, kKeySeed);
                    q.value = (rngSeed << 32) ^ sent;
                    ++out.updates;
                }
            } else {
                const bool read = rng.chance(readFraction(p.mix));
                const std::uint64_t rank =
                    p.zipfian ? zipf.next(rng) : rng.below(p.records);
                q.key = keyOfRecord(rank % p.records, kKeySeed);
                if (read) {
                    q.op = Op::Get;
                    ++out.reads;
                } else {
                    q.op = Op::Put;
                    q.value = (rngSeed << 32) ^ sent;
                    ++out.updates;
                }
            }
            inflight.emplace(q.id,
                             Pending{Clock::now(), isScan, q, 0});
            if (!c.sendRequest(q)) {
                ++out.errors;
                break;
            }
            ++sent;
        } else if (!recvOne()) {
            break;
        }
    }
}

/** Load the record set through one connection, in BATCH frames. */
bool
loadRecords(Client &c)
{
    constexpr std::size_t kChunk = 256;
    for (std::size_t at = 0; at < kRecords; at += kChunk) {
        Request q;
        q.op = Op::Batch;
        q.id = c.nextId();
        for (std::size_t i = at; i < at + kChunk && i < kRecords; ++i)
            q.batch.push_back(
                BatchOp{true, keyOfRecord(i, kKeySeed), i});
        if (!c.sendRequest(q))
            return false;
        const auto r = c.recvResponse(30000);
        if (!r || r->status != Status::Ok)
            return false;
    }
    return true;
}

std::string
makeDataDir()
{
    char tmpl[] = "/tmp/lpserver-bench-XXXXXX";
    const char *dir = mkdtemp(tmpl);
    if (dir == nullptr)
        fatal("mkdtemp failed");
    return dir;
}

/** True when the bare flag `--name` appears anywhere in argv. */
bool
hasArg(int argc, char **argv, const std::string &name)
{
    const std::string want = "--" + name;
    for (int i = 1; i < argc; ++i)
        if (want == argv[i])
            return true;
    return false;
}

/// @name Open-loop tier
/// @{

struct OlParams
{
    int totalConns = 256;
    double offeredRate = 500000.0;  ///< aggregate intended ops/s
    double secs = 4.0;
    bool poisson = true;
    std::size_t records = kRecords;
};

/** What one open-loop driver thread observed. */
struct OlResult
{
    obs::Histogram latNs;  ///< completion - INTENDED send time
    obs::Histogram rttNs;  ///< completion - actual send (diagnostic)
    std::uint64_t sent = 0;
    std::uint64_t completed = 0;
    std::uint64_t retries = 0;
    std::uint64_t errors = 0;
};

/**
 * One open-loop connection. Arrivals follow the schedule, NOT the
 * replies: a request due at T is sent at T whether or not earlier
 * ones are outstanding, so the wire carries as many requests as the
 * schedule demands (capped at kOlWindow, half the server's
 * maxInflightPerConn budget, to stay out of deliberate Retry
 * territory). Replies match by echoed id -- the server reorders
 * across shards.
 */
struct OlConn
{
    OlConn(int fd, net::DatapathStats *stats) : nc(fd, stats) {}

    /** One sent-but-unanswered request. */
    struct Out
    {
        std::uint64_t key = 0;
        std::uint64_t intendedNs = 0;  ///< omission anchor
        std::uint64_t sentNs = 0;      ///< actual send (diagnostic)
    };

    static constexpr std::size_t kOlWindow = 128;

    net::Connection nc;
    bool wantWrite = false;  ///< EPOLLOUT armed
    std::uint64_t idSeq = 0;
    std::uint64_t dueNs = 0;  ///< next intended send
    std::unordered_map<std::uint64_t, Out> inflight;
};

/** Blocking connect, then non-blocking + TCP_NODELAY. -1 on failure. */
int
olConnect(const std::string &host, int port)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return -1;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(std::uint16_t(port));
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1 ||
        ::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        ::close(fd);
        return -1;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    net::setNonBlocking(fd);
    return fd;
}

/**
 * One driver thread: owns a slice of the connection set on its own
 * event loop, fires requests on each connection's arrival schedule,
 * and records omission-corrected latency. The schedule is generated
 * lazily (dueNs advances one gap per send), so a backlog costs no
 * memory: a connection that fell behind sends back-to-back until
 * dueNs passes "now" again, each op charged from its own intended
 * time.
 */
void
olThread(const OlParams &p, std::vector<int> fds, std::uint64_t seed,
         OlResult &out)
{
    net::DatapathStats stats;
    net::EventLoop loop(fds.size() + 4);
    Rng rng(seed * 0x9e3779b97f4a7c15ull + 1);
    ZipfianGen zipf(p.records < 2 ? 2 : p.records, 0.99);

    // Per-connection mean gap: the aggregate rate split over every
    // connection of the sweep point (all threads together).
    const double meanGapNs = double(p.totalConns) * 1e9 /
                             (p.offeredRate > 0 ? p.offeredRate : 1);
    const auto nextGapNs = [&]() -> std::uint64_t {
        if (!p.poisson)
            return std::uint64_t(meanGapNs);
        // Exponential inter-arrival: superposing the per-connection
        // Poisson streams yields a Poisson aggregate at offeredRate.
        const double u = rng.uniform();
        return std::uint64_t(-std::log1p(-u) * meanGapNs) + 1;
    };

    std::vector<std::unique_ptr<OlConn>> conns;
    conns.reserve(fds.size());
    for (std::size_t i = 0; i < fds.size(); ++i) {
        conns.push_back(std::make_unique<OlConn>(fds[i], &stats));
        // Stagger first arrivals across one mean gap so a fixed-rate
        // schedule does not fire every connection at t = 0.
        conns.back()->dueNs =
            std::uint64_t(rng.uniform() * meanGapNs);
        loop.add(fds[i], std::uint64_t(i),
                 net::kReadable | net::kEdge | net::kPeerClosed);
    }

    const auto t0 = Clock::now();
    const auto nowNs = [&]() -> std::uint64_t {
        return std::uint64_t(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                Clock::now() - t0)
                .count());
    };
    const std::uint64_t endNs = std::uint64_t(p.secs * 1e9);
    const std::uint64_t drainDeadlineNs =
        endNs + std::uint64_t(5e9);

    std::size_t open = conns.size();

    const auto closeConn = [&](std::size_t i, bool isError) {
        if (!conns[i])
            return;
        if (isError)
            ++out.errors;
        loop.del(conns[i]->nc.fd());
        conns[i].reset();
        --open;
    };

    const auto flushConn = [&](std::size_t i) {
        OlConn &c = *conns[i];
        const auto fr = c.nc.flush();
        if (fr == net::Connection::Flush::Closed) {
            closeConn(i, true);
            return;
        }
        const bool ww = fr == net::Connection::Flush::Blocked;
        if (ww != c.wantWrite &&
            loop.mod(c.nc.fd(), std::uint64_t(i),
                     net::kReadable | net::kEdge | net::kPeerClosed |
                         (ww ? net::kWritable : 0)))
            c.wantWrite = ww;
    };

    // Queue every arrival that is due (schedule time passed, window
    // has room), then flush them all in ONE gathered writev. Batching
    // the flush is the throughput story: a connection catching up a
    // backlog pays one syscall for the whole burst.
    const auto sendDue = [&](std::size_t i, std::uint64_t now) {
        OlConn &c = *conns[i];
        bool queued = false;
        while (c.inflight.size() < OlConn::kOlWindow &&
               c.dueNs <= now && c.dueNs < endNs) {
            Request q;
            q.op = Op::Get;
            q.id = ++c.idSeq;
            q.key = keyOfRecord(zipf.next(rng) % p.records, kKeySeed);
            auto &buf = c.nc.frameBuf();
            encodeRequest(q, buf);
            c.nc.queueFrame();
            c.inflight.emplace(q.id,
                               OlConn::Out{q.key, c.dueNs, now});
            c.dueNs += nextGapNs();
            ++out.sent;
            queued = true;
        }
        if (queued)
            flushConn(i);
    };

    const auto readable = [&](std::size_t i) {
        OlConn &c = *conns[i];
        const auto io = c.nc.fill(0);
        if (io == net::Connection::Io::Closed) {
            closeConn(i, true);
            return;
        }
        for (;;) {
            Response resp;
            std::size_t used = 0;
            const Decode d =
                decodeResponse(c.nc.in().data(), c.nc.in().size(),
                               used, resp);
            if (d == Decode::NeedMore)
                break;
            if (d == Decode::Malformed) {
                closeConn(i, true);
                return;
            }
            c.nc.in().consume(used);
            const auto it = c.inflight.find(resp.id);
            if (it == c.inflight.end()) {
                ++out.errors;  // reply we never asked for
                continue;
            }
            if (resp.status == Status::Retry) {
                // Re-send under a fresh id, still charged from the
                // original intended time -- backpressure is the
                // server's latency, not a schedule reset.
                ++out.retries;
                const OlConn::Out o = it->second;
                c.inflight.erase(it);
                Request q;
                q.op = Op::Get;
                q.id = ++c.idSeq;
                q.key = o.key;
                auto &buf = c.nc.frameBuf();
                encodeRequest(q, buf);
                c.nc.queueFrame();
                c.inflight.emplace(q.id, o);
                continue;
            }
            const std::uint64_t now = nowNs();
            out.latNs.record(now > it->second.intendedNs
                                 ? now - it->second.intendedNs
                                 : 0);
            out.rttNs.record(now > it->second.sentNs
                                 ? now - it->second.sentNs
                                 : 0);
            ++out.completed;
            c.inflight.erase(it);
        }
        // Completions freed window slots: fire any backlog now (and
        // flush Retry re-sends queued above in the same writev).
        sendDue(i, nowNs());
        if (conns[i] && conns[i]->nc.outBytes() > 0)
            flushConn(i);
    };

    for (;;) {
        std::uint64_t now = nowNs();
        if (now >= drainDeadlineNs)
            break;

        // Fire every connection whose next arrival time has passed;
        // track the nearest future arrival for the wait timeout.
        // After this pass each open connection either has a full
        // window (woken by replies) or a strictly future dueNs, so
        // the wait below never degenerates into a spin.
        std::uint64_t nearest = UINT64_MAX;
        bool anyInflight = false;
        for (std::size_t i = 0; i < conns.size(); ++i) {
            if (!conns[i])
                continue;
            sendDue(i, now);
            if (!conns[i])
                continue;
            OlConn &c = *conns[i];
            if (!c.inflight.empty())
                anyInflight = true;
            if (c.dueNs < endNs &&
                c.inflight.size() < OlConn::kOlWindow &&
                c.dueNs < nearest)
                nearest = c.dueNs;
        }
        if (now >= endNs && !anyInflight)
            break;  // schedule exhausted and drained

        std::int64_t timeoutNs = 10000000;  // 10 ms heartbeat
        if (nearest != UINT64_MAX) {
            now = nowNs();
            const std::int64_t gap =
                nearest > now ? std::int64_t(nearest - now) : 0;
            timeoutNs = std::min<std::int64_t>(gap, timeoutNs);
        }
        const int n = loop.waitNs(timeoutNs);
        for (int e = 0; e < n; ++e) {
            const std::size_t i = std::size_t(loop.data(e));
            if (i >= conns.size() || !conns[i])
                continue;
            const std::uint32_t ev = loop.events(e);
            if (ev & net::kHangup) {
                closeConn(i, true);
                continue;
            }
            if (ev & net::kWritable) {
                flushConn(i);
                if (!conns[i])
                    continue;
            }
            if (ev & net::kReadable)
                readable(i);
            // The server closed: a fill that ended on a short read
            // never reads the 0 that says so.
            if ((ev & net::kPeerClosed) && conns[i])
                closeConn(i, true);
        }
        if (open == 0)
            break;
    }

    // Requests still outstanding at the drain deadline are failures.
    for (const auto &c : conns)
        if (c)
            out.errors += c->inflight.size();
}

/** First integer after `"key":` in a flat JSON rendering, or -1. */
long long
jsonIntField(const std::string &json, const std::string &key)
{
    const std::string needle = "\"" + key + "\":";
    const std::size_t at = json.find(needle);
    if (at == std::string::npos)
        return -1;
    std::size_t i = at + needle.size();
    while (i < json.size() && json[i] == ' ')
        ++i;
    long long v = 0;
    bool any = false;
    while (i < json.size() && json[i] >= '0' && json[i] <= '9') {
        v = v * 10 + (json[i] - '0');
        ++i;
        any = true;
    }
    return any ? v : -1;
}

/**
 * The open-loop sweep: one LP server, a curve of connection counts,
 * each point driven at an intended arrival rate with
 * omission-corrected percentiles. Returns false on any protocol
 * error or a failed post-drain check.
 */
bool
runOpenLoop(int argc, char **argv, stats::JsonValue::Object &root)
{
    OlParams base;
    if (const auto v = bench::argFlag(argc, argv, "ol-secs");
        !v.empty())
        base.secs = std::atof(v.c_str());
    if (const auto v = bench::argFlag(argc, argv, "ol-rate");
        !v.empty())
        base.offeredRate = std::atof(v.c_str());
    base.poisson =
        bench::argFlag(argc, argv, "ol-dist") != "fixed";
    std::vector<int> curve{8, 64, 256, 1024};
    if (const auto v = bench::argFlag(argc, argv, "ol-conns");
        !v.empty()) {
        curve.clear();
        const char *s = v.c_str();
        while (*s != '\0') {
            curve.push_back(std::atoi(s));
            while (*s != '\0' && *s != ',')
                ++s;
            if (*s == ',')
                ++s;
        }
    }

    // The 1024-point needs more fds than the usual 1024 soft limit
    // (sockets + shard files + epoll); raise it best-effort.
    rlimit rl{};
    if (::getrlimit(RLIMIT_NOFILE, &rl) == 0 &&
        rl.rlim_cur < 16384) {
        rl.rlim_cur = std::min<rlim_t>(16384, rl.rlim_max);
        ::setrlimit(RLIMIT_NOFILE, &rl);
    }

    const std::string dir = makeDataDir();
    ServerConfig cfg;
    cfg.dataDir = dir;
    cfg.shards = kShards;
    cfg.backend = Backend::Lp;
    cfg.quiet = true;
    cfg.maxConns = 2048;  // the curve's 1024 point plus slack
    Server srv(cfg);
    srv.start();

    Client loader;
    if (!loader.connectTo(cfg.host, srv.port()) ||
        !loadRecords(loader))
        fatal("open-loop load phase failed");
    loader.close();

    bool clean = true;
    stats::Table table({"open loop (LP, YCSB-C)", "offered/s",
                        "served/s", "sent", "p50 us", "p99 us",
                        "p999 us", "err"});
    stats::JsonValue::Array points;
    for (const int nConns : curve) {
        OlParams p = base;
        p.totalConns = nConns;
        // Pin the small points below saturation so they measure
        // latency, not backlog catch-up; the big points run at the
        // full offered rate and expose the capacity ceiling.
        p.offeredRate =
            std::min(base.offeredRate, double(nConns) * 16000.0);

        // Driver threads compete with the server's own threads for
        // the same cores (in-process server); on a small box one
        // event-looped driver handles every connection.
        const unsigned hw = std::thread::hardware_concurrency();
        const int nThreads = std::max(
            1, std::min({4, nConns, int(hw / 4)}));
        const std::size_t nSlices = std::size_t(nThreads);
        std::vector<std::vector<int>> slices(nSlices);
        bool connected = true;
        for (int i = 0; i < nConns; ++i) {
            const int fd = olConnect(cfg.host, srv.port());
            if (fd < 0) {
                connected = false;
                break;
            }
            slices[std::size_t(i % nThreads)].push_back(fd);
        }
        if (!connected)
            fatal("open-loop connect failed at " +
                  std::to_string(nConns) + " conns");

        std::vector<OlResult> results(nSlices);
        std::vector<std::thread> threads;
        const auto t0 = Clock::now();
        for (int t = 0; t < nThreads; ++t)
            threads.emplace_back(olThread, std::cref(p),
                                 std::move(slices[std::size_t(t)]),
                                 std::uint64_t(t + 1),
                                 std::ref(results[std::size_t(t)]));
        for (auto &t : threads)
            t.join();
        const double wall =
            std::chrono::duration<double>(Clock::now() - t0)
                .count();

        obs::Histogram lat, rtt;
        std::uint64_t sent = 0, completed = 0, retries = 0,
                      errors = 0;
        for (const OlResult &r : results) {
            lat.merge(r.latNs);
            rtt.merge(r.rttNs);
            sent += r.sent;
            completed += r.completed;
            retries += r.retries;
            errors += r.errors;
        }
        const obs::Histogram::Summary sm = lat.summary();
        const obs::Histogram::Summary rttSm = rtt.summary();
        const double served =
            wall > 0 ? double(completed) / wall : 0;
        clean = clean && errors == 0 && completed == sent;

        table.addRow({std::to_string(nConns) + " conns",
                      stats::Table::num(p.offeredRate, 0),
                      stats::Table::num(served, 0),
                      stats::Table::num(double(sent), 0),
                      stats::Table::num(sm.p50Ns / 1e3, 1),
                      stats::Table::num(sm.p99Ns / 1e3, 1),
                      stats::Table::num(sm.p999Ns / 1e3, 1),
                      stats::Table::num(double(errors), 0)});

        stats::JsonValue::Object e;
        e.emplace("conns", nConns);
        e.emplace("offered_rate", p.offeredRate);
        e.emplace("sent", double(sent));
        e.emplace("completed", double(completed));
        e.emplace("served_rate", served);
        e.emplace("retries", double(retries));
        e.emplace("errors", double(errors));
        e.emplace("p50_us", sm.p50Ns / 1e3);
        e.emplace("p99_us", sm.p99Ns / 1e3);
        e.emplace("p999_us", sm.p999Ns / 1e3);
        e.emplace("rtt_p50_us", rttSm.p50Ns / 1e3);
        e.emplace("rtt_p99_us", rttSm.p99Ns / 1e3);
        e.emplace("wall_seconds", wall);
        points.emplace_back(std::move(e));
    }
    table.print();
    std::printf("\n");

    // Post-drain invariant: every sweep connection closed above, so
    // the server's active-connection gauge must return to zero.
    // Checked in-process (a METRICS scrape would count itself).
    long long active = -1;
    for (int i = 0; i < 300; ++i) {
        active = jsonIntField(srv.statsJson(), "conn_active");
        if (active == 0)
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    clean = clean && active == 0;

    stats::JsonValue::Object ol;
    ol.emplace("dist", base.poisson ? "poisson" : "fixed");
    ol.emplace("duration_seconds", base.secs);
    ol.emplace("curve", std::move(points));
    ol.emplace("conn_active_after_drain", double(active));
    root.emplace("open_loop", std::move(ol));

    srv.stop();
    std::filesystem::remove_all(dir);
    return clean;
}
/// @}

} // namespace

int
main(int argc, char **argv)
{
    bench::banner(
        "lp::server load generator (YCSB A/B/C over TCP)",
        "end-to-end LP vs. eager vs. WAL: recoverable-ack "
        "throughput and latency");

    stats::JsonValue::Object root;
    root.emplace("records", double(kRecords));
    root.emplace("ops_per_client", double(kOpsPerClient));
    root.emplace("clients", kClients);
    root.emplace("shards", kShards);
    root.emplace("window", double(kWindow));
    root.emplace("zipfian", true);

    const std::string traceBase =
        bench::argFlag(argc, argv, "trace-out");
    const bool openLoopOnly = hasArg(argc, argv, "open-loop-only");

    bool clean = true;
    for (Backend b : bench::kStoreBackends) {
        if (openLoopOnly)
            break;
        const std::string dir = makeDataDir();
        ServerConfig cfg;
        cfg.dataDir = dir;
        cfg.shards = kShards;
        cfg.backend = b;
        cfg.quiet = true;
        if (!traceBase.empty())
            cfg.traceOut =
                traceBase + "." + backendName(b) + ".json";
        Server srv(cfg);
        srv.start();

        Client loader;
        if (!loader.connectTo(cfg.host, srv.port()) ||
            !loadRecords(loader))
            fatal("load phase failed (backend " +
                  std::string(backendName(b)) + ")");
        loader.close();

        stats::Table table({std::string("backend ") + backendName(b),
                            "ops", "Kops/s", "p50 us", "p99 us",
                            "p999 us", "scan p99 us", "retries"});
        stats::JsonValue::Object perMix;
        // A/B/C plus E: the SCAN protocol op under the same pipelined
        // closed loop (95% scans over the loaded set, 5% inserts of
        // fresh keys).
        const YcsbMix mixes[] = {YcsbMix::A, YcsbMix::B, YcsbMix::C,
                                 YcsbMix::E};
        for (YcsbMix mix : mixes) {
            YcsbParams p;
            p.records = kRecords;
            p.mix = mix;
            p.zipfian = true;
            p.seed = kKeySeed;

            std::vector<std::unique_ptr<Client>> conns;
            for (int i = 0; i < kClients; ++i) {
                conns.push_back(std::make_unique<Client>());
                if (!conns.back()->connectTo(cfg.host, srv.port()))
                    fatal("client connect failed");
            }

            std::vector<ClientResult> results(kClients);
            std::vector<std::thread> threads;
            const auto t0 = Clock::now();
            for (int i = 0; i < kClients; ++i)
                threads.emplace_back(runClient, std::ref(*conns[i]),
                                     std::cref(p),
                                     std::uint64_t(i + 1),
                                     std::ref(results[i]));
            for (auto &t : threads)
                t.join();
            const auto t1 = Clock::now();
            for (auto &c : conns)
                c->close();

            obs::Histogram lat, scanLat, scanLen;
            std::uint64_t reads = 0, updates = 0, scans = 0,
                          scanned = 0, retries = 0, dropped = 0,
                          errors = 0;
            for (const ClientResult &r : results) {
                lat.merge(r.latNs);
                scanLat.merge(r.scanLatNs);
                scanLen.merge(r.scanLen);
                reads += r.reads;
                updates += r.updates;
                scans += r.scans;
                scanned += r.scanned;
                retries += r.retries;
                dropped += r.dropped;
                errors += r.errors;
            }
            const obs::Histogram::Summary sm = lat.summary();
            const obs::Histogram::Summary scanSm = scanLat.summary();
            const obs::Histogram::Summary lenSm = scanLen.summary();
            const double secs =
                std::chrono::duration<double>(t1 - t0).count();
            const double opsPerSec =
                secs > 0.0 ? double(sm.count) / secs : 0.0;
            // Retried ops complete after backoff, so only hard drops
            // (maxAttempts exhausted) may be missing from the count.
            clean = clean && errors == 0 &&
                    sm.count + dropped ==
                        std::uint64_t(kClients) * kOpsPerClient;

            table.addRow({"mix " + mixName(mix),
                          stats::Table::num(double(sm.count), 0),
                          stats::Table::num(opsPerSec / 1e3, 1),
                          stats::Table::num(sm.p50Ns / 1e3, 1),
                          stats::Table::num(sm.p99Ns / 1e3, 1),
                          stats::Table::num(sm.p999Ns / 1e3, 1),
                          mix == YcsbMix::E
                              ? stats::Table::num(scanSm.p99Ns / 1e3,
                                                  1)
                              : std::string("-"),
                          stats::Table::num(double(retries), 0)});

            stats::JsonValue::Object entry;
            entry.emplace("ops_completed", double(sm.count));
            entry.emplace("reads", double(reads));
            entry.emplace("updates", double(updates));
            entry.emplace("retries", double(retries));
            entry.emplace("retries_dropped", double(dropped));
            entry.emplace("errors", double(errors));
            entry.emplace("throughput_ops_per_sec", opsPerSec);
            entry.emplace("mean_us", sm.meanNs / 1e3);
            entry.emplace("p50_us", sm.p50Ns / 1e3);
            entry.emplace("p99_us", sm.p99Ns / 1e3);
            entry.emplace("p999_us", sm.p999Ns / 1e3);
            entry.emplace("wall_seconds", secs);
            if (mix == YcsbMix::E) {
                entry.emplace("scans", double(scans));
                entry.emplace("scanned", double(scanned));
                entry.emplace("scan_p50_us", scanSm.p50Ns / 1e3);
                entry.emplace("scan_p99_us", scanSm.p99Ns / 1e3);
                entry.emplace("scan_p999_us", scanSm.p999Ns / 1e3);
                entry.emplace("scan_len_mean", lenSm.meanNs);
            }
            perMix.emplace(mixName(mix), std::move(entry));
        }
        table.print();
        std::printf("\n");

        // Embed the server's own stats report (rendered with the
        // canonical engine/stat_names.hh keys) next to the
        // client-side numbers.
        {
            Client sc;
            if (sc.connectTo(cfg.host, srv.port())) {
                if (const auto r = sc.stats(); r && !r->body.empty())
                    perMix.emplace("server_stats",
                                   stats::JsonValue::raw(r->body));
                sc.close();
            }
        }
        root.emplace(backendName(b), std::move(perMix));

        srv.stop();
        std::filesystem::remove_all(dir);
    }

    clean = runOpenLoop(argc, argv, root) && clean;

    if (!bench::writeJsonReport(argc, argv, "BENCH_server.json", root))
        return 1;
    return clean ? 0 : 1;
}
