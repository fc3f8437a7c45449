#include "perfbench/src/served.hh"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sched.h>
#include <sys/socket.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <arpa/inet.h>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <memory>
#include <thread>
#include <unordered_map>
#include <utility>

#include "base/rng.hh"
#include "net/connection.hh"
#include "net/event_loop.hh"
#include "obs/metrics.hh"
#include "obs/time.hh"
#include "perfbench/src/sim_gate.hh"
#include "perfbench/src/spans.hh"
#include "server/client.hh"
#include "server/server.hh"
#include "store/ycsb.hh"

namespace perfbench
{

namespace
{

using lp::server::Request;
using lp::server::Response;
using lp::server::Server;
using lp::server::ServerConfig;
using lp::server::Status;
using lp::store::Backend;

/// @name Served geometry
/// Acceptor + 2 workers + 1 driver thread = 4 threads, one per core
/// of the 4-core reference box, so the numbers measure the program
/// rather than the scheduler.
/// @{
constexpr int kShards = 2;
constexpr int kConns = 4;
/** Per-connection in-flight cap: half the server's Retry budget. */
constexpr std::size_t kWindow = 128;
/** ~8192 live keys per shard: well under 7/8 of the 16384 slots. */
constexpr std::size_t kRecords = 16384;
constexpr std::size_t kCapacityPerShard = 1 << 14;
constexpr int kSetups = 3;
constexpr double kWarmupSecs = 1.0;
constexpr double kDrainSecs = 5.0;
constexpr int kMaxAttempts = 8;
/** Driver request ids start here, clear of Client-assigned ids. */
constexpr std::uint64_t kIdBase = 1ull << 40;
/** Host steal is sampled per window of this length (Phase::quiet). */
constexpr std::uint64_t kWindowNs = 50000000;
/// @}

/** One served traffic mix. */
struct Mix
{
    const char *name;
    double putFrac;
    double scanFrac;
    /**
     * Offered ops/s: well below the knee (a p99 limit of 5 ms / 1 ms
     * held to ~450k / ~100k ops/s in quiet periods), because near it
     * the host steals enough of the 4 vCPUs to swamp the program.
     */
    double nominalRate;
};

constexpr Mix kUpdateMix{"served_update", 0.5, 0.0, 40000.0};
constexpr Mix kReadScanMix{"served_read_scan", 0.0, 0.1, 30000.0};

enum Kind : std::uint8_t
{
    kGet = 0,
    kPut = 1,
    kScan = 2,
};

/// @name Tagged values
/// value = tag(key) << 24 | version: a reply proves which key it is
/// for (tag) and which write it reflects (version; 0 = the load).
/// @{
std::uint64_t
tagOf(std::uint64_t key)
{
    return (key * 0x9e3779b97f4a7c15ull) >> 24;
}

std::uint64_t
valueOf(std::uint64_t key, std::uint32_t version)
{
    return (tagOf(key) << 24) | version;
}

bool
taggedWith(std::uint64_t value, std::uint64_t key)
{
    return (value >> 24) == tagOf(key);
}

std::uint32_t
versionOf(std::uint64_t value)
{
    return std::uint32_t(value & 0xffffff);
}
/// @}

/// @name Server scrapes
/// @{

/** METRICS exposition of @p srv, flattened to name{labels} -> value. */
lp::stats::Snapshot
scrape(const Server &srv)
{
    lp::stats::Snapshot s;
    lp::obs::parseExposition(srv.metricsText(), s);
    return s;
}

/** Sum of every series of metric @p name (all label sets). */
double
series(const lp::stats::Snapshot &s, const std::string &name)
{
    double sum = 0.0;
    for (auto it = s.lower_bound(name);
         it != s.end() && it->first.compare(0, name.size(), name) == 0;
         ++it)
        if (it->first.size() == name.size() ||
            it->first[name.size()] == '{')
            sum += it->second;
    return sum;
}

/** series() growth between two scrapes. */
double
grown(const lp::stats::Snapshot &before, const lp::stats::Snapshot &after,
      const std::string &name)
{
    return series(after, name) - series(before, name);
}

/**
 * A numeric field of the STATS JSON: top level when @p shard < 0,
 * else inside shard @p shard's object. -1 when absent.
 */
double
statsField(const std::string &json, int shard, const std::string &key)
{
    std::size_t from = 0, to = json.size();
    if (shard >= 0) {
        from = json.find("\"shard\":");
        if (from == std::string::npos)
            return -1;
        std::string tag = std::to_string(shard);
        tag.insert(tag.begin(), '"');
        from = json.find(tag + "\":", from + 8);
        if (from == std::string::npos)
            return -1;
        to = json.find('}', from);
    }
    const std::string needle = "\"" + key + "\":";
    const std::size_t at = json.find(needle, from);
    if (at == std::string::npos || at >= to)
        return -1;
    return std::strtod(json.c_str() + at + needle.size(), nullptr);
}

/** Count-weighted mean over shards of a STATS histogram percentile. */
double
shardPercentile(const std::string &json, const std::string &base,
                const char *pct)
{
    double num = 0.0, den = 0.0;
    for (int s = 0; s < kShards; ++s) {
        const double n = statsField(json, s, base + "_count");
        if (n > 0) {
            num += n * statsField(json, s, base + "_" + pct);
            den += n;
        }
    }
    return ratio(num, den);
}
/// @}

/**
 * Give every thread of the process its own CPU: the calling (driver)
 * thread the last one, the server's acceptor and workers the others
 * in creation order. With exactly one thread per core, the scheduler
 * cannot stack two of them on one core mid-run. Best effort: with
 * fewer CPUs than threads nothing is pinned.
 */
void
pinThreads()
{
    const int ncpu = int(std::thread::hardware_concurrency());
    std::vector<pid_t> tids;
    for (const auto &e : std::filesystem::directory_iterator("/proc/self/task"))
        tids.push_back(pid_t(std::stol(e.path().filename().string())));
    if (int(tids.size()) > ncpu)
        return;
    std::sort(tids.begin(), tids.end());
    const pid_t self = pid_t(::syscall(SYS_gettid));
    int next = 0;
    for (const pid_t tid : tids) {
        cpu_set_t set;
        CPU_ZERO(&set);
        CPU_SET(tid == self ? ncpu - 1 : next++, &set);
        ::sched_setaffinity(tid, sizeof(set), &set);
    }
}

/**
 * On-CPU nanoseconds of every thread of this process except the
 * caller (the driver) unless @p withDriver: the in-process server's
 * acceptor and workers. The scheduler's run time excludes time the
 * host stole from the vCPU, so unlike wall-clock time it does not
 * move with the neighbours' load.
 */
std::uint64_t
serverCpuNs(bool withDriver = false)
{
    const std::string self = std::to_string(::syscall(SYS_gettid));
    std::uint64_t sum = 0;
    for (const auto &e :
         std::filesystem::directory_iterator("/proc/self/task")) {
        if (e.path().filename() == self && !withDriver)
            continue;
        std::ifstream in(e.path() / "schedstat");
        std::uint64_t ns = 0;
        if (in >> ns)
            sum += ns;
    }
    return sum;
}

/** A loaded server and the directory holding its shard files. */
struct Served
{
    ServerConfig cfg;
    std::unique_ptr<Server> srv;
    double setupSecs = 0.0;     ///< wall clock
    double setupCpuSecs = 0.0;  ///< on-CPU, every thread
};

std::string
makeDir(const std::string &workDir)
{
    std::string tmpl = workDir + "/srv-XXXXXX";
    if (::mkdtemp(tmpl.data()) == nullptr)
        return "";
    return tmpl;
}

/**
 * Build, start, and load one server: the timed set-up. Loading is
 * pipelined BATCH frames of version-0 values; set-up ends when the
 * last frame is acknowledged (i.e. recoverable). Timed both on the
 * wall clock and as on-CPU time of every thread (the server's threads
 * are born inside the interval, so all of their run time counts).
 */
bool
setUp(Served &s, const std::vector<std::uint64_t> &keys, Report &r)
{
    const std::uint64_t t0 = lp::obs::nowNs();
    const std::uint64_t cpu0 = serverCpuNs(true) - serverCpuNs();
    s.srv = std::make_unique<Server>(s.cfg);
    s.srv->start();
    pinThreads();
    lp::server::Client c;
    if (!c.connectTo(s.cfg.host, s.srv->port())) {
        r.fail("load: cannot connect");
        return false;
    }
    constexpr std::size_t kChunk = 256;
    std::size_t frames = 0;
    for (std::size_t at = 0; at < keys.size(); at += kChunk) {
        Request q;
        q.op = lp::server::Op::Batch;
        q.id = c.nextId();
        for (std::size_t i = at; i < at + kChunk && i < keys.size(); ++i)
            q.batch.push_back({true, keys[i], valueOf(keys[i], 0)});
        if (!c.sendRequest(q)) {
            r.fail("load: send failed");
            return false;
        }
        ++frames;
    }
    for (std::size_t i = 0; i < frames; ++i) {
        const auto resp = c.recvResponse(30000);
        if (!resp || resp->status != Status::Ok) {
            r.fail("load: BATCH not acknowledged");
            return false;
        }
    }
    s.setupSecs = double(lp::obs::nowNs() - t0) / 1e9;
    s.setupCpuSecs = double(serverCpuNs(true) - cpu0) / 1e9;
    // The server fatal()s past 7/8 of a shard's slots; stay clear.
    const lp::stats::Snapshot m = scrape(*s.srv);
    for (int sh = 0; sh < kShards; ++sh) {
        const auto it = m.find("lp_index_entries{shard=\"" +
                               std::to_string(sh) + "\"}");
        if (it == m.end() ||
            it->second > 7.0 / 8.0 * double(kCapacityPerShard))
            r.fail("load: a shard is over 7/8 of capacityPerShard");
    }
    return true;
}

/** What one open-loop phase observed. */
struct Phase
{
    /// All samples are stamped with the request's intended send time.
    std::vector<Sample> lat[3];  ///< from intended send, per kind
    std::vector<Sample> rtt[3];  ///< from actual send, per kind
    std::vector<Sample> lag;     ///< actual - intended send
    std::uint64_t sent = 0;
    std::uint64_t completed = 0;
    std::uint64_t scanRecords = 0;
    std::uint64_t t0Ns = 0;  ///< phase start (obs::nowNs clock)
    std::uint64_t t1Ns = 0;  ///< phase end, after the drain
    std::size_t sendWindows = 0;  ///< kWindowNs windows with arrivals
    std::uint64_t serverCpuNs = 0;  ///< on-CPU time of the server threads

    /** Host steal ticks (all CPUs) at the start of each window. */
    std::vector<std::uint64_t> steal;

    /** Request id -> kind, kept only when tracing. */
    std::unordered_map<std::uint64_t, Kind> kinds;

    static std::vector<Sample>
    merged(const std::vector<Sample> (&by)[3])
    {
        std::vector<Sample> v = by[kGet];
        v.insert(v.end(), by[kPut].begin(), by[kPut].end());
        v.insert(v.end(), by[kScan].begin(), by[kScan].end());
        return v;
    }

    std::vector<Sample> allLat() const { return merged(lat); }
    std::vector<Sample> allRtt() const { return merged(rtt); }

    /**
     * Quantile @p q of the samples of @p v whose request was due in a
     * quiet window: the tenth of the phase's windows in which the host
     * stole the least CPU time (ties spread evenly over the phase).
     */
    double
    quiet(const std::vector<Sample> &v, double q) const
    {
        std::vector<std::uint64_t> per;
        for (std::size_t w = 0; w + 1 < steal.size() && w < sendWindows;
             ++w)
            per.push_back(steal[w + 1] - steal[w]);
        std::vector<std::size_t> order(per.size());
        for (std::size_t w = 0; w < order.size(); ++w)
            order[w] = w;
        const auto spread = [](std::size_t w) {
            return (w * 2654435761u) % 4294967291u;
        };
        std::sort(order.begin(), order.end(),
                  [&](std::size_t a, std::size_t b) {
                      return per[a] != per[b] ? per[a] < per[b]
                                              : spread(a) < spread(b);
                  });
        std::vector<bool> isQuiet(per.size(), false);
        const std::size_t keep = std::max<std::size_t>(1, per.size() / 10);
        for (std::size_t i = 0; i < keep && i < order.size(); ++i)
            isQuiet[order[i]] = true;
        std::vector<std::uint64_t> pool;
        for (const Sample &s : v) {
            const std::size_t w = std::size_t((s.atNs - t0Ns) / kWindowNs);
            if (w < isQuiet.size() && isQuiet[w])
                pool.push_back(s.ns);
        }
        return quantile(pool, q);
    }
};

/** Cumulative steal time of every CPU, in clock ticks (0: unknown). */
std::uint64_t
stealTicks()
{
    std::FILE *f = std::fopen("/proc/stat", "r");
    if (f == nullptr)
        return 0;
    unsigned long long v[8] = {};
    const int n = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                              &v[0], &v[1], &v[2], &v[3], &v[4], &v[5],
                              &v[6], &v[7]);
    std::fclose(f);
    return n == 8 ? v[7] : 0;
}

/**
 * The open-loop driver: one thread, kConns connections on one event
 * loop. Arrivals are Poisson at the phase's rate from a lazily
 * generated schedule that never waits for replies; each request is
 * charged from its intended send time, and a Retry reply is re-sent
 * under its original anchor. Keys are partitioned across connections
 * (record % kConns), so every key has exactly one writer and its
 * versions reach the server in order.
 */
class Driver
{
  public:
    Driver(const Mix &mix, std::uint64_t seed, Report &r)
        : mix_(mix), r_(r), rng_(seed * 0x9e3779b97f4a7c15ull + 7),
          zipf_(kRecords, 0.99), sent_(kRecords, 0), acked_(kRecords, 0)
    {
        for (std::size_t i = 0; i < kRecords; ++i) {
            keys_.push_back(lp::store::keyOfRecord(i, seed));
            recOf_[keys_.back()] = std::uint32_t(i);
        }
        sorted_ = keys_;
        std::sort(sorted_.begin(), sorted_.end());
    }

    const std::vector<std::uint64_t> &keys() const { return keys_; }

    /** Record client spans (send/recv/request) from now on. */
    void traceSpans(bool on) { tracing_ = on; }
    const std::vector<Span> &spans() const { return spans_; }

    bool connect(const std::string &host, int port);
    void close() { conns_.clear(); }

    /** Run one phase at @p rate ops/s; @p ph null = warm-up. */
    void run(double rate, double secs, Phase *ph);

    /**
     * Read every key back through a fresh Client and check it holds
     * its last acknowledged write (or a later sent one).
     */
    void readBack(const std::string &host, int port, const char *when,
                  bool injectWrong);

  private:
    /** One request, from generation to its verified reply. */
    struct Pending
    {
        Kind kind = kGet;
        std::uint8_t attempts = 0;
        std::uint32_t rec = 0;
        /** Put: the version written. Get: newest version it may see. */
        std::uint32_t version = 0;
        /** Get: oldest version it may see (acked before it was sent). */
        std::uint32_t floor = 0;
        std::uint32_t limit = 0;  ///< Scan
        std::uint64_t intendedNs = 0;
        std::uint64_t sentNs = 0;
    };

    struct Conn
    {
        Conn(int fd, lp::net::DatapathStats *st) : nc(fd, st) {}
        lp::net::Connection nc;
        bool wantWrite = false;
        bool dead = false;
        std::unordered_map<std::uint64_t, Pending> inflight;
        std::deque<Pending> backlog;
    };

    Pending generate(std::uint64_t intendedNs);
    void transmit(Conn &c, Pending p, std::uint64_t now, Phase *ph);
    void sendBacklog(std::size_t i, std::uint64_t now, Phase *ph);
    void flush(std::size_t i);
    void readable(std::size_t i, Phase *ph);
    void onReply(Conn &c, const Response &resp, std::uint64_t now,
                 Phase *ph);
    bool verify(const Pending &p, const Response &resp,
                std::uint64_t &scanned);
    void kill(std::size_t i, const char *why);
    void wrong(const std::string &why);

    const Mix &mix_;
    Report &r_;
    lp::Rng rng_;
    lp::store::ZipfianGen zipf_;
    std::vector<std::uint64_t> keys_;    ///< record -> key
    std::vector<std::uint64_t> sorted_;  ///< every key, ascending
    std::unordered_map<std::uint64_t, std::uint32_t> recOf_;
    std::vector<std::uint32_t> sent_;    ///< newest version generated
    std::vector<std::uint32_t> acked_;   ///< newest version acknowledged
    lp::net::DatapathStats netStats_;
    std::unique_ptr<lp::net::EventLoop> loop_;
    std::vector<std::unique_ptr<Conn>> conns_;
    std::uint64_t reqSeq_ = kIdBase;
    int wrongShown_ = 0;
    bool tracing_ = false;
    std::vector<Span> spans_;
};

bool
Driver::connect(const std::string &host, int port)
{
    loop_ = std::make_unique<lp::net::EventLoop>(kConns + 4);
    conns_.clear();
    for (int i = 0; i < kConns; ++i) {
        const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
        if (fd < 0)
            return false;
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(std::uint16_t(port));
        if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1 ||
            ::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                      sizeof(addr)) != 0) {
            ::close(fd);
            return false;
        }
        const int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        lp::net::setNonBlocking(fd);
        conns_.push_back(std::make_unique<Conn>(fd, &netStats_));
        loop_->add(fd, std::uint64_t(i),
                   lp::net::kReadable | lp::net::kEdge);
    }
    return true;
}

void
Driver::wrong(const std::string &why)
{
    ++r_.failed;
    if (wrongShown_++ < 5)
        r_.fail(why);
    else
        r_.correct = false;
}

Driver::Pending
Driver::generate(std::uint64_t intendedNs)
{
    Pending p;
    p.intendedNs = intendedNs;
    p.rec = std::uint32_t(zipf_.next(rng_) % kRecords);
    const double u = rng_.uniform();
    if (u < mix_.putFrac) {
        p.kind = kPut;
        p.version = ++sent_[p.rec];
    } else if (u < mix_.putFrac + mix_.scanFrac) {
        p.kind = kScan;
        p.limit = std::uint32_t(1 + rng_.below(100));
    } else {
        p.kind = kGet;
        p.version = sent_[p.rec];
    }
    return p;
}

void
Driver::transmit(Conn &c, Pending p, std::uint64_t now, Phase *ph)
{
    Request q;
    q.id = ++reqSeq_;
    q.key = keys_[p.rec];
    switch (p.kind) {
      case kGet:
        q.op = lp::server::Op::Get;
        p.floor = acked_[p.rec];
        break;
      case kPut:
        q.op = lp::server::Op::Put;
        q.value = valueOf(q.key, p.version);
        break;
      case kScan:
        q.op = lp::server::Op::Scan;
        q.limit = p.limit;
        break;
    }
    lp::server::encodeRequest(q, c.nc.frameBuf());
    c.nc.queueFrame();
    if (p.attempts == 0 && ph != nullptr)
        ph->lag.push_back(
            {p.intendedNs, now > p.intendedNs ? now - p.intendedNs : 0});
    if (ph != nullptr && tracing_)
        ph->kinds[q.id] = p.kind;
    p.sentNs = now;
    c.inflight.emplace(q.id, p);
}

void
Driver::flush(std::size_t i)
{
    Conn &c = *conns_[i];
    const std::uint64_t t0 = tracing_ ? lp::obs::nowNs() : 0;
    const auto fr = c.nc.flush();
    if (tracing_)
        spans_.push_back(Span{"send", 1, t0, lp::obs::nowNs() - t0, i});
    if (fr == lp::net::Connection::Flush::Closed) {
        kill(i, "connection closed on send");
        return;
    }
    const bool ww = fr == lp::net::Connection::Flush::Blocked;
    if (ww != c.wantWrite &&
        loop_->mod(c.nc.fd(), std::uint64_t(i),
                   lp::net::kReadable | lp::net::kEdge |
                       (ww ? lp::net::kWritable : 0)))
        c.wantWrite = ww;
}

void
Driver::sendBacklog(std::size_t i, std::uint64_t now, Phase *ph)
{
    Conn &c = *conns_[i];
    if (c.dead)
        return;
    bool queued = false;
    while (!c.backlog.empty() && c.inflight.size() < kWindow) {
        transmit(c, c.backlog.front(), now, ph);
        c.backlog.pop_front();
        queued = true;
    }
    if (queued || c.nc.outBytes() > 0)
        flush(i);
}

void
Driver::kill(std::size_t i, const char *why)
{
    Conn &c = *conns_[i];
    if (c.dead)
        return;
    c.dead = true;
    r_.failed += c.inflight.size() + c.backlog.size();
    c.inflight.clear();
    c.backlog.clear();
    loop_->del(c.nc.fd());
    r_.fail(std::string("transport: ") + why);
}

bool
Driver::verify(const Pending &p, const Response &resp,
               std::uint64_t &scanned)
{
    const std::uint64_t key = keys_[p.rec];
    switch (p.kind) {
      case kGet: {
        if (resp.status != Status::Ok || !resp.hasValue ||
            !taggedWith(resp.value, key))
            return false;
        const std::uint32_t v = versionOf(resp.value);
        return v >= p.floor && v <= p.version;
      }
      case kPut:
        if (resp.status != Status::Ok)
            return false;
        acked_[p.rec] = std::max(acked_[p.rec], p.version);
        return true;
      case kScan: {
        std::vector<lp::server::ScanRecord> recs;
        if (resp.status != Status::Ok ||
            !lp::server::decodeScanBody(resp.body, recs))
            return false;
        // The key set is static, so the answer is known exactly: the
        // next min(limit, remaining) keys at or after the start key,
        // ascending, each value tagged with its own key.
        auto it = std::lower_bound(sorted_.begin(), sorted_.end(), key);
        const std::size_t want = std::min<std::size_t>(
            p.limit, std::size_t(sorted_.end() - it));
        if (recs.size() != want)
            return false;
        for (const auto &rec : recs) {
            if (rec.key != *it++ || !taggedWith(rec.value, rec.key) ||
                versionOf(rec.value) > sent_[recOf_[rec.key]])
                return false;
        }
        scanned += recs.size();
        return true;
      }
    }
    return false;
}

void
Driver::onReply(Conn &c, const Response &resp, std::uint64_t now,
                Phase *ph)
{
    const auto it = c.inflight.find(resp.id);
    if (it == c.inflight.end()) {
        wrong("reply to an unknown request id");
        return;
    }
    Pending p = it->second;
    c.inflight.erase(it);
    if (resp.status == Status::Retry) {
        if (++p.attempts >= kMaxAttempts) {
            ++r_.failed;  // Retry-exhausted drop
            return;
        }
        // Re-send anchored at the original intended time. A re-sent
        // Put takes a fresh, highest version, so it queues behind any
        // later Put of its key already in the backlog: the key's
        // versions still reach the server in increasing order. A
        // re-sent Get or Scan goes first and may see anything
        // generated so far.
        if (p.kind == kPut) {
            p.version = ++sent_[p.rec];
            c.backlog.push_back(p);
            return;
        }
        if (p.kind == kGet)
            p.version = sent_[p.rec];
        c.backlog.push_front(p);
        return;
    }
    std::uint64_t scanned = 0;
    if (!verify(p, resp, scanned)) {
        wrong(std::string(mix_.name) + ": wrong " +
              (p.kind == kGet ? "GET" : p.kind == kPut ? "PUT" : "SCAN") +
              " reply (status " + lp::server::statusName(resp.status) +
              ")");
        return;
    }
    if (tracing_)
        spans_.push_back(
            Span{"request", 1, p.sentNs, now - p.sentNs, resp.id});
    if (ph == nullptr)
        return;
    ph->lat[p.kind].push_back({p.intendedNs, now - p.intendedNs});
    ph->rtt[p.kind].push_back({p.intendedNs, now - p.sentNs});
    ph->scanRecords += scanned;
    ++ph->completed;
}

void
Driver::readable(std::size_t i, Phase *ph)
{
    Conn &c = *conns_[i];
    const std::uint64_t t0 = lp::obs::nowNs();
    if (c.nc.fill(0) == lp::net::Connection::Io::Closed) {
        kill(i, "connection closed by the server");
        return;
    }
    for (;;) {
        Response resp;
        std::size_t used = 0;
        const auto d = lp::server::decodeResponse(
            c.nc.in().data(), c.nc.in().size(), used, resp);
        if (d == lp::server::Decode::NeedMore)
            break;
        if (d == lp::server::Decode::Malformed) {
            wrong("malformed reply frame");
            kill(i, "malformed reply");
            return;
        }
        c.nc.in().consume(used);
        onReply(c, resp, lp::obs::nowNs(), ph);
    }
    if (tracing_)
        spans_.push_back(Span{"recv", 1, t0, lp::obs::nowNs() - t0, i});
    // Completions freed window slots (and Retry re-sends queued).
    sendBacklog(i, lp::obs::nowNs(), ph);
}

void
Driver::run(double rate, double secs, Phase *ph)
{
    const double meanGapNs = 1e9 / rate;
    const auto gap = [&] {
        return std::uint64_t(-std::log1p(-rng_.uniform()) * meanGapNs) + 1;
    };
    const std::uint64_t t0 = lp::obs::nowNs();
    const std::uint64_t endNs = t0 + std::uint64_t(secs * 1e9);
    const std::uint64_t deadline = endNs + std::uint64_t(kDrainSecs * 1e9);
    if (ph != nullptr) {
        ph->t0Ns = t0;
        // Room for every sample up front: no reallocation (and copy)
        // on the driver thread mid-phase.
        const auto expect = std::size_t(rate * secs * 1.1) + 1024;
        const double frac[3] = {1.0 - mix_.putFrac - mix_.scanFrac,
                                mix_.putFrac, mix_.scanFrac};
        for (int k = 0; k < 3; ++k) {
            ph->lat[k].reserve(std::size_t(double(expect) * frac[k]));
            ph->rtt[k].reserve(std::size_t(double(expect) * frac[k]));
        }
        ph->lag.reserve(expect);
        ph->sendWindows = std::size_t((endNs - t0 + kWindowNs - 1) / kWindowNs);
        ph->serverCpuNs = serverCpuNs();
    }
    std::uint64_t due = t0 + gap();
    std::uint64_t nextWindow = t0;

    for (;;) {
        std::uint64_t now = lp::obs::nowNs();
        if (now >= deadline)
            break;
        for (; ph != nullptr && now >= nextWindow; nextWindow += kWindowNs)
            ph->steal.push_back(stealTicks());
        // Every arrival whose time has come joins its key's
        // connection backlog, sent as soon as the window allows.
        while (due <= now && due < endNs) {
            const Pending p = generate(due);
            Conn &c = *conns_[p.rec % kConns];
            ++r_.attempted;
            if (ph != nullptr)
                ++ph->sent;
            if (c.dead)
                ++r_.failed;
            else
                c.backlog.push_back(p);
            due += gap();
        }
        bool busy = false;
        for (std::size_t i = 0; i < conns_.size(); ++i) {
            sendBacklog(i, now, ph);
            busy = busy || !conns_[i]->inflight.empty() ||
                   !conns_[i]->backlog.empty();
        }
        if (due >= endNs && !busy)
            break;

        std::int64_t timeoutNs = 10000000;
        if (due < endNs) {
            now = lp::obs::nowNs();
            timeoutNs = std::min<std::int64_t>(
                timeoutNs, due > now ? std::int64_t(due - now) : 0);
        }
        const int n = loop_->waitNs(timeoutNs);
        for (int e = 0; e < n; ++e) {
            const std::size_t i = std::size_t(loop_->data(e));
            if (i >= conns_.size() || conns_[i]->dead)
                continue;
            const std::uint32_t ev = loop_->events(e);
            if (ev & lp::net::kHangup) {
                kill(i, "hangup");
                continue;
            }
            if (ev & lp::net::kWritable)
                flush(i);
            if ((ev & lp::net::kReadable) && !conns_[i]->dead)
                readable(i, ph);
        }
    }
    // Anything still owed at the drain deadline failed.
    for (auto &c : conns_) {
        r_.failed += c->inflight.size() + c->backlog.size();
        c->inflight.clear();
        c->backlog.clear();
    }
    if (ph != nullptr) {
        ph->t1Ns = lp::obs::nowNs();
        ph->serverCpuNs = serverCpuNs() - ph->serverCpuNs;
    }
}

void
Driver::readBack(const std::string &host, int port, const char *when,
                 bool injectWrong)
{
    lp::server::Client c;
    if (!c.connectTo(host, port)) {
        r_.fail(std::string("read-back ") + when + ": cannot connect");
        return;
    }
    std::unordered_map<std::uint64_t, std::uint32_t> out;
    std::size_t next = 0;
    while (next < kRecords || !out.empty()) {
        while (next < kRecords && out.size() < kWindow) {
            Request q;
            q.op = lp::server::Op::Get;
            q.id = c.nextId();
            q.key = keys_[next];
            if (!c.sendRequest(q)) {
                r_.fail(std::string("read-back ") + when + ": send");
                return;
            }
            out[q.id] = std::uint32_t(next++);
            ++r_.attempted;
        }
        const auto resp = c.recvResponse(10000);
        const auto it = resp ? out.find(resp->id) : out.end();
        if (it == out.end()) {
            ++r_.failed;
            r_.fail(std::string("read-back ") + when + ": no reply");
            return;
        }
        const std::uint32_t rec = it->second;
        out.erase(it);
        // Every acknowledged write must survive; a sent but
        // unacknowledged one (a failed op) may or may not.
        std::uint32_t lo = acked_[rec];
        if (injectWrong && rec == 0)
            lo = sent_[rec] + 1;
        if (resp->status != Status::Ok || !resp->hasValue ||
            !taggedWith(resp->value, keys_[rec]) ||
            versionOf(resp->value) < lo ||
            versionOf(resp->value) > sent_[rec])
            wrong(std::string("read-back ") + when +
                  ": a key lost its last acknowledged write");
    }
}

/// @name Phase summaries
/// @{

double
us(double ns)
{
    return ns / 1e3;
}

void
printPhase(const char *label, const Phase &ph)
{
    const auto &other = ph.lat[kPut].empty() ? ph.lat[kScan] : ph.lat[kPut];
    std::printf("  %-8s sent %8llu  done %8llu  lag p99 %7.1f us  "
                "get p50/p90/p99 %7.1f %7.1f %7.1f us  "
                "put|scan p50/p90/p99 %7.1f %7.1f %7.1f us\n",
                label, static_cast<unsigned long long>(ph.sent),
                static_cast<unsigned long long>(ph.completed),
                us(ph.quiet(ph.lag, 0.99)), us(ph.quiet(ph.lat[kGet], 0.5)),
                us(ph.quiet(ph.lat[kGet], 0.9)), us(ph.quiet(ph.lat[kGet], 0.99)),
                us(ph.quiet(other, 0.5)), us(ph.quiet(other, 0.9)),
                us(ph.quiet(other, 0.99)));
}

/// @}

ServerConfig
serverConfig(Backend b)
{
    ServerConfig cfg;
    cfg.shards = kShards;
    cfg.backend = b;
    cfg.capacityPerShard = kCapacityPerShard;
    cfg.quiet = true;
    return cfg;
}

/** Stop @p s gracefully, restart it on its data, and read back. */
void
restartAndReadBack(Served &s, Driver &d, const Options &opt, Report &r)
{
    s.srv->stop();
    s.srv.reset();
    ServerConfig cfg = s.cfg;
    cfg.traceOut.clear();
    Server again(cfg);
    again.start();
    if (again.recovery().shardsAttached != kShards)
        r.fail("restart: not every shard re-attached its file");
    d.readBack(cfg.host, again.port(), "after restart", opt.injectWrong);
    again.stop();
}

/** The timed (untraced) run: end-to-end metrics. */
Report
timedRun(const Mix &mix, const Options &opt)
{
    Report r;
    const double nominal = mix.nominalRate;
    Driver d(mix, opt.seed, r);

    // Set up several times; the median is the set-up time and the
    // last server carries the run. Set-up time is on-CPU time (every
    // thread), which host steal does not inflate; the wall time is
    // printed next to it.
    std::vector<std::uint64_t> setupCpuNs, setupWallNs;
    Served s;
    for (int k = 0; k < kSetups; ++k) {
        if (s.srv) {
            s.srv->stop();
            s.srv.reset();
            std::filesystem::remove_all(s.cfg.dataDir);
        }
        s.cfg = serverConfig(Backend::Lp);
        s.cfg.dataDir = makeDir(opt.workDir);
        if (s.cfg.dataDir.empty() || !setUp(s, d.keys(), r))
            return r;
        setupCpuNs.push_back(std::uint64_t(s.setupCpuSecs * 1e9));
        setupWallNs.push_back(std::uint64_t(s.setupSecs * 1e9));
    }
    const double setupCpu = quantile(setupCpuNs, 0.5) / 1e9;
    std::printf("  set-up   cpu %.4f s  wall %.4f s (medians of %d)\n",
                setupCpu, quantile(setupWallNs, 0.5) / 1e9, kSetups);
    // Peak RSS of the loaded server, before the driver's own sample
    // buffers (which scale with rate x run length) join the process.
    const double rssMiB = peakRssMiB();
    if (!d.connect(s.cfg.host, s.srv->port())) {
        r.fail("driver: cannot connect");
        return r;
    }

    d.run(nominal, kWarmupSecs, nullptr);
    Phase nom;
    d.run(nominal, opt.seconds, &nom);
    printPhase("nominal", nom);
    d.close();
    d.readBack(s.cfg.host, s.srv->port(), "after drain", opt.injectWrong);
    restartAndReadBack(s, d, opt, r);
    std::filesystem::remove_all(s.cfg.dataDir);

    const std::vector<SimRun> gate = runSimGates(opt, r);

    r.add("setup_s", setupCpu, "s");
    r.add("rss_mb", rssMiB, "MiB");
    r.add("cpu_us_per_op",
          us(ratio(double(nom.serverCpuNs), double(nom.completed))), "us");
    reportSimGate(gate, false, r);
    r.provenance = {{"offered_rate_ops_per_s", nominal},
                    {"nominal_seconds", opt.seconds},
                    {"window_ms", double(kWindowNs) / 1e6}};
    return r;
}

/** One untraced nominal-rate session on a fresh server. */
struct Session
{
    Phase nominal;
    bool ok = false;
};

Session
plainSession(const Mix &mix, Backend b, double secs, const Options &opt,
             Report &r)
{
    Session out;
    Driver d(mix, opt.seed, r);
    Served s;
    s.cfg = serverConfig(b);
    s.cfg.dataDir = makeDir(opt.workDir);
    if (s.cfg.dataDir.empty() || !setUp(s, d.keys(), r) ||
        !d.connect(s.cfg.host, s.srv->port()))
        return out;
    const double nominal = mix.nominalRate;
    d.run(nominal, kWarmupSecs, nullptr);
    d.run(nominal, secs, &out.nominal);
    d.close();
    d.readBack(s.cfg.host, s.srv->port(), "after drain", opt.injectWrong);
    s.srv->stop();
    std::filesystem::remove_all(s.cfg.dataDir);
    out.ok = true;
    return out;
}

/** Mean of the spans named @p name whose arg is a request of @p kind. */
double
meanFor(const std::vector<Span> &spans, const std::string &name,
        const Phase &ph, int kind)
{
    double sum = 0.0, n = 0.0;
    for (const Span &s : spans) {
        if (s.name != name)
            continue;
        const auto it = ph.kinds.find(s.arg);
        if (it == ph.kinds.end() || (kind >= 0 && it->second != kind))
            continue;
        sum += double(s.durNs);
        n += 1.0;
    }
    return ratio(sum, n);
}

/** Report each named metric as 0: a layer this workload never reaches. */
void
unreached(Report &r,
          std::initializer_list<std::pair<const char *, const char *>> m)
{
    for (const auto &[name, unit] : m)
        r.add(name, 0.0, unit);
}

/** Durations of spans named @p name starting inside the phase. */
std::vector<std::uint64_t>
durations(const std::vector<Span> &spans, const std::string &name,
          const Phase &ph)
{
    std::vector<std::uint64_t> v;
    for (const Span &s : spans)
        if (s.name == name && s.tsNs >= ph.t0Ns && s.tsNs < ph.t1Ns)
            v.push_back(s.durNs);
    return v;
}

/**
 * The traced run: per-layer metrics. An untraced LP session gives
 * the reference median; a traced LP session writes the server's
 * Chrome trace and the driver's own spans, from which every layer's
 * self time is computed and cross-checked against the server's
 * STATS histograms; served_update then runs once per baseline
 * backend for reference PUT latencies.
 */
Report
tracedRun(const Mix &mix, const Options &opt)
{
    Report r;
    // Traced sessions stay short: the trace holds ~10 events per op.
    const double secs = std::clamp(opt.seconds / 10.0, 1.0, 3.0);
    const double nominal = mix.nominalRate;
    const bool updates = mix.putFrac > 0;

    Session plain = plainSession(mix, Backend::Lp, secs, opt, r);
    if (!plain.ok)
        return r;

    // Traced LP session. Rings are sized to hold every event of the
    // server's life, so the trace is complete (drops are reported).
    Driver d(mix, opt.seed, r);
    Served s;
    s.cfg = serverConfig(Backend::Lp);
    s.cfg.dataDir = makeDir(opt.workDir);
    s.cfg.traceOut = s.cfg.dataDir + "/server-trace.json";
    s.cfg.traceRingCapacity = 1 << 19;
    if (s.cfg.dataDir.empty() || !setUp(s, d.keys(), r) ||
        !d.connect(s.cfg.host, s.srv->port()))
        return r;
    d.run(nominal, kWarmupSecs, nullptr);
    const lp::stats::Snapshot m0 = scrape(*s.srv);
    Phase ph;
    d.traceSpans(true);
    d.run(nominal, secs, &ph);
    d.traceSpans(false);
    const lp::stats::Snapshot m1 = scrape(*s.srv);
    d.close();
    d.readBack(s.cfg.host, s.srv->port(), "after drain", opt.injectWrong);
    const std::string stats = s.srv->statsJson();
    const lp::stats::Snapshot mEnd = scrape(*s.srv);
    const std::string tracePath = s.cfg.traceOut;
    restartAndReadBack(s, d, opt, r);  // stop() writes the trace

    std::vector<Span> spans;
    std::uint64_t dropped = 0;
    if (!readServerTrace(tracePath, spans, dropped))
        r.fail("trace: cannot read the server trace");
    // Both traces stay in the work directory for Perfetto.
    std::filesystem::copy_file(
        tracePath, opt.workDir + "/" + mix.name + "-server.json",
        std::filesystem::copy_options::overwrite_existing);
    writeClientTrace(opt.workDir + "/" + mix.name + "-client.json",
                     d.spans());
    std::filesystem::remove_all(s.cfg.dataDir);

    // Self times along the request path. parse, queue and ack are
    // leaves; a commit wait contains the epoch commit and fold that
    // ran on its behalf, so those are subtracted from it.
    std::vector<std::uint64_t> parse = durations(spans, "parse", ph);
    std::vector<std::uint64_t> queue = durations(spans, "queue", ph);
    std::vector<std::uint64_t> ack = durations(spans, "ack", ph);
    std::vector<std::uint64_t> commit =
        durations(spans, "epoch_commit", ph);
    std::vector<std::uint64_t> fold = durations(spans, "fold", ph);
    std::vector<std::uint64_t> scrub = durations(spans, "scrub", ph);
    std::vector<std::uint64_t> wait = selfTimes(
        spans, "commit_wait", {"epoch_commit", "fold"}, ph.t0Ns, ph.t1Ns);

    // Cross-check: each span kind against the STATS histogram timing
    // the same interval, over the server's whole life (both sides saw
    // every request when nothing was dropped). A span may bracket its
    // histogram timer, so it can exceed it by two clock reads
    // (kClockSlackNs). The parse span is not comparable: it starts at
    // the socket read, the req_parse_ns timer at the frame decode.
    constexpr double kClockSlackNs = 200.0;
    double worst = 0.0;
    const auto check = [&](const char *span, int shard,
                           const std::string &hist) {
        std::vector<std::uint64_t> v;
        for (const Span &x : spans)
            if (x.name == span && (shard < 0 || int(x.tid) == shard))
                v.push_back(x.durNs);
        const double h = statsField(stats, shard, hist + "_p50");
        if (v.empty() || h <= 0)
            return;
        const double p50 = quantile(v, 0.5);
        const double diff =
            std::max(0.0, std::abs(p50 - h) - kClockSlackNs) / h;
        std::printf("  span vs STATS %-12s shard %2d: span p50 %10.0f ns"
                    "  hist p50 %10.0f ns  (%.1f%%)\n",
                    span, shard, p50, h, diff * 100);
        worst = std::max(worst, diff);
    };
    check("ack", -1, "req_ack_ns");
    for (int sh = 0; sh < kShards; ++sh) {
        check("queue", sh, "req_queue_ns");
        check("commit_wait", sh, "req_commit_wait_ns");
        check("epoch_commit", sh, "commit_lat_ns");
    }
    if (dropped == 0 && worst > 0.10)
        r.fail("trace: span percentiles disagree with STATS histograms");

    // Client view and the unaccounted remainder of a GET: client
    // round trip minus the server's parse, queue and ack spans.
    const double getRtt = mean(values(ph.rtt[kGet]));
    const double getServer = meanFor(spans, "parse", ph, kGet) +
                             meanFor(spans, "queue", ph, kGet) +
                             meanFor(spans, "ack", ph, kGet);

    const double muts = grown(m0, m1, "lp_mutations");
    const double epochs = grown(m0, m1, "lp_epochs_committed");
    const double ops = double(ph.completed);
    const double stageMeanNs =
        ratio(grown(m0, m1, "lp_stage_lat_seconds_sum"),
              grown(m0, m1, "lp_stage_lat_seconds_count")) *
        1e9;

    // Client-observed latency of the untraced session, quiet windows.
    const Phase &pn = plain.nominal;
    const Kind second = updates ? kPut : kScan;
    r.add("loadgen.get_p50_us", us(pn.quiet(pn.lat[kGet], 0.50)), "us");
    r.add("loadgen.get_p99_us", us(pn.quiet(pn.lat[kGet], 0.99)), "us");
    r.add("loadgen.put_or_scan_p50_us", us(pn.quiet(pn.lat[second], 0.50)),
          "us");
    r.add("loadgen.put_or_scan_p99_us", us(pn.quiet(pn.lat[second], 0.99)),
          "us");
    r.add("loadgen.lag_us_p99", us(pn.quiet(pn.lag, 0.99)), "us");
    r.add("loadgen.rtt_us_p50", us(pn.quiet(pn.allRtt(), 0.5)), "us");
    r.add("net.writev_iovecs_mean",
          ratio(grown(m0, m1, "lp_writev_batch_sum"),
                grown(m0, m1, "lp_writev_batch_count")),
          "iovecs");
    r.add("net.eagain_per_kop",
          ratio(grown(m0, m1, "lp_eagain_total"), ops) * 1e3,
          "eagain/kop");
    r.add("net.unaccounted_us_mean", us(getRtt - getServer), "us");
    r.add("server.parse_ns_p50", quantile(parse, 0.50), "ns");
    r.add("server.parse_ns_p99", quantile(parse, 0.99), "ns");
    r.add("server.queue_us_p50", us(quantile(queue, 0.50)), "us");
    r.add("server.queue_us_p99", us(quantile(queue, 0.99)), "us");
    r.add("server.ack_us_p50", us(quantile(ack, 0.50)), "us");
    r.add("server.ack_us_p99", us(quantile(ack, 0.99)), "us");
    if (updates) {
        r.add("store.stage_ns_p50",
              shardPercentile(stats, "stage_lat_ns", "p50"), "ns");
        r.add("store.stage_ns_p99",
              shardPercentile(stats, "stage_lat_ns", "p99"), "ns");
        r.add("engine.commit_ns_p50", quantile(commit, 0.50), "ns");
        r.add("engine.commit_ns_p99", quantile(commit, 0.99), "ns");
        r.add("engine.commit_wait_us_p50", us(quantile(wait, 0.50)),
              "us");
        r.add("engine.commit_wait_us_p99", us(quantile(wait, 0.99)),
              "us");
        r.add("engine.mut_per_epoch", ratio(muts, epochs), "mut/epoch");
        r.add("engine.deadline_commit_frac",
              ratio(grown(m0, m1, "lp_deadline_commits"), epochs),
              "frac");
        r.add("engine.fold_us_p99", us(quantile(fold, 0.99)), "us");
        r.add("engine.folds_per_kmut",
              ratio(grown(m0, m1, "lp_folds"), muts) * 1e3,
              "folds/kmut");
        unreached(r, {{"index.subscan_us_p50", "us"},
                      {"index.subscan_us_p99", "us"},
                      {"index.scan_len_mean", "records"}});
    } else {
        r.add("index.subscan_us_p50",
              us(shardPercentile(stats, "scan_lat_ns", "p50")), "us");
        r.add("index.subscan_us_p99",
              us(shardPercentile(stats, "scan_lat_ns", "p99")), "us");
        r.add("index.scan_len_mean",
              ratio(double(ph.scanRecords), double(ph.lat[kScan].size())),
              "records");
        unreached(r, {{"store.stage_ns_p50", "ns"},
                      {"store.stage_ns_p99", "ns"},
                      {"engine.commit_ns_p50", "ns"},
                      {"engine.commit_ns_p99", "ns"},
                      {"engine.commit_wait_us_p50", "us"},
                      {"engine.commit_wait_us_p99", "us"},
                      {"engine.mut_per_epoch", "mut/epoch"},
                      {"engine.deadline_commit_frac", "frac"},
                      {"engine.fold_us_p99", "us"},
                      {"engine.folds_per_kmut", "folds/kmut"},
                      {"put_path.parse_us_mean", "us"},
                      {"put_path.queue_us_mean", "us"},
                      {"put_path.stage_us_mean", "us"},
                      {"put_path.commit_wait_us_mean", "us"},
                      {"put_path.ack_us_mean", "us"},
                      {"put_path.unaccounted_us_mean", "us"},
                      {"put_path.client_rtt_us_mean", "us"},
                      {"backend.put_p50_us.eager", "us"},
                      {"backend.put_p50_us.wal", "us"}});
    }
    r.add("index.bytes_per_entry",
          ratio(series(mEnd, "lp_index_bytes"),
                series(mEnd, "lp_index_entries")),
          "bytes/entry");
    r.add("repair.scrub_us_p99", us(quantile(scrub, 0.99)), "us");
    r.add("repair.scrub_regions_per_s",
          grown(m0, m1, "lp_scrub_regions") /
              (double(ph.t1Ns - ph.t0Ns) / 1e9),
          "regions/s");
    r.add("obs.trace_drops", double(dropped), "count");
    r.add("obs.span_hist_p50_diff_max", worst, "frac");
    r.add("obs.tracing_overhead_frac",
          ph.quiet(ph.allLat(), 0.5) / plain.nominal.quiet(plain.nominal.allLat(), 0.5) - 1.0,
          "frac");

    if (updates) {
        // The PUT path, layer by layer (means over PUTs of the traced
        // phase); whatever the spans do not cover is the remainder.
        const double pParse = meanFor(spans, "parse", ph, kPut);
        const double pQueue = meanFor(spans, "queue", ph, kPut);
        const double pWait = mean(durations(spans, "commit_wait", ph));
        const double pAck = meanFor(spans, "ack", ph, kPut);
        const double pRtt = mean(values(ph.rtt[kPut]));
        const double rest =
            pRtt - pParse - pQueue - stageMeanNs - pWait - pAck;
        std::printf("  PUT path (mean us): parse %.2f  queue %.2f  "
                    "stage %.2f  commit_wait %.2f  ack %.2f  "
                    "unaccounted %.2f  = client rtt %.2f\n",
                    us(pParse), us(pQueue), us(stageMeanNs), us(pWait),
                    us(pAck), us(rest), us(pRtt));
        r.add("put_path.parse_us_mean", us(pParse), "us");
        r.add("put_path.queue_us_mean", us(pQueue), "us");
        r.add("put_path.stage_us_mean", us(stageMeanNs), "us");
        r.add("put_path.commit_wait_us_mean", us(pWait), "us");
        r.add("put_path.ack_us_mean", us(pAck), "us");
        r.add("put_path.unaccounted_us_mean", us(rest), "us");
        r.add("put_path.client_rtt_us_mean", us(pRtt), "us");

        for (const Backend b : {Backend::EagerPerOp, Backend::Wal}) {
            Session base = plainSession(mix, b, secs, opt, r);
            r.add(std::string("backend.put_p50_us.") +
                      lp::store::backendName(b),
                  us(base.nominal.quiet(base.nominal.lat[kPut], 0.5)), "us");
        }
    }

    reportSimGate(runSimGates(opt, r), true, r);
    r.provenance = {{"offered_rate_ops_per_s", nominal},
                    {"traced_seconds", secs}};
    return r;
}

} // namespace

Report
runServedUpdate(const Options &opt)
{
    return opt.trace ? tracedRun(kUpdateMix, opt)
                     : timedRun(kUpdateMix, opt);
}

Report
runServedReadScan(const Options &opt)
{
    return opt.trace ? tracedRun(kReadScanMix, opt)
                     : timedRun(kReadScanMix, opt);
}

} // namespace perfbench
