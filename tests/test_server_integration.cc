/**
 * @file
 * Integration tests for lp::server: a real server process serving a
 * real TCP workload, killed with SIGKILL mid-stream, restarted, and
 * held to its acknowledgement contract -- every mutation the server
 * acknowledged must be visible after recovery.
 *
 * What "survived" means under pipelining: a key's recovered value
 * must equal the state after its LAST ACKNOWLEDGED operation, or any
 * LATER state from operations that were issued but not yet
 * acknowledged (the server may legitimately have committed those
 * too; per-shard epochs commit in order, so only suffix states are
 * possible). Each connection owns a disjoint key range, so per-key
 * operation order is exactly that connection's issue order.
 *
 * The server runs in a fork()ed child (no exec: the child builds the
 * Server in-process and never returns to gtest), publishing its
 * ephemeral port through the dataDir/PORT file. Everything is
 * bounded by timeouts so a hung server fails rather than wedges CI.
 */

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <optional>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "obs/metrics.hh"
#include "server/client.hh"
#include "server/server.hh"
#include "stats/stats.hh"
#include "store/layout.hh"
#include "temp_dir.hh"

using namespace lp;
using namespace lp::server;

namespace
{

/** Metric name -> its `# TYPE` kind in a METRICS exposition. */
std::map<std::string, std::string>
metricTypes(const std::string &exposition)
{
    std::map<std::string, std::string> types;
    std::istringstream in(exposition);
    for (std::string line; std::getline(in, line);) {
        std::istringstream ls(line);
        std::string hash, word, name, kind;
        if (ls >> hash >> word >> name >> kind && hash == "#" &&
            word == "TYPE")
            types[name] = kind;
    }
    return types;
}

/**
 * Run a server in a forked child. The child never returns: it serves
 * until killed (SIGKILL from the test) or asked to shut down
 * (SHUTDOWN op / SIGTERM), then exits 0.
 */
pid_t
spawnServer(const ServerConfig &cfg)
{
    const pid_t pid = ::fork();
    if (pid != 0)
        return pid;
    {
        Server srv(cfg);
        srv.start();
        srv.installSignalHandlers();
        srv.join();
    }
    std::_Exit(0);
}

/** Wait for the PORT file, then connect; asserts on failure. */
void
connectToServer(Client &c, const std::string &dataDir)
{
    const int port = waitForPortFile(dataDir, 30000);
    ASSERT_GT(port, 0) << "server did not publish a port";
    ASSERT_TRUE(c.connectTo("127.0.0.1", port));
}

/**
 * Every number of a STATS document, keyed by its path ("gets",
 * "shard.0.gets"); string values (backend) are skipped. @p i is at
 * the object's '{' and ends past its '}'.
 */
void
flattenStats(const std::string &j, std::size_t &i,
             const std::string &path, std::map<std::string, double> &out)
{
    ++i;
    while (j[i] != '}') {
        if (j[i] == ',')
            ++i;
        const std::size_t q = j.find('"', i + 1);
        const std::string key = path + j.substr(i + 1, q - i - 1);
        i = q + 2;  // past the closing quote and the ':'
        if (j[i] == '{') {
            flattenStats(j, i, key + ".", out);
        } else if (j[i] == '"') {
            i = j.find('"', i + 1) + 1;
        } else {
            char *end = nullptr;
            out[key] = std::strtod(j.c_str() + i, &end);
            i = std::size_t(end - j.c_str());
        }
    }
    ++i;
}

/**
 * Per-key value history: states[0] is "absent"; states[j] is the
 * value (nullopt = deleted) after the j-th issued operation. `acked`
 * is the highest state index whose operation was acknowledged.
 */
struct KeyHistory
{
    std::vector<std::optional<std::uint64_t>> states{std::nullopt};
    std::size_t acked = 0;
};

struct LoadState
{
    std::unordered_map<std::uint64_t, KeyHistory> hist;

    /** request id -> the (key, state index) pairs it acknowledges. */
    std::unordered_map<std::uint64_t,
                       std::vector<std::pair<std::uint64_t,
                                             std::size_t>>>
        inflight;

    std::uint64_t acks = 0;
};

void
recordOp(LoadState &ls, std::uint64_t id, std::uint64_t key,
         std::optional<std::uint64_t> value)
{
    KeyHistory &h = ls.hist[key];
    h.states.push_back(value);
    ls.inflight[id].emplace_back(key, h.states.size() - 1);
}

/** Apply one received response to the tracker. */
void
onResponse(LoadState &ls, const Response &r)
{
    auto it = ls.inflight.find(r.id);
    if (it == ls.inflight.end())
        return;
    if (r.status == Status::Ok) {
        // Acknowledged: acked mutations must survive any crash. A
        // Retry reply means the op was REJECTED (never executed), so
        // its states simply never materialize server-side; suffix
        // matching over absolute values tolerates those gaps.
        for (const auto &[key, idx] : it->second) {
            KeyHistory &h = ls.hist[key];
            h.acked = std::max(h.acked, idx);
        }
        ++ls.acks;
    }
    ls.inflight.erase(it);
}

/** Pull replies until in-flight drops below @p target (bounded). */
void
drainTo(Client &c, LoadState &ls, std::size_t target, int timeoutMs)
{
    while (ls.inflight.size() > target) {
        const auto r = c.recvResponse(timeoutMs);
        if (!r)
            return;
        onResponse(ls, *r);
    }
}

/**
 * Issue one pseudo-random operation (put / del / occasional batch)
 * on a key in [lo, hi]. Values are globally unique so a recovered
 * value pins exactly one history state.
 */
void
issueOp(Client &c, LoadState &ls, std::mt19937_64 &rng,
        std::uint64_t lo, std::uint64_t hi, std::uint64_t &valueSeq)
{
    const auto pick = [&] { return lo + rng() % (hi - lo + 1); };
    const int kind = int(rng() % 10);
    if (kind < 7) {  // put
        Request r;
        r.op = Op::Put;
        r.id = c.nextId();
        r.key = pick();
        r.value = ++valueSeq;
        recordOp(ls, r.id, r.key, r.value);
        ASSERT_TRUE(c.sendRequest(r));
    } else if (kind < 9) {  // del
        Request r;
        r.op = Op::Del;
        r.id = c.nextId();
        r.key = pick();
        recordOp(ls, r.id, r.key, std::nullopt);
        ASSERT_TRUE(c.sendRequest(r));
    } else {  // batch of puts+dels
        Request r;
        r.op = Op::Batch;
        r.id = c.nextId();
        const std::size_t n = 2 + rng() % 6;
        for (std::size_t i = 0; i < n; ++i) {
            const bool isPut = rng() % 4 != 0;
            BatchOp b;
            b.isPut = isPut;
            b.key = pick();
            b.value = isPut ? ++valueSeq : 0;
            r.batch.push_back(b);
            recordOp(ls, r.id, b.key,
                     isPut ? std::optional<std::uint64_t>(b.value)
                           : std::nullopt);
        }
        ASSERT_TRUE(c.sendRequest(r));
    }
}

/** Block until at least @p minAcks acknowledgements arrived. */
void
waitForAcks(Client &c, LoadState &ls, std::uint64_t minAcks)
{
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::seconds(30);
    while (ls.acks < minAcks &&
           std::chrono::steady_clock::now() < deadline) {
        const auto r = c.recvResponse(500);
        if (r)
            onResponse(ls, *r);
    }
    ASSERT_GE(ls.acks, minAcks) << "server stopped acknowledging";
}

/**
 * Check one connection's key range against the recovered store:
 * every key must read back as some suffix state of its history.
 */
void
verifyRecovered(Client &c, const LoadState &ls, const char *tag)
{
    for (const auto &[key, h] : ls.hist) {
        const auto resp = c.get(key, 20000);
        ASSERT_TRUE(resp.has_value()) << tag << " get(" << key << ")";
        ASSERT_TRUE(resp->status == Status::Ok ||
                    resp->status == Status::NotFound);
        std::optional<std::uint64_t> obs;
        if (resp->hasValue)
            obs = resp->value;
        bool match = false;
        for (std::size_t j = h.acked; j < h.states.size() && !match;
             ++j)
            match = h.states[j] == obs;
        EXPECT_TRUE(match)
            << tag << ": key " << key << " recovered to "
            << (obs ? std::to_string(*obs) : "absent")
            << " which is no state at or after its last "
            << "acknowledged operation (acked index " << h.acked
            << " of " << h.states.size() - 1 << ")";
    }
}

class ServerCrash : public ::testing::TestWithParam<store::Backend>
{
};

} // namespace

TEST_P(ServerCrash, AckedMutationsSurviveSigkill)
{
    const TempDir tmp;
    const std::string &dir = tmp.path;
    ASSERT_FALSE(dir.empty());

    ServerConfig cfg;
    cfg.dataDir = dir;
    cfg.shards = 2;
    cfg.backend = GetParam();
    cfg.batchOps = 8;     // small batches: many epochs commit
    cfg.foldBatches = 4;  // frequent folds exercise the journal reset
    cfg.quiet = true;

    // --- incarnation 1: mixed workload, SIGKILL mid-stream ---------
    const pid_t pid1 = spawnServer(cfg);
    ASSERT_GT(pid1, 0);
    Client c1, c2;
    connectToServer(c1, dir);
    ASSERT_TRUE(c2.connectTo("127.0.0.1",
                             waitForPortFile(dir, 1000)));

    // Disjoint key ranges per connection keep per-key issue order
    // well-defined under two concurrent pipelines.
    LoadState ls1, ls2;
    std::mt19937_64 rng1(11), rng2(22);
    std::uint64_t seq1 = 0, seq2 = 1u << 20;
    for (int i = 0; i < 1200; ++i) {
        issueOp(c1, ls1, rng1, 1, 100, seq1);
        issueOp(c2, ls2, rng2, 101, 200, seq2);
        // Stay under the server's in-flight budget (default 256).
        if (ls1.inflight.size() > 128)
            drainTo(c1, ls1, 64, 2000);
        if (ls2.inflight.size() > 128)
            drainTo(c2, ls2, 64, 2000);
    }
    waitForAcks(c1, ls1, 400);
    waitForAcks(c2, ls2, 400);

    // With two pipelines the shards are often idle with an epoch
    // open, so some mutations were staged on the acceptor: the acks
    // checked below cover that path too.
    {
        Client cs;
        ASSERT_TRUE(cs.connectTo("127.0.0.1",
                                 waitForPortFile(dir, 1000)));
        const auto sr = cs.stats(20000);
        ASSERT_TRUE(sr && sr->status == Status::Ok);
        std::map<std::string, double> st;
        std::size_t at = 0;
        flattenStats(sr->body, at, "", st);
        EXPECT_GT(st.at("muts_inline"), 0.0);
    }

    // A final unread burst guarantees genuinely in-flight operations
    // at the moment of death.
    for (int i = 0; i < 60; ++i) {
        issueOp(c1, ls1, rng1, 1, 100, seq1);
        issueOp(c2, ls2, rng2, 101, 200, seq2);
    }
    ASSERT_EQ(::kill(pid1, SIGKILL), 0);
    int st = 0;
    ASSERT_EQ(::waitpid(pid1, &st, 0), pid1);
    ASSERT_TRUE(WIFSIGNALED(st) && WTERMSIG(st) == SIGKILL);

    // Replies the server sent before dying still count as acks.
    for (;;) {
        const auto r = c1.recvResponse(200);
        if (!r)
            break;
        onResponse(ls1, *r);
    }
    for (;;) {
        const auto r = c2.recvResponse(200);
        if (!r)
            break;
        onResponse(ls2, *r);
    }
    c1.close();
    c2.close();

    // --- incarnation 2: recover, verify the ack contract -----------
    std::filesystem::remove(dir + "/PORT");  // don't read a stale port
    const pid_t pid2 = spawnServer(cfg);
    ASSERT_GT(pid2, 0);
    Client c3;
    connectToServer(c3, dir);
    verifyRecovered(c3, ls1, "conn1");
    verifyRecovered(c3, ls2, "conn2");

    // The recovered server must accept new work...
    const auto pr = c3.put(55, 424242, 20000);
    ASSERT_TRUE(pr && pr->status == Status::Ok);
    const auto sr = c3.stats(20000);
    ASSERT_TRUE(sr && sr->status == Status::Ok);
    EXPECT_NE(sr->body.find("\"backend\""), std::string::npos);
    // This incarnation recovered from an image, and says so: the
    // per-shard recovery counters ride along in the stats report.
    EXPECT_NE(sr->body.find("\"recovery_attached\":1"),
              std::string::npos);
    EXPECT_NE(sr->body.find("\"batches_replayed\""),
              std::string::npos);

    // ...and shut down gracefully on the SHUTDOWN op.
    const auto down = c3.shutdownServer(20000);
    ASSERT_TRUE(down && down->status == Status::Ok);
    c3.close();
    ASSERT_EQ(::waitpid(pid2, &st, 0), pid2);
    EXPECT_TRUE(WIFEXITED(st) && WEXITSTATUS(st) == 0)
        << "graceful shutdown should exit 0";

    // --- incarnation 3: the graceful checkpoint also persisted -----
    std::filesystem::remove(dir + "/PORT");
    const pid_t pid3 = spawnServer(cfg);
    ASSERT_GT(pid3, 0);
    Client c4;
    connectToServer(c4, dir);
    const auto gr = c4.get(55, 20000);
    ASSERT_TRUE(gr.has_value());
    EXPECT_EQ(gr->status, Status::Ok);
    EXPECT_EQ(gr->value, 424242u);
    const auto down3 = c4.shutdownServer(20000);
    ASSERT_TRUE(down3 && down3->status == Status::Ok);
    c4.close();
    ASSERT_EQ(::waitpid(pid3, &st, 0), pid3);
    EXPECT_TRUE(WIFEXITED(st) && WEXITSTATUS(st) == 0);

}

INSTANTIATE_TEST_SUITE_P(
    Backends, ServerCrash,
    ::testing::Values(store::Backend::Lp, store::Backend::Wal),
    [](const ::testing::TestParamInfo<store::Backend> &info) {
        return store::backendName(info.param);
    });

TEST_P(ServerCrash, ScanIdenticalAfterSigkillRecovery)
{
    const TempDir tmp;
    const std::string &dir = tmp.path;
    ASSERT_FALSE(dir.empty());

    ServerConfig cfg;
    cfg.dataDir = dir;
    cfg.shards = 2;
    cfg.backend = GetParam();
    cfg.batchOps = 8;
    cfg.foldBatches = 4;
    cfg.quiet = true;

    // --- incarnation 1: acked writes, a pre-crash SCAN, then an
    // unacked burst on a disjoint higher key range, then SIGKILL ----
    const pid_t pid1 = spawnServer(cfg);
    ASSERT_GT(pid1, 0);
    Client c1;
    connectToServer(c1, dir);

    for (std::uint64_t k = 1000; k < 1100; ++k) {
        const auto r = c1.put(k, k * 7, 20000);
        ASSERT_TRUE(r && r->status == Status::Ok) << "put " << k;
    }
    const auto before = c1.scan(1000, 100, 20000);
    ASSERT_TRUE(before.has_value());
    ASSERT_EQ(before->size(), 100u);

    // In-flight at the moment of death; keys strictly above the
    // acked range, so the 100 smallest keys >= 1000 stay the same
    // whether or not any of these committed.
    for (std::uint64_t i = 0; i < 80; ++i) {
        Request r;
        r.op = Op::Put;
        r.id = c1.nextId();
        r.key = 5000 + i;
        r.value = i;
        ASSERT_TRUE(c1.sendRequest(r));
    }
    ASSERT_EQ(::kill(pid1, SIGKILL), 0);
    int st = 0;
    ASSERT_EQ(::waitpid(pid1, &st, 0), pid1);
    ASSERT_TRUE(WIFSIGNALED(st) && WTERMSIG(st) == SIGKILL);
    c1.close();

    // --- incarnation 2: the rebuilt index must reproduce the
    // pre-crash SCAN exactly, and agree with point GETs ------------
    std::filesystem::remove(dir + "/PORT");
    const pid_t pid2 = spawnServer(cfg);
    ASSERT_GT(pid2, 0);
    Client c2;
    connectToServer(c2, dir);

    const auto after = c2.scan(1000, 100, 20000);
    ASSERT_TRUE(after.has_value());
    ASSERT_EQ(after->size(), before->size());
    for (std::size_t i = 0; i < before->size(); ++i) {
        EXPECT_EQ((*after)[i].key, (*before)[i].key) << "slot " << i;
        EXPECT_EQ((*after)[i].value, (*before)[i].value)
            << "slot " << i;
    }
    for (const ScanRecord &rec : *after) {
        const auto g = c2.get(rec.key, 20000);
        ASSERT_TRUE(g && g->status == Status::Ok);
        EXPECT_EQ(g->value, rec.value)
            << "scan and point GET disagree on key " << rec.key;
    }

    const auto down = c2.shutdownServer(20000);
    ASSERT_TRUE(down && down->status == Status::Ok);
    c2.close();
    ASSERT_EQ(::waitpid(pid2, &st, 0), pid2);
    EXPECT_TRUE(WIFEXITED(st) && WEXITSTATUS(st) == 0);
}

TEST(ServerBasic, InProcessOpsAndStats)
{
    const TempDir tmp;
    const std::string &dir = tmp.path;
    ASSERT_FALSE(dir.empty());
    ServerConfig cfg;
    cfg.dataDir = dir;
    cfg.shards = 2;
    cfg.quiet = true;
    Server srv(cfg);
    srv.start();

    Client c;
    ASSERT_TRUE(c.connectTo("127.0.0.1", srv.port()));
    const auto miss = c.get(9, 10000);
    ASSERT_TRUE(miss.has_value());
    EXPECT_EQ(miss->status, Status::NotFound);

    const auto put = c.put(9, 1234, 10000);
    ASSERT_TRUE(put && put->status == Status::Ok);
    const auto hit = c.get(9, 10000);
    ASSERT_TRUE(hit && hit->status == Status::Ok);
    EXPECT_TRUE(hit->hasValue);
    EXPECT_EQ(hit->value, 1234u);

    const auto del = c.del(9, 10000);
    ASSERT_TRUE(del && del->status == Status::Ok);
    const auto gone = c.get(9, 10000);
    ASSERT_TRUE(gone && gone->status == Status::NotFound);

    // Keys in the reserved sentinel range are rejected, not applied.
    const auto bad = c.put(~0ull, 1, 10000);
    ASSERT_TRUE(bad.has_value());
    EXPECT_EQ(bad->status, Status::Err);

    // A cross-shard batch gets exactly one reply once every sub-op's
    // epoch has committed.
    Request b;
    b.op = Op::Batch;
    b.id = c.nextId();
    for (std::uint64_t k = 20; k < 40; ++k)
        b.batch.push_back(BatchOp{true, k, k * 10});
    ASSERT_TRUE(c.sendRequest(b));
    const auto br = c.recvResponse(10000);
    ASSERT_TRUE(br.has_value());
    EXPECT_EQ(br->id, b.id);
    EXPECT_EQ(br->status, Status::Ok);
    const auto bk = c.get(33, 10000);
    ASSERT_TRUE(bk && bk->status == Status::Ok);
    EXPECT_EQ(bk->value, 330u);

    const auto sr = c.stats(10000);
    ASSERT_TRUE(sr && sr->status == Status::Ok);
    EXPECT_NE(sr->body.find("\"mutations\""), std::string::npos);
    EXPECT_NE(sr->body.find("\"shard\""), std::string::npos);

    c.close();
    srv.stop();
}

TEST(ServerBasic, ScanMergesShardsEndToEnd)
{
    const TempDir tmp;
    const std::string &dir = tmp.path;
    ASSERT_FALSE(dir.empty());
    ServerConfig cfg;
    cfg.dataDir = dir;
    cfg.shards = 3;  // scans must gather across all workers
    cfg.quiet = true;
    Server srv(cfg);
    srv.start();

    Client c;
    ASSERT_TRUE(c.connectTo("127.0.0.1", srv.port()));
    for (std::uint64_t k = 10; k <= 60; k += 5) {
        const auto r = c.put(k, k * 100, 10000);
        ASSERT_TRUE(r && r->status == Status::Ok);
    }

    // Full range: every key, ascending, values intact.
    const auto all = c.scan(0, 100, 10000);
    ASSERT_TRUE(all.has_value());
    ASSERT_EQ(all->size(), 11u);
    for (std::size_t i = 0; i < all->size(); ++i) {
        EXPECT_EQ((*all)[i].key, 10 + 5 * i);
        EXPECT_EQ((*all)[i].value, (10 + 5 * i) * 100);
    }

    // Mid-range start + limit truncation.
    const auto mid = c.scan(26, 3, 10000);
    ASSERT_TRUE(mid.has_value());
    ASSERT_EQ(mid->size(), 3u);
    EXPECT_EQ((*mid)[0].key, 30u);
    EXPECT_EQ((*mid)[1].key, 35u);
    EXPECT_EQ((*mid)[2].key, 40u);

    // Start past every key: Ok with an empty record set.
    const auto past = c.scan(store::maxUserKey, 5, 10000);
    ASSERT_TRUE(past.has_value());
    EXPECT_TRUE(past->empty());

    // The scan counters and index gauges ride the stats report.
    const auto sr = c.stats(10000);
    ASSERT_TRUE(sr && sr->status == Status::Ok);
    EXPECT_NE(sr->body.find("\"scans\""), std::string::npos);
    EXPECT_NE(sr->body.find("\"index_entries\""), std::string::npos);
    EXPECT_NE(sr->body.find("\"index_bytes\""), std::string::npos);
    EXPECT_NE(sr->body.find("\"scan_lat_ns_p99\""), std::string::npos);
    EXPECT_NE(sr->body.find("\"scan_len_p50\""), std::string::npos);

    c.close();
    srv.stop();
}

TEST(ServerBasic, BackpressureRepliesRetry)
{
    const TempDir tmp;
    const std::string &dir = tmp.path;
    ASSERT_FALSE(dir.empty());
    ServerConfig cfg;
    cfg.dataDir = dir;
    cfg.shards = 1;
    cfg.quiet = true;
    cfg.maxInflightPerConn = 4;
    cfg.flushDeadlineUs = 200000;  // acks stall until the deadline
    Server srv(cfg);
    srv.start();

    Client c;
    ASSERT_TRUE(c.connectTo("127.0.0.1", srv.port()));
    const int total = 12;
    for (int i = 0; i < total; ++i) {
        Request r;
        r.op = Op::Put;
        r.id = std::uint64_t(1000 + i);
        r.key = std::uint64_t(i);
        r.value = std::uint64_t(i);
        ASSERT_TRUE(c.sendRequest(r));
    }
    int ok = 0, retry = 0;
    for (int i = 0; i < total; ++i) {
        const auto r = c.recvResponse(10000);
        ASSERT_TRUE(r.has_value());
        if (r->status == Status::Ok)
            ++ok;
        else if (r->status == Status::Retry)
            ++retry;
    }
    // The in-flight budget is 4, acks can't beat the 200ms deadline,
    // so at least total-4 requests must have been pushed back.
    EXPECT_GE(retry, total - 4);
    EXPECT_EQ(ok, total - retry);

    c.close();
    srv.stop();
}

TEST(ServerBasic, MetricsScrapeUnderLoad)
{
    const TempDir tmp;
    const std::string &dir = tmp.path;
    ASSERT_FALSE(dir.empty());
    ServerConfig cfg;
    cfg.dataDir = dir;
    cfg.shards = 2;
    cfg.quiet = true;
    Server srv(cfg);
    srv.start();

    Client c;
    ASSERT_TRUE(c.connectTo("127.0.0.1", srv.port()));

    // Known op mix, every op acked before the scrape, so the counters
    // are exact: 100 mutations, 50 reads.
    for (std::uint64_t k = 0; k < 100; ++k) {
        const auto r = c.put(k, k * 3, 10000);
        ASSERT_TRUE(r && r->status == Status::Ok);
    }
    for (std::uint64_t k = 0; k < 50; ++k) {
        const auto r = c.get(k, 10000);
        ASSERT_TRUE(r && r->status == Status::Ok);
    }

    std::map<std::string, std::string> types;  // of the last scrape
    const auto scrape = [&](stats::Snapshot &snap) {
        const auto r = c.metrics(10000);
        ASSERT_TRUE(r.has_value());
        ASSERT_EQ(r->status, Status::Ok);
        ASSERT_FALSE(r->body.empty());
        EXPECT_TRUE(obs::parseExposition(r->body, snap))
            << "exposition did not parse:\n"
            << r->body;
        types = metricTypes(r->body);
    };

    stats::Snapshot s1;
    scrape(s1);

    const auto shardSum = [](const stats::Snapshot &snap,
                             const std::string &name) {
        double sum = 0.0;
        for (int shard = 0;; ++shard) {
            const auto it = snap.find(name + "{shard=\"" +
                                      std::to_string(shard) + "\"}");
            if (it == snap.end())
                return sum;
            sum += it->second;
        }
    };
    EXPECT_DOUBLE_EQ(shardSum(s1, "lp_mutations"), 100.0);
    EXPECT_DOUBLE_EQ(shardSum(s1, "lp_gets"), 50.0);
    EXPECT_GE(s1.at("lp_conn_active"), 1.0);

    // Histogram integrity: every mutation waited for its commit, so
    // the commit-wait histograms across shards account for exactly
    // the 100 acks, and each +Inf bucket equals its _count.
    double waitCount = 0.0;
    for (int shard = 0; shard < cfg.shards; ++shard) {
        const std::string lab =
            "{shard=\"" + std::to_string(shard) + "\"}";
        const std::string inf = "lp_req_commit_wait_seconds_bucket"
                                "{shard=\"" +
                                std::to_string(shard) +
                                "\",le=\"+Inf\"}";
        const double cnt =
            s1.at("lp_req_commit_wait_seconds_count" + lab);
        EXPECT_DOUBLE_EQ(s1.at(inf), cnt) << "shard " << shard;
        waitCount += cnt;
    }
    EXPECT_DOUBLE_EQ(waitCount, 100.0);

    // More load, then a second scrape: every series except those
    // `# TYPE`d gauge (point-in-time values) must be monotonic, and
    // the mutation delta must equal the ops issued in between.
    for (std::uint64_t k = 0; k < 40; ++k) {
        const auto r = c.put(200 + k, k, 10000);
        ASSERT_TRUE(r && r->status == Status::Ok);
    }
    stats::Snapshot s2;
    scrape(s2);
    for (const auto &[key, v1] : s1) {
        if (types[key.substr(0, key.find('{'))] == "gauge")
            continue;
        const auto it = s2.find(key);
        ASSERT_NE(it, s2.end()) << key << " vanished between scrapes";
        EXPECT_GE(it->second, v1) << key << " went backwards";
    }
    EXPECT_DOUBLE_EQ(shardSum(s2, "lp_mutations"), 140.0);

    c.close();
    srv.stop();
}

namespace
{

/**
 * One per-shard number from a STATS document. The per-shard objects
 * under "shard" are flat (scalars only), so a shard's fields end at
 * the first closing brace after its opening.
 */
double
shardStat(const std::string &json, int shard, const std::string &field)
{
    const std::size_t shards = json.find("\"shard\":{");
    EXPECT_NE(shards, std::string::npos);
    const std::size_t open =
        json.find("\"" + std::to_string(shard) + "\":{", shards);
    EXPECT_NE(open, std::string::npos) << "shard " << shard;
    const std::string body =
        json.substr(open, json.find('}', open) - open);
    const std::string tag = "\"" + field + "\":";
    const std::size_t at = body.find(tag);
    EXPECT_NE(at, std::string::npos) << field;
    return at == std::string::npos
               ? -1.0
               : std::stod(body.substr(at + tag.size()));
}

} // namespace

/**
 * Put/delete churn must run at flat index memory: after 5000 rounds
 * of deleting and re-inserting the same 64 keys, each shard's STATS
 * index_bytes equals its value right after the initial load. Rounds
 * ride pipelined BATCH requests (delete all, put all) so per-key
 * order is the send order.
 */
TEST(ServerBasic, IndexBytesFlatUnderPutDelChurn)
{
    const TempDir tmp;
    const std::string &dir = tmp.path;
    ASSERT_FALSE(dir.empty());
    ServerConfig cfg;
    cfg.dataDir = dir;
    cfg.shards = 2;
    cfg.quiet = true;
    Server srv(cfg);
    srv.start();

    Client c;
    ASSERT_TRUE(c.connectTo("127.0.0.1", srv.port()));
    constexpr std::uint64_t kKeys = 64;
    for (std::uint64_t k = 0; k < kKeys; ++k) {
        const auto r = c.put(k, k, 10000);
        ASSERT_TRUE(r && r->status == Status::Ok);
    }
    const auto indexBytes = [&](int shard) {
        const auto sr = c.stats(10000);
        EXPECT_TRUE(sr && sr->status == Status::Ok);
        return sr ? shardStat(sr->body, shard, "index_bytes") : -1.0;
    };
    std::vector<double> loaded;
    for (int s = 0; s < cfg.shards; ++s) {
        loaded.push_back(indexBytes(s));
        EXPECT_GT(loaded.back(), 0.0);
    }

    constexpr int kRounds = 5000;
    constexpr int kWindow = 50;  // BATCHes in flight per burst
    for (int round = 0; round < kRounds; round += kWindow) {
        for (int i = 0; i < kWindow; ++i) {
            Request b;
            b.op = Op::Batch;
            b.id = c.nextId();
            for (std::uint64_t k = 0; k < kKeys; ++k)
                b.batch.push_back(BatchOp{false, k, 0});
            for (std::uint64_t k = 0; k < kKeys; ++k)
                b.batch.push_back(
                    BatchOp{true, k, std::uint64_t(round + i)});
            ASSERT_TRUE(c.sendRequest(b));
        }
        for (int i = 0; i < kWindow; ++i) {
            const auto r = c.recvResponse(20000);
            ASSERT_TRUE(r.has_value());
            ASSERT_EQ(r->status, Status::Ok);
        }
    }
    for (int s = 0; s < cfg.shards; ++s)
        EXPECT_EQ(indexBytes(s), loaded[std::size_t(s)])
            << "shard " << s;

    c.close();
    srv.stop();
}

/**
 * STATS and METRICS render one stat table, so once a served mix has
 * quiesced (every request acked, no scrub running) they publish the
 * same rows with the same values: every METRICS series has its STATS
 * key at the same scope, and every STATS key is in METRICS. A short
 * flush deadline and fold period make the pipeline counters move, and
 * acks_released must count every acknowledged mutation.
 */
TEST(ServerBasic, PipelineCountersAgreeAcrossStatsAndMetrics)
{
    const TempDir tmp;
    const std::string &dir = tmp.path;
    ASSERT_FALSE(dir.empty());
    ServerConfig cfg;
    cfg.dataDir = dir;
    cfg.shards = 2;
    cfg.quiet = true;
    cfg.batchOps = 8;
    cfg.foldBatches = 2;
    cfg.flushDeadlineUs = 200;
    cfg.scrubIntervalMs = 0;
    Server srv(cfg);
    srv.start();

    Client c;
    ASSERT_TRUE(c.connectTo("127.0.0.1", srv.port()));
    std::mt19937_64 rng(17);
    std::unordered_map<std::uint64_t, std::uint64_t> mutsOf;  // by id
    std::uint64_t acked = 0;
    for (int burst = 0; burst < 40; ++burst) {
        for (int i = 0; i < 50; ++i) {
            Request r;
            r.id = c.nextId();
            r.key = rng() % 512;
            r.value = rng();
            const unsigned pick = unsigned(rng() % 10);
            if (pick < 4) {
                r.op = Op::Put;
            } else if (pick < 5) {
                r.op = Op::Del;
            } else if (pick < 9) {
                r.op = Op::Get;
            } else {
                r.op = Op::Batch;
                for (int j = 0; j < 8; ++j)
                    r.batch.push_back(
                        BatchOp{j % 4 != 0, rng() % 512, rng()});
            }
            mutsOf[r.id] = r.op == Op::Get     ? 0
                           : r.op == Op::Batch ? r.batch.size()
                                               : 1;
            ASSERT_TRUE(c.sendRequest(r));
        }
        for (int i = 0; i < 50; ++i) {
            const auto r = c.recvResponse(10000);
            ASSERT_TRUE(r.has_value());
            ASSERT_NE(r->status, Status::Retry);
            if (r->status == Status::Ok)
                acked += mutsOf.at(r->id);
        }
    }
    ASSERT_GT(acked, 0u);

    // Quiesced once two METRICS renderings around the STATS one
    // match: the STATS snapshot then saw the same values.
    std::string text, json;
    for (int tries = 0; tries < 200; ++tries) {
        text = srv.metricsText();
        json = srv.statsJson();
        if (srv.metricsText() == text)
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    stats::Snapshot snap;
    ASSERT_TRUE(obs::parseExposition(text, snap));
    std::map<std::string, double> st;
    std::size_t at = 0;
    flattenStats(json, at, "", st);
    const std::map<std::string, std::string> types = metricTypes(text);

    // METRICS -> STATS: an unlabelled series is a top-level key, a
    // shard="i" series a key of shard i. Histograms compare _count.
    // rowKind/rowSeries: STATS row -> METRICS kind and series name.
    std::map<std::string, std::string> rowKind, rowSeries;
    for (const auto &[name, kind] : types) {
        std::string row = name.substr(3);  // drop "lp_"
        if (row.ends_with("_seconds"))
            row.replace(row.size() - 8, 8, "_ns");
        const bool h = kind == "histogram";
        const std::string series = h ? name + "_count" : name;
        rowKind[row] = kind;
        rowSeries[row] = series;
        const std::string field = h ? row + "_count" : row;
        int seen = 0;
        for (auto it = snap.lower_bound(series);
             it != snap.end() &&
             it->first.compare(0, series.size(), series) == 0;
             ++it) {
            const std::string labels = it->first.substr(series.size());
            std::string path = field;
            if (labels.starts_with("{shard=\""))
                path = "shard." + labels.substr(8, labels.size() - 10) +
                       "." + field;
            else if (!labels.empty())
                continue;  // a longer metric name sharing the prefix
            ++seen;
            ASSERT_EQ(st.count(path), 1u) << it->first << " -> " << path;
            EXPECT_EQ(st.at(path), it->second) << path;
        }
        EXPECT_GT(seen, 0) << name;
    }

    // STATS -> METRICS: every key names a row. A top-level key with no
    // unlabelled series is the STATS-only sum of a shard counter.
    for (const auto &[path, v] : st) {
        if (path == "shards")
            continue;
        const std::size_t dot = path.rfind('.');
        std::string row = dot == std::string::npos
                              ? path
                              : path.substr(dot + 1);
        for (const std::string pct : {"_count", "_p50", "_p90", "_p99",
                                      "_p999"}) {
            const std::string base =
                row.substr(0, row.size() - pct.size());
            if (row.ends_with(pct) && rowKind.count(base) &&
                rowKind.at(base) == "histogram")
                row = base;
        }
        ASSERT_EQ(rowKind.count(row), 1u) << path << " not in METRICS";
        const std::string &series = rowSeries.at(row);
        const auto shardSeries = [&](const std::string &shard) {
            return series + "{shard=\"" + shard + "\"}";
        };
        if (dot != std::string::npos) {
            EXPECT_EQ(snap.count(shardSeries(path.substr(6, dot - 6))),
                      1u)
                << path;
            continue;
        }
        if (snap.count(series))
            continue;  // compared above
        EXPECT_EQ(rowKind.at(row), "counter") << path;
        double sum = 0.0;
        for (int s = 0; s < cfg.shards; ++s)
            sum += snap.at(shardSeries(std::to_string(s)));
        EXPECT_EQ(v, sum) << path;
    }

    double acks = 0.0;
    for (int s = 0; s < cfg.shards; ++s) {
        const std::string sh = "shard." + std::to_string(s) + ".";
        EXPECT_EQ(st.at(sh + "acks_released"), st.at(sh + "mutations"))
            << "shard " << s;
        acks += st.at(sh + "acks_released");
    }
    EXPECT_EQ(acks, double(acked));
    EXPECT_EQ(st.at("acks_released"), double(acked));
    EXPECT_GT(st.at("epochs_committed"), 0.0);
    EXPECT_GT(st.at("folds"), 0.0);
    EXPECT_GT(st.at("deadline_commits"), 0.0);

    c.close();
    srv.stop();
}

/**
 * The worker's ack schedule: a reply waits for its epoch to commit,
 * which happens when the batch fills or, for an underfilled batch,
 * once the oldest waiting reply has aged cfg.flushDeadlineUs. Four
 * pipelined PUTs fill a 4-op batch and are acked without a deadline
 * commit; a fifth lone PUT is acked only by the deadline, no sooner
 * than 100 ms after it was sent.
 */
TEST(ServerBasic, AcksReleaseAtEpochCommitOrFlushDeadline)
{
    const TempDir tmp;
    const std::string &dir = tmp.path;
    ASSERT_FALSE(dir.empty());
    ServerConfig cfg;
    cfg.dataDir = dir;
    cfg.shards = 1;
    cfg.backend = store::Backend::Lp;
    cfg.quiet = true;
    cfg.batchOps = 4;
    cfg.flushDeadlineUs = 100000;
    cfg.scrubIntervalMs = 0;
    Server srv(cfg);
    srv.start();
    const auto stat = [&](const std::string &key) {
        const std::string json = srv.statsJson();
        std::map<std::string, double> st;
        std::size_t at = 0;
        flattenStats(json, at, "", st);
        return st.at(key);
    };

    Client c;
    ASSERT_TRUE(c.connectTo("127.0.0.1", srv.port()));
    for (std::uint64_t k = 0; k < 4; ++k) {
        Request r;
        r.op = Op::Put;
        r.id = c.nextId();
        r.key = k;
        r.value = k + 100;
        ASSERT_TRUE(c.sendRequest(r));
    }
    for (int i = 0; i < 4; ++i) {
        const auto r = c.recvResponse(10000);
        ASSERT_TRUE(r.has_value());
        EXPECT_EQ(r->status, Status::Ok);
    }
    EXPECT_EQ(stat("deadline_commits"), 0.0);

    const auto t0 = std::chrono::steady_clock::now();
    const auto lone = c.put(4, 104, 10000);
    const auto waited = std::chrono::steady_clock::now() - t0;
    ASSERT_TRUE(lone && lone->status == Status::Ok);
    EXPECT_GE(waited, std::chrono::milliseconds(100));
    EXPECT_EQ(stat("deadline_commits"), 1.0);
    EXPECT_EQ(stat("acks_released"), 5.0);

    c.close();
    srv.stop();
}

/**
 * Acks leave the worker's queue in staging order across several
 * epochs: eight pipelined PUTs fill four 2-op epochs, and the eight
 * replies come back in request order, all released by batch commits
 * (the flush deadline is a minute away).
 */
TEST(ServerBasic, AcksReleaseInRequestOrderAcrossEpochs)
{
    const TempDir tmp;
    const std::string &dir = tmp.path;
    ASSERT_FALSE(dir.empty());
    ServerConfig cfg;
    cfg.dataDir = dir;
    cfg.shards = 1;
    cfg.backend = store::Backend::Lp;
    cfg.quiet = true;
    cfg.batchOps = 2;
    cfg.flushDeadlineUs = 60000000;
    cfg.scrubIntervalMs = 0;
    Server srv(cfg);
    srv.start();

    Client c;
    ASSERT_TRUE(c.connectTo("127.0.0.1", srv.port()));
    std::vector<std::uint64_t> ids;
    for (std::uint64_t k = 0; k < 8; ++k) {
        Request r;
        r.op = Op::Put;
        r.id = c.nextId();
        r.key = k;
        r.value = k + 100;
        ids.push_back(r.id);
        ASSERT_TRUE(c.sendRequest(r));
    }
    for (const std::uint64_t id : ids) {
        const auto r = c.recvResponse(10000);
        ASSERT_TRUE(r.has_value());
        EXPECT_EQ(r->status, Status::Ok);
        EXPECT_EQ(r->id, id);
    }

    std::map<std::string, double> st;
    std::size_t at = 0;
    flattenStats(srv.statsJson(), at, "", st);
    EXPECT_EQ(st.at("acks_released"), 8.0);
    EXPECT_EQ(st.at("deadline_commits"), 0.0);
    EXPECT_GE(st.at("epochs_committed"), 4.0);

    c.close();
    srv.stop();
}

/**
 * Shutdown releases what the deadline has not: a lone PUT in an
 * underfilled epoch, with the flush deadline a minute away, is
 * acked by the stopping worker's final commit and is durable in
 * the next run.
 */
TEST(ServerBasic, StopReleasesAnAckBeforeItsFlushDeadline)
{
    const TempDir tmp;
    const std::string &dir = tmp.path;
    ASSERT_FALSE(dir.empty());
    ServerConfig cfg;
    cfg.dataDir = dir;
    cfg.shards = 1;
    cfg.backend = store::Backend::Lp;
    cfg.quiet = true;
    cfg.batchOps = 4;
    cfg.flushDeadlineUs = 60000000;
    cfg.scrubIntervalMs = 0;
    {
        Server srv(cfg);
        srv.start();
        Client c;
        ASSERT_TRUE(c.connectTo("127.0.0.1", srv.port()));
        Request r;
        r.op = Op::Put;
        r.id = c.nextId();
        r.key = 7;
        r.value = 707;
        ASSERT_TRUE(c.sendRequest(r));

        // Stop only once the worker has staged the PUT; a frame the
        // acceptor has not read yet is not part of the drain.
        const auto until =
            std::chrono::steady_clock::now() + std::chrono::seconds(10);
        for (;;) {
            std::map<std::string, double> st;
            std::size_t at = 0;
            flattenStats(srv.statsJson(), at, "", st);
            if (st.at("mutations") == 1.0)
                break;
            ASSERT_LT(std::chrono::steady_clock::now(), until);
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }

        const auto t0 = std::chrono::steady_clock::now();
        srv.stop();
        EXPECT_LT(std::chrono::steady_clock::now() - t0,
                  std::chrono::seconds(30));
        const auto ack = c.recvResponse(10000);
        ASSERT_TRUE(ack.has_value());
        EXPECT_EQ(ack->status, Status::Ok);
        EXPECT_EQ(ack->id, r.id);
        c.close();
    }
    {
        Server srv(cfg);
        srv.start();
        Client c;
        ASSERT_TRUE(c.connectTo("127.0.0.1", srv.port()));
        const auto g = c.get(7, 10000);
        ASSERT_TRUE(g.has_value());
        EXPECT_EQ(g->status, Status::Ok);
        EXPECT_EQ(g->value, 707u);
        c.close();
        srv.stop();
    }
}

namespace
{

/** One STATS key (flattenStats path) of a live in-process server. */
double
statOf(Server &srv, const std::string &key)
{
    std::map<std::string, double> st;
    std::size_t at = 0;
    flattenStats(srv.statsJson(), at, "", st);
    return st.at(key);
}

} // namespace

/**
 * Read-your-writes whichever thread serves the read: each PUT k=v_i
 * and the GET k behind it go out in one send, so the GET reaches the
 * acceptor while its PUT may be queued, running or done. Every GET
 * returns v_i, and each is counted once, inline or queued.
 */
TEST(ServerBasic, PipelinedPutThenGetReadsItsWrite)
{
    const TempDir tmp;
    const std::string &dir = tmp.path;
    ASSERT_FALSE(dir.empty());
    ServerConfig cfg;
    cfg.dataDir = dir;
    cfg.shards = 2;
    cfg.quiet = true;
    Server srv(cfg);
    srv.start();

    Client c;
    ASSERT_TRUE(c.connectTo("127.0.0.1", srv.port()));
    constexpr int kPairs = 1000;
    constexpr int kWindow = 50;  // pairs in flight per burst
    std::unordered_map<std::uint64_t, std::uint64_t> want;  // GET id
    for (int i = 0; i < kPairs; i += kWindow) {
        for (int j = i; j < i + kWindow; ++j) {
            Request pair[2];
            pair[0].op = Op::Put;
            pair[0].id = c.nextId();
            pair[0].key = std::uint64_t(j % 8);
            pair[0].value = std::uint64_t(j + 1);
            pair[1].op = Op::Get;
            pair[1].id = c.nextId();
            pair[1].key = pair[0].key;
            want[pair[1].id] = pair[0].value;
            ASSERT_TRUE(c.sendRequests(pair));
        }
        for (int k = 0; k < 2 * kWindow; ++k) {
            const auto r = c.recvResponse(10000);
            ASSERT_TRUE(r.has_value());
            ASSERT_EQ(r->status, Status::Ok);
            const auto it = want.find(r->id);
            if (it != want.end()) {
                EXPECT_EQ(r->value, it->second) << "GET id " << r->id;
            }
        }
    }
    EXPECT_EQ(statOf(srv, "gets"), double(kPairs));
    EXPECT_LE(statOf(srv, "gets_inline"), double(kPairs));

    c.close();
    srv.stop();
}

/**
 * A SCAN sent in the same write as the PUTs before it sees all of
 * them, whether it fans out behind them or runs on the acceptor once
 * every shard drained.
 */
TEST(ServerBasic, ScanSeesThePipelinedPutsBeforeIt)
{
    const TempDir tmp;
    const std::string &dir = tmp.path;
    ASSERT_FALSE(dir.empty());
    ServerConfig cfg;
    cfg.dataDir = dir;
    cfg.shards = 3;
    cfg.quiet = true;
    Server srv(cfg);
    srv.start();

    Client c;
    ASSERT_TRUE(c.connectTo("127.0.0.1", srv.port()));
    constexpr std::uint64_t kKeys = 16;
    for (std::uint64_t round = 1; round <= 50; ++round) {
        std::vector<Request> reqs(kKeys + 1);
        for (std::uint64_t k = 0; k < kKeys; ++k) {
            reqs[k].op = Op::Put;
            reqs[k].id = c.nextId();
            reqs[k].key = k;
            reqs[k].value = round * 1000 + k;
        }
        Request &scan = reqs[kKeys];
        scan.op = Op::Scan;
        scan.id = c.nextId();
        scan.key = 0;
        scan.limit = 100;
        ASSERT_TRUE(c.sendRequests(reqs));
        for (std::uint64_t i = 0; i <= kKeys; ++i) {
            const auto r = c.recvResponse(10000);
            ASSERT_TRUE(r.has_value());
            ASSERT_EQ(r->status, Status::Ok);
            if (r->id != scan.id)
                continue;
            std::vector<ScanRecord> recs;
            ASSERT_TRUE(decodeScanBody(r->body, recs));
            ASSERT_EQ(recs.size(), kKeys) << "round " << round;
            for (std::uint64_t k = 0; k < kKeys; ++k) {
                EXPECT_EQ(recs[k].key, k);
                EXPECT_EQ(recs[k].value, round * 1000 + k)
                    << "round " << round;
            }
        }
    }

    c.close();
    srv.stop();
}

/**
 * Readers race a writer while folds and the online scrub run every
 * few milliseconds, so reads land both on the acceptor and behind
 * queued work. The writer only ever raises a key's version, so each
 * reader must see every key's version never go backwards, in GETs
 * and SCANs alike.
 */
TEST(ServerBasic, ReadersSeeNonDecreasingVersionsUnderWrites)
{
    const TempDir tmp;
    const std::string &dir = tmp.path;
    ASSERT_FALSE(dir.empty());
    ServerConfig cfg;
    cfg.dataDir = dir;
    cfg.shards = 2;
    cfg.quiet = true;
    cfg.foldBatches = 2;
    cfg.scrubIntervalMs = 1;
    Server srv(cfg);
    srv.start();

    constexpr std::uint64_t kKeys = 32;
    constexpr std::uint64_t kVersions = 200;
    std::atomic<bool> writing{true};
    std::thread writer([&] {
        Client w;
        ASSERT_TRUE(w.connectTo("127.0.0.1", srv.port()));
        for (std::uint64_t v = 1; v <= kVersions; ++v) {
            std::vector<Request> reqs(kKeys);
            for (std::uint64_t k = 0; k < kKeys; ++k) {
                reqs[k].op = Op::Put;
                reqs[k].id = w.nextId();
                reqs[k].key = k;
                reqs[k].value = v;
            }
            ASSERT_TRUE(w.sendRequests(reqs));
            for (std::uint64_t k = 0; k < kKeys; ++k) {
                const auto r = w.recvResponse(10000);
                ASSERT_TRUE(r && r->status == Status::Ok);
            }
        }
        writing.store(false);
    });
    const auto reader = [&](std::uint64_t seed, int &reads) {
        Client c;
        ASSERT_TRUE(c.connectTo("127.0.0.1", srv.port()));
        std::mt19937_64 rng(seed);
        std::vector<std::uint64_t> seen(kKeys, 0);
        const auto saw = [&](std::uint64_t k, std::uint64_t v) {
            ASSERT_LT(k, kKeys);
            EXPECT_GE(v, seen[k]) << "key " << k << " went backwards";
            seen[k] = std::max(seen[k], v);
        };
        while (writing.load()) {
            if (rng() % 4 == 0) {
                const auto recs = c.scan(0, 64, 10000);
                ASSERT_TRUE(recs.has_value());
                for (const ScanRecord &rec : *recs)
                    saw(rec.key, rec.value);
            } else {
                const std::uint64_t k = rng() % kKeys;
                const auto r = c.get(k, 10000);
                ASSERT_TRUE(r.has_value());
                if (r->status == Status::Ok)
                    saw(k, r->value);
            }
            ++reads;
        }
    };
    int reads[2] = {0, 0};
    std::thread r0([&] { reader(1, reads[0]); });
    std::thread r1([&] { reader(2, reads[1]); });
    writer.join();
    r0.join();
    r1.join();
    EXPECT_GT(reads[0] + reads[1], 0);

    srv.stop();
}

/**
 * On an idle shard the acceptor serves reads itself: N GETs and N
 * SCANs raise gets_inline and scans_inline by N each, while the
 * worker stays asleep (worker_wakeups barely moves) and no reply
 * doorbell rings.
 */
TEST(ServerBasic, IdleShardServesReadsOnTheAcceptor)
{
    const TempDir tmp;
    const std::string &dir = tmp.path;
    ASSERT_FALSE(dir.empty());
    ServerConfig cfg;
    cfg.dataDir = dir;
    cfg.shards = 1;
    cfg.quiet = true;
    cfg.scrubIntervalMs = 0;
    Server srv(cfg);
    srv.start();

    Client c;
    ASSERT_TRUE(c.connectTo("127.0.0.1", srv.port()));
    const auto put = c.put(5, 55, 10000);
    ASSERT_TRUE(put && put->status == Status::Ok);
    // Let the worker finish the round that released the ack.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));

    const double gets0 = statOf(srv, "gets_inline");
    const double scans0 = statOf(srv, "scans_inline");
    const double wakes0 = statOf(srv, "worker_wakeups");
    const double bells0 = statOf(srv, "reply_doorbells");
    constexpr int kReads = 200;
    for (int i = 0; i < kReads; ++i) {
        const auto g = c.get(5, 10000);
        ASSERT_TRUE(g && g->status == Status::Ok);
        EXPECT_EQ(g->value, 55u);
        const auto s = c.scan(0, 8, 10000);
        ASSERT_TRUE(s.has_value());
        ASSERT_EQ(s->size(), 1u);
    }
    EXPECT_EQ(statOf(srv, "gets_inline") - gets0, double(kReads));
    EXPECT_EQ(statOf(srv, "scans_inline") - scans0, double(kReads));
    EXPECT_LT(statOf(srv, "worker_wakeups") - wakes0, kReads / 10.0);
    EXPECT_EQ(statOf(srv, "reply_doorbells") - bells0, 0.0);

    c.close();
    srv.stop();
}

/**
 * An inline SCAN merges the shards' index cursors and resolves only
 * the keys its reply carries: each shard records one scan_len sample
 * of the records it contributed, so across shards the samples add up
 * to the records returned (a shard that resolved its own `limit`
 * records would count up to 4x as many).
 */
TEST(ServerBasic, InlineScanLenSamplesSumToItsRecords)
{
    const TempDir tmp;
    const std::string &dir = tmp.path;
    ASSERT_FALSE(dir.empty());
    ServerConfig cfg;
    cfg.dataDir = dir;
    cfg.shards = 4;
    cfg.quiet = true;
    cfg.scrubIntervalMs = 0;
    Server srv(cfg);
    srv.start();

    Client c;
    ASSERT_TRUE(c.connectTo("127.0.0.1", srv.port()));
    for (std::uint64_t k = 0; k < 200; ++k) {
        const auto r = c.put(k, k + 1, 10000);
        ASSERT_TRUE(r && r->status == Status::Ok);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(100));

    // (sum, count) of scan_len over every shard.
    const auto scanLen = [&] {
        stats::Snapshot snap;
        EXPECT_TRUE(obs::parseExposition(srv.metricsText(), snap));
        std::pair<double, double> out{0.0, 0.0};
        for (int s = 0; s < cfg.shards; ++s) {
            const std::string lab = "{shard=\"" + std::to_string(s) + "\"}";
            out.first += snap.at("lp_scan_len_sum" + lab);
            out.second += snap.at("lp_scan_len_count" + lab);
        }
        return out;
    };
    const double scans0 = statOf(srv, "scans_inline");
    const auto before = scanLen();
    std::uint64_t returned = 0;
    for (const std::uint32_t limit : {1u, 10u, 64u}) {
        const auto s = c.scan(50, limit, 10000);
        ASSERT_TRUE(s.has_value());
        ASSERT_EQ(s->size(), limit);
        for (std::uint32_t i = 0; i < limit; ++i) {
            EXPECT_EQ((*s)[i].key, 50 + i);
            EXPECT_EQ((*s)[i].value, 51 + i);
        }
        returned += limit;
    }
    const auto after = scanLen();
    EXPECT_EQ(statOf(srv, "scans_inline") - scans0, 3.0);
    EXPECT_EQ(after.first - before.first, double(returned));
    EXPECT_EQ(after.second - before.second, 3.0 * cfg.shards);

    c.close();
    srv.stop();
}

namespace
{

/** Poll @p srv's STATS until @p key reaches @p want (bounded). */
void
awaitStat(Server &srv, const std::string &key, double want)
{
    const auto until =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (statOf(srv, key) < want) {
        ASSERT_LT(std::chrono::steady_clock::now(), until)
            << key << " never reached " << want;
        std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
}

/**
 * Send a lone PUT to an idle server and return once the worker has
 * staged it and gone back to sleep on its ack's deadline (its shard
 * lock free).
 */
std::uint64_t
openEpochWithOnePut(Server &srv, Client &c, std::uint64_t key)
{
    const double wakes0 = statOf(srv, "worker_wakeups");
    Request r;
    r.op = Op::Put;
    r.id = c.nextId();
    r.key = key;
    r.value = key + 100;
    EXPECT_TRUE(c.sendRequest(r));
    awaitStat(srv, "mutations", 1.0);
    awaitStat(srv, "worker_wakeups", wakes0 + 1.0);
    return r.id;
}

/** Send a PUT of @p key and wait for the acceptor to stage it. */
std::uint64_t
putInline(Server &srv, Client &c, std::uint64_t key)
{
    const double inline0 = statOf(srv, "muts_inline");
    Request r;
    r.op = Op::Put;
    r.id = c.nextId();
    r.key = key;
    r.value = key + 100;
    EXPECT_TRUE(c.sendRequest(r));
    awaitStat(srv, "muts_inline", inline0 + 1.0);
    return r.id;
}

ServerConfig
oneShardConfig(const std::string &dir, store::Backend b, int batchOps,
               std::uint64_t flushDeadlineUs)
{
    ServerConfig cfg;
    cfg.dataDir = dir;
    cfg.shards = 1;
    cfg.backend = b;
    cfg.quiet = true;
    cfg.batchOps = batchOps;
    cfg.flushDeadlineUs = flushDeadlineUs;
    cfg.scrubIntervalMs = 0;
    return cfg;
}

} // namespace

/**
 * A PUT that finds its shard idle with an epoch open joins that epoch
 * on the acceptor: after a lone PUT opens an 8-op epoch, five more
 * PUTs sent one at a time are staged inline, the worker sleeps
 * through them, and all six acks wait for the 100 ms flush deadline
 * and arrive in request order.
 */
TEST(ServerBasic, IdleShardStagesMutationsOnTheAcceptor)
{
    const TempDir tmp;
    const std::string &dir = tmp.path;
    ASSERT_FALSE(dir.empty());
    Server srv(oneShardConfig(dir, store::Backend::Lp, 8, 100000));
    srv.start();
    Client c;
    ASSERT_TRUE(c.connectTo("127.0.0.1", srv.port()));
    // Let the worker reach its first sleep before counting wake-ups.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));

    const auto t0 = std::chrono::steady_clock::now();
    std::vector<std::uint64_t> ids{openEpochWithOnePut(srv, c, 1)};
    const double wakes0 = statOf(srv, "worker_wakeups") - 1.0;
    for (std::uint64_t k = 2; k <= 6; ++k)
        ids.push_back(putInline(srv, c, k));
    EXPECT_EQ(statOf(srv, "muts_inline"), 5.0);

    for (std::size_t i = 0; i < ids.size(); ++i) {
        const auto r = c.recvResponse(10000);
        ASSERT_TRUE(r.has_value());
        if (i == 0) {
            EXPECT_GE(std::chrono::steady_clock::now() - t0,
                      std::chrono::milliseconds(100));
        }
        EXPECT_EQ(r->status, Status::Ok);
        EXPECT_EQ(r->id, ids[i]);
    }
    EXPECT_EQ(statOf(srv, "acks_released"), 6.0);
    EXPECT_EQ(statOf(srv, "deadline_commits"), 1.0);
    EXPECT_LE(statOf(srv, "worker_wakeups") - wakes0, 3.0);
    for (std::uint64_t k = 1; k <= 6; ++k) {
        const auto g = c.get(k, 10000);
        ASSERT_TRUE(g && g->status == Status::Ok);
        EXPECT_EQ(g->value, k + 100);
    }

    c.close();
    srv.stop();
}

/**
 * The op that fills an epoch still goes to the worker, which commits
 * at once: with a 4-op epoch and the flush deadline a minute away,
 * PUTs 2 and 3 are staged inline, PUT 4 queues and fills the epoch,
 * and all four acks arrive without a deadline commit.
 */
TEST(ServerBasic, MutationThatFillsAnEpochQueuesAndCommitsAtOnce)
{
    const TempDir tmp;
    const std::string &dir = tmp.path;
    ASSERT_FALSE(dir.empty());
    Server srv(oneShardConfig(dir, store::Backend::Lp, 4, 60000000));
    srv.start();
    Client c;
    ASSERT_TRUE(c.connectTo("127.0.0.1", srv.port()));
    // Let the worker reach its first sleep before counting wake-ups.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));

    const auto t0 = std::chrono::steady_clock::now();
    std::vector<std::uint64_t> ids{openEpochWithOnePut(srv, c, 1)};
    ids.push_back(putInline(srv, c, 2));
    ids.push_back(putInline(srv, c, 3));
    Request fill;
    fill.op = Op::Put;
    fill.id = c.nextId();
    fill.key = 4;
    fill.value = 104;
    ids.push_back(fill.id);
    ASSERT_TRUE(c.sendRequest(fill));
    for (const std::uint64_t id : ids) {
        const auto r = c.recvResponse(10000);
        ASSERT_TRUE(r.has_value());
        EXPECT_EQ(r->status, Status::Ok);
        EXPECT_EQ(r->id, id);
    }
    EXPECT_LT(std::chrono::steady_clock::now() - t0,
              std::chrono::seconds(20));
    EXPECT_EQ(statOf(srv, "muts_inline"), 2.0);
    EXPECT_EQ(statOf(srv, "deadline_commits"), 0.0);
    EXPECT_EQ(statOf(srv, "epochs_committed"), 1.0);

    c.close();
    srv.stop();
}

/**
 * The eager backend commits every op inside its stage, so no epoch is
 * ever open between requests and the acceptor never stages one.
 */
TEST(ServerBasic, EagerNeverStagesMutationsInline)
{
    const TempDir tmp;
    const std::string &dir = tmp.path;
    ASSERT_FALSE(dir.empty());
    Server srv(oneShardConfig(dir, store::Backend::EagerPerOp, 32, 100000));
    srv.start();
    Client c;
    ASSERT_TRUE(c.connectTo("127.0.0.1", srv.port()));

    for (std::uint64_t k = 0; k < 50; ++k) {
        const auto p = c.put(k, k + 1, 10000);
        ASSERT_TRUE(p && p->status == Status::Ok);
    }
    std::vector<Request> burst;
    for (std::uint64_t k = 0; k < 50; ++k) {
        Request r;
        r.op = k % 5 == 0 ? Op::Del : Op::Put;
        r.id = c.nextId();
        r.key = k;
        r.value = k + 2;
        burst.push_back(r);
    }
    ASSERT_TRUE(c.sendRequests(burst));
    for (std::size_t i = 0; i < burst.size(); ++i) {
        const auto r = c.recvResponse(10000);
        ASSERT_TRUE(r && r->status == Status::Ok);
    }
    EXPECT_EQ(statOf(srv, "mutations"), 100.0);
    EXPECT_EQ(statOf(srv, "muts_inline"), 0.0);

    c.close();
    srv.stop();
}

TEST(ServerBasic, MalformedFrameClosesConnection)
{
    const TempDir tmp;
    const std::string &dir = tmp.path;
    ASSERT_FALSE(dir.empty());
    ServerConfig cfg;
    cfg.dataDir = dir;
    cfg.shards = 1;
    cfg.quiet = true;
    Server srv(cfg);
    srv.start();

    // The Client refuses to encode junk, so drive the malformed
    // paths with a plain socket: the server must close the offending
    // connection (we observe EOF), never crash or over-read.
    const auto rawProbe = [&](const std::vector<std::uint8_t> &bytes) {
        const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
        ASSERT_GE(fd, 0);
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(std::uint16_t(srv.port()));
        ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr),
                  1);
        ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                            sizeof(addr)),
                  0);
        ASSERT_EQ(::write(fd, bytes.data(), bytes.size()),
                  ssize_t(bytes.size()));
        char buf[16];
        struct pollfd pf = {fd, POLLIN, 0};
        ASSERT_GT(::poll(&pf, 1, 10000), 0) << "server never closed";
        EXPECT_EQ(::read(fd, buf, sizeof(buf)), 0) << "expected EOF";
        ::close(fd);
    };

    // Oversized length field.
    rawProbe({0xff, 0xff, 0xff, 0x7f, 0x01, 0x00, 0x00, 0x00});
    // Unknown opcode inside a well-formed frame.
    {
        Request probe;
        probe.op = Op::Stats;
        probe.id = 1;
        std::vector<std::uint8_t> frame;
        encodeRequest(probe, frame);
        frame[4] = 0xee;
        rawProbe(frame);
    }
    // Length/opcode mismatch: GET framed with a PUT-sized payload.
    {
        Request probe;
        probe.op = Op::Put;
        probe.id = 2;
        probe.key = 3;
        probe.value = 4;
        std::vector<std::uint8_t> frame;
        encodeRequest(probe, frame);
        frame[4] = std::uint8_t(Op::Get);
        rawProbe(frame);
    }

    // SCAN with a zero limit inside an otherwise well-formed frame.
    {
        Request probe;
        probe.op = Op::Scan;
        probe.id = 3;
        probe.key = 1;
        probe.limit = 1;
        std::vector<std::uint8_t> frame;
        encodeRequest(probe, frame);
        for (int i = 0; i < 4; ++i)  // limit field at offset 21
            frame[std::size_t(21 + i)] = 0;
        rawProbe(frame);
    }
    // SCAN with a limit past the response cap.
    {
        Request probe;
        probe.op = Op::Scan;
        probe.id = 4;
        probe.key = 1;
        probe.limit = 1;
        std::vector<std::uint8_t> frame;
        encodeRequest(probe, frame);
        const auto big = std::uint32_t(maxScanRecords + 1);
        for (int i = 0; i < 4; ++i)
            frame[std::size_t(21 + i)] = std::uint8_t(big >> (8 * i));
        rawProbe(frame);
    }
    // SCAN truncated to a GET-sized frame (start_key cut short).
    {
        Request probe;
        probe.op = Op::Get;
        probe.id = 5;
        probe.key = 6;
        std::vector<std::uint8_t> frame;
        encodeRequest(probe, frame);
        frame[4] = std::uint8_t(Op::Scan);  // 17-byte SCAN: malformed
        rawProbe(frame);
    }

    // And the server is still healthy for other clients.
    Client again;
    ASSERT_TRUE(again.connectTo("127.0.0.1", srv.port()));
    const auto sr = again.stats(10000);
    ASSERT_TRUE(sr && sr->status == Status::Ok);
    again.close();

    srv.stop();
}

/**
 * An idle worker still patrols its media: sent nothing but STATS
 * reads, an LP shard wakes on its scrub interval and takes a scrub
 * step each time (on a fresh shard's empty journal every step
 * completes a pass). With the interval at 0 it never scrubs.
 */
TEST(ServerBasic, IdleWorkerScrubsOnItsInterval)
{
    {
        const TempDir tmp;
        ASSERT_FALSE(tmp.path.empty());
        ServerConfig cfg =
            oneShardConfig(tmp.path, store::Backend::Lp, 32, 2000);
        cfg.scrubIntervalMs = 1;
        Server srv(cfg);
        srv.start();
        awaitStat(srv, "scrub_passes", 3.0);
        srv.stop();
    }
    const TempDir tmp;
    ASSERT_FALSE(tmp.path.empty());
    Server srv(oneShardConfig(tmp.path, store::Backend::Lp, 32, 2000));
    srv.start();
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    EXPECT_EQ(statOf(srv, "scrub_passes"), 0.0);
    srv.stop();
}

namespace
{

/** A BATCH of maxBatchOps PUTs of keys 0.. with values base + key. */
Request
fullBatch(Client &c, std::uint64_t base)
{
    Request r;
    r.op = Op::Batch;
    r.id = c.nextId();
    for (std::uint64_t k = 0; k < maxBatchOps; ++k)
        r.batch.push_back(BatchOp{true, k, base + k});
    return r;
}

} // namespace

/**
 * A connection's in-flight work is capped in operations: one client
 * pipelines 32 BATCH frames of maxBatchOps PUTs to a one-shard LP
 * server in one write. Each frame reaches the cap on its own, so the
 * acceptor stops reading until its reply is drained; the rest waits
 * in the socket. The worker's queue, polled from a second connection
 * throughout, never holds more than kInflightOpsLimit + maxBatchOps
 * - 1 ops; every frame is acknowledged and the last one's values
 * are what a read finds.
 */
TEST(ServerBasic, PipelinedBatchFloodStaysUnderTheInflightOpsCap)
{
    const TempDir tmp;
    ASSERT_FALSE(tmp.path.empty());
    Server srv(oneShardConfig(tmp.path, store::Backend::Lp, 32, 2000));
    srv.start();

    std::atomic<bool> done{false};
    std::atomic<std::uint64_t> peak{0}, polls{0};
    std::thread poller([&] {
        Client s;
        if (!s.connectTo("127.0.0.1", srv.port()))
            return;
        while (!done.load()) {
            const auto r = s.stats(10000);
            if (!r)
                return;
            std::map<std::string, double> st;
            std::size_t at = 0;
            flattenStats(r->body, at, "", st);
            const auto depth = std::uint64_t(st.at("shard.0.queue_depth"));
            if (depth > peak.load())
                peak.store(depth);
            polls.fetch_add(1);
        }
    });

    Client c;
    ASSERT_TRUE(c.connectTo("127.0.0.1", srv.port()));
    constexpr int kFrames = 32;
    std::vector<Request> flood;
    for (int f = 0; f < kFrames; ++f)
        flood.push_back(fullBatch(c, std::uint64_t(f) << 32));
    ASSERT_TRUE(c.sendRequests(flood));
    for (int f = 0; f < kFrames; ++f) {
        const auto r = c.recvResponse(30000);
        ASSERT_TRUE(r.has_value()) << "frame " << f;
        EXPECT_EQ(r->id, flood[std::size_t(f)].id);
        EXPECT_EQ(r->status, Status::Ok);
    }
    done.store(true);
    poller.join();

    EXPECT_GT(polls.load(), 0u);
    EXPECT_LE(peak.load(), kInflightOpsLimit + maxBatchOps - 1);
    EXPECT_EQ(statOf(srv, "read_pauses_ops"), double(kFrames));
    const std::uint64_t last = std::uint64_t(kFrames - 1) << 32;
    for (std::uint64_t k = 0; k < maxBatchOps; k += 15) {
        const auto g = c.get(k, 10000);
        ASSERT_TRUE(g && g->status == Status::Ok) << "key " << k;
        EXPECT_EQ(g->value, last + k);
    }
    c.close();
    srv.stop();
}

/**
 * A paused connection resumes when its ops are acknowledged, even
 * when nothing but the flush deadline will acknowledge them: one
 * BATCH of maxBatchOps PUTs stages into an epoch twice that size,
 * so its acks wait for the 50 ms deadline commit, and the GET sent
 * behind it is read only after the BATCH is acknowledged.
 */
TEST(ServerBasic, PausedConnectionResumesOnItsDeadlineCommit)
{
    const TempDir tmp;
    ASSERT_FALSE(tmp.path.empty());
    Server srv(oneShardConfig(tmp.path, store::Backend::Lp,
                              int(2 * maxBatchOps), 50000));
    srv.start();

    Client c;
    ASSERT_TRUE(c.connectTo("127.0.0.1", srv.port()));
    Request get;
    get.op = Op::Get;
    get.key = 7;
    const Request batch = fullBatch(c, 1000);
    get.id = c.nextId();
    const auto t0 = std::chrono::steady_clock::now();
    ASSERT_TRUE(c.sendRequests(std::vector<Request>{batch, get}));
    const auto rb = c.recvResponse(10000);
    ASSERT_TRUE(rb.has_value()) << "the paused connection hung";
    EXPECT_EQ(rb->id, batch.id);
    EXPECT_EQ(rb->status, Status::Ok);
    EXPECT_GE(std::chrono::steady_clock::now() - t0,
              std::chrono::milliseconds(50));
    const auto rg = c.recvResponse(10000);
    ASSERT_TRUE(rg.has_value()) << "reading never resumed";
    EXPECT_EQ(rg->id, get.id);
    EXPECT_EQ(rg->status, Status::Ok);
    EXPECT_EQ(rg->value, 1007u);
    EXPECT_EQ(statOf(srv, "read_pauses_ops"), 1.0);
    EXPECT_GE(statOf(srv, "deadline_commits"), 1.0);
    EXPECT_EQ(statOf(srv, "full_commits"), 0.0);
    c.close();
    srv.stop();
}

/**
 * A paused connection stalls only itself: while one client's BATCH
 * holds its connection at the ops cap (its acks wait for a deadline
 * that never comes), a GET on another connection is answered. The
 * stop's drain commit then acknowledges the BATCH.
 */
TEST(ServerBasic, PausedConnectionDoesNotStallOthers)
{
    const TempDir tmp;
    ASSERT_FALSE(tmp.path.empty());
    Server srv(oneShardConfig(tmp.path, store::Backend::Lp,
                              int(2 * maxBatchOps), 600000000));
    srv.start();

    Client a, b;
    ASSERT_TRUE(a.connectTo("127.0.0.1", srv.port()));
    ASSERT_TRUE(b.connectTo("127.0.0.1", srv.port()));
    const Request batch = fullBatch(a, 1000);
    ASSERT_TRUE(a.sendRequest(batch));
    awaitStat(srv, "read_pauses_ops", 1.0);
    const auto g = b.get(maxBatchOps + 1, 10000);
    ASSERT_TRUE(g.has_value()) << "a paused connection stalled another";
    EXPECT_EQ(g->status, Status::NotFound);
    EXPECT_EQ(statOf(srv, "acks_released"), 0.0);

    srv.stop();
    const auto r = a.recvResponse(10000);
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->id, batch.id);
    EXPECT_EQ(r->status, Status::Ok);
    EXPECT_EQ(statOf(srv, "drain_commits"), 1.0);
}
