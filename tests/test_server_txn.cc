/**
 * @file
 * End-to-end transaction tests against a live lp::server: commit and
 * read semantics over the wire on every backend, deterministic
 * wait-die abort surfacing (Status::Aborted), the 4-reader/2-writer
 * isolation stress -- a multi-shard SCAN's k-way merge must never
 * observe a partial transaction, so every scan of the account table
 * sees the exact invariant balance total -- and post-restart checks:
 * committed transactions survive, the stats document reports them,
 * and the reopened server keeps serving transactions.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "server/client.hh"
#include "server/server.hh"
#include "store/layout.hh"
#include "temp_dir.hh"

using namespace lp;
using namespace lp::server;

namespace
{

void
connectToServer(Client &c, const std::string &dataDir)
{
    const int port = waitForPortFile(dataDir, 30000);
    ASSERT_GT(port, 0) << "server did not publish a port";
    ASSERT_TRUE(c.connectTo("127.0.0.1", port));
}

TxnOp
top(TxnOp::Kind k, std::uint64_t key, std::uint64_t value = 0)
{
    TxnOp o;
    o.kind = k;
    o.key = key;
    o.value = value;
    return o;
}

const store::Backend kBackends[] = {store::Backend::Lp,
                                    store::Backend::EagerPerOp,
                                    store::Backend::Wal};

class ServerTxnBackends
    : public ::testing::TestWithParam<store::Backend>
{
};

/**
 * Wire-level semantics on every backend: read-your-writes inside the
 * transaction, Add resolution, cross-shard atomicity, and values
 * visible to plain GETs afterwards.
 */
TEST_P(ServerTxnBackends, CommitsAndReadsOverTheWire)
{
    const TempDir tmp("lpserver-txn");
    const std::string &dir = tmp.path;
    ServerConfig cfg;
    cfg.dataDir = dir;
    cfg.shards = 4;
    cfg.backend = GetParam();
    cfg.quiet = true;
    Server srv(cfg);
    srv.start();

    Client c;
    connectToServer(c, dir);

    // Keys 1..8 land on several shards (routeShard hashes), so this
    // exercises both commit paths across the backends.
    auto res = c.txn({top(TxnOp::Kind::Get, 1),
                      top(TxnOp::Kind::Put, 1, 10),
                      top(TxnOp::Kind::Get, 1),
                      top(TxnOp::Kind::Add, 2, 5),
                      top(TxnOp::Kind::Put, 3, 30),
                      top(TxnOp::Kind::Del, 3),
                      top(TxnOp::Kind::Get, 3)});
    ASSERT_TRUE(res.has_value());
    ASSERT_EQ(res->status, Status::Ok);
    ASSERT_EQ(res->reads.size(), 3u);
    EXPECT_FALSE(res->reads[0].found);  // pre-state
    EXPECT_TRUE(res->reads[1].found);   // own write
    EXPECT_EQ(res->reads[1].value, 10u);
    EXPECT_FALSE(res->reads[2].found);  // own delete

    const auto g1 = c.get(1);
    ASSERT_TRUE(g1 && g1->status == Status::Ok);
    EXPECT_EQ(g1->value, 10u);
    const auto g2 = c.get(2);
    ASSERT_TRUE(g2 && g2->status == Status::Ok);
    EXPECT_EQ(g2->value, 5u);
    const auto g3 = c.get(3);
    ASSERT_TRUE(g3 && g3->status == Status::NotFound);

    // Read-only transaction: consistent snapshot of both keys.
    auto ro = c.txn({top(TxnOp::Kind::Get, 1),
                     top(TxnOp::Kind::Get, 2)});
    ASSERT_TRUE(ro && ro->status == Status::Ok);
    ASSERT_EQ(ro->reads.size(), 2u);
    EXPECT_EQ(ro->reads[0].value, 10u);
    EXPECT_EQ(ro->reads[1].value, 5u);

    srv.stop();
}

TEST_P(ServerTxnBackends, OutOfRangeKeyIsRejected)
{
    const TempDir tmp("lpserver-txn");
    const std::string &dir = tmp.path;
    ServerConfig cfg;
    cfg.dataDir = dir;
    cfg.shards = 2;
    cfg.backend = GetParam();
    cfg.quiet = true;
    Server srv(cfg);
    srv.start();

    Client c;
    connectToServer(c, dir);
    auto res = c.txn({top(TxnOp::Kind::Put, ~std::uint64_t(0), 1)});
    ASSERT_TRUE(res.has_value());
    EXPECT_EQ(res->status, Status::Err);
    srv.stop();
}

INSTANTIATE_TEST_SUITE_P(AllBackends, ServerTxnBackends,
                         ::testing::ValuesIn(kBackends),
                         [](const auto &info) {
                             return store::backendName(info.param);
                         });

/**
 * Deterministic wait-die abort: a fast-path transaction holds its
 * write locks until its epoch commits, which a huge flush deadline
 * pins far in the future; a second (younger) transaction on the same
 * key must die with Status::Aborted, and a backoff client must count
 * the abort and eventually commit once the first ack releases.
 */
TEST(ServerTxnAbort, YoungerTxnDiesAndBackoffRecovers)
{
    const TempDir tmp("lpserver-txn");
    const std::string &dir = tmp.path;
    ServerConfig cfg;
    cfg.dataDir = dir;
    cfg.shards = 1;
    cfg.backend = store::Backend::Lp;
    cfg.batchOps = 64;
    cfg.flushDeadlineUs = 1500000;  // locks held ~1.5s
    cfg.quiet = true;
    Server srv(cfg);
    srv.start();

    Client holder, contender;
    connectToServer(holder, dir);
    connectToServer(contender, dir);

    // The holder's txn stages one write and then waits for its epoch;
    // send without receiving so the lock window stays open.
    Request r;
    r.op = Op::Txn;
    r.id = 1;
    r.txn = {top(TxnOp::Kind::Put, 42, 7)};
    ASSERT_TRUE(holder.sendRequest(r));
    std::this_thread::sleep_for(std::chrono::milliseconds(200));

    // Younger txn on the same key: wait-die says die.
    auto aborted = contender.txn({top(TxnOp::Kind::Add, 42, 1)});
    ASSERT_TRUE(aborted.has_value());
    EXPECT_EQ(aborted->status, Status::Aborted);

    // Backoff path: first attempt aborts again (still inside the
    // window), later ones land after the deadline flush releases.
    RetryPolicy policy;
    policy.maxAttempts = 40;
    policy.baseDelayUs = 50000;
    policy.capDelayUs = 200000;
    auto res = contender.txnBackoff({top(TxnOp::Kind::Add, 42, 1)},
                                    policy, 5000);
    ASSERT_TRUE(res.has_value());
    EXPECT_EQ(res->status, Status::Ok);
    EXPECT_GE(contender.retryCounters().aborts, 1u);

    const auto held = holder.recvResponse(10000);
    ASSERT_TRUE(held.has_value());
    EXPECT_EQ(held->status, Status::Ok);

    const auto g = contender.get(42);
    ASSERT_TRUE(g && g->status == Status::Ok);
    EXPECT_EQ(g->value, 8u);  // 7 put + 1 add
    srv.stop();
}

/**
 * The isolation stress plus post-restart checks (one server lifetime
 * feeding the next): 2 writer threads shuffle balance between 64
 * accounts with cross-shard transfer transactions while 4 reader
 * threads continuously SCAN the whole table. Shards partition the key
 * space, so a SCAN is a fan-out + k-way merge across every worker; if
 * it ever observed half a transfer, the scanned total would drift off
 * the invariant. Afterwards the server restarts from the same dataDir
 * and the balances -- and new transactions -- must still be intact.
 */
TEST(ServerTxnIsolation, ScansNeverSeePartialTransfers)
{
    const TempDir tmp("lpserver-txn");
    const std::string &dir = tmp.path;
    ServerConfig cfg;
    cfg.dataDir = dir;
    cfg.shards = 4;
    cfg.backend = store::Backend::Lp;
    cfg.quiet = true;

    constexpr std::uint64_t kAccounts = 64;
    constexpr std::uint64_t kInitial = 1000;
    constexpr std::uint64_t kTotal = kAccounts * kInitial;
    constexpr int kTransfersPerWriter = 150;

    {
        Server srv(cfg);
        srv.start();

        {
            Client init;
            connectToServer(init, dir);
            for (std::uint64_t k = 1; k <= kAccounts; ++k) {
                const auto p = init.putBackoff(k, kInitial);
                ASSERT_TRUE(p && p->status == Status::Ok);
            }
        }

        std::atomic<bool> writersDone{false};
        std::atomic<int> scanViolations{0};
        std::atomic<std::uint64_t> scansRun{0};
        std::atomic<bool> failed{false};

        std::vector<std::thread> readers;
        for (int t = 0; t < 4; ++t) {
            readers.emplace_back([&, t] {
                Client c;
                const int port = waitForPortFile(dir, 30000);
                if (port <= 0 || !c.connectTo("127.0.0.1", port)) {
                    failed.store(true);
                    return;
                }
                while (!writersDone.load(std::memory_order_acquire)) {
                    const auto recs = c.scan(0, kAccounts + 8, 10000);
                    if (!recs) {
                        failed.store(true);
                        return;
                    }
                    std::uint64_t sum = 0;
                    for (const auto &rec : *recs)
                        sum += rec.value;
                    if (recs->size() != kAccounts || sum != kTotal)
                        scanViolations.fetch_add(1);
                    scansRun.fetch_add(1);
                    (void)t;
                }
            });
        }

        std::vector<std::thread> writers;
        for (int t = 0; t < 2; ++t) {
            writers.emplace_back([&, t] {
                Client c;
                const int port = waitForPortFile(dir, 30000);
                if (port <= 0 || !c.connectTo("127.0.0.1", port)) {
                    failed.store(true);
                    return;
                }
                RetryPolicy policy;
                policy.maxAttempts = 64;
                std::uint64_t seed = 0x9e37 + std::uint64_t(t);
                for (int i = 0; i < kTransfersPerWriter; ++i) {
                    seed = seed * 6364136223846793005ull + 1442695ull;
                    const std::uint64_t a = 1 + (seed >> 33) % kAccounts;
                    std::uint64_t b = 1 + (seed >> 13) % kAccounts;
                    if (b == a)
                        b = 1 + b % kAccounts;
                    const std::uint64_t amt = 1 + (seed >> 50) % 7;
                    // Transfer: atomic or not at all. Retry until it
                    // commits so the expected total stays exact.
                    for (;;) {
                        const auto res = c.txnBackoff(
                            {top(TxnOp::Kind::Add, a,
                                 std::uint64_t(0) - amt),
                             top(TxnOp::Kind::Add, b, amt)},
                            policy, 10000);
                        if (res && res->status == Status::Ok)
                            break;
                        if (!res) {  // connection lost: test over
                            failed.store(true);
                            return;
                        }
                    }
                }
            });
        }

        for (auto &th : writers)
            th.join();
        writersDone.store(true, std::memory_order_release);
        for (auto &th : readers)
            th.join();

        ASSERT_FALSE(failed.load()) << "a client lost its connection";
        EXPECT_EQ(scanViolations.load(), 0)
            << "a SCAN observed a partial transaction";
        EXPECT_GT(scansRun.load(), 0u);

        // Final ground truth through point GETs.
        Client c;
        connectToServer(c, dir);
        std::uint64_t sum = 0;
        for (std::uint64_t k = 1; k <= kAccounts; ++k) {
            const auto g = c.get(k);
            ASSERT_TRUE(g && g->status == Status::Ok);
            sum += g->value;
        }
        EXPECT_EQ(sum, kTotal) << "transfers minted/destroyed money";

        // The stats document reports transaction traffic.
        const auto st = c.stats();
        ASSERT_TRUE(st && st->status == Status::Ok);
        EXPECT_NE(st->body.find("\"txn_commits\""), std::string::npos);

        srv.stop();
    }

    // Restart from the same dataDir: committed transfers survive a
    // graceful shutdown (checkpoint + markClean), recovery reports no
    // in-flight transactions, and the server keeps serving them.
    {
        Server srv(cfg);
        srv.start();
        EXPECT_EQ(srv.recovery().txnRolledForward, 0u);
        EXPECT_EQ(srv.recovery().txnRolledBack, 0u);

        Client c;
        connectToServer(c, dir);
        std::uint64_t sum = 0;
        for (std::uint64_t k = 1; k <= kAccounts; ++k) {
            const auto g = c.get(k);
            ASSERT_TRUE(g && g->status == Status::Ok);
            sum += g->value;
        }
        EXPECT_EQ(sum, kTotal) << "restart lost committed transfers";

        const auto res = c.txn({top(TxnOp::Kind::Add, 1,
                                    std::uint64_t(0) - 5),
                                top(TxnOp::Kind::Add, 2, 5),
                                top(TxnOp::Kind::Get, 1)});
        ASSERT_TRUE(res && res->status == Status::Ok);
        srv.stop();
    }
}

/**
 * One number of @p srv's STATS document: a top-level key, or (with
 * @p shard >= 0) a key of that shard's flat object.
 */
double
statOf(Server &srv, const std::string &field, int shard = -1)
{
    std::string json = srv.statsJson();
    const std::size_t shards = json.find("\"shard\":{");
    std::size_t from = 0;
    if (shard >= 0)
        from = json.find("\"" + std::to_string(shard) + "\":{", shards);
    else  // a total: cut out the shard objects, which repeat its key
        json.erase(shards, json.find("}}", shards) + 2 - shards);
    const std::string tag = "\"" + field + "\":";
    const std::size_t at = json.find(tag, from);
    EXPECT_NE(at, std::string::npos) << field;
    return at == std::string::npos
               ? -1.0
               : std::stod(json.substr(at + tag.size()));
}

/**
 * A plain PUT to a key under a prepared but unapplied transaction
 * part must wait for the apply: staged before it, the apply of the
 * already-resolved write-set would overwrite it. So the acceptor
 * does not stage it inline either, although the shard is idle with
 * an epoch open. A two-shard TXN writes a (shard 0) and b (shard 1);
 * its shard-1 part sits behind a deep BATCH backlog, so its shard-0
 * part stays prepared while PUT a arrives. PUT a queues, defers
 * behind the apply, and is the value that stays. The backlog comes
 * from other connections, one frame each: a connection stops being
 * read at kInflightOpsLimit ops in flight, so on the TXN's own
 * connection PUT a would be read only once the backlog drained.
 */
TEST(ServerTxnInline, PutUnderAPreparedPartIsNotStagedInline)
{
    const TempDir tmp("lpserver-txn");
    const std::string &dir = tmp.path;
    ServerConfig cfg;
    cfg.dataDir = dir;
    cfg.shards = 2;
    cfg.backend = store::Backend::Lp;
    cfg.batchOps = 64;
    cfg.flushDeadlineUs = 1000000;
    cfg.scrubIntervalMs = 0;
    cfg.quiet = true;
    Server srv(cfg);
    srv.start();

    std::vector<std::uint64_t> onShard[2];
    for (std::uint64_t k = 1; onShard[0].size() < 2 || onShard[1].size() < 65;
         ++k)
        onShard[store::shardOfKey(k, 2)].push_back(k);
    const std::uint64_t opener = onShard[0][0];
    const std::uint64_t a = onShard[0][1];
    const std::uint64_t b = onShard[1][0];

    Client c;
    connectToServer(c, dir);
    std::vector<std::uint64_t> ids;
    // Open an epoch on shard 0 and let its worker go back to sleep.
    Request open;
    open.op = Op::Put;
    open.id = c.nextId();
    open.key = opener;
    open.value = 7;
    ids.push_back(open.id);
    ASSERT_TRUE(c.sendRequest(open));
    const auto until =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (statOf(srv, "mutations", 0) < 1.0) {
        ASSERT_LT(std::chrono::steady_clock::now(), until);
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    const double wakes0 = statOf(srv, "worker_wakeups", 0);

    // The backlog on shard 1, then the TXN.
    std::vector<Client> flood(16);
    std::vector<std::uint64_t> floodIds;
    for (Client &f : flood) {
        connectToServer(f, dir);
        Request r;
        r.op = Op::Batch;
        r.id = f.nextId();
        for (std::size_t j = 0; j < maxBatchOps; ++j)
            r.batch.push_back(BatchOp{true, onShard[1][1 + j % 64], j});
        floodIds.push_back(r.id);
        ASSERT_TRUE(f.sendRequest(r));
    }
    // Each flood connection pauses once its frame is routed: only
    // then is the whole backlog queued ahead of the TXN.
    while (statOf(srv, "read_pauses_ops") < double(flood.size())) {
        ASSERT_LT(std::chrono::steady_clock::now(), until);
        std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    Request t;
    t.op = Op::Txn;
    t.id = c.nextId();
    t.txn = {top(TxnOp::Kind::Put, a, 1), top(TxnOp::Kind::Put, b, 1)};
    ids.push_back(t.id);
    ASSERT_TRUE(c.sendRequest(t));

    // Shard 0's worker prepared its part and went back to sleep.
    while (statOf(srv, "worker_wakeups", 0) < wakes0 + 1.0) {
        ASSERT_LT(std::chrono::steady_clock::now(), until);
        std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    Request put;
    put.op = Op::Put;
    put.id = c.nextId();
    put.key = a;
    put.value = 2;
    ids.push_back(put.id);
    ASSERT_TRUE(c.sendRequest(put));
    // A GET behind it: once it is answered, PUT a has been routed,
    // and a non-empty shard-1 queue then says the TXN was undecided.
    Request probe;
    probe.op = Op::Get;
    probe.id = c.nextId();
    probe.key = opener;
    ASSERT_TRUE(c.sendRequest(probe));
    std::set<std::uint64_t> left(ids.begin(), ids.end());
    for (;;) {
        const auto r = c.recvResponse(10000);
        ASSERT_TRUE(r.has_value());
        if (r->id == probe.id)
            break;
        EXPECT_EQ(r->status, Status::Ok) << "request " << r->id;
        left.erase(r->id);
    }
    EXPECT_GT(statOf(srv, "queue_depth", 1), 0.0)
        << "the backlog drained before PUT a arrived";
    while (!left.empty()) {
        const auto r = c.recvResponse(10000);
        ASSERT_TRUE(r.has_value());
        EXPECT_EQ(r->status, Status::Ok) << "request " << r->id;
        left.erase(r->id);
    }
    for (std::size_t i = 0; i < flood.size(); ++i) {
        const auto r = flood[i].recvResponse(10000);
        ASSERT_TRUE(r.has_value());
        EXPECT_EQ(r->id, floodIds[i]);
        EXPECT_EQ(r->status, Status::Ok) << "flood frame " << i;
        flood[i].close();
    }

    EXPECT_EQ(statOf(srv, "muts_inline"), 0.0);
    const auto ga = c.get(a, 10000);
    ASSERT_TRUE(ga && ga->status == Status::Ok);
    EXPECT_EQ(ga->value, 2u) << "the TXN apply overwrote a later PUT";
    const auto gb = c.get(b, 10000);
    ASSERT_TRUE(gb && gb->status == Status::Ok);
    EXPECT_EQ(gb->value, 1u);
    c.close();
    srv.stop();
}

/** Poll @p srv's STATS until @p field (of @p shard, or the total)
 *  reaches @p atLeast; false after 10 s. */
bool
waitForStat(Server &srv, const std::string &field, double atLeast,
            int shard = -1)
{
    const auto until =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (statOf(srv, field, shard) < atLeast) {
        if (std::chrono::steady_clock::now() > until)
            return false;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return true;
}

/** A two-shard server and two keys on shard 0, one on shard 1. */
struct TwoShards
{
    TempDir tmp{"lpserver-txn"};
    ServerConfig cfg;
    std::unique_ptr<Server> srv;
    Client c;
    std::uint64_t a0 = 0, a1 = 0, b = 0;

    TwoShards()
    {
        cfg.dataDir = tmp.path;
        cfg.shards = 2;
        cfg.backend = store::Backend::Lp;
        cfg.scrubIntervalMs = 0;
        cfg.quiet = true;
        srv = std::make_unique<Server>(cfg);
        srv->start();
        std::vector<std::uint64_t> onShard[2];
        for (std::uint64_t k = 1;
             onShard[0].size() < 2 || onShard[1].empty(); ++k)
            onShard[store::shardOfKey(k, 2)].push_back(k);
        a0 = onShard[0][0];
        a1 = onShard[0][1];
        b = onShard[1][0];
    }

    ~TwoShards() { srv->stop(); }
};

/**
 * acks_released counts released pending entries: one per fast-path
 * TXN and one per applied TXN part, however many writes each stages
 * (those are what mutations counts).
 */
TEST(ServerTxnStats, AcksReleasedCountsOnePerTxnPart)
{
    TwoShards t;
    connectToServer(t.c, t.tmp.path);
    Server &srv = *t.srv;

    // Fast path: two writes on shard 0.
    auto res = t.c.txn({top(TxnOp::Kind::Put, t.a0, 1),
                        top(TxnOp::Kind::Put, t.a1, 2)});
    ASSERT_TRUE(res && res->status == Status::Ok);
    ASSERT_TRUE(waitForStat(srv, "acks_released", 1.0, 0));
    EXPECT_EQ(statOf(srv, "mutations", 0), 2.0);
    EXPECT_EQ(statOf(srv, "acks_released", 0), 1.0);
    EXPECT_EQ(statOf(srv, "mutations", 1), 0.0);
    EXPECT_EQ(statOf(srv, "acks_released", 1), 0.0);

    // General path: two writes on shard 0, one on shard 1. The reply
    // goes out at the decision; the applies follow it.
    res = t.c.txn({top(TxnOp::Kind::Add, t.a0, 1),
                   top(TxnOp::Kind::Add, t.a1, 1),
                   top(TxnOp::Kind::Put, t.b, 3)});
    ASSERT_TRUE(res && res->status == Status::Ok);
    ASSERT_TRUE(waitForStat(srv, "acks_released", 2.0, 0));
    ASSERT_TRUE(waitForStat(srv, "acks_released", 1.0, 1));
    EXPECT_EQ(statOf(srv, "mutations", 0), 4.0);
    EXPECT_EQ(statOf(srv, "acks_released", 0), 2.0);
    EXPECT_EQ(statOf(srv, "mutations", 1), 1.0);
    EXPECT_EQ(statOf(srv, "acks_released", 1), 1.0);
    EXPECT_EQ(statOf(srv, "acks_released"), 3.0);
    t.c.close();
}

/**
 * The single path rule (txn::fastPath), served side: a TXN that reads
 * shard 1 and writes shard 0 commits on the general path, so the
 * acceptor counts it and no shard does.
 */
TEST(ServerTxnStats, ReadOnASecondShardCommitsOnTheGeneralPath)
{
    TwoShards t;
    connectToServer(t.c, t.tmp.path);
    Server &srv = *t.srv;
    const auto shardCommits = [&] {
        return statOf(srv, "txn_commits", 0) +
               statOf(srv, "txn_commits", 1);
    };
    const double total0 = statOf(srv, "txn_commits");
    const double shards0 = shardCommits();

    const auto res = t.c.txn({top(TxnOp::Kind::Get, t.b),
                              top(TxnOp::Kind::Put, t.a0, 7)});
    ASSERT_TRUE(res && res->status == Status::Ok);
    ASSERT_TRUE(waitForStat(srv, "txn_commits", total0 + 1.0));
    EXPECT_EQ(statOf(srv, "txn_commits"), total0 + 1.0);
    EXPECT_EQ(shardCommits(), shards0);
    const auto g = t.c.get(t.a0);
    ASSERT_TRUE(g && g->status == Status::Ok);
    EXPECT_EQ(g->value, 7u);
    t.c.close();
}

/**
 * The decision seq never runs backwards: a restart whose decision
 * ring has lost every entry (zeroed here, as media rot could leave
 * it) while both shards already applied decision 1 must still hand
 * the next general-path TXN a seq above it. A reused seq would fence
 * and acknowledge, then trip the shard's seq-order check on apply.
 */
TEST(ServerTxnRestart, LostRingEntriesDoNotRewindTheDecisionSeq)
{
    const TempDir tmp("lpserver-txn");
    ServerConfig cfg;
    cfg.dataDir = tmp.path;
    cfg.shards = 2;
    cfg.backend = store::Backend::Lp;
    cfg.scrubIntervalMs = 0;
    cfg.quiet = true;
    std::uint64_t a = 1, b = 2;
    while (store::shardOfKey(b, 2) == store::shardOfKey(a, 2))
        ++b;
    const auto transfer = [&](std::uint64_t va, std::uint64_t vb) {
        return std::vector<TxnOp>{top(TxnOp::Kind::Put, a, va),
                                  top(TxnOp::Kind::Put, b, vb)};
    };
    {
        Server srv(cfg);
        srv.start();
        Client c;
        connectToServer(c, tmp.path);
        const auto res = c.txn(transfer(10, 20));
        ASSERT_TRUE(res && res->status == Status::Ok);
        srv.stop();  // graceful: both parts durable
    }
    {
        const std::string ring = tmp.path + "/txnlog.lpdb";
        std::FILE *f = std::fopen(ring.c_str(), "r+b");
        ASSERT_NE(f, nullptr);
        std::fseek(f, 0, SEEK_END);
        const std::vector<char> zeros(std::size_t(std::ftell(f)), 0);
        std::rewind(f);
        ASSERT_EQ(std::fwrite(zeros.data(), 1, zeros.size(), f),
                  zeros.size());
        std::fclose(f);
    }
    {
        Server srv(cfg);
        srv.start();
        Client c;
        connectToServer(c, tmp.path);
        const auto res = c.txn(transfer(11, 21));
        ASSERT_TRUE(res && res->status == Status::Ok);
        srv.stop();
    }
    Server srv(cfg);
    srv.start();
    EXPECT_EQ(srv.recovery().txnRolledBack, 0u);
    Client c;
    connectToServer(c, tmp.path);
    const auto ga = c.get(a);
    const auto gb = c.get(b);
    ASSERT_TRUE(ga && ga->status == Status::Ok);
    ASSERT_TRUE(gb && gb->status == Status::Ok);
    EXPECT_EQ(ga->value, 11u);
    EXPECT_EQ(gb->value, 21u);
    srv.stop();
}

} // namespace
