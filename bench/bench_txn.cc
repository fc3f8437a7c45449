/**
 * @file
 * Bank-transfer / TPC-C-new-order-style evaluation of lp::txn for
 * the three persistency backends, in two tiers:
 *
 *  1. Embedded commit latency (TxnKv over NativeEnv, wall clock):
 *     fixed-size transfer transactions, single-shard vs. cross-shard
 *     routing. Latency is coordinated-omission-aware: transactions
 *     are issued against a fixed arrival schedule (a fraction of the
 *     backend's own calibrated closed-loop rate) and each commit is
 *     timed from its SCHEDULED start, so a fold or WAL-flush pause
 *     inflates every transaction queued behind it instead of
 *     silently thinning the sample. The paper's headline must
 *     survive the protocol: single-shard transactions ride the fast
 *     path (one lazily-persisted epoch, no decision record), so LP's
 *     commit latency stays well under WAL's; cross-shard
 *     transactions pay the general path on every backend: one
 *     decision append carrying the write-set (one fence), then each
 *     participant's lazy apply with its Applied record.
 *
 *  2. Server contention (TXN opcode over TCP): concurrent clients
 *     run zipfian-skewed transfers through Client::txnBackoff
 *     against an in-process server, reporting throughput and the
 *     wait-die abort rate from the aggregated client RetryCounters
 *     (attempts / retries / aborts / backoff) -- the loadgen-side
 *     view of the same counters the server exports via STATS.
 *
 * Every run verifies conservation: sum(balances) after == before
 * (transfers are wrapping Add pairs of +amt / -amt). Writes the full
 * grid to BENCH_txn.json (or argv[1]).
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "base/logging.hh"
#include "base/rng.hh"
#include "bench/common.hh"
#include "kernels/env.hh"
#include "obs/histogram.hh"
#include "pmem/arena.hh"
#include "server/client.hh"
#include "server/server.hh"
#include "stats/json.hh"
#include "stats/table.hh"
#include "store/ycsb.hh"
#include "txn/txn_kv.hh"

using namespace lp;
using namespace lp::store;

namespace
{

using Clock = std::chrono::steady_clock;
using NativeTxnKv = txn::TxnKv<kernels::NativeEnv>;
using SimTxnKv = txn::TxnKv<kernels::SimEnv>;
using TxnOpE = NativeTxnKv::Op;

/** One transfer of the deterministic workload tape. */
struct Transfer
{
    std::uint64_t src, dst, amt;
};

/**
 * Deterministic transfer tape: zipfian source account, destination
 * steered to the same shard (@p crossShard false) or a different
 * one. Both tiers replay the same tape, so the simulated and native
 * runs commit identical transactions.
 */
std::vector<Transfer>
buildTape(std::uint64_t accounts, int shards, std::uint64_t txns,
          bool crossShard, double theta, std::uint64_t seed)
{
    std::vector<std::vector<std::uint64_t>> byShard;
    byShard.resize(std::size_t(shards));
    for (std::uint64_t k = 0; k < accounts; ++k)
        byShard[std::size_t(store::shardOfKey(k, shards))].push_back(k);

    std::vector<Transfer> tape;
    tape.reserve(txns);
    Rng rng(seed);
    ZipfianGen zipf(accounts, theta);
    for (std::uint64_t i = 0; i < txns; ++i) {
        const std::uint64_t src = zipf.next(rng) % accounts;
        const int srcShard = store::shardOfKey(src, shards);
        int dstShard = srcShard;
        if (crossShard)
            dstShard =
                (srcShard + 1 +
                 int(rng.below(std::uint64_t(shards - 1)))) %
                shards;
        const auto &pool = byShard[std::size_t(dstShard)];
        std::uint64_t dst = pool[rng.below(pool.size())];
        if (dst == src)
            dst = pool[(rng.below(pool.size()) + 1) % pool.size()];
        tape.push_back(Transfer{src, dst, 1 + rng.below(16)});
    }
    return tape;
}

std::uint64_t
nowNsSince(Clock::time_point t0)
{
    return std::uint64_t(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now() - t0)
            .count());
}

/** One transfer: debit src by amt (wrapping), credit dst. */
template <typename Kv>
std::vector<typename Kv::Op>
transferOps(std::uint64_t src, std::uint64_t dst, std::uint64_t amt)
{
    using O = typename Kv::Op;
    return {O{O::Kind::Add, src, ~amt + 1},
            O{O::Kind::Add, dst, amt}};
}

/** Sum of every account balance (embedded tier). */
std::uint64_t
balanceSum(kernels::NativeEnv &env, NativeTxnKv &txn,
           std::uint64_t accounts)
{
    std::uint64_t sum = 0;
    for (std::uint64_t k = 0; k < accounts; ++k)
        sum += txn.kv().get(env, k).value_or(0);
    return sum;
}

struct EmbeddedResult
{
    double closedLoopTps = 0.0;  ///< calibration, back-to-back
    obs::Histogram::Summary lat; ///< scheduled-start commit latency
    double scheduledRate = 0.0;
    bool verified = false;
};

/**
 * Run @p txns transfers. @p crossShard picks dst from a different
 * shard than src; otherwise from the same shard (fast path for
 * batching backends). First a closed-loop calibration run measures
 * the attainable rate, then the timed run replays a fresh schedule
 * at @p loadFrac of it and records omission-aware latency.
 */
EmbeddedResult
runEmbedded(Backend b, std::uint64_t accounts, std::uint64_t txns,
            bool crossShard, double theta, double loadFrac)
{
    NativeTxnKv::Config tcfg;
    tcfg.store.shards = 4;
    const std::uint64_t initBalance = 1000;

    const auto freshState = [&](pmem::PersistentArena &arena,
                                kernels::NativeEnv &env)
        -> std::unique_ptr<NativeTxnKv> {
        auto t = std::make_unique<NativeTxnKv>(arena, tcfg, b);
        arena.persistAll();
        for (std::uint64_t k = 0; k < accounts; ++k)
            t->kv().put(env, k, initBalance);
        t->checkpoint(env);
        return t;
    };

    const std::vector<Transfer> tape =
        buildTape(accounts, tcfg.store.shards, txns, crossShard,
                  theta, 0x5eedULL);

    EmbeddedResult out;

    // Calibration: closed loop, as fast as the backend commits.
    {
        pmem::PersistentArena arena(NativeTxnKv::arenaBytes(tcfg));
        kernels::NativeEnv env;
        auto t = freshState(arena, env);
        const auto t0 = Clock::now();
        for (const Transfer &tr : tape)
            (void)t->run(env,
                         transferOps<NativeTxnKv>(tr.src, tr.dst, tr.amt));
        const double secs = double(nowNsSince(t0)) / 1e9;
        out.closedLoopTps =
            secs == 0.0 ? 0.0 : double(txns) / secs;
    }

    // Timed runs: fixed arrival schedule at loadFrac of the
    // calibrated rate; latency from scheduled start, never later.
    // Wall-clock percentiles on a shared machine are hostage to
    // scheduler preemption -- one stall inflates every transaction
    // queued behind it, by design of the omission-aware schedule --
    // so run three trials (each after an unmeasured warmup prefix)
    // and report the median-p50 trial.
    // Cap the arrival rate well under capacity: omission-aware
    // latency needs enough headroom that a scheduler preemption
    // drains in microseconds instead of poisoning the rest of the
    // schedule, and the interesting signal (batch-commit and fold
    // pauses surfacing in the tail) survives at any rate.
    out.scheduledRate =
        std::min(out.closedLoopTps * loadFrac, 64000.0);
    const double periodNs =
        out.scheduledRate == 0.0 ? 0.0 : 1e9 / out.scheduledRate;
    const std::uint64_t warm = std::min<std::uint64_t>(
        txns / 4, 1024);
    struct Trial
    {
        obs::Histogram::Summary lat;
        bool verified;
    };
    std::vector<Trial> trials;
    for (int trial = 0; trial < 3; ++trial) {
        pmem::PersistentArena arena(NativeTxnKv::arenaBytes(tcfg));
        kernels::NativeEnv env;
        auto t = freshState(arena, env);
        // Warmup: page in the arena and settle the batch cadence.
        // Transfers conserve the sum, so the verification below
        // still holds.
        for (std::uint64_t i = 0; i < warm; ++i)
            (void)t->run(env, transferOps<NativeTxnKv>(tape[i].src, tape[i].dst,
                                          tape[i].amt));
        obs::Histogram lat;
        const auto t0 = Clock::now();
        for (std::uint64_t i = 0; i < txns; ++i) {
            const std::uint64_t schedNs =
                std::uint64_t(double(i) * periodNs);
            while (nowNsSince(t0) < schedNs) {
            }  // spin: arrivals are scheduled, not self-paced
            const Transfer &tr = tape[i];
            (void)t->run(env,
                         transferOps<NativeTxnKv>(tr.src, tr.dst, tr.amt));
            const std::uint64_t done = nowNsSince(t0);
            lat.record(done > schedNs ? done - schedNs : 0);
        }
        trials.push_back(Trial{
            lat.summary(), balanceSum(env, *t, accounts) ==
                               accounts * initBalance});
    }
    std::sort(trials.begin(), trials.end(),
              [](const Trial &a, const Trial &b) {
                  return a.lat.p50Ns < b.lat.p50Ns;
              });
    out.lat = trials[1].lat;
    out.verified = trials[0].verified && trials[1].verified &&
                   trials[2].verified;
    return out;
}

struct SimResult
{
    obs::Histogram::Summary lat;  ///< per-txn simulated ns
    double txnPerSec = 0.0;       ///< at simulated clock
    bool verified = false;
};

/**
 * The deterministic tier: the same tape under the scaled Table II
 * machine, per-transaction latency measured as the exec-cycle delta
 * of each run() call. This is where the paper's cost model lives
 * (NVMM write latency, flush serialization), so the LP-vs-WAL
 * single-shard headline is judged here, immune to host noise: LP's
 * fast path stages plain stores while WAL's batch commit flushes
 * log lines inline.
 */
SimResult
runSim(Backend b, std::uint64_t accounts, std::uint64_t txns,
       bool crossShard, double theta)
{
    SimTxnKv::Config tcfg;
    tcfg.store.shards = 4;
    const std::uint64_t initBalance = 1000;
    const auto mcfg = bench::paperMachine(1);

    kernels::SimContext ctx(mcfg, SimTxnKv::arenaBytes(tcfg));
    SimTxnKv t(ctx.arena, tcfg, b);
    ctx.arena.persistAll();
    kernels::SimEnv env(ctx.machine, ctx.arena, 0);

    for (std::uint64_t k = 0; k < accounts; ++k)
        t.kv().put(env, k, initBalance);
    t.checkpoint(env);

    const std::vector<Transfer> tape =
        buildTape(accounts, tcfg.store.shards, txns, crossShard,
                  theta, 0x5eedULL);

    const double nsPerCycle = 1.0 / sim::kClockGhz;
    obs::Histogram lat;
    const double c0 = double(ctx.machine.execCycles());
    for (const Transfer &tr : tape) {
        const double a = double(ctx.machine.execCycles());
        (void)t.run(env, transferOps<SimTxnKv>(tr.src, tr.dst, tr.amt));
        const double z = double(ctx.machine.execCycles());
        lat.record(std::uint64_t((z - a) * nsPerCycle));
    }
    const double totalNs =
        (double(ctx.machine.execCycles()) - c0) * nsPerCycle;

    SimResult out;
    out.lat = lat.summary();
    out.txnPerSec =
        totalNs == 0.0 ? 0.0 : double(txns) * 1e9 / totalNs;
    std::uint64_t sum = 0;
    for (std::uint64_t k = 0; k < accounts; ++k)
        sum += t.kv().get(env, k).value_or(0);
    out.verified = sum == accounts * initBalance;
    return out;
}

/// @name Server contention tier
/// @{

constexpr int kServerShards = 4;
constexpr int kServerClients = 4;
constexpr std::uint64_t kServerAccounts = 256;
constexpr std::uint64_t kTransfersPerClient = 512;
constexpr std::uint64_t kInitBalance = 1000;

struct ServerTierResult
{
    double tps = 0.0;
    double abortRate = 0.0;
    server::RetryCounters counters;
    std::uint64_t commits = 0;
    std::uint64_t failures = 0;
    bool verified = false;
};

ServerTierResult
runServerTier(Backend b, double theta)
{
    char tmpl[] = "/tmp/lp-bench-txn-XXXXXX";
    const char *dir = mkdtemp(tmpl);
    if (dir == nullptr)
        fatal("mkdtemp failed");

    server::ServerConfig cfg;
    cfg.dataDir = dir;
    cfg.shards = kServerShards;
    cfg.backend = b;
    cfg.quiet = true;
    server::Server srv(cfg);
    srv.start();

    ServerTierResult out;
    {
        server::Client init;
        if (!init.connectTo(cfg.host, srv.port()))
            fatal("bench_txn: connect failed");
        for (std::uint64_t k = 0; k < kServerAccounts; ++k)
            if (!init.put(k, kInitBalance) )
                fatal("bench_txn: load failed");
        init.close();
    }

    std::vector<server::RetryCounters> counters(kServerClients);
    std::vector<std::uint64_t> commits(kServerClients, 0);
    std::vector<std::uint64_t> failures(kServerClients, 0);
    std::vector<std::thread> threads;
    const auto t0 = Clock::now();
    for (int t = 0; t < kServerClients; ++t) {
        threads.emplace_back([&, t] {
            server::Client c;
            if (!c.connectTo(cfg.host, srv.port())) {
                ++failures[std::size_t(t)];
                return;
            }
            Rng rng(0xabcdULL + std::uint64_t(t));
            ZipfianGen zipf(kServerAccounts, theta);
            server::RetryPolicy policy;
            policy.maxAttempts = 64;
            for (std::uint64_t i = 0; i < kTransfersPerClient;
                 ++i) {
                const std::uint64_t src =
                    zipf.next(rng) % kServerAccounts;
                std::uint64_t dst = rng.below(kServerAccounts);
                if (dst == src)
                    dst = (dst + 1) % kServerAccounts;
                const std::uint64_t amt = 1 + rng.below(8);
                const std::vector<server::TxnOp> ops = {
                    {server::TxnOp::Kind::Add, src, ~amt + 1},
                    {server::TxnOp::Kind::Add, dst, amt}};
                const auto r = c.txnBackoff(ops, policy);
                if (r && r->status == server::Status::Ok)
                    ++commits[std::size_t(t)];
                else
                    ++failures[std::size_t(t)];
            }
            counters[std::size_t(t)] = c.retryCounters();
            c.close();
        });
    }
    for (auto &th : threads)
        th.join();
    const double secs = double(nowNsSince(t0)) / 1e9;

    for (int t = 0; t < kServerClients; ++t) {
        out.counters.merge(counters[std::size_t(t)]);
        out.commits += commits[std::size_t(t)];
        out.failures += failures[std::size_t(t)];
    }
    out.tps = secs == 0.0 ? 0.0 : double(out.commits) / secs;
    out.abortRate =
        out.counters.attempts == 0
            ? 0.0
            : double(out.counters.aborts) /
                  double(out.counters.attempts);

    // Conservation check over the wire, then a graceful shutdown.
    {
        server::Client c;
        if (c.connectTo(cfg.host, srv.port())) {
            std::uint64_t sum = 0;
            bool ok = true;
            for (std::uint64_t k = 0; k < kServerAccounts; ++k) {
                const auto r = c.get(k);
                if (!r || r->status != server::Status::Ok) {
                    ok = false;
                    break;
                }
                sum += r->value;
            }
            out.verified =
                ok && sum == kServerAccounts * kInitBalance;
            c.close();
        }
    }
    srv.stop();
    std::filesystem::remove_all(dir);
    return out;
}

/// @}

std::uint64_t
flagOr(int argc, char **argv, const char *name, std::uint64_t dflt)
{
    const std::string v = bench::argFlag(argc, argv, name);
    return v.empty() ? dflt : std::uint64_t(std::strtoull(
                                  v.c_str(), nullptr, 10));
}

} // namespace

int
main(int argc, char **argv)
{
    bench::banner(
        "lp::txn bank transfers (embedded + server contention)",
        "cross-shard ACID commit: LP fast-path latency < WAL for "
        "single-shard txns; wait-die abort rate under skew");

    const std::uint64_t accounts =
        flagOr(argc, argv, "accounts", 4096);
    const std::uint64_t txns = flagOr(argc, argv, "txns", 8192);
    const double theta = 0.6;     // mild zipf skew, embedded tier
    const double loadFrac = 0.7;  // arrival rate vs. calibrated max

    stats::JsonValue::Object root;
    root.emplace("accounts", double(accounts));
    root.emplace("txns", double(txns));
    root.emplace("keys_per_txn", 2.0);
    root.emplace("theta", theta);
    root.emplace("load_fraction", loadFrac);

    bool all_verified = true;
    obs::Histogram::Summary lpSingle, walSingle;

    // Simulated tier: deterministic per-txn commit latency under
    // the paper's NVMM cost model. Smaller tape -- the functional
    // simulator pays for every memory access.
    const std::uint64_t simAccounts = std::min<std::uint64_t>(
        accounts, 1024);
    const std::uint64_t simTxns = std::min<std::uint64_t>(
        txns, 2048);
    for (const bool cross : {false, true}) {
        const std::string mode =
            std::string(cross ? "cross_shard" : "single_shard") +
            "_sim";
        stats::Table table({"txn " + mode, "sim Ktxn/s",
                            "p50 us", "p99 us", "verified"});
        stats::JsonValue::Object grid;
        for (Backend b : bench::kStoreBackends) {
            const auto r =
                runSim(b, simAccounts, simTxns, cross, theta);
            all_verified = all_verified && r.verified;
            if (!cross && b == Backend::Lp)
                lpSingle = r.lat;
            if (!cross && b == Backend::Wal)
                walSingle = r.lat;
            table.addRow(
                {backendName(b),
                 stats::Table::num(r.txnPerSec / 1e3, 1),
                 stats::Table::num(r.lat.p50Ns / 1e3, 2),
                 stats::Table::num(r.lat.p99Ns / 1e3, 2),
                 r.verified ? "yes" : "NO"});

            stats::JsonValue::Object entry;
            entry.emplace("sim_tps", r.txnPerSec);
            entry.emplace("commit_lat_ns_p50", r.lat.p50Ns);
            entry.emplace("commit_lat_ns_p90", r.lat.p90Ns);
            entry.emplace("commit_lat_ns_p99", r.lat.p99Ns);
            entry.emplace("commit_lat_ns_mean", r.lat.meanNs);
            entry.emplace("verified", r.verified);
            grid.emplace(backendName(b), std::move(entry));
        }
        table.print();
        std::printf("\n");
        root.emplace(mode, std::move(grid));
    }

    for (const bool cross : {false, true}) {
        const char *mode = cross ? "cross_shard" : "single_shard";
        stats::Table table(
            {std::string("txn ") + mode, "Ktxn/s closed",
             "sched Ktxn/s", "p50 us", "p99 us", "verified"});
        stats::JsonValue::Object grid;
        for (Backend b : bench::kStoreBackends) {
            const auto r = runEmbedded(b, accounts, txns, cross,
                                       theta, loadFrac);
            all_verified = all_verified && r.verified;
            table.addRow(
                {backendName(b),
                 stats::Table::num(r.closedLoopTps / 1e3, 1),
                 stats::Table::num(r.scheduledRate / 1e3, 1),
                 stats::Table::num(r.lat.p50Ns / 1e3, 2),
                 stats::Table::num(r.lat.p99Ns / 1e3, 2),
                 r.verified ? "yes" : "NO"});

            stats::JsonValue::Object entry;
            entry.emplace("closed_loop_tps", r.closedLoopTps);
            entry.emplace("scheduled_rate_tps", r.scheduledRate);
            entry.emplace("commit_lat_ns_p50", r.lat.p50Ns);
            entry.emplace("commit_lat_ns_p90", r.lat.p90Ns);
            entry.emplace("commit_lat_ns_p99", r.lat.p99Ns);
            entry.emplace("commit_lat_ns_p999", r.lat.p999Ns);
            entry.emplace("verified", r.verified);
            grid.emplace(backendName(b), std::move(entry));
        }
        table.print();
        std::printf("\n");
        root.emplace(mode, std::move(grid));
    }

    // The acceptance headline, judged on the deterministic tier:
    // single-shard transactions must keep LP's commit-latency edge
    // over WAL (the fast path stages one lazy epoch; WAL pays log
    // writes at the inline batch commit).
    {
        stats::JsonValue::Object headline;
        headline.emplace("lp_single_shard_sim_p50_ns",
                         lpSingle.p50Ns);
        headline.emplace("wal_single_shard_sim_p50_ns",
                         walSingle.p50Ns);
        headline.emplace("lp_single_shard_sim_p99_ns",
                         lpSingle.p99Ns);
        headline.emplace("wal_single_shard_sim_p99_ns",
                         walSingle.p99Ns);
        headline.emplace("lp_vs_wal_p50",
                         bench::ratio(lpSingle.p50Ns,
                                      walSingle.p50Ns));
        headline.emplace("lp_vs_wal_p99",
                         bench::ratio(lpSingle.p99Ns,
                                      walSingle.p99Ns));
        // Both backends stage the fast path lazily, so p50 ties;
        // the tail is where WAL's inline log flush at the batch
        // seal shows up and LP must stay ahead.
        headline.emplace("lp_not_slower",
                         lpSingle.p50Ns <= walSingle.p50Ns &&
                             lpSingle.p99Ns <= walSingle.p99Ns);
        root.emplace("single_shard_headline", std::move(headline));
    }

    // Server tier: wait-die abort rate under contention, from the
    // aggregated client-side RetryCounters (satisfying the loadgen
    // counter surface), plus over-the-wire conservation.
    {
        const double serverTheta = 0.9;  // hot-key skew -> conflicts
        stats::Table table({"server txn (zipf 0.9)", "commits",
                            "Ktxn/s", "attempts", "aborts",
                            "abort rate", "verified"});
        stats::JsonValue::Object grid;
        for (Backend b : bench::kStoreBackends) {
            const auto r = runServerTier(b, serverTheta);
            all_verified =
                all_verified && r.verified && r.failures == 0;
            table.addRow(
                {backendName(b),
                 stats::Table::num(double(r.commits), 0),
                 stats::Table::num(r.tps / 1e3, 1),
                 stats::Table::num(double(r.counters.attempts), 0),
                 stats::Table::num(double(r.counters.aborts), 0),
                 stats::Table::num(r.abortRate * 100.0, 2) + "%",
                 r.verified ? "yes" : "NO"});

            stats::JsonValue::Object entry;
            entry.emplace("commits", double(r.commits));
            entry.emplace("failures", double(r.failures));
            entry.emplace("throughput_tps", r.tps);
            entry.emplace("attempts", double(r.counters.attempts));
            entry.emplace("retries", double(r.counters.retries));
            entry.emplace("aborts", double(r.counters.aborts));
            entry.emplace("backoff_us",
                          double(r.counters.backoffUs));
            entry.emplace("abort_rate", r.abortRate);
            entry.emplace("verified", r.verified);
            grid.emplace(backendName(b), std::move(entry));
        }
        table.print();
        std::printf("\n");
        root.emplace("server_contention", std::move(grid));
    }

    if (!bench::writeJsonReport(argc, argv, "BENCH_txn.json", root))
        return 1;
    return all_verified ? 0 : 1;
}
