/**
 * @file
 * Unit and crash-matrix tests for lp::txn: the wait-die lock table's
 * invariants (timestamp-ordered grants, die-on-release, in-place
 * upgrades), TxnKv transaction semantics on every backend
 * (read-your-writes, Add resolution, cross-shard golden equivalence,
 * applied parts turning durable with their epoch, one fence per
 * general-path commit, the decision ring's checkpoint valve), and
 * the commit-protocol crash matrix: the embedded facade is killed at
 * every named protocol step on every backend, recovered, and
 * compared against the golden model -- steps before the decision
 * append completes must roll back, steps after it must roll forward,
 * and the bank-transfer sum invariant must hold either way.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <tuple>
#include <vector>

#include "base/rng.hh"
#include "kernels/env.hh"
#include "kernels/workload.hh"
#include "store/kv_store.hh"
#include "txn/lock_table.hh"
#include "txn/txn_kv.hh"

namespace lp::txn
{
namespace
{

// ---------------------------------------------------------------- //
// LockTable units
// ---------------------------------------------------------------- //

TEST(LockTable, ReadersShareWriterExcludes)
{
    LockTable lt;
    EXPECT_EQ(lt.acquire(1, 7, LockMode::Read), Acquire::Granted);
    EXPECT_EQ(lt.acquire(2, 7, LockMode::Read), Acquire::Granted);
    EXPECT_FALSE(lt.writeLocked(7));
    // A write request against two readers: t3 is younger than both
    // holders, so wait-die kills it.
    EXPECT_EQ(lt.acquire(3, 7, LockMode::Write), Acquire::Die);
    LockTable::Events ev;
    lt.release(1, 7, ev);
    lt.release(2, 7, ev);
    EXPECT_TRUE(ev.granted.empty());
    EXPECT_TRUE(ev.died.empty());
    EXPECT_EQ(lt.lockedKeys(), 0u);
}

TEST(LockTable, WaitDieDirection)
{
    LockTable lt;
    ASSERT_EQ(lt.acquire(5, 9, LockMode::Write), Acquire::Granted);
    EXPECT_TRUE(lt.writeLocked(9));
    EXPECT_TRUE(lt.holdsWrite(5, 9));
    // Older requester waits; younger requester dies.
    EXPECT_EQ(lt.acquire(2, 9, LockMode::Write), Acquire::Waiting);
    EXPECT_EQ(lt.acquire(8, 9, LockMode::Write), Acquire::Die);
    // Re-acquire by the holder is a no-op.
    EXPECT_EQ(lt.acquire(5, 9, LockMode::Write), Acquire::Granted);
    LockTable::Events ev;
    lt.release(5, 9, ev);
    ASSERT_EQ(ev.granted.size(), 1u);
    EXPECT_EQ(ev.granted[0], 2u);
    EXPECT_TRUE(lt.holdsWrite(2, 9));
}

/**
 * Grants go out in timestamp order (oldest first), NOT FIFO, and the
 * grant round kills any waiter left younger than a new holder --
 * granting FIFO would put an older waiter behind a younger holder,
 * recreating exactly the deadlock edge wait-die forbids.
 */
TEST(LockTable, GrantsOldestFirstAndKillsTheYoung)
{
    LockTable lt;
    ASSERT_EQ(lt.acquire(5, 3, LockMode::Write), Acquire::Granted);
    // Enqueue younger-first so FIFO order and timestamp order differ.
    EXPECT_EQ(lt.acquire(3, 3, LockMode::Write), Acquire::Waiting);
    EXPECT_EQ(lt.acquire(1, 3, LockMode::Write), Acquire::Waiting);
    LockTable::Events ev;
    lt.release(5, 3, ev);
    ASSERT_EQ(ev.granted.size(), 1u);
    EXPECT_EQ(ev.granted[0], 1u);  // oldest, despite arriving last
    ASSERT_EQ(ev.died.size(), 1u);
    EXPECT_EQ(ev.died[0], 3u);     // younger than new holder 1
    EXPECT_TRUE(lt.holdsWrite(1, 3));
}

TEST(LockTable, SoleReaderUpgradesInPlace)
{
    LockTable lt;
    ASSERT_EQ(lt.acquire(4, 11, LockMode::Read), Acquire::Granted);
    EXPECT_EQ(lt.acquire(4, 11, LockMode::Write), Acquire::Granted);
    EXPECT_TRUE(lt.holdsWrite(4, 11));
}

TEST(LockTable, ContendedUpgradeWaitsThenUpgrades)
{
    LockTable lt;
    ASSERT_EQ(lt.acquire(1, 11, LockMode::Read), Acquire::Granted);
    ASSERT_EQ(lt.acquire(2, 11, LockMode::Read), Acquire::Granted);
    // t1's upgrade waits on reader t2 (t1 is older); t2's own upgrade
    // attempt dies (younger than reader t1).
    EXPECT_EQ(lt.acquire(1, 11, LockMode::Write), Acquire::Waiting);
    EXPECT_EQ(lt.acquire(2, 11, LockMode::Write), Acquire::Die);
    LockTable::Events ev;
    lt.release(2, 11, ev);
    ASSERT_EQ(ev.granted.size(), 1u);
    EXPECT_EQ(ev.granted[0], 1u);
    EXPECT_TRUE(lt.holdsWrite(1, 11));
}

TEST(LockTable, RangeAndPointPredicates)
{
    LockTable lt;
    ASSERT_EQ(lt.acquire(1, 100, LockMode::Write), Acquire::Granted);
    ASSERT_EQ(lt.acquire(2, 500, LockMode::Read), Acquire::Granted);
    EXPECT_TRUE(lt.writeLocked(100));
    EXPECT_FALSE(lt.writeLocked(500));  // read locks don't block
    EXPECT_TRUE(lt.anyWriteLockedAtOrAbove(0));
    EXPECT_TRUE(lt.anyWriteLockedAtOrAbove(100));
    EXPECT_FALSE(lt.anyWriteLockedAtOrAbove(101));
    LockTable::Events ev;
    lt.releaseAll(1, {100}, ev);
    EXPECT_FALSE(lt.anyWriteLockedAtOrAbove(0));
}

// ---------------------------------------------------------------- //
// TxnKv semantics
// ---------------------------------------------------------------- //

sim::MachineConfig
smallMachine()
{
    sim::MachineConfig cfg;
    cfg.numCores = 1;
    cfg.l1 = {8 * 1024, 4, 2};
    cfg.l2 = {32 * 1024, 8, 11};  // small: force real evictions
    return cfg;
}

TxnKv<kernels::SimEnv>::Config
smallConfig()
{
    TxnKv<kernels::SimEnv>::Config cfg;
    cfg.store.capacity = 1024;
    cfg.store.shards = 2;
    cfg.store.batchOps = 8;
    cfg.store.foldBatches = 8;
    cfg.decisionEntries = 256;
    return cfg;
}

using SimTxnKv = TxnKv<kernels::SimEnv>;
using TOp = SimTxnKv::Op;

TOp
op(TOp::Kind k, std::uint64_t key, std::uint64_t value = 0)
{
    TOp o;
    o.kind = k;
    o.key = key;
    o.value = value;
    return o;
}

struct SimFixture
{
    kernels::SimContext ctx;
    SimTxnKv txn;
    kernels::SimEnv env;

    SimFixture(const SimTxnKv::Config &cfg, store::Backend backend)
        : ctx(smallMachine(), SimTxnKv::arenaBytes(cfg)),
          txn(ctx.arena, cfg, backend),
          env(ctx.machine, ctx.arena, 0, &ctx.crash)
    {
        ctx.arena.persistAll();
    }
};

const store::Backend kBackends[] = {store::Backend::Lp,
                                    store::Backend::EagerPerOp,
                                    store::Backend::Wal};

class TxnBackends : public ::testing::TestWithParam<store::Backend>
{
};

TEST_P(TxnBackends, ReadYourWritesAndOverlayResolution)
{
    SimFixture f(smallConfig(), GetParam());
    auto r = f.txn.run(f.env, {
        op(TOp::Kind::Get, 10),            // pre-state: absent
        op(TOp::Kind::Put, 10, 7),
        op(TOp::Kind::Get, 10),            // own write visible
        op(TOp::Kind::Add, 10, 5),         // 7 + 5
        op(TOp::Kind::Get, 10),
        op(TOp::Kind::Add, 11, std::uint64_t(0) - 3),  // absent = 0
        op(TOp::Kind::Del, 10),
        op(TOp::Kind::Get, 10),            // own delete visible
    });
    ASSERT_TRUE(r.committed);
    ASSERT_EQ(r.reads.size(), 4u);
    EXPECT_EQ(r.reads[0], std::make_pair(false, std::uint64_t(0)));
    EXPECT_EQ(r.reads[1], std::make_pair(true, std::uint64_t(7)));
    EXPECT_EQ(r.reads[2], std::make_pair(true, std::uint64_t(12)));
    EXPECT_EQ(r.reads[3], std::make_pair(false, std::uint64_t(0)));
    EXPECT_EQ(f.txn.kv().get(f.env, 10), std::nullopt);
    EXPECT_EQ(f.txn.kv().get(f.env, 11),
              std::optional<std::uint64_t>(std::uint64_t(0) - 3));
}

/**
 * Random multi-key transactions (both commit paths) against a golden
 * map applied atomically: the store must equal the golden map on
 * every backend, and the two paths must never mix within a txn.
 */
TEST_P(TxnBackends, RandomTxnsMatchGoldenModel)
{
    SimFixture f(smallConfig(), GetParam());
    std::map<std::uint64_t, std::uint64_t> golden;
    Rng rng(41);
    for (int t = 0; t < 120; ++t) {
        std::vector<TOp> ops;
        const int n = 1 + int(rng.below(5));
        for (int i = 0; i < n; ++i) {
            const std::uint64_t key = 1 + rng.below(60);
            const auto roll = rng.below(4);
            if (roll == 0)
                ops.push_back(op(TOp::Kind::Get, key));
            else if (roll == 1)
                ops.push_back(op(TOp::Kind::Del, key));
            else if (roll == 2)
                ops.push_back(op(TOp::Kind::Put, key, rng.below(1000)));
            else
                ops.push_back(op(TOp::Kind::Add, key, rng.below(9)));
        }
        const bool forceGeneral = rng.chance(0.5);
        ASSERT_TRUE(f.txn.run(f.env, ops, {}, forceGeneral).committed);
        // Golden: the same overlay semantics, applied atomically.
        for (const auto &o : ops) {
            switch (o.kind) {
              case TOp::Kind::Get:
                break;
              case TOp::Kind::Put:
                golden[o.key] = o.value;
                break;
              case TOp::Kind::Del:
                golden.erase(o.key);
                break;
              case TOp::Kind::Add: {
                const auto it = golden.find(o.key);
                const std::uint64_t base =
                    it == golden.end() ? 0 : it->second;
                golden[o.key] = base + o.value;
                break;
              }
            }
        }
    }
    f.txn.checkpoint(f.env);
    EXPECT_EQ(f.txn.kv().snapshot(), golden);
}

/** The highest decision seq any shard of @p f staged a part of. */
std::uint64_t
appliedSeq(SimFixture &f)
{
    std::uint64_t seq = 0;
    for (int s = 0; s < f.txn.config().store.shards; ++s)
        seq = std::max(seq, f.txn.kv().appliedSeq(s));
    return seq;
}

TEST_P(TxnBackends, AppliedSeqTurnsDurableWithItsEpoch)
{
    SimFixture f(smallConfig(), GetParam());
    ASSERT_TRUE(f.txn.run(f.env,
                          {op(TOp::Kind::Put, 1, 10),
                           op(TOp::Kind::Put, 2, 20)},
                          {}, /*forceGeneral=*/true)
                    .committed);
    // Each touched shard staged its part's Applied record with the
    // part's writes. LP and WAL staged them into a still-open batch
    // epoch, so they turn durable only when a checkpoint commits
    // (and LP folds) it; the eager backend persisted the writes in
    // place and the record with one superblock write.
    const auto &kv = f.txn.kv();
    for (const std::uint64_t key : {1, 2}) {
        const int s = kv.shardOf(key);
        EXPECT_EQ(kv.appliedSeq(s), 1u);
        EXPECT_EQ(kv.durableAppliedSeq(s),
                  GetParam() == store::Backend::EagerPerOp ? 1u : 0u);
    }
    f.txn.checkpoint(f.env);
    for (const std::uint64_t key : {1, 2})
        EXPECT_EQ(kv.durableAppliedSeq(kv.shardOf(key)), 1u);
    // The durable fact is what store recovery reports.
    f.ctx.powerFail();
    const store::RecoveryReport rep = f.txn.kv().recover(f.env);
    for (const std::uint64_t key : {1, 2})
        EXPECT_EQ(rep.appliedSeqs[std::size_t(kv.shardOf(key))], 1u);
}

/**
 * A general-path transaction, then a later durable plain PUT to the
 * same key, then a power failure: recovery must skip the decision
 * (its part is durable) rather than roll it forward over the PUT.
 */
TEST_P(TxnBackends, DurablePutAfterAGeneralTxnSurvivesRecovery)
{
    SimFixture f(smallConfig(), GetParam());
    ASSERT_TRUE(
        f.txn.run(f.env, {op(TOp::Kind::Put, 5, 10)}, {}, true).committed);
    f.txn.checkpoint(f.env);
    f.txn.kv().put(f.env, 5, 20);
    f.txn.checkpoint(f.env);
    f.ctx.powerFail();
    const TxnRecoveryReport rep = f.txn.recover(f.env);
    EXPECT_EQ(f.txn.kv().get(f.env, 5), std::optional<std::uint64_t>(20));
    EXPECT_EQ(rep.rolledForward, 0u);
    EXPECT_EQ(rep.skipped, 1u);
}

/**
 * A general-path cross-shard transaction fences exactly once before
 * its acknowledgement -- the decision append -- on every backend.
 * After it, the LP and WAL applies stage into open batches and fence
 * nothing; eager persists each write and the Applied record in
 * place.
 */
TEST_P(TxnBackends, GeneralPathFencesOnceBeforeTheAck)
{
    SimFixture f(smallConfig(), GetParam());
    std::uint64_t onShard[2] = {0, 0};
    for (std::uint64_t k = 1; onShard[0] == 0 || onShard[1] == 0; ++k)
        if (onShard[f.txn.kv().shardOf(k)] == 0)
            onShard[f.txn.kv().shardOf(k)] = k;
    const auto fences = [&] {
        return f.ctx.machine.machineStats().fences.value();
    };
    const std::uint64_t before = fences();
    std::uint64_t atAck = 0;
    ASSERT_TRUE(f.txn.run(f.env,
                          {op(TOp::Kind::Add, onShard[0], 1),
                           op(TOp::Kind::Add, onShard[1], 2)},
                          [&](SimTxnKv::Step s) {
                              if (s == SimTxnKv::Step::PostDecision)
                                  atAck = fences();
                          },
                          true)
                    .committed);
    EXPECT_EQ(atAck - before, 1u);
    const std::uint64_t afterAck =
        GetParam() == store::Backend::EagerPerOp ? 2 + 2 : 0;
    EXPECT_EQ(fences() - atAck, afterAck);  // eager: 2 writes, 2 records
}

INSTANTIATE_TEST_SUITE_P(AllBackends, TxnBackends,
                         ::testing::ValuesIn(kBackends),
                         [](const auto &info) {
                             return store::backendName(info.param);
                         });

/**
 * The single path rule (txn::fastPath) on the batching backends: the
 * fast path stages into the open epoch and appends no decision; the
 * general path's applies stage an Applied record on every shard they
 * touch. So appliedSeq() > 0 says the general path ran.
 */
class TxnPathRule : public ::testing::TestWithParam<store::Backend>
{
};

TEST_P(TxnPathRule, ReadOnASecondShardTakesTheGeneralPath)
{
    SimFixture f(smallConfig(), GetParam());
    std::uint64_t onShard[2] = {0, 0};
    for (std::uint64_t k = 1; onShard[0] == 0 || onShard[1] == 0; ++k)
        if (onShard[f.txn.kv().shardOf(k)] == 0)
            onShard[f.txn.kv().shardOf(k)] = k;

    // Control: the same write alone is single-shard.
    ASSERT_TRUE(
        f.txn.run(f.env, {op(TOp::Kind::Put, onShard[0], 6)}).committed);
    EXPECT_EQ(appliedSeq(f), 0u);

    const auto r = f.txn.run(f.env, {op(TOp::Kind::Get, onShard[1]),
                                     op(TOp::Kind::Put, onShard[0], 7)});
    ASSERT_TRUE(r.committed);
    EXPECT_GT(appliedSeq(f), 0u)
        << "a read on a second shard rode the fast path";
    EXPECT_EQ(f.txn.kv().get(f.env, onShard[0]),
              std::optional<std::uint64_t>(7));
}

TEST_P(TxnPathRule, WriteOpsBeyondBatchOpsTakeTheGeneralPath)
{
    const auto cfg = smallConfig();
    SimFixture f(cfg, GetParam());
    // Control: batchOps Adds to one key fit one epoch.
    std::vector<TOp> ops(std::size_t(cfg.store.batchOps),
                         op(TOp::Kind::Add, 5, 1));
    ASSERT_TRUE(f.txn.run(f.env, ops).committed);
    EXPECT_EQ(appliedSeq(f), 0u);

    // One more write op: the rule counts ops, not resolved keys.
    ops.push_back(op(TOp::Kind::Add, 5, 1));
    ASSERT_TRUE(f.txn.run(f.env, ops).committed);
    EXPECT_GT(appliedSeq(f), 0u)
        << "more write ops than batchOps rode the fast path";
    EXPECT_EQ(f.txn.kv().get(f.env, 5),
              std::optional<std::uint64_t>(2 * ops.size() - 1));
}

INSTANTIATE_TEST_SUITE_P(BatchingBackends, TxnPathRule,
                         ::testing::Values(store::Backend::Lp,
                                           store::Backend::Wal),
                         [](const auto &info) {
                             return store::backendName(info.param);
                         });

/**
 * A pinned decision ring: with 4 entries and no checkpoint, the fifth
 * general-path transaction finds every entry live (its parts not yet
 * durable). TxnKv's valve checkpoints -- every part turns durable,
 * every entry retires -- and the transaction commits.
 */
TEST(TxnRing, PinnedRingCheckpointsAndResumes)
{
    auto cfg = smallConfig();
    cfg.decisionEntries = 4;
    SimFixture f(cfg, store::Backend::Lp);
    const auto folds = [&] {
        std::uint64_t n = 0;
        for (int s = 0; s < cfg.store.shards; ++s)
            n += f.txn.kv().pipeline(s).counters().folds;
        return n;
    };
    for (std::uint64_t t = 1; t <= 6; ++t) {
        if (t == 5) {
            EXPECT_EQ(folds(), 0u) << "a fold freed the ring early";
        }
        ASSERT_TRUE(f.txn.run(f.env,
                              {op(TOp::Kind::Put, 1, t),
                               op(TOp::Kind::Put, 2, t)},
                              {}, true)
                        .committed);
    }
    EXPECT_GT(folds(), 0u) << "the valve never checkpointed";
    EXPECT_EQ(f.txn.kv().get(f.env, 1), std::optional<std::uint64_t>(6));
    EXPECT_EQ(f.txn.kv().get(f.env, 2), std::optional<std::uint64_t>(6));
}

// ---------------------------------------------------------------- //
// Commit-protocol crash matrix
// ---------------------------------------------------------------- //

using Step = SimTxnKv::Step;

const char *
stepName(Step s)
{
    switch (s) {
      case Step::PrePrepare:   return "PrePrepare";
      case Step::PreDecision:  return "PreDecision";
      case Step::PostPrepare:  return "PostPrepare";
      case Step::TornDecision: return "TornDecision";
      case Step::PostDecision: return "PostDecision";
      case Step::MidApply:     return "MidApply";
      case Step::PreMarker:    return "PreMarker";
      case Step::PostApply:    return "PostApply";
      case Step::PostMarker:   return "PostMarker";
    }
    return "?";
}

using CrashCombo = std::tuple<store::Backend, Step>;

class TxnCrashMatrix : public ::testing::TestWithParam<CrashCombo>
{
};

/**
 * A bank transfer is killed at one named protocol step; after
 * recovery the store must equal the golden model WITHOUT the
 * transaction when the crash landed before the decision append
 * completed, and WITH it when it landed after (the append is the
 * commit point). At TornDecision the crash lands inside the append:
 * its header line persisted, its ops line did not, so the entry fails
 * its checksum. At PostMarker the transaction has returned and a
 * checkpoint makes every Applied record durable before the crash, so
 * recovery must skip both parts, not roll them forward. The total
 * balance is invariant either way.
 */
TEST_P(TxnCrashMatrix, RecoversToTheDecisionRule)
{
    const auto [backend, step] = GetParam();
    SimFixture f(smallConfig(), backend);

    // Seed accounts across both shards, all durable, plus golden.
    std::map<std::uint64_t, std::uint64_t> golden;
    for (std::uint64_t k = 1; k <= 8; ++k) {
        ASSERT_TRUE(
            f.txn.run(f.env, {op(TOp::Kind::Put, k, 100)}).committed);
        golden[k] = 100;
    }
    f.txn.checkpoint(f.env);

    // Two keys on different shards so the transfer is cross-shard.
    const std::uint64_t src = 1;
    std::uint64_t dst = 2;
    while (f.txn.kv().shardOf(dst) == f.txn.kv().shardOf(src))
        ++dst;
    ASSERT_LE(dst, 8u);

    bool crashed = false;
    try {
        f.txn.run(f.env,
                  {op(TOp::Kind::Add, src, std::uint64_t(0) - 25),
                   op(TOp::Kind::Add, dst, 25)},
                  [&](Step s) {
                      if (s != step)
                          return;
                      if (s == Step::TornDecision) {  // 5 header stores
                          f.ctx.crash.armAfterStores(6);
                          return;
                      }
                      if (s == Step::PostMarker)
                          f.txn.checkpoint(f.env);
                      throw pmem::CrashException{};
                  },
                  /*forceGeneral=*/true);
    } catch (const pmem::CrashException &) {
        crashed = true;
        f.ctx.powerFail();
    }
    ASSERT_TRUE(crashed) << stepName(step) << " hook never fired";

    const TxnRecoveryReport rep = f.txn.recover(f.env);
    const bool decided = step >= Step::PostDecision;
    if (decided) {
        golden[src] -= 25;
        golden[dst] += 25;
        EXPECT_GE(rep.rolledForward + rep.skipped, 1u)
            << stepName(step);
        EXPECT_EQ(rep.rolledBack, 0u) << stepName(step);
        if (step == Step::PostMarker) {
            EXPECT_EQ(rep.rolledForward, 0u) << "a durable part re-applied";
            EXPECT_GE(rep.skipped, 2u) << stepName(step);
        }
    } else {
        // Nothing to roll forward; only a torn append leaves a trace.
        EXPECT_EQ(rep.rolledForward, 0u) << stepName(step);
        EXPECT_EQ(rep.rolledBack, step == Step::TornDecision ? 1u : 0u)
            << stepName(step);
    }
    EXPECT_EQ(f.txn.kv().snapshot(), golden)
        << store::backendName(backend) << " @ " << stepName(step)
        << ": half a transaction survived";
    std::uint64_t sum = 0;
    for (const auto &[k, v] : f.txn.kv().snapshot())
        sum += v;
    EXPECT_EQ(sum, 800u) << "transfer minted or destroyed money";

    // A later restart reports nothing new: a torn entry is counted
    // by the recovery that found it, not by every one after.
    f.ctx.powerFail();
    const TxnRecoveryReport again = f.txn.recover(f.env);
    EXPECT_EQ(again.rolledBack, 0u) << stepName(step);
    EXPECT_EQ(again.rolledForward, 0u) << stepName(step);
    EXPECT_EQ(f.txn.kv().snapshot(), golden);

    // The recovered instance keeps serving transactions.
    ASSERT_TRUE(f.txn.run(f.env,
                          {op(TOp::Kind::Add, src, 1),
                           op(TOp::Kind::Add, dst, std::uint64_t(0) - 1)},
                          {}, true)
                    .committed);
    golden[src] += 1;
    golden[dst] -= 1;
    f.txn.checkpoint(f.env);
    EXPECT_EQ(f.txn.kv().snapshot(), golden);
}

const Step kSteps[] = {Step::PrePrepare,   Step::PreDecision,
                       Step::PostPrepare,  Step::TornDecision,
                       Step::PostDecision, Step::MidApply,
                       Step::PreMarker,    Step::PostApply,
                       Step::PostMarker};

INSTANTIATE_TEST_SUITE_P(
    AllBackendsAllSteps, TxnCrashMatrix,
    ::testing::Combine(::testing::ValuesIn(kBackends),
                       ::testing::ValuesIn(kSteps)),
    [](const auto &info) {
        return store::backendName(std::get<0>(info.param)) +
               std::string("_") + stepName(std::get<1>(info.param));
    });

/**
 * Crash landing inside the eager fold (checkpoint) AFTER decided
 * transactions, at each of the checkpoint's stores in turn: the fold
 * tears, but every decision is durable, so recovery must reconstruct
 * the exact committed state.
 */
TEST(TxnCrashMidFold, DecidedTxnsSurviveATornCheckpoint)
{
    std::uint64_t crashes = 0;
    for (std::uint64_t at = 1;; ++at) {
        SimFixture f(smallConfig(), store::Backend::Lp);
        std::map<std::uint64_t, std::uint64_t> golden;
        for (std::uint64_t k = 1; k <= 8; ++k) {
            ASSERT_TRUE(
                f.txn.run(f.env, {op(TOp::Kind::Put, k, 50)}).committed);
            golden[k] = 50;
        }
        for (int t = 0; t < 6; ++t) {
            const std::uint64_t a = 1 + std::uint64_t(t % 8);
            const std::uint64_t b = 1 + std::uint64_t((t + 3) % 8);
            ASSERT_TRUE(
                f.txn.run(f.env,
                          {op(TOp::Kind::Add, a, std::uint64_t(0) - 5),
                           op(TOp::Kind::Add, b, 5)},
                          {}, true)
                    .committed);
            golden[a] -= 5;
            golden[b] += 5;
        }

        f.ctx.crash.armAfterStores(at);
        try {
            f.txn.checkpoint(f.env);
            break;  // the checkpoint ran out of stores first
        } catch (const pmem::CrashException &) {
            ++crashes;
            f.ctx.powerFail();
        }

        f.txn.recover(f.env);
        EXPECT_EQ(f.txn.kv().snapshot(), golden)
            << "crash at checkpoint store " << at
            << " lost a decided transaction";
        std::uint64_t sum = 0;
        for (const auto &[k, v] : f.txn.kv().snapshot())
            sum += v;
        EXPECT_EQ(sum, 400u);
    }
    EXPECT_GT(crashes, 0u) << "the checkpoint stored nothing";
}

} // namespace
} // namespace lp::txn
