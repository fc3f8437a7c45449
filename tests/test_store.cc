/**
 * @file
 * Unit and property tests for lp::store::KvStore: map semantics and
 * read-your-writes on every backend, golden-map equivalence after a
 * checkpoint, the SimEnv/NativeEnv identical-code guarantee, clean
 * recovery after a checkpoint, recovery idempotence (including a
 * crash injected *during* recovery, and a rolled-back batch staying
 * rolled back across lives, a clean restart replaying nothing, the
 * trailer's epoch tag wrapping), the 16-byte journal format with its
 * self-validating batch trailer, the YCSB
 * generators, the table occupancy guard, the LP fold's one prefetch
 * per distinct key and the WAL plan phase's one per op, the LP
 * table-order pass (one write per touched block, write-backs that
 * drain behind the apply, recovery coalesced to the last op per key,
 * the radix sort giving the comparator's order), the crash runs'
 * committed-prefix ledger (the watermark cut and epoch rebase,
 * eager's in-flight op, the scan check), and GETs of persisted keys
 * that hit in the cache.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <thread>
#include <unordered_map>
#include <vector>

#include "base/rng.hh"
#include "base/types.hh"
#include "kernels/env.hh"
#include "kernels/workload.hh"
#include "repair/parity.hh"
#include "store/driver.hh"
#include "store/journal.hh"
#include "store/kv_store.hh"
#include "store/ycsb.hh"

namespace lp::store
{
namespace
{

sim::MachineConfig
smallMachine()
{
    sim::MachineConfig cfg;
    cfg.numCores = 1;
    cfg.l1 = {8 * 1024, 4, 2};
    cfg.l2 = {32 * 1024, 8, 11};  // small: force real evictions
    return cfg;
}

StoreConfig
smallConfig()
{
    StoreConfig cfg;
    cfg.capacity = 1024;
    cfg.shards = 2;
    cfg.batchOps = 8;
    cfg.foldBatches = 8;
    return cfg;
}

const Backend kBackends[] = {Backend::Lp, Backend::EagerPerOp,
                             Backend::Wal};

class StoreBackends : public ::testing::TestWithParam<Backend>
{
};

TEST_P(StoreBackends, PutGetDelSemantics)
{
    const StoreConfig scfg = smallConfig();
    kernels::SimContext ctx(smallMachine(), storeArenaBytes(scfg));
    KvStore<kernels::SimEnv> store(ctx.arena, scfg, GetParam());
    ctx.arena.persistAll();
    kernels::SimEnv env(ctx.machine, ctx.arena, 0);

    EXPECT_EQ(store.get(env, 42), std::nullopt);
    store.put(env, 42, 1);
    store.put(env, 99, 2);
    // Read-your-writes before any batch commits.
    EXPECT_EQ(store.get(env, 42), std::optional<std::uint64_t>(1));
    store.put(env, 42, 3);  // overwrite
    EXPECT_EQ(store.get(env, 42), std::optional<std::uint64_t>(3));
    store.del(env, 99);
    EXPECT_EQ(store.get(env, 99), std::nullopt);
    store.del(env, 12345);  // deleting an absent key is a no-op

    store.checkpoint(env);
    EXPECT_EQ(store.get(env, 42), std::optional<std::uint64_t>(3));
    EXPECT_EQ(store.get(env, 99), std::nullopt);
    EXPECT_EQ(store.liveKeys(), 1u);
}

TEST_P(StoreBackends, SnapshotMatchesGoldenAfterCheckpoint)
{
    const StoreConfig scfg = smallConfig();
    kernels::SimContext ctx(smallMachine(), storeArenaBytes(scfg));
    KvStore<kernels::SimEnv> store(ctx.arena, scfg, GetParam());
    ctx.arena.persistAll();
    kernels::SimEnv env(ctx.machine, ctx.arena, 0);

    std::map<std::uint64_t, std::uint64_t> golden;
    Rng rng(99);
    for (int i = 0; i < 3000; ++i) {
        const std::uint64_t key = keyOfRecord(rng.below(400), 5);
        if (rng.chance(0.25)) {
            store.del(env, key);
            golden.erase(key);
        } else {
            store.put(env, key, i);
            golden[key] = i;
        }
    }
    store.checkpoint(env);
    EXPECT_EQ(store.snapshot(), golden);
    for (const auto &[k, v] : golden)
        EXPECT_EQ(store.get(env, k), std::optional<std::uint64_t>(v));
}

/**
 * The identical templated code must run under NativeEnv and produce
 * the same logical map as the simulated run.
 */
TEST_P(StoreBackends, NativeEnvRunsIdenticalCode)
{
    const StoreConfig scfg = smallConfig();

    kernels::SimContext ctx(smallMachine(), storeArenaBytes(scfg));
    KvStore<kernels::SimEnv> simStore(ctx.arena, scfg, GetParam());
    ctx.arena.persistAll();
    kernels::SimEnv simEnv(ctx.machine, ctx.arena, 0);

    pmem::PersistentArena nativeArena(storeArenaBytes(scfg));
    KvStore<kernels::NativeEnv> natStore(nativeArena, scfg, GetParam());
    nativeArena.persistAll();
    kernels::NativeEnv natEnv;

    Rng rng(7);
    for (int i = 0; i < 2000; ++i) {
        const std::uint64_t key = keyOfRecord(rng.below(300), 11);
        if (rng.chance(0.2)) {
            simStore.del(simEnv, key);
            natStore.del(natEnv, key);
        } else {
            simStore.put(simEnv, key, i);
            natStore.put(natEnv, key, i);
        }
    }
    simStore.checkpoint(simEnv);
    natStore.checkpoint(natEnv);
    EXPECT_EQ(simStore.snapshot(), natStore.snapshot());
}

TEST_P(StoreBackends, NativeDriverVerifies)
{
    YcsbParams p;
    p.records = 512;
    p.ops = 2048;
    const auto out = runStoreNative(GetParam(), smallConfig(), p);
    EXPECT_TRUE(out.verified);
    EXPECT_EQ(out.reads + out.mutations, p.ops);
}

/**
 * After a checkpoint every committed op is durable: a crash right
 * after it must recover to the identical map with nothing to replay.
 */
TEST_P(StoreBackends, RecoverAfterCheckpointFindsNothing)
{
    const StoreConfig scfg = smallConfig();
    kernels::SimContext ctx(smallMachine(), storeArenaBytes(scfg));
    KvStore<kernels::SimEnv> store(ctx.arena, scfg, GetParam());
    ctx.arena.persistAll();
    kernels::SimEnv env(ctx.machine, ctx.arena, 0);

    Rng rng(3);
    for (int i = 0; i < 1500; ++i)
        store.put(env, keyOfRecord(rng.below(200), 1), i);
    store.checkpoint(env);
    const auto before = store.snapshot();

    ctx.powerFail();
    const RecoveryReport rep = store.recover(env);
    EXPECT_EQ(rep.batchesReplayed, 0u);
    EXPECT_EQ(rep.entriesReplayed, 0u);
    EXPECT_FALSE(rep.walUndone);
    EXPECT_EQ(store.snapshot(), before);

    // And the recovered store keeps working.
    store.put(env, keyOfRecord(0, 1), 0xabc);
    store.checkpoint(env);
    EXPECT_EQ(store.get(env, keyOfRecord(0, 1)),
              std::optional<std::uint64_t>(0xabc));
}

/**
 * Persisting writes a line back and keeps it cached clean, so once a
 * PUT is persisted -- by the PUT itself (eager), by its batch commit
 * (WAL) or by its fold (LP) -- a GET of that key hits in the cache
 * and reads nothing from NVMM.
 */
TEST_P(StoreBackends, GetAfterPersistReadsNoNvmm)
{
    const StoreConfig scfg = smallConfig();
    kernels::SimContext ctx(smallMachine(), storeArenaBytes(scfg));
    KvStore<kernels::SimEnv> store(ctx.arena, scfg, GetParam());
    ctx.arena.persistAll();
    kernels::SimEnv env(ctx.machine, ctx.arena, 0);

    constexpr std::uint64_t kKeys = 16;
    for (std::uint64_t r = 0; r < kKeys; ++r)
        store.put(env, keyOfRecord(r, 4), r + 1);
    switch (GetParam()) {
      case Backend::EagerPerOp:
        break;
      case Backend::Wal:
        store.commitBatches(env);
        break;
      case Backend::Lp:
        store.checkpoint(env);
        break;
    }
    const auto reads = ctx.machine.machineStats().nvmmReads.value();
    for (std::uint64_t r = 0; r < kKeys; ++r)
        EXPECT_EQ(store.get(env, keyOfRecord(r, 4)),
                  std::optional<std::uint64_t>(r + 1));
    EXPECT_EQ(ctx.machine.machineStats().nvmmReads.value(), reads);
}

INSTANTIATE_TEST_SUITE_P(AllBackends, StoreBackends,
                         ::testing::ValuesIn(kBackends),
                         [](const auto &info) {
                             return backendName(info.param);
                         });

/**
 * Recovery must be idempotent: running it again on the repaired image
 * finds nothing further and changes nothing.
 */
TEST(StoreRecovery, RecoverTwiceIsIdempotent)
{
    const StoreConfig scfg = smallConfig();
    kernels::SimContext ctx(smallMachine(), storeArenaBytes(scfg));
    KvStore<kernels::SimEnv> store(ctx.arena, scfg, Backend::Lp);
    ctx.arena.persistAll();
    kernels::SimEnv env(ctx.machine, ctx.arena, 0,
                        &ctx.crash);

    ctx.crash.armAfterStores(2500);
    Rng rng(17);
    bool crashed = false;
    try {
        for (int i = 0; i < 4000; ++i)
            store.put(env, keyOfRecord(rng.below(300), 2), i);
        store.checkpoint(env);
        ctx.crash.disarm();
    } catch (const pmem::CrashException &) {
        crashed = true;
        ctx.powerFail();
    }
    ASSERT_TRUE(crashed);

    const RecoveryReport first = store.recover(env);
    const auto afterFirst = store.snapshot();

    // Recovery repaired with Eager Persistency, so a second crash
    // restore keeps its work; running recovery again is a no-op.
    ctx.powerFail();
    const RecoveryReport second = store.recover(env);
    EXPECT_EQ(second.batchesReplayed, 0u);
    EXPECT_EQ(second.entriesReplayed, 0u);
    EXPECT_EQ(second.committedEpochs, first.committedEpochs);
    EXPECT_EQ(store.snapshot(), afterFirst);
}

/**
 * A crash *during* recovery must be recoverable by simply running
 * recovery again (Section III-E: recovery uses Eager Persistency and
 * replay converges thanks to the single-copy probe invariant).
 */
TEST(StoreRecovery, CrashDuringRecoveryIsRecoverable)
{
    const StoreConfig scfg = smallConfig();
    kernels::SimContext ctx(smallMachine(), storeArenaBytes(scfg));
    KvStore<kernels::SimEnv> store(ctx.arena, scfg, Backend::Lp);
    ctx.arena.persistAll();
    kernels::SimEnv env(ctx.machine, ctx.arena, 0, &ctx.crash);

    // Deterministic op stream, recorded with predicted epochs so the
    // golden cut at any watermark is reproducible.
    CommittedLedger ledger(scfg);
    Rng rng(23);

    ctx.crash.armAfterStores(3000);
    bool crashed = false;
    try {
        for (int i = 0; i < 4000; ++i)
            ledger.issue(env, store, true,
                         keyOfRecord(rng.below(300), 4), std::uint64_t(i));
        store.checkpoint(env);
        ctx.crash.disarm();
    } catch (const pmem::CrashException &) {
        crashed = true;
        ctx.powerFail();
    }
    ASSERT_TRUE(crashed);

    // Crash again partway through recovery itself.
    ctx.crash.armAfterStores(40);
    bool recoveryCrashed = false;
    try {
        store.recover(env);
        ctx.crash.disarm();
    } catch (const pmem::CrashException &) {
        recoveryCrashed = true;
        ctx.powerFail();
    }

    const RecoveryReport rep = store.recover(env);
    (void)recoveryCrashed;  // may or may not fire; both must verify

    ledger.keepCommitted(rep.committedEpochs);
    EXPECT_EQ(store.snapshot(), ledger.golden());
}

/**
 * The ledger keeps exactly the ops of the committed epochs, and the
 * batches a crash lost restart at the watermark: the next batchOps
 * ops land in the epoch after it.
 */
TEST(CommittedLedger, KeepsCommittedEpochsAndRebasesAtTheWatermark)
{
    StoreConfig scfg = smallConfig();
    scfg.shards = 1;
    scfg.batchOps = 4;
    kernels::SimContext ctx(smallMachine(), storeArenaBytes(scfg));
    KvStore<kernels::SimEnv> store(ctx.arena, scfg, Backend::Lp);
    ctx.arena.persistAll();
    kernels::SimEnv env(ctx.machine, ctx.arena, 0);
    using Map = CommittedLedger::Map;

    CommittedLedger ledger(scfg);
    // Epoch 1: put 1, put 2, put 3, del 2. Epochs 2 and 3: puts 4..9.
    for (std::uint64_t k = 1; k <= 3; ++k)
        ledger.issue(env, store, true, k, 10 * k);
    ledger.issue(env, store, false, 2, 0);
    for (std::uint64_t k = 4; k <= 9; ++k)
        ledger.issue(env, store, true, k, 10 * k);
    EXPECT_EQ(ledger.golden().size(), 8u);

    ledger.keepCommitted({1});
    Map want{{1, 10}, {3, 30}};
    EXPECT_EQ(ledger.golden(), want);

    // Epoch 2 again: puts 101..104; put 105 opens epoch 3.
    for (std::uint64_t k = 101; k <= 105; ++k)
        ledger.issue(env, store, true, k, 10 * k);
    RecoveryReport rep;
    rep.committedEpochs = {2};
    for (std::uint64_t k = 101; k <= 104; ++k)
        want[k] = 10 * k;
    EXPECT_TRUE(ledger.keepRecovered(Backend::Lp, rep, want));
    EXPECT_EQ(ledger.golden(), want);

    Map surplus = want;
    surplus[105] = 1050;
    EXPECT_FALSE(ledger.keepRecovered(Backend::Lp, rep, surplus));
    EXPECT_EQ(ledger.golden(), want);
}

/**
 * Eager persists op by op, so a recovered eager store holds every
 * issued op, or every op but the one a crash interrupted. A snapshot
 * missing any earlier op is a lost durable write, and leaves the
 * ledger as it was.
 */
TEST(CommittedLedger, EagerRecoveryMayLoseOnlyTheInFlightOp)
{
    const StoreConfig scfg = smallConfig();
    kernels::SimContext ctx(smallMachine(), storeArenaBytes(scfg));
    KvStore<kernels::SimEnv> store(ctx.arena, scfg, Backend::EagerPerOp);
    ctx.arena.persistAll();
    kernels::SimEnv env(ctx.machine, ctx.arena, 0);
    using Map = CommittedLedger::Map;

    CommittedLedger ledger(scfg);
    for (std::uint64_t k = 1; k <= 3; ++k)
        ledger.issue(env, store, true, k, 10 * k);
    const Map all{{1, 10}, {2, 20}, {3, 30}};
    const RecoveryReport rep;

    EXPECT_TRUE(ledger.keepRecovered(Backend::EagerPerOp, rep, all));
    EXPECT_EQ(ledger.golden(), all);

    EXPECT_FALSE(ledger.keepRecovered(Backend::EagerPerOp, rep,
                                      Map{{1, 10}, {3, 30}}));
    EXPECT_EQ(ledger.golden(), all);

    const Map lostLast{{1, 10}, {2, 20}};
    EXPECT_TRUE(ledger.keepRecovered(Backend::EagerPerOp, rep, lostLast));
    EXPECT_EQ(ledger.golden(), lostLast);
}

/** scanMatches() sees a record the ledger lacks, and one it misses. */
TEST(CommittedLedger, ScanCatchesASurplusAndAMissingRecord)
{
    const StoreConfig scfg = smallConfig();
    kernels::SimContext ctx(smallMachine(), storeArenaBytes(scfg));
    KvStore<kernels::SimEnv> store(ctx.arena, scfg, Backend::Lp);
    ctx.arena.persistAll();
    kernels::SimEnv env(ctx.machine, ctx.arena, 0);

    CommittedLedger ledger(scfg);
    for (std::uint64_t k = 1; k <= 20; ++k)
        ledger.issue(env, store, true, k, k + 100);
    EXPECT_TRUE(ledger.scanMatches(env, store));

    store.put(env, 1000, 1);  // behind the ledger's back
    EXPECT_FALSE(ledger.scanMatches(env, store));
    ledger.issue(env, store, true, 1000, 1);
    EXPECT_TRUE(ledger.scanMatches(env, store));

    store.del(env, 5);
    EXPECT_FALSE(ledger.scanMatches(env, store));
}

/** Make the block holding @p p durable, as if its line had drained. */
void
persistBlockOf(pmem::PersistentArena &arena, const void *p)
{
    arena.persistBlock(blockAlign(arena.addrOf(p)));
}

/**
 * A journal record stores no epoch, so a stale record left by an
 * earlier journal generation must fail the salted batch digest. Here
 * epoch 2 = [put(10,1), put(11,1), put(k,2), put(k,1)] commits -- its
 * trailer, with the digest, drains alone in the journal's second
 * block -- but the first block, holding all four records,
 * still carries the previous generation's epoch 1 = [put(10,1),
 * put(11,1), put(k,1), put(k,2)]: a permutation of the very same
 * records, which the store's unsalted Modular sum cannot tell
 * apart. Recovery must discard epoch 2.
 */
TEST(JournalStaleGeneration, PermutedStaleRecordsAreDiscarded)
{
    StoreConfig scfg;
    scfg.capacity = 64;
    scfg.shards = 1;
    scfg.batchOps = 4;
    scfg.foldBatches = 1;  // the fold after epoch 1 restarts the journal
    kernels::SimContext ctx(smallMachine(), storeArenaBytes(scfg));
    KvStore<kernels::SimEnv> store(ctx.arena, scfg, Backend::Lp);
    ctx.arena.persistAll();
    kernels::SimEnv env(ctx.machine, ctx.arena, 0, &ctx.crash);
    auto *journal = const_cast<JEntry *>(
        static_cast<const JEntry *>(store.faultSurface(0).journal));

    // Both generations lay out as: records 0-3 (block 0), trailer 4
    // (block 1).
    const std::uint64_t k = 77;
    store.put(env, 10, 1);
    store.put(env, 11, 1);
    store.put(env, k, 1);
    store.put(env, k, 2);  // commits epoch 1 and folds
    ASSERT_EQ(store.committedEpoch(0), 1u);
    JEntry stale[4];
    std::copy(journal, journal + 4, stale);

    ctx.crash.armAfterRegions(1);
    bool crashed = false;
    try {
        store.put(env, 10, 1);
        store.put(env, 11, 1);
        store.put(env, k, 2);
        store.put(env, k, 1);  // the power fails as epoch 2 commits
    } catch (const pmem::CrashException &) {
        crashed = true;
    }
    ctx.crash.disarm();
    ASSERT_TRUE(crashed);

    // The full record line streamed straight to NVMM; put the old
    // generation back in its place, as if it had never left the
    // write-combining buffer. The trailer's partial line drains.
    std::copy(stale, stale + 4, journal);
    persistBlockOf(ctx.arena, &journal[0]);
    persistBlockOf(ctx.arena, &journal[4]);
    ctx.powerFail();

    // The durable image is exactly the scenario described above.
    ASSERT_EQ(journal[4].key, slotEmptyKey);
    ASSERT_EQ(journal[4].value & trailerTagMask, 2u);
    ASSERT_EQ(journal[2].key, k);
    ASSERT_EQ(journal[2].value, 1u);
    ASSERT_EQ(journal[3].key, k);
    ASSERT_EQ(journal[3].value, 2u);

    const RecoveryReport rep = store.recover(env);
    EXPECT_EQ(rep.committedEpochs[0], 1u);
    EXPECT_EQ(rep.batchesDiscarded, 1u);
    EXPECT_EQ(store.get(env, 10), std::optional<std::uint64_t>(1));
    EXPECT_EQ(store.get(env, k), std::optional<std::uint64_t>(2));
}

/**
 * A Del is journaled as {slotTombstoneKey, key}; Del records and the
 * largest user key must replay exactly from a journal that drained
 * but never folded.
 */
TEST(StoreJournalFormat, DelAndMaxUserKeySurviveCrashReplay)
{
    const StoreConfig scfg = smallConfig();
    kernels::SimContext ctx(smallMachine(), storeArenaBytes(scfg));
    KvStore<kernels::SimEnv> store(ctx.arena, scfg, Backend::Lp);
    ctx.arena.persistAll();
    kernels::SimEnv env(ctx.machine, ctx.arena, 0);

    auto crashAndRecover = [&]() {
        store.commitBatches(env);
        ctx.arena.persistAll();
        ctx.powerFail();
        return store.recover(env);
    };

    store.put(env, maxUserKey, 7);
    store.put(env, 5, 1);
    store.put(env, 6, 2);
    store.del(env, 5);
    store.put(env, maxUserKey, 8);
    RecoveryReport rep = crashAndRecover();
    EXPECT_EQ(rep.entriesReplayed, 5u);
    EXPECT_EQ(store.get(env, maxUserKey), std::optional<std::uint64_t>(8));
    EXPECT_EQ(store.get(env, 5), std::nullopt);
    EXPECT_EQ(store.get(env, 6), std::optional<std::uint64_t>(2));

    store.del(env, maxUserKey);
    store.del(env, 6);
    rep = crashAndRecover();
    EXPECT_EQ(rep.entriesReplayed, 2u);
    EXPECT_EQ(store.get(env, maxUserKey), std::nullopt);
    EXPECT_EQ(store.get(env, 6), std::nullopt);
    EXPECT_EQ(store.liveKeys(), 0u);
}

/**
 * A batch is committed only once its trailer is durable. Epoch 2's
 * last record and trailer share a line that is still in the
 * write-combining buffer when the power fails; its other records
 * drained. Recovery ends
 * the walk at epoch 1 without counting a discard: a missing trailer
 * is the journal's end.
 */
TEST(StoreJournalFormat, LostTrailerLineEndsTheWalk)
{
    StoreConfig scfg = smallConfig();
    scfg.shards = 1;
    scfg.batchOps = 4;
    kernels::SimContext ctx(smallMachine(), storeArenaBytes(scfg));
    KvStore<kernels::SimEnv> store(ctx.arena, scfg, Backend::Lp);
    ctx.arena.persistAll();
    kernels::SimEnv env(ctx.machine, ctx.arena, 0);
    const auto *journal =
        static_cast<const JEntry *>(store.faultSurface(0).journal);

    // Epoch 1: records 0-3, trailer 4. Epoch 2: records 5-8, trailer
    // 9. Block 1 (entries 4-7) fills at record 7 and streams out;
    // block 2 holds record 8 and the trailer.
    for (std::uint64_t i = 0; i < 8; ++i)
        store.put(env, 100 + i, i);
    ASSERT_EQ(store.committedEpoch(0), 2u);
    EXPECT_EQ(ctx.machine.pendingStreamLines(), 1u);
    EXPECT_EQ(ctx.arena.peekDurable(&journal[7].key), 106u);
    EXPECT_NE(ctx.arena.peekDurable(&journal[8].key), 107u);
    ctx.powerFail();
    EXPECT_NE(journal[9].key, slotEmptyKey);

    const RecoveryReport rep = store.recover(env);
    EXPECT_EQ(rep.committedEpochs[0], 1u);
    EXPECT_EQ(rep.batchesDiscarded, 0u);
    EXPECT_EQ(rep.entriesReplayed, 4u);
    EXPECT_EQ(store.get(env, 103), std::optional<std::uint64_t>(3));
    EXPECT_EQ(store.get(env, 104), std::nullopt);
    EXPECT_EQ(store.get(env, 107), std::nullopt);
}

/**
 * Underfilled batches (group-commit deadlines) carry their size only
 * in the trailer's position: a crash after a drain must replay a
 * 1-record, a full and a 2-record batch exactly.
 */
TEST(StoreJournalFormat, UnderfilledBatchesReplayAfterCrash)
{
    StoreConfig scfg = smallConfig();
    scfg.shards = 1;
    scfg.batchOps = 4;
    kernels::SimContext ctx(smallMachine(), storeArenaBytes(scfg));
    KvStore<kernels::SimEnv> store(ctx.arena, scfg, Backend::Lp);
    ctx.arena.persistAll();
    kernels::SimEnv env(ctx.machine, ctx.arena, 0);

    store.put(env, 1, 10);
    store.commitBatches(env);  // epoch 1: one record
    for (std::uint64_t i = 0; i < 4; ++i)
        store.put(env, 2 + i, 20 + i);  // epoch 2: full
    store.del(env, 1);
    store.put(env, 3, 33);
    store.commitBatches(env);  // epoch 3: two records
    ASSERT_EQ(store.committedEpoch(0), 3u);
    store.put(env, 9, 99);  // epoch 4 stays open

    ctx.machine.drainDirty();
    ctx.powerFail();
    const RecoveryReport rep = store.recover(env);
    EXPECT_EQ(rep.committedEpochs[0], 3u);
    EXPECT_EQ(rep.batchesReplayed, 3u);
    EXPECT_EQ(rep.entriesReplayed, 7u);
    EXPECT_EQ(rep.batchesDiscarded, 0u);
    const std::map<std::uint64_t, std::uint64_t> want = {
        {2, 20}, {3, 33}, {4, 22}, {5, 23}};
    EXPECT_EQ(store.snapshot(), want);
}

/**
 * Epoch numbers restart at the recovered watermark, so the batches a
 * crashed life left on media past it carry the numbers the next life
 * reuses. Life 1 commits epochs 1 and 2; epoch 2's block drains,
 * epoch 1's block does not, so recovery 1 rolls back to 0. Life 2
 * commits a new epoch 1 and crashes with epoch 2 open. Life 1's
 * epoch 2 -- right where life 2's epoch 2 would go, its trailer
 * tagged 2 and carrying its digest -- must not come back.
 */
TEST(StoreRecovery, RolledBackBatchStaysRolledBack)
{
    StoreConfig scfg;
    scfg.capacity = 64;
    scfg.shards = 1;
    scfg.batchOps = 3;
    scfg.foldBatches = 8;
    kernels::SimContext ctx(smallMachine(), storeArenaBytes(scfg));
    KvStore<kernels::SimEnv> store(ctx.arena, scfg, Backend::Lp);
    ctx.arena.persistAll();
    kernels::SimEnv env(ctx.machine, ctx.arena, 0);
    auto *journal = const_cast<JEntry *>(
        static_cast<const JEntry *>(store.faultSurface(0).journal));
    auto crash = [&]() {
        ctx.powerFail();
    };

    // Life 1: each 3-op batch fills exactly one journal block.
    for (std::uint64_t key : {1u, 2u, 3u})
        store.put(env, key, 100);
    for (std::uint64_t key : {7u, 8u, 9u})
        store.put(env, key, 111);
    ASSERT_EQ(store.committedEpoch(0), 2u);
    std::fill(journal, journal + 4, JEntry{0, 0});
    persistBlockOf(ctx.arena, &journal[0]);  // epoch 1 never drained
    persistBlockOf(ctx.arena, &journal[4]);
    crash();
    RecoveryReport rep = store.recover(env);
    ASSERT_EQ(rep.committedEpochs[0], 0u);
    ASSERT_EQ(store.get(env, 7), std::nullopt);

    // Life 2.
    for (std::uint64_t key : {4u, 5u, 6u})
        store.put(env, key, 200);
    ASSERT_EQ(store.committedEpoch(0), 1u);
    persistBlockOf(ctx.arena, &journal[0]);
    store.put(env, 10, 222);  // epoch 2 open at the crash
    crash();
    rep = store.recover(env);
    EXPECT_EQ(rep.committedEpochs[0], 1u);
    EXPECT_EQ(store.get(env, 4), std::optional<std::uint64_t>(200));
    EXPECT_EQ(store.get(env, 7), std::nullopt)
        << "life 1's rolled-back epoch 2 came back";
    EXPECT_EQ(store.get(env, 10), std::nullopt);
}

/** No journal record straddles a block: the base is block-aligned. */
TEST(StoreJournalFormat, RecordsNeverStraddleBlocks)
{
    const StoreConfig scfg = smallConfig();
    kernels::SimContext ctx(smallMachine(), storeArenaBytes(scfg));
    KvStore<kernels::SimEnv> store(ctx.arena, scfg, Backend::Lp);
    for (int s = 0; s < scfg.shards; ++s) {
        const FaultSurface fs = store.faultSurface(s);
        const Addr base = ctx.arena.addrOf(fs.journal);
        EXPECT_EQ(blockOffset(base), 0u) << "shard " << s;
        for (std::size_t off = 0; off < fs.journalBytes;
             off += sizeof(JEntry)) {
            ASSERT_EQ(blockNumber(base + off),
                      blockNumber(base + off + sizeof(JEntry) - 1))
                << "record at byte " << off << " straddles a block";
        }
    }
}

/**
 * Many folds, then a crash with the tail of the stream committed but
 * never folded: every journal position holds stale trailers of
 * earlier generations, and recovery replays exactly the unfolded
 * tail.
 */
TEST(StoreRecovery, ManyFoldsThenCrashReplaysTheUnfoldedTail)
{
    StoreConfig scfg = smallConfig();
    scfg.batchOps = 4;
    scfg.foldBatches = 4;
    kernels::SimContext ctx(smallMachine(), storeArenaBytes(scfg));
    KvStore<kernels::SimEnv> store(ctx.arena, scfg, Backend::Lp);
    ctx.arena.persistAll();
    kernels::SimEnv env(ctx.machine, ctx.arena, 0);

    std::map<std::uint64_t, std::uint64_t> golden;
    Rng rng(41);
    for (int i = 0; i < 1000; ++i) {
        const std::uint64_t key = keyOfRecord(rng.below(200), 9);
        store.put(env, key, std::uint64_t(i));
        golden[key] = std::uint64_t(i);
    }
    for (int s = 0; s < scfg.shards; ++s)
        ASSERT_GT(store.committedEpoch(s), 12u * scfg.foldBatches)
            << "shard " << s;

    store.commitBatches(env);
    std::vector<std::uint64_t> committed;
    for (int s = 0; s < scfg.shards; ++s)
        committed.push_back(store.committedEpoch(s));
    ctx.arena.persistAll();
    ctx.powerFail();
    const RecoveryReport rep = store.recover(env);
    EXPECT_GT(rep.batchesReplayed, 0u);
    EXPECT_EQ(rep.committedEpochs, committed);
    EXPECT_EQ(store.snapshot(), golden);
}

/**
 * A clean restart: after a checkpoint and markClean the journal is
 * empty but the media under it still holds the last generation's
 * batches and trailers. Strict recovery must find nothing to replay,
 * discard or repair: a stale trailer is the journal's end.
 */
TEST(StoreRecovery, CleanRestartReplaysAndDiscardsNothing)
{
    const StoreConfig scfg = smallConfig();
    kernels::SimContext ctx(smallMachine(), storeArenaBytes(scfg));
    KvStore<kernels::SimEnv> store(ctx.arena, scfg, Backend::Lp);
    ctx.arena.persistAll();
    kernels::SimEnv env(ctx.machine, ctx.arena, 0);

    Rng rng(23);
    for (int i = 0; i < 1500; ++i) {
        const std::uint64_t key = keyOfRecord(rng.below(300), 5);
        if (rng.chance(0.2))
            store.del(env, key);
        else
            store.put(env, key, std::uint64_t(i));
    }
    store.checkpoint(env);
    store.markClean(env);
    const auto before = store.snapshot();

    ctx.powerFail();
    const RecoveryReport rep = store.recover(env);
    EXPECT_EQ(rep.batchesReplayed, 0u);
    EXPECT_EQ(rep.batchesDiscarded, 0u);
    EXPECT_EQ(rep.mediaRepaired, 0u);
    EXPECT_EQ(rep.mediaUnrepairable, 0u);
    EXPECT_EQ(store.snapshot(), before);
}

/**
 * A trailer keeps only the low trailerTagBits of its epoch. Drive a
 * shard past the tag's wrap with one-op batches and a fold period
 * that does not divide 2^16, so the unfolded tail at the crash holds
 * epochs on both sides of the wrap (tags 0xfff0.. and 0..), then
 * recover exactly that tail.
 */
TEST(StoreRecovery, EpochTagWrapRecoversExactly)
{
    StoreConfig scfg;
    scfg.capacity = 256;
    scfg.shards = 1;
    scfg.batchOps = 1;
    scfg.foldBatches = 48;
    kernels::SimContext ctx(smallMachine(), storeArenaBytes(scfg));
    KvStore<kernels::SimEnv> store(ctx.arena, scfg, Backend::Lp);
    ctx.arena.persistAll();
    kernels::SimEnv env(ctx.machine, ctx.arena, 0);

    const std::uint64_t wrap = 1ull << trailerTagBits;
    const std::uint64_t epochs = wrap + 24;
    std::map<std::uint64_t, std::uint64_t> golden;
    Rng rng(5);
    for (std::uint64_t i = 0; i < epochs; ++i) {
        const std::uint64_t key = keyOfRecord(rng.below(100), 3);
        store.put(env, key, i);
        golden[key] = i;
    }
    ASSERT_EQ(store.committedEpoch(0), epochs);
    const std::uint64_t folded = epochs / scfg.foldBatches *
                                 std::uint64_t(scfg.foldBatches);
    ASSERT_LT(folded, wrap) << "the unfolded tail must straddle the wrap";

    ctx.arena.persistAll();
    ctx.powerFail();
    const RecoveryReport rep = store.recover(env);
    EXPECT_EQ(rep.committedEpochs[0], epochs);
    EXPECT_EQ(rep.batchesReplayed, epochs - folded);
    EXPECT_EQ(rep.batchesDiscarded, 0u);
    EXPECT_EQ(store.snapshot(), golden);

    // The next life keeps committing past the wrap.
    store.put(env, 1, 7);
    store.checkpoint(env);
    golden[1] = 7;
    EXPECT_EQ(store.snapshot(), golden);
    EXPECT_EQ(store.committedEpoch(0), epochs + 1);
}

/**
 * nvmm_by_structure accounts for every NVMM write of the mix, and the
 * LP journal, written only with streaming stores, is never read.
 */
TEST(StoreTraffic, ByStructureCoversAllWritesAndJournalIsNeverRead)
{
    StoreConfig scfg = smallConfig();
    YcsbParams p;
    p.records = 512;
    p.ops = 4096;
    for (Backend b : kBackends) {
        const StoreRunResult r =
            runStoreYcsb(b, scfg, p, smallMachine());
        ASSERT_TRUE(r.verified) << backendName(b);
        ASSERT_EQ(r.nvmmByStructure.size(), std::size(kNvmmStructures));
        double writes = 0.0;
        double reads = 0.0;
        for (const NvmmTraffic &t : r.nvmmByStructure) {
            writes += t.writesPerMut;
            reads += t.readsPerMut;
        }
        const double muts = double(r.mutations);
        EXPECT_NEAR(writes, r.writesPerMutation, 1e-9) << backendName(b);
        EXPECT_NEAR(reads, r.stats.at("nvmm_reads") / muts, 1e-9)
            << backendName(b);
        EXPECT_GT(r.nvmmByStructure[0].writesPerMut, 0.0)
            << backendName(b) << ": table";
        if (b == Backend::Lp) {
            const NvmmTraffic &jr = r.nvmmByStructure[1];
            EXPECT_GT(jr.writesPerMut, 0.0);
            EXPECT_EQ(jr.readsPerMut, 0.0);
            // Parity is the journal's only redundancy: one whole line
            // streamed per completed 8-region group, never read, so
            // at most one parity write per eight journal lines.
            const NvmmTraffic &par = r.nvmmByStructure[2];
            ASSERT_STREQ(kNvmmStructures[2], "parity");
            ASSERT_STREQ(kNvmmStructures[3], "parity_header");
            EXPECT_GT(par.writesPerMut, 0.0);
            EXPECT_EQ(par.readsPerMut, 0.0);
            EXPECT_LE(8 * par.writesPerMut, jr.writesPerMut);
        }
    }
}

/**
 * The LP fold prefetches the home line of every distinct key in its
 * window exactly once, ahead of applying it; WAL's plan phase
 * prefetches the home line of every op in the batch it commits. With
 * the table lines fitting in the L2 none of those lines is evicted
 * before use. The eager backend never prefetches.
 */
TEST(StoreFold, PrefetchesEachDistinctKeyOnce)
{
    StoreConfig scfg = smallConfig();
    scfg.shards = 1;
    scfg.foldBatches = 64;  // only the checkpoints fold
    sim::MachineConfig mcfg = smallMachine();
    mcfg.l2 = {256 * 1024, 8, 11};
    constexpr int kOps = 300;
    // The checkpoint commits the open batch: the ops past the last
    // full batch (300 % 8 = 4), since each window starts with no
    // batch open.
    const std::size_t openOps = std::size_t(kOps % scfg.batchOps);
    for (Backend b : kBackends) {
        kernels::SimContext ctx(mcfg, storeArenaBytes(scfg));
        KvStore<kernels::SimEnv> store(ctx.arena, scfg, b);
        ctx.arena.persistAll();
        kernels::SimEnv env(ctx.machine, ctx.arena, 0);
        const auto prefetches = [&ctx] {
            return ctx.machine.machineStats().prefetches.value();
        };
        Rng rng(7);
        for (int window = 0; window < 2; ++window) {
            std::set<std::uint64_t> keys;
            for (int i = 0; i < kOps; ++i) {
                const std::uint64_t key =
                    keyOfRecord(rng.below(200), 11);
                keys.insert(key);
                if (rng.chance(0.2))
                    store.del(env, key);
                else
                    store.put(env, key, std::uint64_t(i));
                store.get(env, keyOfRecord(rng.below(200), 11));
            }
            const auto before = prefetches();
            store.checkpoint(env);
            const auto folded = prefetches() - before;
            const std::size_t want = b == Backend::Lp    ? keys.size()
                                     : b == Backend::Wal ? openOps
                                                         : 0u;
            EXPECT_EQ(folded, want)
                << backendName(b) << " window " << window;
        }
        EXPECT_EQ(ctx.machine.machineStats().prefetchUnused.value(), 0u)
            << backendName(b);
        if (b == Backend::Lp) {
            EXPECT_GT(
                ctx.machine.machineStats().prefetchWaitCycles.value(),
                0u);
        }
    }
}

/**
 * One WAL batch commit over N distinct cold keys prefetches each
 * key's home line once, ahead of planning it, and uses every line.
 */
TEST(StoreWal, BatchCommitPrefetchesEachColdKeyOnce)
{
    StoreConfig scfg = smallConfig();
    scfg.shards = 1;
    scfg.batchOps = 32;  // past prefetchDistance: the walk runs ahead
    kernels::SimContext ctx(smallMachine(), storeArenaBytes(scfg));
    KvStore<kernels::SimEnv> store(ctx.arena, scfg, Backend::Wal);
    ctx.arena.persistAll();
    kernels::SimEnv env(ctx.machine, ctx.arena, 0);
    const sim::MachineStats &ms = ctx.machine.machineStats();

    // Staging touches no table line: every key is still cold when
    // the last put fills the batch and commits it.
    for (int r = 0; r + 1 < scfg.batchOps; ++r)
        store.put(env, keyOfRecord(std::uint64_t(r), 9), 1);
    ASSERT_EQ(ms.prefetches.value(), 0u);
    store.put(env, keyOfRecord(std::uint64_t(scfg.batchOps - 1), 9), 1);
    EXPECT_EQ(store.committedEpoch(0), 1u);
    EXPECT_EQ(ms.prefetches.value(), std::uint64_t(scfg.batchOps));
    EXPECT_EQ(ms.prefetchUnused.value(), 0u);
    EXPECT_GT(ms.prefetchWaitCycles.value(), 0u);
}

/** Home slot of @p key in a table of @p slots slots (SlotTable's hash). */
std::size_t
homeSlot(std::uint64_t key, std::size_t slots)
{
    return std::size_t((key * 0x9e3779b97f4a7c15ull) >> 32) & (slots - 1);
}

/** The first @p n keys from 1 up whose home slot is @p slot. */
std::vector<std::uint64_t>
keysHomedAt(std::size_t slot, std::size_t slots, int n)
{
    std::vector<std::uint64_t> keys;
    for (std::uint64_t k = 1; int(keys.size()) < n; ++k)
        if (homeSlot(k, slots) == slot)
            keys.push_back(k);
    return keys;
}

/** NVMM writes per table block (simulated block address). */
std::map<Addr, std::uint64_t>
tableBlockWrites(const kernels::SimContext &ctx, const FaultSurface &fs)
{
    const Addr lo = ctx.arena.addrOf(fs.table);
    const Addr hi = lo + fs.tableBytes;
    std::map<Addr, std::uint64_t> out;
    for (const auto &[blk, n] : ctx.machine.blockWriteCounts())
        if (blk >= lo && blk < hi)
            out[blk] = n;
    return out;
}

/**
 * One fold whose keys share home blocks -- four keys homed in block
 * 100, two homed at slot 803 (the second probes into block 201), and
 * three homed at the table's last two slots, the third of which
 * probes past the end into block 0 -- writes each touched table block
 * to NVMM exactly once.
 */
TEST(StoreFold, WritesEachTouchedTableBlockOnce)
{
    StoreConfig scfg = smallConfig();
    scfg.shards = 1;
    kernels::SimContext ctx(smallMachine(), storeArenaBytes(scfg));
    KvStore<kernels::SimEnv> store(ctx.arena, scfg, Backend::Lp);
    ctx.arena.persistAll();
    kernels::SimEnv env(ctx.machine, ctx.arena, 0);
    const FaultSurface fs = store.faultSurface(0);
    const std::size_t slots = fs.tableBytes / sizeof(KvSlot);
    ASSERT_EQ(slots, 2048u);

    std::vector<std::uint64_t> keys;
    for (const auto &[slot, n] :
         {std::pair{400, 1}, {401, 2}, {403, 1}, {803, 2}, {2046, 1},
          {2047, 2}}) {
        for (std::uint64_t k : keysHomedAt(std::size_t(slot), slots, n))
            keys.push_back(k);
    }
    for (std::size_t i = 0; i < keys.size(); ++i)
        store.put(env, keys[i], i + 1);
    const auto before = tableBlockWrites(ctx, fs);
    store.checkpoint(env);
    auto after = tableBlockWrites(ctx, fs);
    for (const auto &[blk, n] : before)
        after[blk] -= n;

    const auto *table = static_cast<const KvSlot *>(fs.table);
    std::set<Addr> touched;
    for (std::size_t i = 0; i < slots; ++i)
        if (table[i].key != slotEmptyKey)
            touched.insert(blockAlign(ctx.arena.addrOf(&table[i])));
    const auto blockOfSlot = [&](std::size_t i) {
        return blockAlign(ctx.arena.addrOf(&table[i]));
    };
    EXPECT_EQ(touched, (std::set<Addr>{blockOfSlot(0), blockOfSlot(400),
                                       blockOfSlot(803), blockOfSlot(804),
                                       blockOfSlot(2047)}));
    for (const Addr blk : touched)
        EXPECT_EQ(after[blk], 1u) << "table block " << blk;
    std::uint64_t total = 0;
    for (const auto &[blk, n] : after)
        total += n;
    EXPECT_EQ(total, touched.size());
    EXPECT_EQ(store.snapshot().size(), keys.size());
}

/**
 * SimEnv that logs, for every sfence, the core cycles from the last
 * plain store before it to the fence's completion: how far a store
 * phase's write-backs trail its stores.
 */
class FenceLogEnv : public kernels::SimEnv
{
  public:
    using SimEnv::SimEnv;

    template <typename T>
    void
    st(T *p, T v)
    {
        SimEnv::st(p, v);
        lastStore_ = now();
    }

    void
    sfence()
    {
        SimEnv::sfence();
        trails.push_back(now() - lastStore_);
    }

    std::vector<Cycles> trails;

  private:
    Cycles now() { return machine().coreCycles(core()); }

    Cycles lastStore_ = 0;
};

/**
 * The fold's write-backs drain behind its apply: with 600 distinct
 * keys folded, the pass's fence completes within about one NVMM write
 * latency of the last table store. Issuing every clwb after the last
 * store instead (one per dirty block, 16 cycles apart at the write
 * port) puts about 9k cycles between them.
 */
TEST(StoreFold, WriteBacksDrainBehindTheApply)
{
    StoreConfig scfg = smallConfig();
    scfg.shards = 1;
    scfg.capacity = 4096;
    scfg.batchOps = 32;
    scfg.foldBatches = 64;  // only the checkpoint folds
    sim::MachineConfig mcfg = smallMachine();
    mcfg.l2 = {256 * 1024, 8, 11};
    kernels::SimContext ctx(mcfg, storeArenaBytes(scfg));
    KvStore<FenceLogEnv> store(ctx.arena, scfg, Backend::Lp);
    ctx.arena.persistAll();
    FenceLogEnv env(ctx.machine, ctx.arena, 0);
    for (std::uint64_t k = 0; k < 600; ++k)
        store.put(env, keyOfRecord(k, 3), k);
    env.trails.clear();
    const auto flushes = ctx.machine.machineStats().flushWrites.value();
    store.checkpoint(env);
    EXPECT_GT(ctx.machine.machineStats().flushWrites.value() - flushes,
              400u);
    // Fences: journal tail, the table pass, the superblock pair.
    ASSERT_EQ(env.trails.size(), 3u);
    const Cycles writeLatency = mcfg.nvmmWriteCycles();
    EXPECT_LE(env.trails[1], writeLatency + writeLatency / 4);
    EXPECT_LE(env.trails[2], writeLatency + writeLatency / 4);
}

/**
 * Recovery coalesces the committed prefix to the last op per key
 * before applying it: put / del / put of one key across three
 * committed batches costs the key's table block one NVMM write, not
 * three. A crash inside the recovery's apply is followed by a second
 * recovery, and the result equals the sequential replay.
 */
TEST(StoreRecovery, ReplayCoalescesToTheLastOpPerKey)
{
    StoreConfig scfg = smallConfig();
    scfg.shards = 1;
    kernels::SimContext ctx(smallMachine(), storeArenaBytes(scfg));
    KvStore<kernels::SimEnv> store(ctx.arena, scfg, Backend::Lp);
    ctx.arena.persistAll();
    kernels::SimEnv env(ctx.machine, ctx.arena, 0, &ctx.crash);
    const FaultSurface fs = store.faultSurface(0);

    constexpr std::uint64_t k = 5000;
    std::map<std::uint64_t, std::uint64_t> golden;
    std::uint64_t filler = 1;
    for (int batch = 0; batch < 3; ++batch) {
        if (batch == 1) {
            store.del(env, k);
            golden.erase(k);
        } else {
            store.put(env, k, std::uint64_t(batch + 1));
            golden[k] = std::uint64_t(batch + 1);
        }
        for (int i = 1; i < scfg.batchOps; ++i, ++filler) {
            store.put(env, filler, filler);
            golden[filler] = filler;
        }
    }
    ASSERT_EQ(store.committedEpoch(0), 3u);
    // One more op fills the journal line holding epoch 3's trailer,
    // so it streams out; the open batch 4 dies with the power.
    store.put(env, filler, filler);
    ctx.powerFail();

    ctx.crash.armAfterStores(10);
    bool recoveryCrashed = false;
    try {
        store.recover(env);
    } catch (const pmem::CrashException &) {
        recoveryCrashed = true;
        ctx.powerFail();
    }
    ctx.crash.disarm();
    ASSERT_TRUE(recoveryCrashed);

    const auto *table = static_cast<const KvSlot *>(fs.table);
    auto before = tableBlockWrites(ctx, fs);
    const RecoveryReport rep = store.recover(env);
    EXPECT_EQ(rep.batchesReplayed, 3u);
    EXPECT_EQ(rep.entriesReplayed, 3u * std::uint64_t(scfg.batchOps));
    EXPECT_EQ(rep.committedEpochs, std::vector<std::uint64_t>{3});
    EXPECT_EQ(store.snapshot(), golden);

    const std::size_t slots = fs.tableBytes / sizeof(KvSlot);
    std::size_t at = slots;
    for (std::size_t i = 0; i < slots; ++i)
        if (table[i].key == k)
            at = i;
    ASSERT_LT(at, slots);
    const Addr blk = blockAlign(ctx.arena.addrOf(&table[at]));
    auto after = tableBlockWrites(ctx, fs);
    EXPECT_EQ(after[blk] - before[blk], 1u);
}

/**
 * The table-order pass clwbs each distinct touched block once,
 * however many of its keys share the block; the lines stay cached
 * clean and are durable once the pass returns.
 */
TEST(StoreFold, TableOrderPassDedupsAndKeepsLinesCached)
{
    constexpr std::size_t capacity = 256;
    kernels::SimContext ctx(smallMachine(), 8 * capacity * sizeof(KvSlot));
    SlotTable<kernels::SimEnv> table(ctx.arena, capacity, false);
    ctx.arena.persistAll();
    kernels::SimEnv env(ctx.machine, ctx.arena, 0);
    const std::size_t slots = table.slotCount();

    // Three keys homed in each of the slots 40, 41 and 42 -- nine
    // slots 40..48 over three blocks -- and two in slot 300.
    std::vector<std::uint64_t> keys;
    for (const auto &[slot, n] :
         {std::pair{40, 3}, {41, 3}, {42, 3}, {300, 2}}) {
        for (std::uint64_t k : keysHomedAt(std::size_t(slot), slots, n))
            keys.push_back(k);
    }
    table.applyInTableOrder(env, keys, [](std::uint64_t key) {
        return DeltaVal{true, key + 1};
    });
    const sim::MachineStats &ms = ctx.machine.machineStats();
    EXPECT_EQ(ms.flushInstrs.value(), 4u);
    EXPECT_EQ(ms.flushWrites.value(), 4u);
    EXPECT_EQ(ctx.machine.totalDirtyLines(), 0u);

    const auto reads = ms.nvmmReads.value();
    for (std::uint64_t key : keys) {
        const std::size_t i = table.probeFind(env, key);
        ASSERT_NE(i, table.npos);
        EXPECT_EQ(env.ld(&table.slot(i).value), key + 1);
    }
    EXPECT_EQ(ms.nvmmReads.value(), reads);

    ctx.powerFail();
    for (std::uint64_t key : keys) {
        const std::size_t i = table.probeFind(env, key);
        ASSERT_NE(i, table.npos);
        EXPECT_EQ(table.slot(i).value, key + 1);
    }
}

/**
 * The pass's radix sort gives exactly the comparator order -- home
 * slot, then key -- on one-, two- and three-byte slot indices, with
 * runs of keys sharing a home slot on both sides of the table's wrap
 * point, fed in descending key order so the insertion pass must
 * reorder every run.
 */
TEST(StoreFold, SortByHomeMatchesTheComparatorOrder)
{
    for (const std::size_t capacity : {32, 32768, 65536}) {
        pmem::PersistentArena arena(2 * capacity * sizeof(KvSlot) +
                                    blockBytes);
        SlotTable<kernels::NativeEnv> table(arena, capacity, false);
        const std::size_t slots = table.slotCount();
        Rng rng(capacity);
        std::vector<std::uint64_t> keys;
        for (int i = 0; i < 2048; ++i)
            keys.push_back(rng.next64());
        int atFirst = 0;
        int atLast = 0;
        for (std::uint64_t k = 1; atFirst < 3 || atLast < 3; ++k) {
            const std::size_t home = table.bucketOf(k);
            if (home == 0 && atFirst < 3) {
                keys.push_back(k);
                ++atFirst;
            } else if (home == slots - 1 && atLast < 3) {
                keys.push_back(k);
                ++atLast;
            }
        }
        std::reverse(keys.begin(), keys.end());

        std::vector<std::uint64_t> want = keys;
        std::sort(want.begin(), want.end(),
                  [&table](std::uint64_t a, std::uint64_t b) {
                      const std::size_t ha = table.bucketOf(a);
                      const std::size_t hb = table.bucketOf(b);
                      return ha != hb ? ha < hb : a < b;
                  });
        table.sortByHome(keys);
        EXPECT_EQ(keys, want) << slots << " slots";
        EXPECT_EQ(table.bucketOf(keys.front()), 0u);
        EXPECT_EQ(table.bucketOf(keys.back()), slots - 1);
    }
}

/**
 * The commit path covers the journal one whole 8-region parity group
 * at a time; marking the shard clean covers the trailing partial
 * group up to the last whole sealed region.
 */
TEST(StoreParity, CoverStopsAtGroupBoundaryUntilMarkedClean)
{
    StoreConfig scfg = smallConfig();
    scfg.shards = 1;
    scfg.foldBatches = 64;
    kernels::SimContext ctx(smallMachine(), storeArenaBytes(scfg));
    KvStore<kernels::SimEnv> store(ctx.arena, scfg, Backend::Lp);
    ctx.arena.persistAll();
    kernels::SimEnv env(ctx.machine, ctx.arena, 0);
    const std::size_t groupBytes =
        repair::groupRegions * repair::regionBytes;

    // 3 batches of 8 records + trailer: 432 sealed bytes, 6 regions.
    for (std::uint64_t k = 1; k <= 24; ++k)
        store.put(env, k, k);
    EXPECT_EQ(store.faultSurface(0).sealedBytes, 432u);
    EXPECT_EQ(store.faultSurface(0).coveredBytes, 0u);

    // 7 batches: 1008 sealed bytes, 15 whole regions, 1 whole group.
    for (std::uint64_t k = 25; k <= 56; ++k)
        store.put(env, k, k);
    EXPECT_EQ(store.faultSurface(0).sealedBytes, 1008u);
    EXPECT_EQ(store.faultSurface(0).coveredBytes, groupBytes);

    store.markClean(env);
    EXPECT_EQ(store.faultSurface(0).coveredBytes,
              15 * repair::regionBytes);

    // Coverage keeps going past the tail cover: the next batch
    // completes group 1, whose lines are rewritten whole.
    for (std::uint64_t k = 57; k <= 64; ++k)
        store.put(env, k, k);
    EXPECT_EQ(store.faultSurface(0).coveredBytes, 2 * groupBytes);
    EXPECT_EQ(store.scrubStep(env, 0, 64), 16u);
    EXPECT_EQ(store.mediaCounters(0).repaired.load(), 0u);
}

/**
 * RegionParity on its own: a tail cover's partial parity
 * reconstructs a region of the partial group, and the later
 * whole-group cover that completes the group rewrites its line so a
 * region past the old tail reconstructs too. restore() writes a
 * reconstruction back.
 */
TEST(StoreParity, TailCoverIsRewrittenWhenTheGroupCompletes)
{
    constexpr std::size_t regions = 32;
    constexpr std::size_t rw = repair::regionWords;
    constexpr std::size_t words = regions * rw;
    kernels::SimContext ctx(smallMachine(),
                            words * sizeof(std::uint64_t) +
                                repair::parityArenaBytes(words * 8) +
                                8 * blockBytes);
    auto *data = ctx.arena.alloc<std::uint64_t>(words);
    repair::RegionParity<kernels::SimEnv> par(
        ctx.arena, data, words * sizeof(std::uint64_t), false);
    kernels::SimEnv env(ctx.machine, ctx.arena, 0);
    for (std::size_t w = 0; w < words; ++w)
        data[w] = repair::mix64(w);
    const auto stored = [&]() {
        return data + par.pendingRegion() * rw;
    };
    // Rot one word of region @p r; reconstruct it; the candidate must
    // be the original region, and restoring it undoes the rot.
    const auto rotAndRebuild = [&](std::size_t r) {
        std::uint64_t want[rw];
        std::copy_n(data + r * rw, rw, want);
        data[r * rw + 3] ^= 0x40;
        std::uint64_t rec[rw];
        par.reconstruct(env, r, rec);
        EXPECT_TRUE(std::equal(rec, rec + rw, want)) << "region " << r;
        par.restore(env, r * rw + 3, 1, rec + 3);
        EXPECT_TRUE(std::equal(data + r * rw, data + r * rw + rw, want))
            << "region " << r;
    };

    par.cover(env, 1, 11 * repair::regionBytes + 16, stored());
    EXPECT_EQ(par.coveredRegions(), 8u);
    EXPECT_EQ(par.pendingRegion(), 8u);
    par.coverTail(env, 11 * repair::regionBytes + 16, stored());
    EXPECT_EQ(par.coveredRegions(), 11u);
    EXPECT_EQ(par.pendingRegion(), 8u);
    rotAndRebuild(10);

    par.cover(env, 2, 15 * repair::regionBytes, stored());
    EXPECT_EQ(par.coveredRegions(), 11u) << "group 1 is not complete";
    par.cover(env, 3, 16 * repair::regionBytes, stored());
    EXPECT_EQ(par.coveredRegions(), 16u);
    EXPECT_EQ(par.lastSealedEpoch(), 3u);
    rotAndRebuild(12);
    rotAndRebuild(2);
}

/**
 * A group's streamed parity line leaves for NVMM at the commit that
 * completes the group, before the header that vouches for it. Crash
 * with the line durable but the header still cached: the durable
 * header is stale-small (no coverage), and recovery accepts exactly
 * the committed prefix.
 */
TEST(StoreParity, CrashBeforeHeaderDrainsKeepsStaleSmallCoverage)
{
    StoreConfig scfg = smallConfig();
    scfg.shards = 1;
    scfg.foldBatches = 64;
    kernels::SimContext ctx(smallMachine(), storeArenaBytes(scfg));
    KvStore<kernels::SimEnv> store(ctx.arena, scfg, Backend::Lp);
    ctx.arena.persistAll();
    kernels::SimEnv env(ctx.machine, ctx.arena, 0);

    // 4 batches of 8 records + trailer: 576 bytes, 9 whole regions,
    // so epoch 4's commit completes group 0.
    std::map<std::uint64_t, std::uint64_t> golden;
    for (std::uint64_t k = 1; k <= 32; ++k) {
        store.put(env, k, 100 + k);
        golden[k] = 100 + k;
    }
    ASSERT_EQ(store.committedEpoch(0), 4u);
    const FaultSurface fs = store.faultSurface(0);
    ASSERT_EQ(fs.coveredBytes,
              repair::groupRegions * repair::regionBytes);

    const auto *parity = static_cast<const std::uint64_t *>(fs.parity);
    for (std::size_t w = 0; w < repair::regionWords; ++w) {
        EXPECT_EQ(ctx.arena.peekDurable(&parity[w]), parity[w])
            << "parity word " << w << " still pending";
    }
    const auto *hdr = static_cast<const std::uint64_t *>(fs.parityHeader);
    EXPECT_EQ(hdr[0], repair::groupRegions);
    EXPECT_EQ(ctx.arena.peekDurable(&hdr[0]), 0u)
        << "header drained: the crash point is gone";

    ctx.powerFail();
    const RecoveryReport rep = store.recover(env);
    EXPECT_EQ(rep.committedEpochs[0], 4u);
    EXPECT_EQ(rep.batchesReplayed, 4u);
    EXPECT_EQ(rep.batchesDiscarded, 0u);
    EXPECT_EQ(rep.mediaRepaired, 0u);
    EXPECT_EQ(rep.mediaUnrepairable, 0u);
    EXPECT_EQ(store.snapshot(), golden);
}

TEST(StoreYcsb, KeyOfRecordIsInjective)
{
    std::unordered_map<std::uint64_t, std::size_t> seen;
    for (std::size_t id = 0; id < 10000; ++id) {
        const std::uint64_t k = keyOfRecord(id, 42);
        EXPECT_LE(k, maxUserKey);
        const auto [it, fresh] = seen.emplace(k, id);
        EXPECT_TRUE(fresh) << "collision between " << it->second
                           << " and " << id;
    }
}

TEST(StoreYcsb, ZipfianIsBoundedAndSkewed)
{
    ZipfianGen zipf(1000, 0.99);
    Rng rng(5);
    std::vector<std::uint64_t> counts(1000, 0);
    for (int i = 0; i < 50000; ++i) {
        const std::uint64_t v = zipf.next(rng);
        ASSERT_LT(v, 1000u);
        ++counts[v];
    }
    // Rank 0 must dwarf the uniform expectation (50 per item).
    EXPECT_GT(counts[0], 2000u);
}

TEST(StoreYcsb, MixReadFractions)
{
    EXPECT_DOUBLE_EQ(readFraction(YcsbMix::A), 0.5);
    EXPECT_DOUBLE_EQ(readFraction(YcsbMix::B), 0.95);
    EXPECT_DOUBLE_EQ(readFraction(YcsbMix::C), 1.0);
    EXPECT_EQ(parseMix("a"), YcsbMix::A);
    EXPECT_EQ(parseMix("B"), YcsbMix::B);
}

TEST(StoreConfigTest, ParseBackendRoundTrips)
{
    for (Backend b : kBackends)
        EXPECT_EQ(parseBackend(backendName(b)), b);
}

#ifndef NDEBUG
/**
 * The shard hand-over contract (rule 1 of src/kernels/env.hh): a
 * thread that claims the store may use it, and the thread it was
 * taken from may not touch it again until it claims it back. The
 * owner check is compiled into debug builds only, and so is this.
 */
TEST(StoreDeathTest, ShardAccessNeedsTheLatestClaim)
{
    StoreConfig scfg;
    scfg.capacity = 256;
    scfg.shards = 1;
    pmem::PersistentArena arena(storeArenaBytes(scfg));
    KvStore<kernels::NativeEnv> store(arena, scfg, Backend::Lp);
    arena.persistAll();
    kernels::NativeEnv env;
    store.put(env, 1, 10);  // the first toucher owns the shard
    std::thread([&] {
        store.claimShards();
        store.put(env, 2, 20);
    }).join();
    EXPECT_DEATH((void)store.get(env, 1), "did not claim it");
    store.claimShards();
    EXPECT_EQ(store.get(env, 2), std::optional<std::uint64_t>(20));
}
#endif

TEST(StoreDeathTest, OverCapacityIsFatal)
{
    StoreConfig scfg;
    scfg.capacity = 8;  // floor-clamped to 64 slots; limit 7/8 = 56
    scfg.shards = 1;
    ASSERT_DEATH(
        {
            pmem::PersistentArena arena(storeArenaBytes(scfg));
            KvStore<kernels::NativeEnv> store(arena, scfg,
                                              Backend::EagerPerOp);
            arena.persistAll();
            kernels::NativeEnv env;
            for (std::uint64_t k = 1; k <= 60; ++k)
                store.put(env, k * 1000, k);
        },
        "load-factor");
}

} // namespace
} // namespace lp::store
