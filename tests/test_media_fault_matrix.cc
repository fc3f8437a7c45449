/**
 * @file
 * Corruption matrix for the media-fault tolerance layer (lp::repair):
 * every (fault site x backend) cell runs the end-to-end story --
 * workload, clean shutdown, targeted bit flips, then recovery or an
 * online scrub pass -- and asserts the contract:
 *
 *  - single-region faults with a surviving redundant copy (journal
 *    parity, which covers batch trailers too, or the superblock
 *    twin) are detected AND repaired with zero data loss;
 *  - provably-lost data (both superblock copies, two regions of one
 *    parity group, a sealed epoch past parity coverage) quarantines
 *    the shard: detected, counted unrepairable, and the surviving
 *    state still matches a golden replay -- never silent wrong data,
 *    never a crash.
 *
 * Geometry (1 shard, 8-op batches, 100 pre-ops): 12 full batches plus
 * one partial, 113 records of 16B = 1808 sealed journal bytes = 28
 * parity-covered 64B regions plus a 16-byte covered-by-digest-only
 * tail, so every LP fault site exists. The commit path covers whole
 * 8-region groups only (regions 0-23); the clean marking covers
 * regions 24-27, where JournalLastCovered flips region 27's bits.
 * foldBatches is large enough that no fold runs before the injection
 * -- the journal still carries the full stream.
 *
 * The transaction layer's decision ring (dataDir/txnlog.lpdb in the
 * server) is the last row, TxnRingMediaFault: it has no redundant
 * copy, so rot is detected, never repaired.
 */

#include <gtest/gtest.h>

#include <map>
#include <tuple>
#include <vector>

#include "kernels/env.hh"
#include "kernels/workload.hh"
#include "pmem/fault.hh"
#include "store/driver.hh"
#include "txn/txn_kv.hh"

namespace lp::store
{
namespace
{

StoreConfig
matrixConfig()
{
    StoreConfig cfg;
    cfg.capacity = 1024;
    cfg.shards = 1;
    cfg.batchOps = 8;
    cfg.foldBatches = 64;  // never reached: injection sees epoch 1
    return cfg;
}

/** Sites whose effective fault keeps a usable redundant copy. */
bool
expectRepaired(Backend b, FaultSite site)
{
    if (b != Backend::Lp) {
        // The non-LP mapping (driver.cc) sends these onto the dead
        // superblock pair; everything else lands on a single copy.
        return site != FaultSite::JournalMultiRegion &&
               site != FaultSite::SuperblockBoth;
    }
    switch (site) {
      case FaultSite::JournalPayload:     // parity reconstructs
      case FaultSite::JournalLastCovered: // clean marking covered it
      case FaultSite::JournalTrailer:     // parity restores the digest
      case FaultSite::ParityPage:         // scrub recomputes parity
      case FaultSite::SuperblockPrimary:  // twin carries it
      case FaultSite::SuperblockReplica:
        return true;
      case FaultSite::JournalTail:        // past parity coverage
      case FaultSite::JournalMultiRegion: // XOR undoes one, not two
      case FaultSite::SuperblockBoth:     // no fold base left
        return false;
    }
    return false;
}

using Cell = std::tuple<Backend, FaultSite>;

class MediaFaultMatrix : public ::testing::TestWithParam<Cell>
{
};

TEST_P(MediaFaultMatrix, DetectsAndRepairsOrQuarantines)
{
    const auto [backend, site] = GetParam();

    StoreFaultSpec spec;
    spec.records = 256;
    spec.preOps = 100;
    spec.postOps = 256;
    spec.delFraction = 0.15;
    spec.seed = 11;
    spec.site = site;

    const StoreFaultOutcome out = runStoreWithFault(
        backend, matrixConfig(), spec, sim::MachineConfig{});
    const std::string cell =
        std::string(backendName(backend)) + " site " +
        std::to_string(int(site)) + " (effective " +
        std::to_string(int(out.effectiveSite)) + ")";

    ASSERT_TRUE(out.injected)
        << cell << ": fault site did not exist -- geometry broken";

    if (expectRepaired(backend, site)) {
        EXPECT_GE(out.mediaRepaired, 1u)
            << cell << ": corruption was never detected";
        EXPECT_EQ(out.mediaUnrepairable, 0u) << cell;
        EXPECT_FALSE(out.quarantined) << cell;
        EXPECT_TRUE(out.stateVerified)
            << cell << ": repaired state lost data";
        EXPECT_TRUE(out.finalStateVerified)
            << cell << ": store wrong after post-repair workload";
    } else {
        EXPECT_GE(out.mediaUnrepairable, 1u)
            << cell << ": lost data was not detected";
        EXPECT_TRUE(out.quarantined)
            << cell << ": unrepairable fault did not quarantine";
        // Quarantined is still honest: what survives equals the
        // golden replay of exactly the committed-and-validated
        // prefix. Silent wrong data here is the one forbidden state.
        EXPECT_TRUE(out.stateVerified)
            << cell << ": quarantined shard serves wrong data";
        EXPECT_TRUE(out.finalStateVerified) << cell;
    }
    EXPECT_TRUE(out.scanStateVerified)
        << cell << ": scan disagreed with point-GET state";
}

const FaultSite kSites[] = {
    FaultSite::JournalPayload,    FaultSite::JournalLastCovered,
    FaultSite::JournalTail,       FaultSite::JournalMultiRegion,
    FaultSite::JournalTrailer,    FaultSite::ParityPage,
    FaultSite::SuperblockPrimary, FaultSite::SuperblockReplica,
    FaultSite::SuperblockBoth,
};

const char *
siteName(FaultSite s)
{
    switch (s) {
      case FaultSite::JournalPayload:     return "JournalPayload";
      case FaultSite::JournalLastCovered: return "JournalLastCovered";
      case FaultSite::JournalTail:        return "JournalTail";
      case FaultSite::JournalMultiRegion: return "JournalMultiRegion";
      case FaultSite::JournalTrailer:     return "JournalTrailer";
      case FaultSite::ParityPage:         return "ParityPage";
      case FaultSite::SuperblockPrimary:  return "SuperblockPrimary";
      case FaultSite::SuperblockReplica:  return "SuperblockReplica";
      case FaultSite::SuperblockBoth:     return "SuperblockBoth";
    }
    return "Unknown";
}

INSTANTIATE_TEST_SUITE_P(
    AllCells, MediaFaultMatrix,
    ::testing::Combine(::testing::Values(Backend::Lp,
                                         Backend::EagerPerOp,
                                         Backend::Wal),
                       ::testing::ValuesIn(kSites)),
    [](const auto &info) {
        return backendName(std::get<0>(info.param)) +
               std::string("_") + siteName(std::get<1>(info.param));
    });

/**
 * The decision ring's row: rot in an entry whose parts are durable
 * costs nothing, while a committed entry whose parts were not yet
 * applied fails its checksum, is discarded like a torn append, and
 * takes its whole -- acknowledged -- transaction with it, atomically:
 * the balance sum still holds. The decisions after the rot take seqs
 * above every shard's applied seq, so they commit and recover.
 */
class TxnRingMediaFault : public ::testing::TestWithParam<Backend>
{
};

TEST_P(TxnRingMediaFault, RottedUnappliedDecisionLosesItsWholeTransaction)
{
    using Kv = txn::TxnKv<kernels::SimEnv>;
    Kv::Config cfg;
    cfg.store = matrixConfig();
    cfg.store.shards = 2;
    cfg.decisionEntries = 8;
    kernels::SimContext ctx(sim::MachineConfig{}, Kv::arenaBytes(cfg));
    Kv t(ctx.arena, cfg, GetParam());
    ctx.arena.persistAll();
    kernels::SimEnv env(ctx.machine, ctx.arena, 0, &ctx.crash);

    std::map<std::uint64_t, std::uint64_t> golden;
    for (std::uint64_t k = 1; k <= 8; ++k) {
        t.kv().put(env, k, 100);
        golden[k] = 100;
    }
    std::uint64_t dst = 2;
    while (t.kv().shardOf(dst) == t.kv().shardOf(1))
        ++dst;
    const auto transfer = [&](std::uint64_t amt) {
        return std::vector<Kv::Op>{
            {Kv::Op::Kind::Add, 1, std::uint64_t(0) - amt},
            {Kv::Op::Kind::Add, dst, amt}};
    };
    // Decision 1, applied and made durable.
    ASSERT_TRUE(t.run(env, transfer(10), {}, true).committed);
    golden[1] -= 10;
    golden[dst] += 10;
    t.checkpoint(env);
    // Decision 2, committed; the crash beats its applies.
    bool crashed = false;
    try {
        t.run(env, transfer(20),
              [](Kv::Step s) {
                  if (s == Kv::Step::PostDecision)
                      throw pmem::CrashException{};
              },
              true);
    } catch (const pmem::CrashException &) {
        crashed = true;
        ctx.powerFail();
    }
    ASSERT_TRUE(crashed);
    // One bit of each entry's first ops line rots.
    pmem::FaultInjector inj(ctx.arena);
    inj.flipBitAt(t.decisionRing(), 64, 0);
    inj.flipBitAt(t.decisionRing(), sizeof(txn::DecisionEntry) + 64, 0);

    const txn::TxnRecoveryReport rep = t.recover(env);
    EXPECT_EQ(rep.rolledBack, 2u);
    EXPECT_EQ(rep.rolledForward, 0u);
    EXPECT_EQ(t.kv().snapshot(), golden)
        << "decision 1 must survive, decision 2 must vanish whole";

    // The ring lost every entry, yet both shards applied decision 1:
    // the next decision must take a seq above it, commit, and survive
    // a second power failure before any of its applies is durable.
    ASSERT_TRUE(t.run(env, transfer(5), {}, true).committed);
    golden[1] -= 5;
    golden[dst] += 5;
    ctx.powerFail();
    const txn::TxnRecoveryReport again = t.recover(env);
    EXPECT_EQ(again.rolledBack, 0u) << "the rotted entries counted twice";
    EXPECT_EQ(t.kv().snapshot(), golden)
        << "the decision after the rot was lost";
}

INSTANTIATE_TEST_SUITE_P(AllBackends, TxnRingMediaFault,
                         ::testing::Values(Backend::Lp,
                                           Backend::EagerPerOp,
                                           Backend::Wal),
                         [](const auto &info) {
                             return backendName(info.param);
                         });

} // namespace
} // namespace lp::store
