/**
 * @file
 * Repair by trial of the LP journal (store/backend_lp.hh): the batch
 * digest is the journal's only checksum, so it must catch every rot
 * parity can undo and must reject every reconstruction that is not
 * the committed batch. Covered here: bit pairs (k, k+32) of one word,
 * which a 32-bit folded sum cannot see; two rotted regions in
 * different parity groups of one batch; a crash that loses the last
 * sealed batch's trailer line although the batch starts inside the
 * covered prefix; rot met by parity left over from the previous
 * journal generation; and the online scrub's walk over the live
 * journal.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "base/rng.hh"
#include "kernels/env.hh"
#include "kernels/workload.hh"
#include "pmem/fault.hh"
#include "repair/repair.hh"
#include "store/driver.hh"

namespace lp::store
{
namespace
{

/** The media-fault matrix geometry: one shard, 8-op batches. */
StoreConfig
repairConfig()
{
    StoreConfig cfg;
    cfg.capacity = 1024;
    cfg.shards = 1;
    cfg.batchOps = 8;
    cfg.foldBatches = 64;  // no fold unless a test checkpoints
    return cfg;
}

/** One simulated LP store plus the ledger of what it was told. */
struct Rig
{
    explicit Rig(const StoreConfig &c = repairConfig())
        : scfg(c), ctx(sim::MachineConfig{}, storeArenaBytes(scfg)),
          store(ctx.arena, scfg, Backend::Lp),
          env(ctx.machine, ctx.arena, 0), ledger(scfg)
    {
        ctx.arena.persistAll();
    }

    /** @p n puts of keys base, base+1, ... (value = key + 1000). */
    void
    puts(std::uint64_t base, std::uint64_t n)
    {
        for (std::uint64_t k = base; k < base + n; ++k)
            ledger.issue(env, store, true, k, k + 1000);
    }

    /** Commit everything, mark the shard clean, drain the image. */
    void
    cleanShutdown()
    {
        store.commitBatches(env);
        store.markClean(env);
        ctx.arena.persistAll();
    }

    const std::uint64_t *
    journal() const
    {
        return static_cast<const std::uint64_t *>(
            store.faultSurface(0).journal);
    }

    /** Make the durable image of @p p's block what is stored now. */
    void
    persistBlockOf(const void *p)
    {
        ctx.arena.persistBlock(blockAlign(ctx.arena.addrOf(p)));
    }

    /** Flip bit @p bit (0..63) of journal word @p w. */
    void
    flipJournalBit(std::size_t w, int bit)
    {
        pmem::FaultInjector(ctx.arena)
            .flipBitAt(&journal()[w], std::size_t(bit / 8), bit % 8);
    }

    StoreConfig scfg;
    kernels::SimContext ctx;
    KvStore<kernels::SimEnv> store;
    kernels::SimEnv env;
    CommittedLedger ledger;
};

/**
 * Bits k and k+32 of one word cancel in a sum of 32-bit folds; the
 * mix64 digest sees them. For every k and every word of the first
 * two journal regions (word 0, epoch 1's first key, is left to the
 * matrix), strict recovery after a clean shutdown must repair the
 * rot exactly -- parity covers both regions -- or quarantine with an
 * honest state; silent wrong data is never allowed.
 */
TEST(JournalRepair, HighLowBitPairsRepairOrQuarantine)
{
    int repaired = 0;
    int silent = 0;
    for (std::size_t w = 1; w <= 15; ++w) {
        for (int k = 0; k < 32; ++k) {
            Rig rig;
            Rng rng(11);
            for (std::uint64_t i = 0; i < 100; ++i) {
                const std::uint64_t key = keyOfRecord(rng.below(256), 11);
                rig.ledger.issue(rig.env, rig.store,
                                 !rng.chance(0.15), key, 0x2000 + i);
            }
            rig.cleanShutdown();
            const auto full = rig.ledger.golden();
            rig.flipJournalBit(w, k);
            rig.flipJournalBit(w, k + 32);
            rig.ctx.powerFail();
            const RecoveryReport rep = rig.store.recover(rig.env);
            const auto snap = rig.store.snapshot();
            if (rig.store.quarantined(0)) {
                rig.ledger.keepCommitted(rep.committedEpochs);
                EXPECT_GE(rep.mediaUnrepairable, 1u);
                if (snap != rig.ledger.golden())
                    ++silent;
            } else if (snap == full && rep.mediaRepaired >= 1) {
                ++repaired;
            } else {
                ++silent;
            }
        }
    }
    EXPECT_EQ(silent, 0);
    EXPECT_EQ(repaired, 15 * 32) << "parity covers every flipped word";
}

/**
 * Batch 4 (entries 27-35, bytes 432-575) spans regions 6-8: region 7
 * in parity group 0, region 8 in group 1. One rotted word in each is
 * beyond what one reconstruction undoes, but each group offers its
 * own; the trial over both groups validates, and both regions are
 * restored.
 */
TEST(JournalRepair, TwoRottedRegionsInDifferentGroupsAreBothRepaired)
{
    Rig rig;
    rig.puts(1, 56);  // 7 batches: 1008 sealed bytes
    rig.cleanShutdown();
    ASSERT_EQ(rig.store.faultSurface(0).coveredBytes,
              15 * repair::regionBytes)
        << "the clean marking covers group 1's whole regions";
    const auto golden = rig.ledger.golden();
    rig.flipJournalBit(7 * repair::regionWords + 2, 9);
    rig.flipJournalBit(8 * repair::regionWords + 5, 40);
    rig.ctx.powerFail();

    const RecoveryReport rep = rig.store.recover(rig.env);
    EXPECT_EQ(rep.mediaRepaired, 2u);
    EXPECT_EQ(rep.mediaUnrepairable, 0u);
    EXPECT_EQ(rep.batchesReplayed, 7u);
    EXPECT_FALSE(rig.store.quarantined(0));
    EXPECT_EQ(rig.store.snapshot(), golden);
}

/**
 * Batch 4's commit completes parity group 0, so the batch (bytes
 * 432-575) starts inside the covered prefix, but its trailer sits in
 * line 8, past it. Lose that line in a crash: the batch has no
 * trailer, parity has nothing to offer (every covered region still
 * matches its reconstruction), and recovery ends the walk at epoch 3
 * with no repair and no discard counted.
 */
TEST(JournalRepair, LostTrailerInsideTheCoveredPrefixIsNotRepaired)
{
    Rig rig;
    rig.puts(1, 24);
    const auto golden = rig.ledger.golden();
    rig.puts(25, 8);
    ASSERT_EQ(rig.store.committedEpoch(0), 4u);
    const FaultSurface fs = rig.store.faultSurface(0);
    ASSERT_EQ(fs.coveredBytes, repair::groupRegions * repair::regionBytes);

    // Line 8 never reached NVMM; the header claiming group 0 did.
    auto *line8 = const_cast<std::uint64_t *>(
        rig.journal() + 8 * repair::regionWords);
    std::fill_n(line8, repair::regionWords, 0);
    rig.persistBlockOf(line8);
    rig.persistBlockOf(fs.parityHeader);
    rig.ctx.powerFail();

    const RecoveryReport rep = rig.store.recover(rig.env);
    EXPECT_EQ(rep.committedEpochs[0], 3u);
    EXPECT_EQ(rep.batchesReplayed, 3u);
    EXPECT_EQ(rep.batchesDiscarded, 0u);
    EXPECT_EQ(rep.mediaRepaired, 0u);
    EXPECT_EQ(rep.mediaUnrepairable, 0u);
    EXPECT_EQ(rig.store.snapshot(), golden);
}

/**
 * Generation 1 covers parity group 0 and folds; generation 2 covers
 * it again, but its parity line is lost and the durable line is still
 * generation 1's, while the header vouching for group 0 is durable.
 * Rot in generation 2's first batch then meets stale parity: every
 * reconstruction is wrong and the digest must reject each one. After
 * a crash the batch is discarded; after a clean shutdown the loss is
 * counted and the shard quarantines. Either way no repair is counted
 * and the state is exactly generation 1's.
 */
TEST(JournalRepair, StaleParityFromThePreviousGenerationIsNeverAccepted)
{
    for (const bool clean : {false, true}) {
        Rig rig;
        rig.puts(1, 32);
        rig.store.checkpoint(rig.env);  // fold: generation 2 begins
        const auto gen1 = rig.ledger.golden();
        const FaultSurface fs = rig.store.faultSurface(0);
        auto *parity =
            const_cast<std::uint64_t *>(
                static_cast<const std::uint64_t *>(fs.parity));
        std::vector<std::uint64_t> stale(parity,
                                         parity + repair::regionWords);

        for (std::uint64_t k = 101; k <= 132; ++k)
            rig.ledger.issue(rig.env, rig.store, true, k, 7 * k);
        ASSERT_EQ(rig.store.faultSurface(0).coveredBytes,
                  repair::groupRegions * repair::regionBytes);
        ASSERT_NE(stale[0], parity[0]) << "group 0 was not re-covered";
        if (clean)
            rig.cleanShutdown();
        std::copy(stale.begin(), stale.end(), parity);
        rig.persistBlockOf(parity);
        rig.persistBlockOf(fs.parityHeader);
        rig.flipJournalBit(3, 17);
        rig.ctx.powerFail();

        const RecoveryReport rep = rig.store.recover(rig.env);
        EXPECT_EQ(rep.mediaRepaired, 0u) << "clean=" << clean;
        EXPECT_EQ(rep.committedEpochs[0], 4u) << "clean=" << clean;
        EXPECT_EQ(rig.store.snapshot(), gen1) << "clean=" << clean;
        EXPECT_EQ(rig.store.quarantined(0), clean) << "clean=" << clean;
        if (!clean) {
            EXPECT_EQ(rep.batchesDiscarded, 1u);
        }
    }
}

/**
 * The online scrub walks the live journal's batches by digest: a
 * rotted record is repaired by trial in place, and a rotted parity
 * line is rewritten once every batch of its group has validated. A
 * full pass examines exactly the covered regions.
 */
TEST(JournalRepair, ScrubRepairsABatchAndThenAParityLine)
{
    Rig rig;
    rig.puts(1, 64);  // 8 batches: 1152 sealed bytes, 2 groups covered
    const FaultSurface fs = rig.store.faultSurface(0);
    ASSERT_EQ(fs.coveredBytes, 16 * repair::regionBytes);
    const std::size_t w = 3 * repair::regionWords + 4;
    const std::uint64_t want = rig.journal()[w];
    const auto *parity = static_cast<const std::uint64_t *>(fs.parity);
    const std::uint64_t wantParity = parity[repair::regionWords + 2];
    const auto pass = [&] {
        std::size_t regions = 0;
        while (const std::size_t n = rig.store.scrubStep(rig.env, 0, 4))
            regions += n;
        return regions;
    };

    rig.flipJournalBit(w, 21);
    EXPECT_EQ(pass(), 16u);
    EXPECT_EQ(rig.journal()[w], want);
    EXPECT_EQ(rig.store.mediaCounters(0).repaired.load(), 1u);

    pmem::FaultInjector(rig.ctx.arena)
        .flipBitAt(&parity[repair::regionWords + 2], 6, 1);
    EXPECT_EQ(pass(), 16u);
    EXPECT_EQ(parity[repair::regionWords + 2], wantParity);
    EXPECT_EQ(rig.store.mediaCounters(0).repaired.load(), 2u);
    EXPECT_EQ(rig.store.mediaCounters(0).unrepairable.load(), 0u);
    EXPECT_EQ(rig.store.mediaCounters(0).scrubPasses.load(), 2u);
}

} // namespace
} // namespace lp::store
