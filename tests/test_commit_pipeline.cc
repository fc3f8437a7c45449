/**
 * @file
 * Unit tests for lp::engine::CommitPipeline: epoch sequencing, the
 * underfilled-batch flush, and fold-period accounting. The server's
 * ack schedule (release at epoch commit or at the flush deadline) is
 * covered by ServerBasic.AcksReleaseAtEpochCommitOrFlushDeadline in
 * test_server_integration.cc.
 */

#include <gtest/gtest.h>

#include "engine/commit_pipeline.hh"
#include "engine/stat_names.hh"

using lp::engine::CommitPipeline;
using lp::engine::CommitPolicy;

namespace
{

CommitPolicy
policyOf(int batchOps, int foldBatches)
{
    CommitPolicy p;
    p.batchOps = batchOps;
    p.foldBatches = foldBatches;
    return p;
}

TEST(CommitPipeline, OpenEpochIsAlwaysLastCommittedPlusOne)
{
    CommitPipeline pl(policyOf(4, 8));
    EXPECT_FALSE(pl.epochOpen());
    EXPECT_EQ(pl.lastCommitted(), 0u);

    EXPECT_EQ(pl.beginEpoch(), 1u);
    EXPECT_TRUE(pl.epochOpen());
    EXPECT_EQ(pl.openEpoch(), 1u);

    for (int i = 0; i < 4; ++i)
        pl.stageOp();
    EXPECT_TRUE(pl.commitEpoch());
    EXPECT_EQ(pl.lastCommitted(), 1u);
    EXPECT_EQ(pl.beginEpoch(), 2u);
}

TEST(CommitPipeline, StageOpSignalsFullBatchExactlyAtBatchOps)
{
    CommitPipeline pl(policyOf(3, 8));
    pl.beginEpoch();
    EXPECT_FALSE(pl.stageOp());
    EXPECT_FALSE(pl.stageOp());
    EXPECT_TRUE(pl.stageOp());  // third op fills the batch
    EXPECT_EQ(pl.stagedOps(), 3);
}

TEST(CommitPipeline, UnderfilledBatchStillCommits)
{
    CommitPipeline pl(policyOf(32, 8));
    pl.beginEpoch();
    pl.stageOp();  // 1 of 32
    EXPECT_TRUE(pl.commitEpoch());
    EXPECT_EQ(pl.lastCommitted(), 1u);
    EXPECT_EQ(pl.stagedOps(), 0);
    EXPECT_FALSE(pl.epochOpen());

    // With nothing open, commitEpoch is a no-op and says so.
    EXPECT_FALSE(pl.commitEpoch());
    EXPECT_EQ(pl.lastCommitted(), 1u);
}

TEST(CommitPipeline, FoldDueAfterExactlyFoldBatchesCommits)
{
    CommitPipeline pl(policyOf(1, 3));
    for (int i = 0; i < 3; ++i) {
        EXPECT_FALSE(pl.foldDue());
        pl.beginEpoch();
        pl.stageOp();
        pl.commitEpoch();
    }
    EXPECT_TRUE(pl.foldDue());
    EXPECT_EQ(pl.committedSinceFold(), 3);

    pl.noteFold();
    EXPECT_FALSE(pl.foldDue());
    EXPECT_EQ(pl.committedSinceFold(), 0);
    EXPECT_EQ(pl.foldedEpoch(), 3u);
    EXPECT_EQ(pl.counters().folds, 1u);
}

TEST(CommitPipeline, FoldPeriodScalesWithPolicy)
{
    // Doubling foldBatches halves the fold count over the same run.
    for (const int foldBatches : {2, 4}) {
        CommitPipeline pl(policyOf(1, foldBatches));
        int folds = 0;
        for (int i = 0; i < 8; ++i) {
            pl.beginEpoch();
            pl.stageOp();
            pl.commitEpoch();
            if (pl.foldDue()) {
                pl.noteFold();
                ++folds;
            }
        }
        EXPECT_EQ(folds, 8 / foldBatches);
    }
}

TEST(CommitPipeline, SyncDurableAdvancesWatermarkWithoutAFold)
{
    CommitPipeline pl(policyOf(1, 2));
    pl.beginEpoch();
    pl.stageOp();
    pl.commitEpoch();
    pl.syncDurable();
    EXPECT_EQ(pl.foldedEpoch(), 1u);
    EXPECT_FALSE(pl.foldDue());
    EXPECT_EQ(pl.counters().folds, 0u);
}

TEST(CommitPipeline, EagerStylePolicyMakesEveryOpAnEpoch)
{
    // The eager backend runs batchOps = 1: the epoch number doubles
    // as a per-shard op sequence number.
    CommitPipeline pl(policyOf(1, 64));
    for (std::uint64_t i = 1; i <= 5; ++i) {
        EXPECT_EQ(pl.beginEpoch(), i);
        EXPECT_TRUE(pl.stageOp());
        pl.commitEpoch();
        pl.syncDurable();
        EXPECT_EQ(pl.lastCommitted(), i);
    }
    EXPECT_EQ(pl.counters().epochsCommitted, 5u);
    EXPECT_EQ(pl.counters().opsStaged, 5u);
}

TEST(CommitPipeline, RebaseResetsOntoTheRecoveredWatermark)
{
    CommitPipeline pl(policyOf(2, 2));
    pl.beginEpoch();
    pl.stageOp();

    pl.rebase(7);
    EXPECT_FALSE(pl.epochOpen());
    EXPECT_EQ(pl.stagedOps(), 0);
    EXPECT_EQ(pl.lastCommitted(), 7u);
    EXPECT_EQ(pl.foldedEpoch(), 7u);
    EXPECT_EQ(pl.committedSinceFold(), 0);
    EXPECT_EQ(pl.beginEpoch(), 8u);
}

TEST(CommitPipeline, CanonicalStatNamesAreStable)
{
    // The canonical spellings are an external contract: bench JSON
    // and the server stats report key on them.
    namespace sn = lp::engine::statname;
    EXPECT_STREQ(sn::opsStaged, "ops_staged");
    EXPECT_STREQ(sn::epochsCommitted, "epochs_committed");
    EXPECT_STREQ(sn::folds, "folds");
    EXPECT_STREQ(sn::deadlineCommits, "deadline_commits");
    EXPECT_STREQ(sn::acksReleased, "acks_released");
    EXPECT_STREQ(sn::committedEpoch, "committed_epoch");
}

} // namespace
