/**
 * @file
 * Unit tests for lp::engine::CommitPipeline: epoch sequencing, the
 * underfilled-batch flush, and fold-period accounting; and for the
 * served shard's schedule (planShardRound, mayStageInline), one
 * table row per rule with no threads or clocks. The server's ack
 * release end to end is covered by
 * ServerBasic.AcksReleaseAtEpochCommitOrFlushDeadline in
 * test_server_integration.cc.
 */

#include <gtest/gtest.h>

#include <optional>

#include "engine/commit_pipeline.hh"
#include "engine/stat_names.hh"

using lp::engine::CommitPipeline;
using lp::engine::CommitPolicy;
using lp::engine::CommitReason;

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

constexpr std::uint64_t kMs = 1000000;  // in ns
constexpr std::optional<std::uint64_t> kNever;

/** One worker round and what the schedule must plan for it. */
struct RoundCase
{
    const char *what;
    std::uint64_t nowNs;
    std::optional<std::uint64_t> oldestAckNs;
    bool stopping;
    bool dequeued;
    std::uint64_t lastScrubNs;
    std::uint64_t scrubIntervalMs;
    CommitReason commit;
    bool scrub;
    std::optional<std::uint64_t> wakeNs;
    bool appliedUndurable = false;
    bool fold = false;
};

TEST(ShardSchedule, EveryRoundFollowsTheDeadlineDrainAndScrubRules)
{
    // A 2 ms flush deadline throughout; times in ms for readability.
    const std::uint64_t deadlineUs = 2000;
    const CommitReason none = CommitReason::None;
    const CommitReason deadline = CommitReason::Deadline;
    const CommitReason drain = CommitReason::Drain;
    const RoundCase cases[] = {
        // what, now, oldest ack, stopping, dequeued, last scrub,
        //   scrub interval ms -> commit, scrub, wake
        {"no ack, scrub off: never wake", 50 * kMs, kNever, false,
         false, 0, 0, none, false, kNever},
        {"no ack, scrub off, a request ran", 50 * kMs, kNever, false,
         true, 0, 0, none, false, kNever},
        {"ack pending: wake at staged + deadline", 10 * kMs, 9 * kMs,
         false, true, 0, 0, none, false, 11 * kMs},
        {"deadline reached: commit for it", 11 * kMs, 9 * kMs, false,
         false, 0, 0, deadline, false, 11 * kMs},
        {"deadline long past: commit for it", 40 * kMs, 9 * kMs,
         false, true, 0, 0, deadline, false, 11 * kMs},
        {"stopping: drain before the deadline", 10 * kMs, 9 * kMs,
         true, false, 0, 0, drain, false, 11 * kMs},
        {"stopping past the deadline: counts as deadline", 12 * kMs,
         9 * kMs, true, false, 0, 0, deadline, false, 11 * kMs},
        {"stopping with no ack: nothing to commit", 10 * kMs, kNever,
         true, false, 0, 0, none, false, kNever},
        {"idle, no ack: wake for the next scrub", 3 * kMs, kNever,
         false, false, 2 * kMs, 10, none, false, 12 * kMs},
        {"idle, interval reached: scrub", 12 * kMs, kNever, false,
         false, 2 * kMs, 10, none, true, 12 * kMs},
        {"a round that dequeued: no scrub", 30 * kMs, kNever, false,
         true, 2 * kMs, 10, none, false, 12 * kMs},
        {"stopping: no scrub", 30 * kMs, kNever, true, false, 2 * kMs,
         10, none, false, 12 * kMs},
        {"scrub due before the ack deadline: wake stays the deadline",
         5 * kMs, 4 * kMs, false, true, 0, 1, none, false, 6 * kMs},
        {"empty round with an ack pending still scrubs when due",
         5 * kMs, 4 * kMs, false, false, 0, 1, none, true, 6 * kMs},
        {"deadline and scrub in one empty round", 7 * kMs, 4 * kMs,
         false, false, 0, 1, deadline, true, 6 * kMs},
        {"an undurable applied part: fold when idle, never sleep",
         5 * kMs, 4 * kMs, false, false, 0, 0, none, false, 5 * kMs,
         true, true},
        {"an undurable applied part behind a request: no fold yet",
         5 * kMs, kNever, false, true, 0, 0, none, false, 5 * kMs,
         true, false},
    };
    for (const RoundCase &c : cases) {
        lp::engine::ShardRound r;
        r.nowNs = c.nowNs;
        r.oldestAckNs = c.oldestAckNs;
        r.stopping = c.stopping;
        r.dequeued = c.dequeued;
        r.lastScrubNs = c.lastScrubNs;
        r.appliedUndurable = c.appliedUndurable;
        const lp::engine::ShardPlan p =
            lp::engine::planShardRound(r, deadlineUs, c.scrubIntervalMs);
        EXPECT_EQ(p.commit, c.commit) << c.what;
        EXPECT_EQ(p.fold, c.fold) << c.what;
        EXPECT_EQ(p.scrub, c.scrub) << c.what;
        EXPECT_EQ(p.wakeNs, c.wakeNs) << c.what;
    }
}

/** One shard state the acceptor finds and whether it may stage. */
struct StageCase
{
    const char *what;
    int batchOps;
    bool epochOpen;
    int staged;
    bool ackPending;
    bool mayStage;
};

TEST(ShardSchedule, AcceptorStagesOnlyBehindAPendingAckWithoutFilling)
{
    const StageCase cases[] = {
        {"no epoch open", 8, false, 0, false, false},
        {"no epoch open, an ack pending", 8, false, 0, true, false},
        {"no ack pending", 8, true, 1, false, false},
        {"the op would fill the epoch", 8, true, 7, true, false},
        {"one-op epochs: every op fills", 1, true, 0, true, false},
        {"room behind the opening op", 8, true, 1, true, true},
        {"room for one more before the filler", 8, true, 6, true,
         true},
    };
    for (const StageCase &c : cases) {
        CommitPipeline pl(policyOf(c.batchOps, 64));
        if (c.epochOpen) {
            pl.beginEpoch();
            for (int i = 0; i < c.staged; ++i)
                pl.stageOp();
        }
        EXPECT_EQ(lp::engine::mayStageInline(pl, c.ackPending),
                  c.mayStage)
            << c.what;
    }
}

} // namespace
