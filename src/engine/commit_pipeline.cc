#include "engine/commit_pipeline.hh"

#include "base/logging.hh"

namespace lp::engine
{

CommitPipeline::CommitPipeline(const CommitPolicy &policy)
    : policy_(policy)
{
    LP_ASSERT(policy.batchOps >= 1, "need at least one op per epoch");
    LP_ASSERT(policy.foldBatches >= 1,
              "need at least one epoch per fold");
}

std::uint64_t
CommitPipeline::beginEpoch()
{
    LP_ASSERT(!open_, "epoch already open");
    open_ = true;
    stagedOps_ = 0;
    return lastCommitted_ + 1;
}

std::uint64_t
CommitPipeline::openEpoch() const
{
    LP_ASSERT(open_, "no open epoch");
    return lastCommitted_ + 1;
}

bool
CommitPipeline::stageOp()
{
    LP_ASSERT(open_, "stageOp without an open epoch");
    ++stagedOps_;
    counters_.opsStaged.fetch_add(1, std::memory_order_relaxed);
    if (stagedOps_ < policy_.batchOps)
        return false;
    counters_.fullCommits.fetch_add(1, std::memory_order_relaxed);
    return true;
}

bool
CommitPipeline::commitEpoch()
{
    if (!open_)
        return false;
    ++lastCommitted_;
    open_ = false;
    stagedOps_ = 0;
    openTraceId_ = 0;
    ++committedSinceFold_;
    counters_.epochsCommitted.fetch_add(1,
                                        std::memory_order_relaxed);
    return true;
}

bool
CommitPipeline::foldDue() const
{
    return committedSinceFold_ >= policy_.foldBatches;
}

void
CommitPipeline::noteFold()
{
    LP_ASSERT(!open_, "fold with an open epoch");
    foldedEpoch_ = lastCommitted_;
    committedSinceFold_ = 0;
    counters_.folds.fetch_add(1, std::memory_order_relaxed);
}

void
CommitPipeline::syncDurable()
{
    LP_ASSERT(!open_, "durable sync with an open epoch");
    foldedEpoch_ = lastCommitted_;
    committedSinceFold_ = 0;
}

void
CommitPipeline::rebase(std::uint64_t committed)
{
    open_ = false;
    stagedOps_ = 0;
    openTraceId_ = 0;
    committedSinceFold_ = 0;
    lastCommitted_ = committed;
    foldedEpoch_ = committed;
}

ShardPlan
planShardRound(const ShardRound &r, std::uint64_t flushDeadlineUs,
               std::uint64_t scrubIntervalMs)
{
    ShardPlan p;
    const std::uint64_t nextScrubNs =
        r.lastScrubNs + scrubIntervalMs * 1000000;
    if (r.oldestAckNs) {
        p.wakeNs = *r.oldestAckNs + flushDeadlineUs * 1000;
        if (r.nowNs >= *p.wakeNs)
            p.commit = CommitReason::Deadline;
        else if (r.stopping)
            p.commit = CommitReason::Drain;
    } else if (scrubIntervalMs > 0) {
        p.wakeNs = nextScrubNs;
    }
    p.scrub = scrubIntervalMs > 0 && !r.stopping && !r.dequeued &&
              r.nowNs >= nextScrubNs;
    if (r.appliedUndurable) {
        p.fold = !r.stopping && !r.dequeued;
        p.wakeNs = r.nowNs;
    }
    return p;
}

} // namespace lp::engine
