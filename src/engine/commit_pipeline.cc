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
    return stagedOps_ >= policy_.batchOps;
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
    pending_.clear();
}

void
CommitPipeline::notePending(std::uint64_t epoch, Clock::time_point at)
{
    LP_ASSERT(pending_.empty() || pending_.back().epoch <= epoch,
              "pending acks must arrive in epoch order");
    pending_.push_back(PendingAck{epoch, at});
}

CommitPipeline::Clock::time_point
CommitPipeline::ackDeadline() const
{
    LP_ASSERT(hasPending(), "no pending ack to bound");
    return pending_.front().at + policy_.flushDeadline;
}

bool
CommitPipeline::commitDue(Clock::time_point now) const
{
    return hasPending() && now >= ackDeadline();
}

void
CommitPipeline::noteDeadlineCommit()
{
    counters_.deadlineCommits.fetch_add(1,
                                        std::memory_order_relaxed);
}

std::size_t
CommitPipeline::releaseUpTo(std::uint64_t committed)
{
    std::size_t n = 0;
    while (!pending_.empty() && pending_.front().epoch <= committed) {
        pending_.pop_front();
        ++n;
    }
    counters_.acksReleased.fetch_add(n,
                                     std::memory_order_relaxed);
    return n;
}

} // namespace lp::engine
