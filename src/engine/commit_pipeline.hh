/**
 * @file
 * lp::engine::CommitPipeline -- epoch/group-commit scheduling shared
 * by every consumer of the Lazy Persistency discipline.
 *
 * One pipeline instance sequences the epochs of ONE shard: batch
 * accumulation (stage until batchOps ops), commit bookkeeping (the
 * open epoch is always lastCommitted + 1), fold-period accounting
 * (an eager checkpoint is due every foldBatches committed epochs),
 * and per-epoch stats under the canonical names of
 * engine/stat_names.hh; and the schedule of a served shard, whose
 * service (lp::server) holds replies until their epoch commits:
 * planShardRound() and mayStageInline() below.
 *
 * The pipeline is pure volatile bookkeeping: it never touches
 * persistent memory and never looks at a clock. The persistency
 * backend (store/backend_*.hh) performs the actual journal/table
 * writes and tells the pipeline what happened. That split keeps the
 * scheduling logic deterministic and unit-testable and lets the
 * instrumented simulator and the native server share it unchanged.
 *
 * Threading: a pipeline belongs to its shard's current owner (the
 * env.hh one-thread-at-a-time contract); nothing here is
 * synchronized except counters(), which any thread may read.
 */

#ifndef LP_ENGINE_COMMIT_PIPELINE_HH
#define LP_ENGINE_COMMIT_PIPELINE_HH

#include <atomic>
#include <cstdint>
#include <optional>

namespace lp::obs
{
struct ShardObs;
} // namespace lp::obs

namespace lp::engine
{

/** Batching/commit-scheduling parameters of one shard. */
struct CommitPolicy
{
    /** Ops per epoch; the epoch commits when it holds this many. */
    int batchOps = 32;

    /** Fold (eager checkpoint) every this many committed epochs. */
    int foldBatches = 64;
};

/**
 * Monotonic counters, keyed by engine/stat_names.hh when emitted.
 * Written only by the shard owner; relaxed atomics so STATS/METRICS
 * can read them from another thread while the owner runs.
 */
struct PipelineCounters
{
    std::atomic<std::uint64_t> opsStaged{0};
    std::atomic<std::uint64_t> epochsCommitted{0};
    std::atomic<std::uint64_t> fullCommits{0};  ///< stageOp() said full
    std::atomic<std::uint64_t> folds{0};
};

/**
 * Epoch sequencing + fold accounting for one shard. Invariant
 * throughout: the open epoch (when one is open) is exactly
 * lastCommitted() + 1, and foldedEpoch() trails lastCommitted() by
 * at most foldBatches epochs.
 */
class CommitPipeline
{
  public:
    explicit CommitPipeline(const CommitPolicy &policy);

    const CommitPolicy &policy() const { return policy_; }

    /// @name Epoch sequencing
    /// @{

    bool epochOpen() const { return open_; }

    /** Open the next epoch (lastCommitted + 1) and return it. */
    std::uint64_t beginEpoch();

    /** The open epoch's number; requires epochOpen(). */
    std::uint64_t openEpoch() const;

    /**
     * Account one staged op; returns true when the open epoch has
     * reached batchOps and must commit. Requires epochOpen().
     */
    bool stageOp();

    /** Ops staged into the open epoch (0 when none is open). */
    int stagedOps() const { return stagedOps_; }

    /**
     * Close the open epoch as committed; false if none was open.
     * After a true return, foldDue() says whether the fold period
     * elapsed.
     */
    bool commitEpoch();

    /** True when committed epochs since the last fold >= foldBatches. */
    bool foldDue() const;

    /** An eager checkpoint ran: advance the durable watermark. */
    void noteFold();

    /**
     * Commit made everything durable in place (WAL transaction, eager
     * per-op flush): advance the watermark without counting a fold.
     */
    void syncDurable();

    /**
     * Rebase onto a recovered/attached image: epoch @p committed is
     * durable, nothing is open.
     */
    void rebase(std::uint64_t committed);

    std::uint64_t lastCommitted() const { return lastCommitted_; }
    std::uint64_t foldedEpoch() const { return foldedEpoch_; }
    int committedSinceFold() const { return committedSinceFold_; }
    /// @}

    const PipelineCounters &counters() const { return counters_; }

    /// @name Observability
    /// @{

    /**
     * Attach this shard's observability bundle (obs/shard_obs.hh).
     * The pipeline only carries the pointer: the shard owner records
     * into the histograms, and the persistency backends reach the
     * bundle through the pipeline they already hold. @p o must
     * outlive the pipeline (or be detached by attaching nullptr).
     */
    void attachObs(obs::ShardObs *o) { obs_ = o; }

    /** The attached bundle, or nullptr when observability is off. */
    obs::ShardObs *obs() const { return obs_; }

    /**
     * Remember the trace id of the latest request staged into the
     * open epoch. The backend's epoch-commit span uses it as the
     * flow id, so one request's arc in the trace connects through
     * the group commit that made it durable. Volatile bookkeeping
     * only, like everything else here.
     */
    void noteTrace(std::uint64_t traceId)
    {
        if (traceId)
            openTraceId_ = traceId;
    }

    /** Latest trace id staged into the open epoch; 0 = none. */
    std::uint64_t openTraceId() const { return openTraceId_; }
    /// @}

  private:
    CommitPolicy policy_;
    bool open_ = false;
    int stagedOps_ = 0;
    int committedSinceFold_ = 0;
    std::uint64_t lastCommitted_ = 0;
    std::uint64_t foldedEpoch_ = 0;
    std::uint64_t openTraceId_ = 0;
    PipelineCounters counters_;
    obs::ShardObs *obs_ = nullptr;
};

// The served shard's schedule, clock-free: times are caller's ns.

/** Why a round commits the shard's open epoch. */
enum class CommitReason : std::uint8_t { None, Deadline, Drain };

/** What a serving shard worker knows when it plans a round. */
struct ShardRound
{
    std::uint64_t nowNs = 0;
    std::optional<std::uint64_t> oldestAckNs;  ///< oldest pending ack staged
    bool stopping = false;
    bool dequeued = false;  ///< this round dequeued a request
    std::uint64_t lastScrubNs = 0;
    /** The shard holds an applied transaction part that is not yet
     *  durable, which pins its decision-ring entry. */
    bool appliedUndurable = false;
};

/** What the round does after running its requests, and its wake. */
struct ShardPlan
{
    CommitReason commit = CommitReason::None;
    bool fold = false;   ///< checkpoint: make every applied part durable
    bool scrub = false;  ///< take one online-scrub step
    std::optional<std::uint64_t> wakeNs;  ///< nullopt: only on a request
};

/**
 * A round commits once the oldest pending ack has waited
 * @p flushDeadlineUs (Deadline) or when stopping (Drain); scrubs only
 * on a round that dequeued nothing, not while stopping, once per
 * @p scrubIntervalMs (0 = never); and sleeps until that ack's
 * deadline, else until the next scrub step. A pending ack overrides
 * the scrub timer rather than racing it. A shard with an applied
 * transaction part not yet durable folds on the first round that
 * dequeues nothing (not while stopping, whose drain checkpoints
 * anyway) and does not sleep before it: the fold frees the part's
 * decision-ring entry.
 */
ShardPlan planShardRound(const ShardRound &r, std::uint64_t flushDeadlineUs,
                         std::uint64_t scrubIntervalMs);

/**
 * May another thread stage one op into @p pl while its worker
 * sleeps? Only behind a pending ack of the open epoch, whose deadline
 * the worker sleeps on, and only if the op leaves the epoch unfilled:
 * the worker alone opens, commits and folds epochs.
 */
inline bool
mayStageInline(const CommitPipeline &pl, bool ackPending)
{
    return pl.epochOpen() && ackPending &&
           pl.stagedOps() + 1 < pl.policy().batchOps;
}

} // namespace lp::engine

#endif // LP_ENGINE_COMMIT_PIPELINE_HH
