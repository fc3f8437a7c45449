/**
 * @file
 * obs::TraceRing / obs::TraceCollector -- bounded lock-free event
 * tracing with Chrome trace-event JSON output.
 *
 * Each traced thread owns one SPSC ring: the owner pushes fixed-size
 * TraceEvents (static-string name, timestamps from obs::nowNs()) with
 * two relaxed/release atomic ops and no allocation; when the ring is
 * full the event is dropped and counted rather than blocking the hot
 * path. The collector registers rings under a mutex (setup/teardown
 * only), drains them from the consumer side, and writes a single
 * Chrome trace-event JSON file -- loadable in Perfetto or
 * chrome://tracing -- with one named track per ring plus the drop
 * counts in otherData.
 *
 * Tracing is opt-in per shard/thread by handing out a ring pointer;
 * every emit helper is null-safe, so "tracing off" costs one branch.
 * A ring built with capacity 0 stores nothing and only feeds its
 * sink: the shape a server uses when no trace file will be written.
 */

#ifndef LP_OBS_TRACE_HH
#define LP_OBS_TRACE_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/histogram.hh"
#include "obs/time.hh"

namespace lp::obs
{

/**
 * One trace record. @c name must be a string literal (or otherwise
 * outlive the collector); events are fixed-size so the ring never
 * allocates after construction.
 */
struct TraceEvent
{
    const char *name = nullptr;
    std::uint32_t tid = 0;   ///< track id (shard index, acceptor...)
    std::uint64_t tsNs = 0;  ///< span start, from obs::nowNs()
    std::uint64_t durNs = 0; ///< span length; 0 = instant event
    std::uint64_t arg = 0;   ///< payload (epoch number, conn id...)
    std::uint64_t flowId = 0; ///< request flow binding; 0 = none
};

/**
 * Per-request trace id, derived from what is already on the wire:
 * the connection id and the client's request id. splitmix64-style
 * finalizer so nearby (conn, req) pairs land far apart; never zero,
 * because 0 means "no flow" everywhere downstream.
 */
inline std::uint64_t
traceIdOf(std::uint64_t connId, std::uint64_t reqId)
{
    std::uint64_t z = (connId << 32) ^ reqId;
    z += 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    z = z ^ (z >> 31);
    return z | 1;
}

/**
 * Consumer of every event pushed to a TraceRing, in producer order.
 * The one implementation is obs::FlightRing (flight.hh), which
 * persists a wrapping copy of the event stream into the pmem arena;
 * the seam keeps trace.hh free of pmem dependencies. record() runs
 * on the ring's producer thread and must not allocate.
 */
class TraceSink
{
  public:
    virtual ~TraceSink() = default;
    virtual void record(const TraceEvent &e) = 0;
};

/**
 * Single-producer single-consumer bounded ring. The producer is the
 * traced thread; the consumer is whoever drains (the collector at
 * write time, after producers have quiesced, or a live drainer).
 */
class TraceRing
{
  public:
    /**
     * @p capacity is rounded up to a power of two, minimum 8. A
     * capacity of 0 makes a ring that stores nothing: push() only
     * tees to the sink, and nothing is dropped (no trace will read
     * the events).
     */
    explicit TraceRing(std::size_t capacity = 4096)
    {
        if (capacity == 0)
            return;
        std::size_t cap = 8;
        while (cap < capacity)
            cap <<= 1;
        buf_.resize(cap);
        mask_ = cap - 1;
    }

    std::size_t capacity() const { return buf_.size(); }

    /** Track id stamped by the emit helpers below. */
    std::uint32_t tid() const { return tid_; }
    void setTid(std::uint32_t tid) { tid_ = tid; }

    /**
     * Tee every future push into @p sink (the crash-persistent
     * flight recorder). Producer-thread only; the sink sees events
     * even when the volatile ring itself is full, so the persistent
     * copy keeps wrapping after the in-memory one has stopped
     * accepting.
     */
    void attachSink(TraceSink *sink) { sink_ = sink; }

    /**
     * Producer side: enqueue @p e; false (and a drop is counted)
     * when the ring is full, false without a drop when it stores
     * nothing. Never allocates.
     */
    bool
    push(const TraceEvent &e)
    {
        if (sink_)
            sink_->record(e);
        if (buf_.empty())
            return false;
        const auto head = head_.load(std::memory_order_relaxed);
        const auto tail = tail_.load(std::memory_order_acquire);
        if (head - tail >= buf_.size()) {
            dropped_.fetch_add(1, std::memory_order_relaxed);
            return false;
        }
        buf_[head & mask_] = e;
        head_.store(head + 1, std::memory_order_release);
        return true;
    }

    /** Consumer side: dequeue the oldest event; false when empty. */
    bool
    pop(TraceEvent &e)
    {
        const auto tail = tail_.load(std::memory_order_relaxed);
        const auto head = head_.load(std::memory_order_acquire);
        if (tail == head)
            return false;
        e = buf_[tail & mask_];
        tail_.store(tail + 1, std::memory_order_release);
        return true;
    }

    /** Events discarded because the ring was full. */
    std::uint64_t
    dropped() const
    {
        return dropped_.load(std::memory_order_relaxed);
    }

  private:
    std::vector<TraceEvent> buf_;
    std::size_t mask_ = 0;
    std::uint32_t tid_ = 0;
    TraceSink *sink_ = nullptr;
    alignas(64) std::atomic<std::uint64_t> head_{0};
    alignas(64) std::atomic<std::uint64_t> tail_{0};
    std::atomic<std::uint64_t> dropped_{0};
};

/** Emit an instant event; no-op when @p ring is null. */
inline void
traceInstant(TraceRing *ring, const char *name, std::uint64_t arg = 0,
             std::uint64_t flowId = 0)
{
    if (ring)
        ring->push({name, ring->tid(), nowNs(), 0, arg, flowId});
}

/**
 * Emit a complete span whose start time the caller measured itself
 * (a queue-wait or commit-wait whose t0 predates this thread seeing
 * the work); no-op when @p ring is null.
 */
inline void
traceSpanFrom(TraceRing *ring, const char *name, std::uint64_t t0Ns,
              std::uint64_t arg = 0, std::uint64_t flowId = 0)
{
    if (ring)
        ring->push({name, ring->tid(), t0Ns, nowNs() - t0Ns, arg,
                    flowId});
}

/**
 * RAII span: records [construction, destruction) as a complete event
 * on @p ring and, when @p hist is given, its duration into @p hist --
 * both from the same two clock reads, so a span and its histogram
 * can never disagree. No-op (one branch) when both are null. A
 * nonzero @p flowId ties the span into its request's flow arc.
 */
class Span
{
  public:
    Span(TraceRing *ring, const char *name, std::uint64_t arg = 0,
         std::uint64_t flowId = 0, Histogram *hist = nullptr)
        : ring_(ring), hist_(hist), name_(name), arg_(arg),
          flowId_(flowId), t0_(ring || hist ? nowNs() : 0)
    {
    }

    ~Span()
    {
        if (!ring_ && !hist_)
            return;
        const std::uint64_t ns = nowNs() - t0_;
        if (ring_)
            ring_->push({name_, ring_->tid(), t0_, ns, arg_, flowId_});
        if (hist_)
            hist_->record(ns);
    }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    TraceRing *ring_;
    Histogram *hist_;
    const char *name_;
    std::uint64_t arg_;
    std::uint64_t flowId_;
    std::uint64_t t0_;
};

/**
 * Owns the rings of all traced threads and serializes their events
 * into one Chrome trace-event JSON file.
 */
class TraceCollector
{
  public:
    TraceCollector();

    /**
     * Register (and own) a new ring rendered as track @p tid named
     * @p threadName. The returned pointer stays valid for the
     * collector's lifetime. Thread-safe.
     */
    TraceRing *ring(const std::string &threadName, std::uint32_t tid,
                    std::size_t capacity = 4096);

    /**
     * Drain every ring and write the Chrome trace JSON to @p path.
     * Call after producers have quiesced (or accept losing events
     * pushed mid-write). False on I/O failure.
     */
    bool writeChromeTrace(const std::string &path);

    /** Total events dropped across all rings. */
    std::uint64_t totalDropped() const;

  private:
    struct Track
    {
        std::string name;
        std::unique_ptr<TraceRing> ring;
    };

    mutable std::mutex mu_;
    std::vector<Track> tracks_;
};

} // namespace lp::obs

#endif // LP_OBS_TRACE_HH
