/**
 * @file
 * Unit tests for the lp::obs observability primitives: the log-linear
 * latency histogram (record/merge/percentile error bound, overflow
 * bucket, allocation-free record path), the SPSC trace ring
 * (wraparound drop accounting, concurrent producer/drainer), the
 * Chrome trace-event writer, and the Prometheus exposition
 * builder/parser round trip.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "obs/histogram.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"

// ---------------------------------------------------------------------
// Counting global allocator: the spec for the histogram/trace record
// paths is "no allocation"; these overrides let tests assert that
// directly instead of trusting the implementation comments.
// ---------------------------------------------------------------------

namespace
{
std::atomic<std::size_t> g_allocCount{0};
}

// GCC pattern-matches free() inside replacement deletes against the
// replacement new and reports a mismatch it can't actually see into.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void *
operator new(std::size_t n)
{
    g_allocCount.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t n)
{
    return ::operator new(n);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

#pragma GCC diagnostic pop

namespace lp::obs
{
namespace
{

/** Deterministic 64-bit mix (splitmix64) for reproducible samples. */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

TEST(Histogram, ExactInLinearRegion)
{
    Histogram h;
    for (std::uint64_t v = 0; v < 64; ++v)
        h.record(v);
    EXPECT_EQ(h.count(), 64u);
    for (std::uint64_t v = 0; v < 64; ++v)
        EXPECT_EQ(h.bucketCount(std::size_t(v)), 1u);
    // Midpoint reconstruction in the linear region is v + 0.5.
    EXPECT_DOUBLE_EQ(h.percentile(0.0), 0.5);
}

TEST(Histogram, BucketBoundsTileTheRange)
{
    // Every bucket's range must start exactly where the previous one
    // ended, the last bucket must end at maxTrackable()+1, and a value
    // recorded at a bucket's lower edge must land in that bucket.
    for (std::size_t i = 1; i < Histogram::kBuckets; ++i) {
        ASSERT_EQ(Histogram::bucketLower(i),
                  Histogram::bucketLower(i - 1) +
                      Histogram::bucketWidth(i - 1))
            << "gap/overlap at bucket " << i;
    }
    const std::size_t last = Histogram::kBuckets - 1;
    EXPECT_EQ(Histogram::bucketLower(last) + Histogram::bucketWidth(last),
              Histogram::maxTrackable() + 1);
    for (std::size_t i = 0; i < Histogram::kBuckets; i += 37) {
        Histogram h;
        h.record(Histogram::bucketLower(i));
        EXPECT_EQ(h.bucketCount(i), 1u) << "bucket " << i;
    }
}

TEST(Histogram, PercentileWithinRelativeErrorBound)
{
    // Property test: log-uniform samples over [2^7, 2^41); every
    // reported percentile must reconstruct the exact nearest-rank
    // sample within the documented 2.5% relative error budget (the
    // octave layout's worst case is 1/64 = 1.5625%). Samples stay
    // above the linear region, where "relative" error is the claim;
    // sub-64ns values are exact-bucketed instead.
    Histogram h;
    std::vector<std::uint64_t> samples;
    const std::size_t n = 20000;
    samples.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t r = mix64(i);
        const int bits = 7 + int(r % 34);
        const std::uint64_t v =
            (std::uint64_t(1) << bits) | (mix64(r) >> (64 - bits));
        samples.push_back(v);
        h.record(v);
    }
    std::sort(samples.begin(), samples.end());
    for (const double p :
         {0.01, 0.10, 0.25, 0.50, 0.75, 0.90, 0.99, 0.999}) {
        // Same nearest-rank formula percentile() uses.
        std::uint64_t target =
            static_cast<std::uint64_t>(p * double(n) + 0.5);
        target =
            std::max<std::uint64_t>(1, std::min<std::uint64_t>(target, n));
        const double exact = double(samples[target - 1]);
        const double est = h.percentile(p);
        EXPECT_LE(std::abs(est - exact) / exact, 0.025)
            << "p=" << p << " exact=" << exact << " est=" << est;
    }
}

TEST(Histogram, MergeEqualsRecordingEverythingInOne)
{
    Histogram a, b, all;
    for (std::size_t i = 0; i < 5000; ++i) {
        const std::uint64_t v = mix64(i) % (1u << 20);
        (i % 2 ? a : b).record(v);
        all.record(v);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), all.count());
    EXPECT_EQ(a.sum(), all.sum());
    for (std::size_t i = 0; i < Histogram::kBuckets; ++i)
        ASSERT_EQ(a.bucketCount(i), all.bucketCount(i)) << "bucket " << i;
    EXPECT_DOUBLE_EQ(a.percentile(0.99), all.percentile(0.99));
}

TEST(Histogram, OverflowBucket)
{
    Histogram h;
    h.record(Histogram::maxTrackable());     // still tracked
    h.record(Histogram::maxTrackable() + 1); // overflow
    h.record(~std::uint64_t(0));             // overflow
    EXPECT_EQ(h.count(), 3u);
    EXPECT_EQ(h.overflow(), 2u);
    // A percentile that lands in the overflow saturates at the
    // trackable maximum rather than inventing a value.
    EXPECT_DOUBLE_EQ(h.percentile(0.999),
                     double(Histogram::maxTrackable()));
}

TEST(Histogram, RecordPathDoesNotAllocate)
{
    Histogram h;
    const std::size_t before = g_allocCount.load(std::memory_order_relaxed);
    for (std::uint64_t i = 0; i < 10000; ++i)
        h.record(i * 1337);
    {
        ScopedTimer t(h);
    }
    {
        ScopedTimer t(static_cast<Histogram *>(nullptr));
    }
    const std::size_t after = g_allocCount.load(std::memory_order_relaxed);
    EXPECT_EQ(after, before);
    EXPECT_EQ(h.count(), 10001u);
}

TEST(TraceRing, CapacityRoundsUpAndWraparoundCountsDrops)
{
    TraceRing ring(10); // rounds up to 16
    EXPECT_EQ(ring.capacity(), 16u);
    for (std::uint64_t i = 0; i < 20; ++i)
        ring.push(TraceEvent{"e", 0, i, 0, i});
    EXPECT_EQ(ring.dropped(), 4u);
    TraceEvent e;
    std::uint64_t popped = 0;
    while (ring.pop(e)) {
        EXPECT_EQ(e.arg, popped); // oldest events survive, in order
        ++popped;
    }
    EXPECT_EQ(popped, 16u);
    // Space freed by the drain is usable again.
    EXPECT_TRUE(ring.push(TraceEvent{"e", 0, 99, 0, 99}));
    EXPECT_EQ(ring.dropped(), 4u);
}

TEST(TraceRing, PushPathDoesNotAllocate)
{
    TraceRing ring(64);
    const std::size_t before = g_allocCount.load(std::memory_order_relaxed);
    for (std::uint64_t i = 0; i < 1000; ++i) {
        TraceEvent e;
        ring.pop(e);
        ring.push(TraceEvent{"hot", 1, i, 2, i});
        traceInstant(&ring, "instant", i);
        Span span(&ring, "span", i);
    }
    const std::size_t after = g_allocCount.load(std::memory_order_relaxed);
    EXPECT_EQ(after, before);
}

TEST(TraceRing, SpanRecordsItsOwnDurationIntoTheHistogram)
{
    TraceRing ring(64);
    Histogram hist;
    std::uint64_t spanNs = 0;
    for (std::uint64_t i = 0; i < 32; ++i) {
        {
            Span span(&ring, "timed", i, 0, &hist);
            volatile std::uint64_t spin = 0;
            for (int j = 0; j < 1000; ++j)
                spin = spin + std::uint64_t(j);
        }
        TraceEvent e;
        ASSERT_TRUE(ring.pop(e));
        spanNs += e.durNs;
    }
    EXPECT_EQ(hist.count(), 32u);
    EXPECT_EQ(hist.sum(), spanNs);

    // Tracing off: the histogram still records.
    { Span span(nullptr, "untraced", 0, 0, &hist); }
    EXPECT_EQ(hist.count(), 33u);
}

TEST(TraceRing, ConcurrentProducerDrainerConservesEvents)
{
    TraceRing ring(128);
    constexpr std::uint64_t kPushes = 200000;
    std::atomic<bool> done{false};
    std::uint64_t drained = 0;
    std::uint64_t lastArg = 0;
    bool ordered = true;

    std::thread consumer([&] {
        TraceEvent e;
        for (;;) {
            if (ring.pop(e)) {
                ++drained;
                if (e.arg <= lastArg)
                    ordered = false; // FIFO must never reorder
                lastArg = e.arg;
            } else if (done.load(std::memory_order_acquire)) {
                while (ring.pop(e)) {
                    ++drained;
                    if (e.arg <= lastArg)
                        ordered = false;
                    lastArg = e.arg;
                }
                break;
            }
        }
    });
    for (std::uint64_t i = 1; i <= kPushes; ++i)
        ring.push(TraceEvent{"p", 0, i, 0, i});
    done.store(true, std::memory_order_release);
    consumer.join();

    EXPECT_TRUE(ordered);
    EXPECT_EQ(drained + ring.dropped(), kPushes);
    EXPECT_GT(drained, 0u);
}

TEST(TraceCollector, WritesChromeTraceJson)
{
    TraceCollector tc;
    TraceRing *r0 = tc.ring("shard-0", 0, 64);
    TraceRing *r1 = tc.ring("acceptor", 1000, 64);
    // Explicit durations: a Span around trivial work can legally
    // round to 0ns and degrade to an instant event.
    r0->push(TraceEvent{"epoch_commit", r0->tid(), nowNs(), 5000, 7});
    traceInstant(r1, "crash", 42);

    char path[] = "/tmp/lp-obs-trace-XXXXXX";
    const int fd = mkstemp(path);
    ASSERT_GE(fd, 0);
    ::close(fd);
    ASSERT_TRUE(tc.writeChromeTrace(path));

    std::FILE *f = std::fopen(path, "r");
    ASSERT_NE(f, nullptr);
    std::string text(1 << 16, '\0');
    text.resize(std::fread(text.data(), 1, text.size(), f));
    std::fclose(f);
    std::remove(path);

    EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(text.find("thread_name"), std::string::npos);
    EXPECT_NE(text.find("shard-0"), std::string::npos);
    EXPECT_NE(text.find("acceptor"), std::string::npos);
    EXPECT_NE(text.find("\"epoch_commit\""), std::string::npos);
    EXPECT_NE(text.find("\"crash\""), std::string::npos);
    EXPECT_NE(text.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(text.find("\"ph\":\"i\""), std::string::npos);
    EXPECT_NE(text.find("\"dropped_shard-0\": 0"), std::string::npos);
    EXPECT_EQ(tc.totalDropped(), 0u);
}

/** Pull the `le` series of one `_bucket` metric out of a snapshot. */
std::map<double, double>
bucketSeries(const stats::Snapshot &snap, const std::string &prefix)
{
    std::map<double, double> out;
    for (const auto &[key, v] : snap) {
        if (key.compare(0, prefix.size(), prefix) != 0)
            continue;
        const std::string le =
            key.substr(prefix.size(),
                       key.size() - prefix.size() - 2); // strip `"}`
        out[le == "+Inf" ? std::numeric_limits<double>::infinity()
                         : std::strtod(le.c_str(), nullptr)] = v;
    }
    return out;
}

TEST(Metrics, HistogramExpositionInvariants)
{
    Histogram h;
    for (std::uint64_t i = 0; i < 1000; ++i)
        h.record(100 + (mix64(i) % 100000));
    MetricsText mt;
    mt.histogramNs("lp_commit_lat_seconds", "shard=\"0\"", h);
    const std::string &text = mt.str();
    EXPECT_NE(text.find("# TYPE lp_commit_lat_seconds histogram"),
              std::string::npos);

    stats::Snapshot snap;
    ASSERT_TRUE(parseExposition(text, snap));
    // +Inf bucket == _count == what we recorded.
    EXPECT_DOUBLE_EQ(
        snap.at(
            "lp_commit_lat_seconds_bucket{shard=\"0\",le=\"+Inf\"}"),
        1000.0);
    EXPECT_DOUBLE_EQ(snap.at("lp_commit_lat_seconds_count{shard=\"0\"}"),
                     1000.0);
    // Cumulative buckets are nondecreasing in le order (numeric
    // order -- the snapshot's string order interleaves exponents).
    const auto buckets = bucketSeries(
        snap, "lp_commit_lat_seconds_bucket{shard=\"0\",le=\"");
    ASSERT_GE(buckets.size(), 2u);
    double prev = 0.0;
    for (const auto &[le, cum] : buckets) {
        EXPECT_GE(cum, prev) << "le=" << le;
        prev = cum;
    }
    EXPECT_DOUBLE_EQ(prev, 1000.0);
    // The sum is in seconds: the recorded ns total scaled by 1e-9.
    EXPECT_NEAR(snap.at("lp_commit_lat_seconds_sum{shard=\"0\"}"),
                double(h.sum()) / 1e9, 1e-12 * double(h.sum()));
    // The bucket series reproduces the histogram's own percentile
    // within one octave (le bounds are powers of two in seconds).
    const double q99 = quantileFromBuckets(buckets, 0.99);
    const double direct = h.percentile(0.99) / 1e9;
    EXPECT_GE(q99, direct / 2.0);
    EXPECT_LE(q99, direct * 2.0);
}

TEST(Metrics, CountersGaugesRoundTripAndTypeOnce)
{
    MetricsText mt;
    mt.counter("lp_gets", "shard=\"0\"", 5);
    mt.counter("lp_gets", "shard=\"1\"", 7);
    mt.gauge("lp_queue_depth", "", 3);
    const std::string &text = mt.str();
    // One # TYPE line per metric name, not per sample.
    EXPECT_EQ(text.find("# TYPE lp_gets counter"),
              text.rfind("# TYPE lp_gets counter"));

    stats::Snapshot snap;
    ASSERT_TRUE(parseExposition(text, snap));
    EXPECT_DOUBLE_EQ(snap.at("lp_gets{shard=\"0\"}"), 5.0);
    EXPECT_DOUBLE_EQ(snap.at("lp_gets{shard=\"1\"}"), 7.0);
    EXPECT_DOUBLE_EQ(snap.at("lp_queue_depth"), 3.0);
}

TEST(Metrics, ParseRejectsMalformedLinesButKeepsGoing)
{
    stats::Snapshot snap;
    EXPECT_FALSE(parseExposition("ok 1\nnot-a-sample\nalso 2\n", snap));
    EXPECT_DOUBLE_EQ(snap.at("ok"), 1.0);
    EXPECT_DOUBLE_EQ(snap.at("also"), 2.0);
    EXPECT_FALSE(parseExposition("name notanumber\n", snap));
}

TEST(Histogram, ExemplarOctaveMappingAndMerge)
{
    // Slot 0 is the whole linear-region bucket; octave w maps to
    // slot w - kSubBits - 1; overflow owns the last slot.
    EXPECT_EQ(Histogram::exemplarIndexOf(0), 0u);
    EXPECT_EQ(Histogram::exemplarIndexOf(63), 0u);
    EXPECT_EQ(Histogram::exemplarIndexOf(64), 1u);
    EXPECT_EQ(Histogram::exemplarIndexOf(127), 1u);
    EXPECT_EQ(Histogram::exemplarIndexOf(128), 2u);
    EXPECT_EQ(Histogram::exemplarIndexOf(Histogram::maxTrackable()),
              std::size_t(Histogram::kMaxBit) + 1 -
                  Histogram::kSubBits - 1);
    EXPECT_EQ(Histogram::exemplarIndexOf(Histogram::maxTrackable() + 1),
              Histogram::kExemplars - 1);

    Histogram h;
    EXPECT_EQ(h.exemplar(0), 0u); // zero = none yet
    h.record(1000);
    h.recordExemplar(1000, 0x1111);
    h.recordExemplar(1000, 0x2222); // freshest wins
    EXPECT_EQ(h.exemplar(Histogram::exemplarIndexOf(1000)), 0x2222u);
    EXPECT_EQ(h.exemplar(Histogram::kExemplars), 0u); // OOB is safe

    // merge() adopts the other side's exemplars but never erases a
    // slot the other side left empty.
    Histogram a, b;
    a.recordExemplar(100, 0xaaaa);
    b.recordExemplar(5000, 0xbbbb);
    a.merge(b);
    EXPECT_EQ(a.exemplar(Histogram::exemplarIndexOf(100)), 0xaaaau);
    EXPECT_EQ(a.exemplar(Histogram::exemplarIndexOf(5000)), 0xbbbbu);
}

TEST(Histogram, ExemplarNeverTearsUnderConcurrentScrape)
{
    // The exemplar is a single atomic word precisely so a scrape
    // racing the writer reads one of the stored ids, never a splice
    // of two. Hammer one slot with two distinguishable ids and
    // assert every concurrent read is one of them.
    Histogram h;
    constexpr std::uint64_t idA = 0x1111111111111111ull;
    constexpr std::uint64_t idB = 0x2222222222222222ull;
    const std::size_t slot = Histogram::exemplarIndexOf(1000);
    std::atomic<bool> stop{false};
    std::atomic<bool> torn{false};
    std::thread reader([&] {
        while (!stop.load(std::memory_order_relaxed)) {
            const std::uint64_t v = h.exemplar(slot);
            if (v != 0 && v != idA && v != idB)
                torn.store(true, std::memory_order_relaxed);
        }
    });
    for (int i = 0; i < 200000; ++i)
        h.recordExemplar(1000, (i & 1) ? idA : idB);
    stop.store(true, std::memory_order_relaxed);
    reader.join();
    EXPECT_FALSE(torn.load());
}

TEST(Histogram, ExemplarPathDoesNotAllocate)
{
    Histogram h;
    const std::size_t before =
        g_allocCount.load(std::memory_order_relaxed);
    for (std::uint64_t i = 0; i < 10000; ++i) {
        h.recordExemplar(i * 777, i | 1);
        (void)h.exemplar(Histogram::exemplarIndexOf(i * 777));
    }
    const std::size_t after =
        g_allocCount.load(std::memory_order_relaxed);
    EXPECT_EQ(after, before);
}

TEST(Metrics, HistogramExpositionCarriesExemplars)
{
    // v=1000ns lives in octave [512, 1024): bound le=1.024e-06 s,
    // reconstructed exemplar value = octave midpoint 768ns.
    Histogram h;
    h.record(1000);
    h.recordExemplar(1000, 0xabcdef0123456789ull);
    MetricsText mt;
    mt.histogramNs("lp_x_seconds", "shard=\"0\"", h);
    const std::string &text = mt.str();
    EXPECT_NE(
        text.find("# {trace_id=\"abcdef0123456789\"} 7.68e-07"),
        std::string::npos);
    // Buckets with no exemplar carry no suffix: exactly one
    // exemplar'd line (1000 < 2^10 stops the finite series, and the
    // +Inf slot is empty).
    std::size_t n = 0;
    for (std::size_t at = text.find(" # {");
         at != std::string::npos; at = text.find(" # {", at + 1))
        ++n;
    EXPECT_EQ(n, 1u);
    // The suffix is cosmetic to the parser: values still round-trip.
    stats::Snapshot snap;
    ASSERT_TRUE(parseExposition(text, snap));
    EXPECT_DOUBLE_EQ(
        snap.at("lp_x_seconds_bucket{shard=\"0\",le=\"1.024e-06\"}"),
        1.0);
    EXPECT_DOUBLE_EQ(
        snap.at("lp_x_seconds_bucket{shard=\"0\",le=\"+Inf\"}"), 1.0);
}

TEST(Metrics, OverflowedHistogramQuantileSaturates)
{
    // Regression: a histogram dominated by overflow samples used to
    // end its finite bucket series at whatever octave the tracked
    // samples stopped at, so quantileFromBuckets clamped a p99.9
    // that really lives in the overflow to that small bound (~128ns
    // here). The exposition now closes the finite series at the
    // 2^(kMaxBit+1) bound, matching Histogram::percentile's
    // saturate-at-trackable-max behavior.
    Histogram h;
    for (int i = 0; i < 10; ++i)
        h.record(100);
    for (int i = 0; i < 90; ++i)
        h.record(Histogram::maxTrackable() + 1);
    h.recordExemplar(Histogram::maxTrackable() + 1, 0xfeedu);

    MetricsText mt;
    mt.histogramNs("lp_x_seconds", "shard=\"0\"", h);
    stats::Snapshot snap;
    ASSERT_TRUE(parseExposition(mt.str(), snap));
    const auto buckets =
        bucketSeries(snap, "lp_x_seconds_bucket{shard=\"0\",le=\"");
    ASSERT_GE(buckets.size(), 3u); // 1.28e-07, 2^48 * 1e-9, +Inf
    const double satBound =
        double(std::uint64_t(1) << (Histogram::kMaxBit + 1)) * 1e-9;
    // %.10g in the le label rounds the bound's low digits away.
    EXPECT_NEAR(quantileFromBuckets(buckets, 0.999), satBound,
                1e-9 * satBound);
    // The overflow's exemplar rides the +Inf bucket at the trackable
    // max, not on any finite bound.
    EXPECT_NE(mt.str().find("le=\"+Inf\"} 100 # {trace_id=\""
                            "000000000000feed\"}"),
              std::string::npos);
    // And the direct percentile agrees with the scraped one to
    // within the double rounding of the bound.
    EXPECT_NEAR(h.percentile(0.999) / 1e9, satBound, 1e-6 * satBound);
}

TEST(TraceCollector, EmitsFlowArcsForSharedFlowIds)
{
    TraceCollector tc;
    TraceRing *r0 = tc.ring("shard-0", 0, 64);
    TraceRing *r1 = tc.ring("acceptor", 1000, 64);
    // Three spans of request 0x4d hop acceptor -> shard -> acceptor;
    // request 0x63 has a single span and must emit no arc at all (a
    // lone "s" renders as a dangling arrow).
    r1->push(TraceEvent{"parse", 1000, 1000, 100, 1, 0x4d});
    r0->push(TraceEvent{"queue", 0, 2000, 100, 1, 0x4d});
    r1->push(TraceEvent{"ack", 1000, 3000, 100, 1, 0x4d});
    r0->push(TraceEvent{"queue", 0, 4000, 100, 2, 0x63});

    char path[] = "/tmp/lp-obs-flow-XXXXXX";
    const int fd = mkstemp(path);
    ASSERT_GE(fd, 0);
    ::close(fd);
    ASSERT_TRUE(tc.writeChromeTrace(path));
    std::FILE *f = std::fopen(path, "r");
    ASSERT_NE(f, nullptr);
    std::string text(1 << 16, '\0');
    text.resize(std::fread(text.data(), 1, text.size(), f));
    std::fclose(f);
    std::remove(path);

    const auto countOf = [&](const std::string &needle) {
        std::size_t n = 0;
        for (std::size_t at = text.find(needle);
             at != std::string::npos; at = text.find(needle, at + 1))
            ++n;
        return n;
    };
    // One s -> t -> f arc for 0x4d, binding-point "e" on the finish.
    EXPECT_EQ(countOf("\"id\":\"0x4d\""), 3u);
    EXPECT_EQ(countOf("\"ph\":\"s\""), 1u);
    EXPECT_EQ(countOf("\"ph\":\"t\""), 1u);
    EXPECT_EQ(countOf("\"ph\":\"f\""), 1u);
    EXPECT_EQ(countOf("\"bp\":\"e\""), 1u);
    EXPECT_EQ(countOf("\"cat\":\"req\""), 3u);
    EXPECT_EQ(countOf("\"id\":\"0x63\""), 0u);
}

TEST(TraceRing, SinkSeesEveryPushEvenWhenFull)
{
    // The sink tee runs BEFORE the full-check, so a crash-persistent
    // copy attached to the ring keeps wrapping after the volatile
    // ring has started dropping.
    struct CountingSink final : TraceSink
    {
        std::uint64_t seen = 0;
        std::uint64_t lastArg = 0;
        void
        record(const TraceEvent &e) override
        {
            ++seen;
            lastArg = e.arg;
        }
    } sink;
    TraceRing ring(8);
    ring.attachSink(&sink);
    const std::size_t before =
        g_allocCount.load(std::memory_order_relaxed);
    for (std::uint64_t i = 1; i <= 40; ++i)
        ring.push(TraceEvent{"e", 0, i, 0, i});
    const std::size_t after =
        g_allocCount.load(std::memory_order_relaxed);
    EXPECT_EQ(after, before); // teed push path stays allocation-free
    EXPECT_EQ(sink.seen, 40u);
    EXPECT_EQ(sink.lastArg, 40u);
    EXPECT_EQ(ring.dropped(), 32u);
}

TEST(TraceRing, StoragelessRingTeesToItsSinkAndDropsNothing)
{
    // Capacity 0 is the untraced server's worker ring: it keeps no
    // events (no trace file will read them) and so loses none, but
    // the flight recorder behind it still sees every one.
    struct CountingSink final : TraceSink
    {
        std::uint64_t seen = 0;
        void record(const TraceEvent &) override { ++seen; }
    } sink;
    TraceRing ring(0);
    EXPECT_EQ(ring.capacity(), 0u);
    ring.attachSink(&sink);
    const std::size_t before =
        g_allocCount.load(std::memory_order_relaxed);
    for (std::uint64_t i = 1; i <= 40; ++i)
        EXPECT_FALSE(ring.push(TraceEvent{"e", 0, i, 0, i}));
    traceInstant(&ring, "i");
    traceSpanFrom(&ring, "s", nowNs());
    EXPECT_EQ(g_allocCount.load(std::memory_order_relaxed), before);
    EXPECT_EQ(sink.seen, 42u);
    EXPECT_EQ(ring.dropped(), 0u);
    TraceEvent e;
    EXPECT_FALSE(ring.pop(e));

    // The same through a collector, as the server builds its rings.
    TraceCollector tc;
    TraceRing *r = tc.ring("shard-0", 0, 0);
    r->attachSink(&sink);
    traceInstant(r, "i");
    EXPECT_EQ(sink.seen, 43u);
    EXPECT_EQ(tc.totalDropped(), 0u);
}

TEST(Metrics, QuantileFromBuckets)
{
    // 100 samples: 50 at <=0.001, 40 more at <=0.01, 10 in +Inf.
    std::map<double, double> b;
    b[0.001] = 50;
    b[0.01] = 90;
    b[std::numeric_limits<double>::infinity()] = 100;
    EXPECT_DOUBLE_EQ(quantileFromBuckets(b, 0.50), 0.001);
    EXPECT_DOUBLE_EQ(quantileFromBuckets(b, 0.90), 0.01);
    // Quantiles past the last finite bound clamp to it.
    EXPECT_DOUBLE_EQ(quantileFromBuckets(b, 0.99), 0.01);
    EXPECT_DOUBLE_EQ(quantileFromBuckets({}, 0.5), 0.0);
}

} // namespace
} // namespace lp::obs
