/**
 * @file
 * Observability rendering: one table of stat rows, rendered twice --
 * as the STATS-op JSON snapshot and as the METRICS-op Prometheus
 * exposition -- so the two cannot drift apart.
 *
 * A row names one stat once (engine/stat_names.hh), says whether it
 * is a counter, gauge or histogram, who owns it, and how to read it.
 * Rows read only worker stat atomics, cross-thread-safe store atomics,
 * and single-writer histograms (the acceptor renders on its own
 * thread; Server::statsJson() callers accept the benign snapshot
 * skew). Where a row is published:
 *  - a shard part: STATS "shard" -> "<i>" (a flat object), METRICS
 *    labelled shard="<i>";
 *  - a total: a top-level STATS key, an unlabelled METRICS series.
 *    A row with an acceptor part has one: the acceptor's value plus
 *    every shard's. STATS also sums each shard-only counter at top
 *    level; METRICS does not, so a scraper that sums every label set
 *    of a metric counts each event once.
 * A histogram is `<name>_count` plus percentiles in STATS and full
 * bucket series in METRICS, where a "_ns" name tail becomes
 * "_seconds" and the samples seconds (other histograms keep their
 * units).
 */

#include "server/server_impl.hh"

#include <optional>

#include "engine/stat_names.hh"
#include "obs/metrics.hh"
#include "stats/json.hh"

namespace lp::server
{

namespace
{

enum class Kind { Counter, Gauge, Histogram };

/** Who owns a row's value, and which parts are published. */
enum class Scope {
    Server,  ///< the acceptor: a total only
    Shard,   ///< each shard worker: per-shard parts
    Both,    ///< acceptor and shards: the total and per-shard parts
    Pooled,  ///< acceptor and shards: the total only
};

/** One read: a counter or gauge value, or a live histogram. */
struct Stat
{
    std::uint64_t n = 0;
    const obs::Histogram *h = nullptr;
};

Stat
num(std::uint64_t v)
{
    return {v, nullptr};
}

Stat
num(const std::atomic<std::uint64_t> &a)
{
    return num(a.load(std::memory_order_relaxed));
}

Stat
hist(const obs::Histogram &h)
{
    return {0, &h};
}

} // namespace

struct Server::Impl::StatRow
{
    const char *name;
    Kind kind;
    Scope scope;
    /** Reads the acceptor's part when @p w is null, else shard w's. */
    Stat (*read)(const Impl &s, const Worker *w);
};

namespace sn = engine::statname;

// Recovery counters are written once by the worker before the
// readiness latch, so the acceptor's reads are ordered-after by
// start()'s latch acquire. Pipeline, media and index values are the
// shard store's own single-writer atomics.
const Server::Impl::StatRow Server::Impl::statRows[] = {
    {"accepted", Kind::Counter, Scope::Server,
     [](auto &s, auto *) { return num(s.statAccepted); }},
    {"retries", Kind::Counter, Scope::Server,
     [](auto &s, auto *) { return num(s.statRetries); }},
    {"errors", Kind::Counter, Scope::Server,
     [](auto &s, auto *) { return num(s.statErrs); }},
    {"faults", Kind::Counter, Scope::Server,
     [](auto &s, auto *) { return num(s.statFaults); }},
    {"malformed", Kind::Counter, Scope::Server,
     [](auto &s, auto *) { return num(s.statMalformed); }},
    // Connection datapath (lp::net): what the acceptor's event loop
    // sees right now.
    {sn::connActive, Kind::Gauge, Scope::Server,
     [](auto &s, auto *) { return num(s.statConns); }},
    {sn::outbufBytes, Kind::Gauge, Scope::Server,
     [](auto &s, auto *) { return num(s.netStats.outbufBytes); }},
    {sn::eagainTotal, Kind::Counter, Scope::Server,
     [](auto &s, auto *) { return num(s.netStats.eagainTotal); }},
    {sn::readPausesOutbuf, Kind::Counter, Scope::Server,
     [](auto &s, auto *) { return num(s.statPausesOutbuf); }},
    {sn::readPausesOps, Kind::Counter, Scope::Server,
     [](auto &s, auto *) { return num(s.statPausesOps); }},
    {sn::writevBatch, Kind::Histogram, Scope::Server,
     [](auto &s, auto *) { return hist(s.netStats.writevBatch); }},
    {sn::reqParseNs, Kind::Histogram, Scope::Server,
     [](auto &s, auto *) { return hist(s.parseNs); }},
    {sn::reqAckNs, Kind::Histogram, Scope::Server,
     [](auto &s, auto *) { return hist(s.ackNs); }},
    // Transactions commit on the acceptor (the general path) or on a
    // shard worker (the single-shard fast path).
    {sn::txnCommits, Kind::Counter, Scope::Both,
     [](auto &s, auto *w) {
         return num(w ? w->statTxnCommits : s.statTxnCommits);
     }},
    {sn::txnAborts, Kind::Counter, Scope::Both,
     [](auto &s, auto *w) {
         return num(w ? w->statTxnAborts : s.statTxnAborts);
     }},
    {sn::txnRingFull, Kind::Counter, Scope::Server,
     [](auto &s, auto *) { return num(s.statTxnRingFull); }},
    {sn::txnCommitLatNs, Kind::Histogram, Scope::Pooled,
     [](auto &s, auto *w) {
         return hist(w ? w->txnCommitNs : s.txnCommitNs);
     }},
    {sn::txnAbortLatNs, Kind::Histogram, Scope::Pooled,
     [](auto &s, auto *w) { return hist(w ? w->txnAbortNs : s.txnAbortNs); }},
    // Events a thread's trace ring refused because it was full. The
    // flight recorder tees BEFORE the full-check, so drops mean lost
    // Chrome-trace detail, not lost flight coverage.
    {sn::traceDrops, Kind::Counter, Scope::Both,
     [](auto &s, auto *w) {
         return num((w ? w->ring : s.acceptRing)->dropped());
     }},
    {sn::gets, Kind::Counter, Scope::Shard,
     [](auto &, auto *w) { return num(w->statGets); }},
    {sn::mutations, Kind::Counter, Scope::Shard,
     [](auto &, auto *w) { return num(w->statMuts); }},
    {sn::scans, Kind::Counter, Scope::Shard,
     [](auto &, auto *w) { return num(w->statScans); }},
    // Hops: a read the acceptor served itself skips the worker
    // wake-up and the reply doorbell, a mutation it staged itself the
    // wake-up; the two counters below count the wake-ups and
    // doorbells that still happen.
    {sn::getsInline, Kind::Counter, Scope::Server,
     [](auto &s, auto *) { return num(s.statGetsInline); }},
    {sn::mutsInline, Kind::Counter, Scope::Server,
     [](auto &s, auto *) { return num(s.statMutsInline); }},
    {sn::scansInline, Kind::Counter, Scope::Server,
     [](auto &s, auto *) { return num(s.statScansInline); }},
    {sn::workerWakeups, Kind::Counter, Scope::Shard,
     [](auto &, auto *w) { return num(w->statWakeups); }},
    {sn::replyDoorbells, Kind::Counter, Scope::Server,
     [](auto &s, auto *) { return num(s.statDoorbells); }},
    {sn::indexEntries, Kind::Gauge, Scope::Shard,
     [](auto &, auto *w) { return num(w->kv->indexEntries(0)); }},
    {sn::indexBytes, Kind::Gauge, Scope::Shard,
     [](auto &, auto *w) { return num(w->kv->indexBytes(0)); }},
    {sn::acksReleased, Kind::Counter, Scope::Shard,
     [](auto &, auto *w) { return num(w->statAcksReleased); }},
    {sn::epochsCommitted, Kind::Counter, Scope::Shard,
     [](auto &, auto *w) {
         return num(w->kv->pipeline(0).counters().epochsCommitted);
     }},
    {sn::folds, Kind::Counter, Scope::Shard,
     [](auto &, auto *w) { return num(w->kv->pipeline(0).counters().folds); }},
    {sn::deadlineCommits, Kind::Counter, Scope::Shard,
     [](auto &, auto *w) { return num(w->statDeadlineCommits); }},
    {sn::fullCommits, Kind::Counter, Scope::Shard,
     [](auto &, auto *w) {
         return num(w->kv->pipeline(0).counters().fullCommits);
     }},
    {sn::drainCommits, Kind::Counter, Scope::Shard,
     [](auto &, auto *w) { return num(w->statDrainCommits); }},
    {sn::committedEpoch, Kind::Gauge, Scope::Shard,
     [](auto &, auto *w) { return num(w->statCommittedEpoch); }},
    {sn::queueDepth, Kind::Gauge, Scope::Shard,
     [](auto &, auto *w) { return num(w->statQueueDepth); }},
    {sn::recoveryAttached, Kind::Counter, Scope::Shard,
     [](auto &, auto *w) { return num(w->attached); }},
    {sn::batchesReplayed, Kind::Counter, Scope::Shard,
     [](auto &, auto *w) { return num(w->report.batchesReplayed); }},
    {sn::entriesReplayed, Kind::Counter, Scope::Shard,
     [](auto &, auto *w) { return num(w->report.entriesReplayed); }},
    {sn::batchesDiscarded, Kind::Counter, Scope::Shard,
     [](auto &, auto *w) { return num(w->report.batchesDiscarded); }},
    {sn::walUndone, Kind::Counter, Scope::Shard,
     [](auto &, auto *w) { return num(w->report.walUndone); }},
    {sn::mediaRepaired, Kind::Counter, Scope::Shard,
     [](auto &, auto *w) { return num(w->kv->mediaCounters(0).repaired); }},
    {sn::mediaUnrepairable, Kind::Counter, Scope::Shard,
     [](auto &, auto *w) {
         return num(w->kv->mediaCounters(0).unrepairable);
     }},
    {sn::scrubRegions, Kind::Counter, Scope::Shard,
     [](auto &, auto *w) {
         return num(w->kv->mediaCounters(0).scrubRegions);
     }},
    {sn::scrubPasses, Kind::Counter, Scope::Shard,
     [](auto &, auto *w) { return num(w->kv->mediaCounters(0).scrubPasses); }},
    {sn::quarantined, Kind::Gauge, Scope::Shard,
     [](auto &, auto *w) { return num(w->kv->quarantined(0)); }},
    {sn::stageLatNs, Kind::Histogram, Scope::Shard,
     [](auto &, auto *w) { return hist(w->kv->shardObs(0).stageNs); }},
    {sn::commitLatNs, Kind::Histogram, Scope::Shard,
     [](auto &, auto *w) { return hist(w->kv->shardObs(0).commitNs); }},
    {sn::foldLatNs, Kind::Histogram, Scope::Shard,
     [](auto &, auto *w) { return hist(w->kv->shardObs(0).foldNs); }},
    {sn::recoverLatNs, Kind::Histogram, Scope::Shard,
     [](auto &, auto *w) { return hist(w->kv->shardObs(0).recoverNs); }},
    {sn::scanLatNs, Kind::Histogram, Scope::Shard,
     [](auto &, auto *w) { return hist(w->kv->shardObs(0).scanNs); }},
    {sn::scanLen, Kind::Histogram, Scope::Shard,
     [](auto &, auto *w) { return hist(w->kv->shardObs(0).scanLen); }},
    {sn::scrubLatNs, Kind::Histogram, Scope::Shard,
     [](auto &, auto *w) { return hist(w->kv->shardObs(0).scrubNs); }},
    {sn::reqQueueNs, Kind::Histogram, Scope::Shard,
     [](auto &, auto *w) { return hist(w->queueNs); }},
    {sn::reqCommitWaitNs, Kind::Histogram, Scope::Shard,
     [](auto &, auto *w) { return hist(w->commitWaitNs); }},
};

/**
 * Walk the table: emit(row, shard, stat) once per published part,
 * shard -1 for a total. A total comes after its row's shard parts.
 */
template <class Emit>
void
Server::Impl::forEachStat(Emit &&emit) const
{
    for (const StatRow &r : statRows) {
        const bool own = r.scope != Scope::Shard;
        Stat total = own ? r.read(*this, nullptr) : Stat{};
        std::optional<obs::Histogram> pool;
        if (r.scope != Scope::Server) {
            if (own && total.h) {
                pool.emplace().merge(*total.h);
                total.h = &*pool;
            }
            for (const auto &w : workers) {
                const Stat v = r.read(*this, w.get());
                if (r.scope != Scope::Pooled)
                    emit(r, w->index, v);
                total.n += v.n;
                if (pool)
                    pool->merge(*v.h);
            }
        }
        if (own || r.kind == Kind::Counter)
            emit(r, -1, total);
    }
}

std::string
Server::Impl::statsJsonNow() const
{
    using stats::JsonValue;
    JsonValue::Object top;
    std::vector<JsonValue::Object> shard(workers.size());
    // Configuration, not stats: the header of the snapshot.
    top["backend"] = store::backendName(cfg.backend);
    top["shards"] = std::uint64_t(cfg.shards);
    forEachStat([&](const StatRow &r, int i, const Stat &v) {
        JsonValue::Object &o = i < 0 ? top : shard[std::size_t(i)];
        const std::string b(r.name);
        if (r.kind != Kind::Histogram) {
            o[b] = v.n;
            return;
        }
        // Values are bucket midpoints, in nanoseconds for "_ns" rows.
        const obs::Histogram::Summary m = v.h->summary();
        o[b + "_count"] = m.count;
        o[b + "_p50"] = m.p50Ns;
        o[b + "_p90"] = m.p90Ns;
        o[b + "_p99"] = m.p99Ns;
        o[b + "_p999"] = m.p999Ns;
    });
    JsonValue::Object shards;
    for (std::size_t i = 0; i < shard.size(); ++i)
        shards[std::to_string(i)] = std::move(shard[i]);
    top["shard"] = std::move(shards);
    return JsonValue(std::move(top)).render();
}

std::string
Server::Impl::metricsTextNow() const
{
    obs::MetricsText mt;
    forEachStat([&](const StatRow &r, int i, const Stat &v) {
        if (i < 0 && r.scope == Scope::Shard)
            return;  // STATS-only sum: see the file comment
        std::string name = std::string("lp_") + r.name;
        const bool ns = name.ends_with("_ns");
        if (ns)
            name.replace(name.size() - 3, 3, "_seconds");
        const std::string lab =
            i < 0 ? "" : "shard=\"" + std::to_string(i) + "\"";
        if (r.kind == Kind::Counter)
            mt.counter(name, lab, double(v.n));
        else if (r.kind == Kind::Gauge)
            mt.gauge(name, lab, double(v.n));
        else if (ns)
            mt.histogramNs(name, lab, *v.h);
        else
            mt.histogramRaw(name, lab, *v.h);
    });
    return mt.str();
}

} // namespace lp::server
