/**
 * @file
 * Observability rendering: the STATS-op JSON snapshot and the
 * METRICS-op Prometheus exposition. Reads only worker stat atomics,
 * cross-thread-safe store atomics, and single-writer histograms
 * (the acceptor renders on its own thread; Server::statsJson()
 * callers accept the benign snapshot skew).
 */

#include "server/server_impl.hh"

#include "engine/stat_names.hh"
#include "obs/metrics.hh"
#include "stats/json.hh"

namespace lp::server
{

std::string
Server::Impl::statsJsonNow() const
{
    using stats::JsonValue;
    JsonValue::Object o;
    o["backend"] = store::backendName(cfg.backend);
    o["shards"] = std::uint64_t(cfg.shards);
    o["connections"] = statConns.load(std::memory_order_relaxed);
    o["accepted"] = statAccepted.load(std::memory_order_relaxed);
    o["retries"] = statRetries.load(std::memory_order_relaxed);
    o["errors"] = statErrs.load(std::memory_order_relaxed);
    o["faults"] = statFaults.load(std::memory_order_relaxed);
    namespace sn = engine::statname;
    // Latency keys carry the canonical "_ns" base plus percentile
    // suffixes; values are nanoseconds (bucket midpoints).
    const auto addLat = [](JsonValue::Object &dst, const char *base,
                           const obs::Histogram &h) {
        const obs::Histogram::Summary m = h.summary();
        const std::string b(base);
        dst[b + "_count"] = m.count;
        dst[b + "_p50"] = m.p50Ns;
        dst[b + "_p90"] = m.p90Ns;
        dst[b + "_p99"] = m.p99Ns;
        dst[b + "_p999"] = m.p999Ns;
    };
    // Connection-datapath stats (lp::net): the gauge pair mirrors
    // what the acceptor's event loop sees right now.
    o[sn::connActive] = statConns.load(std::memory_order_relaxed);
    o[sn::outbufBytes] =
        netStats.outbufBytes.load(std::memory_order_relaxed);
    o[sn::eagainTotal] =
        netStats.eagainTotal.load(std::memory_order_relaxed);
    addLat(o, sn::writevBatch, netStats.writevBatch);
    std::uint64_t gets = 0, muts = 0, acks = 0, scans = 0;
    std::uint64_t epochs = 0, folds = 0, deadlines = 0;
    std::uint64_t mediaRepaired = 0, mediaUnrepairable = 0;
    // Txn commits/aborts split across owners: fast path on the
    // shard worker, general path on the acceptor (coordinator).
    std::uint64_t txnC =
        statTxnCommits.load(std::memory_order_relaxed);
    std::uint64_t txnA =
        statTxnAborts.load(std::memory_order_relaxed);
    obs::Histogram txnCommitAll, txnAbortAll;
    txnCommitAll.merge(txnCommitNs);
    txnAbortAll.merge(txnAbortNs);
    JsonValue::Object shards;
    for (const auto &wp : workers) {
        const auto &w = *wp;
        JsonValue::Object s;
        const std::uint64_t g =
            w.statGets.load(std::memory_order_relaxed);
        const std::uint64_t m =
            w.statMuts.load(std::memory_order_relaxed);
        const std::uint64_t sc =
            w.statScans.load(std::memory_order_relaxed);
        // Pipeline counters: the shard's own single-writer
        // atomics, like the media counters below.
        const engine::PipelineCounters &pc =
            w.kv->pipeline(0).counters();
        const std::uint64_t a =
            pc.acksReleased.load(std::memory_order_relaxed);
        const std::uint64_t e =
            pc.epochsCommitted.load(std::memory_order_relaxed);
        const std::uint64_t f =
            pc.folds.load(std::memory_order_relaxed);
        const std::uint64_t d =
            pc.deadlineCommits.load(std::memory_order_relaxed);
        const std::uint64_t tc =
            w.statTxnCommits.load(std::memory_order_relaxed);
        const std::uint64_t ta =
            w.statTxnAborts.load(std::memory_order_relaxed);
        s[sn::gets] = g;
        s[sn::mutations] = m;
        s[sn::scans] = sc;
        s[sn::txnCommits] = tc;
        s[sn::txnAborts] = ta;
        s[sn::acksReleased] = a;
        s[sn::epochsCommitted] = e;
        s[sn::folds] = f;
        s[sn::deadlineCommits] = d;
        s[sn::committedEpoch] =
            w.statCommittedEpoch.load(std::memory_order_relaxed);
        s[sn::queueDepth] =
            w.statQueueDepth.load(std::memory_order_relaxed);
        // Recovery counters: written once by the worker before
        // the readiness latch, so the acceptor's reads are
        // ordered-after by start()'s latch acquire.
        s[sn::recoveryAttached] =
            std::uint64_t(w.attached ? 1 : 0);
        s[sn::batchesReplayed] = w.report.batchesReplayed;
        s[sn::entriesReplayed] = w.report.entriesReplayed;
        s[sn::batchesDiscarded] = w.report.batchesDiscarded;
        s[sn::walUndone] =
            std::uint64_t(w.report.walUndone ? 1 : 0);
        // Media-fault counters: the store's own atomics, safe to
        // read cross-thread like the histogram mirrors.
        const store::MediaCounters &mc = w.kv->mediaCounters(0);
        const std::uint64_t mr =
            mc.repaired.load(std::memory_order_relaxed);
        const std::uint64_t mu =
            mc.unrepairable.load(std::memory_order_relaxed);
        s[sn::mediaRepaired] = mr;
        s[sn::mediaUnrepairable] = mu;
        s[sn::scrubRegions] =
            mc.scrubRegions.load(std::memory_order_relaxed);
        s[sn::scrubPasses] =
            mc.scrubPasses.load(std::memory_order_relaxed);
        s[sn::quarantined] =
            std::uint64_t(w.kv->quarantined(0) ? 1 : 0);
        mediaRepaired += mr;
        mediaUnrepairable += mu;
        // Ordered-index gauges: the worker's kv atomics, safe to
        // read cross-thread like the histogram mirrors.
        s[sn::indexEntries] = w.kv->indexEntries(0);
        s[sn::indexBytes] = w.kv->indexBytes(0);
        const obs::ShardObs &ob = w.kv->shardObs(0);
        addLat(s, sn::stageLatNs, ob.stageNs);
        addLat(s, sn::commitLatNs, ob.commitNs);
        addLat(s, sn::foldLatNs, ob.foldNs);
        addLat(s, sn::recoverLatNs, ob.recoverNs);
        addLat(s, sn::scanLatNs, ob.scanNs);
        addLat(s, sn::scanLen, ob.scanLen);
        addLat(s, sn::scrubLatNs, ob.scrubNs);
        addLat(s, sn::reqQueueNs, w.queueNs);
        addLat(s, sn::reqCommitWaitNs, w.commitWaitNs);
        shards[std::to_string(w.index)] = std::move(s);
        gets += g;
        muts += m;
        scans += sc;
        txnC += tc;
        txnA += ta;
        acks += a;
        epochs += e;
        folds += f;
        deadlines += d;
        txnCommitAll.merge(w.txnCommitNs);
        txnAbortAll.merge(w.txnAbortNs);
    }
    o[sn::gets] = gets;
    o[sn::mutations] = muts;
    o[sn::scans] = scans;
    o[sn::acksReleased] = acks;
    o[sn::epochsCommitted] = epochs;
    o[sn::folds] = folds;
    o[sn::deadlineCommits] = deadlines;
    o[sn::mediaRepaired] = mediaRepaired;
    o[sn::mediaUnrepairable] = mediaUnrepairable;
    o[sn::txnCommits] = txnC;
    o[sn::txnAborts] = txnA;
    addLat(o, sn::reqParseNs, parseNs);
    addLat(o, sn::reqAckNs, ackNs);
    addLat(o, sn::txnCommitLatNs, txnCommitAll);
    addLat(o, sn::txnAbortLatNs, txnAbortAll);
    o["shard"] = std::move(shards);
    return JsonValue(std::move(o)).render();
}

/**
 * The METRICS-op body: Prometheus text exposition of the same
 * counters plus full latency histogram bucket series, labelled
 * shard="i". Latency metric names rewrite the canonical "_ns"
 * tail to "_seconds" (Prometheus base units).
 */
std::string
Server::Impl::metricsTextNow() const
{
    namespace sn = engine::statname;
    const auto rel = [](const std::atomic<std::uint64_t> &a) {
        return double(a.load(std::memory_order_relaxed));
    };
    const auto promName = [](const char *base) {
        std::string n = std::string("lp_") + base;
        if (n.size() >= 3 && n.compare(n.size() - 3, 3, "_ns") == 0)
            n.replace(n.size() - 3, 3, "_seconds");
        return n;
    };
    obs::MetricsText mt;
    mt.gauge("lp_connections", "", rel(statConns));
    mt.counter("lp_accepted", "", rel(statAccepted));
    mt.counter("lp_retries", "", rel(statRetries));
    mt.counter("lp_errors", "", rel(statErrs));
    mt.counter("lp_faults", "", rel(statFaults));
    mt.counter("lp_malformed", "", rel(statMalformed));
    // Connection-datapath stats (lp::net). lp_conn_active doubles
    // as the vintage gate for the `top` net line, like
    // lp_txn_commits does for the txn line.
    mt.gauge(promName(sn::connActive), "", rel(statConns));
    mt.gauge(promName(sn::outbufBytes), "",
             rel(netStats.outbufBytes));
    mt.counter(promName(sn::eagainTotal), "",
               rel(netStats.eagainTotal));
    mt.histogramRaw(promName(sn::writevBatch), "",
                    netStats.writevBatch);
    for (const auto &wp : workers) {
        const auto &w = *wp;
        const std::string lab =
            "shard=\"" + std::to_string(w.index) + "\"";
        mt.counter(promName(sn::gets), lab, rel(w.statGets));
        mt.counter(promName(sn::mutations), lab, rel(w.statMuts));
        mt.counter(promName(sn::scans), lab, rel(w.statScans));
        mt.counter(promName(sn::txnCommits), lab,
                   rel(w.statTxnCommits));
        mt.counter(promName(sn::txnAborts), lab,
                   rel(w.statTxnAborts));
        mt.gauge(promName(sn::indexEntries), lab,
                 double(w.kv->indexEntries(0)));
        mt.gauge(promName(sn::indexBytes), lab,
                 double(w.kv->indexBytes(0)));
        const engine::PipelineCounters &pc =
            w.kv->pipeline(0).counters();
        mt.counter(promName(sn::acksReleased), lab,
                   rel(pc.acksReleased));
        mt.counter(promName(sn::epochsCommitted), lab,
                   rel(pc.epochsCommitted));
        mt.counter(promName(sn::folds), lab, rel(pc.folds));
        mt.counter(promName(sn::deadlineCommits), lab,
                   rel(pc.deadlineCommits));
        mt.gauge(promName(sn::committedEpoch), lab,
                 rel(w.statCommittedEpoch));
        mt.gauge(promName(sn::queueDepth), lab,
                 rel(w.statQueueDepth));
        mt.counter(promName(sn::recoveryAttached), lab,
                   w.attached ? 1.0 : 0.0);
        mt.counter(promName(sn::batchesReplayed), lab,
                   double(w.report.batchesReplayed));
        mt.counter(promName(sn::entriesReplayed), lab,
                   double(w.report.entriesReplayed));
        mt.counter(promName(sn::batchesDiscarded), lab,
                   double(w.report.batchesDiscarded));
        mt.counter(promName(sn::walUndone), lab,
                   w.report.walUndone ? 1.0 : 0.0);
        const store::MediaCounters &mc = w.kv->mediaCounters(0);
        const auto mcrel = [](const std::atomic<std::uint64_t> &a) {
            return double(a.load(std::memory_order_relaxed));
        };
        mt.counter("lp_media_repaired_total", lab,
                   mcrel(mc.repaired));
        mt.counter("lp_media_unrepairable_total", lab,
                   mcrel(mc.unrepairable));
        mt.counter(promName(sn::scrubRegions), lab,
                   mcrel(mc.scrubRegions));
        mt.counter(promName(sn::scrubPasses), lab,
                   mcrel(mc.scrubPasses));
        mt.gauge(promName(sn::quarantined), lab,
                 w.kv->quarantined(0) ? 1.0 : 0.0);
        const obs::ShardObs &ob = w.kv->shardObs(0);
        mt.histogramNs(promName(sn::stageLatNs), lab, ob.stageNs);
        mt.histogramNs(promName(sn::commitLatNs), lab,
                       ob.commitNs);
        mt.histogramNs(promName(sn::foldLatNs), lab, ob.foldNs);
        mt.histogramNs(promName(sn::recoverLatNs), lab,
                       ob.recoverNs);
        mt.histogramNs(promName(sn::scanLatNs), lab, ob.scanNs);
        mt.histogramNs(promName(sn::scrubLatNs), lab, ob.scrubNs);
        mt.histogramNs(promName(sn::reqQueueNs), lab, w.queueNs);
        mt.histogramNs(promName(sn::reqCommitWaitNs), lab,
                       w.commitWaitNs);
        // Events the shard's trace ring refused because it was full.
        // The flight recorder tees BEFORE the full-check, so drops
        // mean lost Chrome-trace detail, not lost flight coverage.
        // Doubles as the vintage gate for lazyper_cli top's `drops`
        // column (shard="0" is always present when this vintage
        // serves METRICS).
        if (w.ring)
            mt.counter(promName(sn::traceDrops), lab,
                       double(w.ring->dropped()));
    }
    if (acceptRing)
        mt.counter(promName(sn::traceDrops), "thread=\"acceptor\"",
                   double(acceptRing->dropped()));
    mt.histogramNs(promName(sn::reqParseNs), "", parseNs);
    mt.histogramNs(promName(sn::reqAckNs), "", ackNs);
    // Unlabelled totals: both commit paths summed. Scrapers (and
    // lazyper_cli top's vintage gate) key on lp_txn_commits.
    std::uint64_t txnC =
        statTxnCommits.load(std::memory_order_relaxed);
    std::uint64_t txnA =
        statTxnAborts.load(std::memory_order_relaxed);
    obs::Histogram txnCommitAll, txnAbortAll;
    txnCommitAll.merge(txnCommitNs);
    txnAbortAll.merge(txnAbortNs);
    for (const auto &wp : workers) {
        txnC += wp->statTxnCommits.load(std::memory_order_relaxed);
        txnA += wp->statTxnAborts.load(std::memory_order_relaxed);
        txnCommitAll.merge(wp->txnCommitNs);
        txnAbortAll.merge(wp->txnAbortNs);
    }
    mt.counter(promName(sn::txnCommits), "", double(txnC));
    mt.counter(promName(sn::txnAborts), "", double(txnA));
    mt.histogramNs(promName(sn::txnCommitLatNs), "", txnCommitAll);
    mt.histogramNs(promName(sn::txnAbortLatNs), "", txnAbortAll);
    return mt.str();
}

} // namespace lp::server
