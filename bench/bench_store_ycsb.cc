/**
 * @file
 * YCSB-style evaluation of the lp::store KV store: load plus mixes
 * A (50/50), B (95/5) and C (read-only), under zipfian (theta 0.99)
 * and uniform key popularity, for the three persistency backends
 * (Lazy Persistency, eager per-op flushing, write-ahead logging).
 *
 * Reports mix throughput, NVMM block writes and write amplification
 * (NVMM writes per mutation). Expected shape, mirroring the paper's
 * Figure 10/13 ordering on its kernels: LP issues the fewest NVMM
 * writes per mutation -- batching lets dirty journal lines coalesce
 * in cache and the fold writes each distinct key once per window --
 * while eager pays one flushed write per mutation and the WAL pays
 * for log entries on top of the data. Every run is verified against
 * a golden host-side map before its numbers are reported.
 *
 * A native-run section reports wall-clock latency percentiles per
 * backend from the always-on obs::Histogram instrumentation: stage
 * p99 is the client-visible tail (a mutation that triggers a commit
 * or fold pays for it inline), the fold-pause story of the paper's
 * Section 6 in latency form.
 *
 * Writes the full result grid to BENCH_store.json (or argv[1]) via
 * the stats JSON exporter for external tooling.
 */

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>

#include "bench/common.hh"
#include "engine/stat_names.hh"
#include "obs/trace.hh"
#include "stats/json.hh"
#include "store/driver.hh"

using namespace lp;
using namespace lp::store;

int
main(int argc, char **argv)
{
    bench::banner("YCSB on lp::store (load + A/B/C, zipfian/uniform)",
                  "Fig. 10/13 ordering on a KV store: LP < EP/WAL "
                  "NVMM writes, higher throughput");

    const auto mcfg = bench::paperMachine(1);
    YcsbParams base;
    base.records = 4096;
    base.ops = 16384;

    // Scale the LP fold period with the per-shard op count so each
    // shard folds exactly once, at the terminal checkpoint. A fixed
    // foldBatches couples write amplification to run length: at the
    // old fixed 64 (2048-mutation window) mix A crossed the fold
    // boundary right at run end and paid a second, near-empty fold.
    auto cfgFor = [](const YcsbParams &p) {
        StoreConfig scfg;  // defaults: 4 shards, 32-op batches
        const auto perShard = p.ops / (std::size_t(scfg.shards) *
                                       std::size_t(scfg.batchOps));
        scfg.foldBatches =
            std::max(scfg.foldBatches, int(perShard) + 1);
        return scfg;
    };
    const StoreConfig scfg = cfgFor(base);

    const bool dists[] = {true, false};

    stats::JsonValue::Object root;
    root.emplace("records", double(base.records));
    root.emplace("ops", double(base.ops));
    root.emplace("shards", scfg.shards);
    root.emplace("batch_ops", scfg.batchOps);
    root.emplace("fold_batches", scfg.foldBatches);

    bool all_verified = true;
    for (bool zipf : dists) {
        for (YcsbMix mix : bench::kYcsbMixes) {
            YcsbParams p = base;
            p.mix = mix;
            p.zipfian = zipf;

            const std::string label =
                mixName(mix) + std::string(zipf ? "/zipf" : "/unif");
            stats::Table table({"mix " + label, "exec cycles",
                                "NVMM writes", "writes/mut",
                                "Mops/s", "vs eager writes"});

            double eagerWrites = 0.0;
            stats::JsonValue::Object grid;
            for (Backend b : bench::kStoreBackends) {
                const auto out = runStoreYcsb(b, scfg, p, mcfg);
                all_verified = all_verified && out.verified;
                if (b == Backend::EagerPerOp)
                    eagerWrites = double(out.nvmmWrites);

                table.addRow(
                    {backendName(b),
                     stats::Table::num(out.execCycles, 0),
                     stats::Table::num(double(out.nvmmWrites), 0),
                     stats::Table::num(out.writesPerMutation, 3),
                     stats::Table::num(out.opsPerSec / 1e6, 2),
                     eagerWrites == 0.0
                         ? std::string("-")
                         : stats::Table::ratio(double(out.nvmmWrites) /
                                               eagerWrites)});

                stats::JsonValue::Object entry =
                    stats::toJson(out.stats);
                entry.emplace("load", stats::toJson(out.loadStats));
                entry.emplace("load_writes_per_record",
                              out.loadWritesPerRecord);
                entry.emplace("writes_per_mutation",
                              out.writesPerMutation);
                entry.emplace("ops_per_sec", out.opsPerSec);
                entry.emplace(engine::statname::mutations,
                              out.mutations);
                entry.emplace(engine::statname::opsStaged,
                              out.opsStaged);
                entry.emplace(engine::statname::epochsCommitted,
                              out.epochsCommitted);
                entry.emplace(engine::statname::folds, out.folds);
                entry.emplace("verified", out.verified);
                grid.emplace(backendName(b), std::move(entry));
            }
            table.print();
            std::printf("\n");
            root.emplace(std::string(zipf ? "zipf_" : "unif_") +
                             mixName(mix),
                         std::move(grid));
        }
    }

    // YCSB-E: 95% short range scans / 5% inserts, served by the
    // lp::index ordered key set over the journal backends. Scans
    // resolve every key through get(), so the simulated cost scales
    // with records touched; the op count is kept below the A/B/C
    // grid's to bound run time. Every scan is verified inline against
    // the golden map (ascending keys, matching values).
    {
        YcsbParams pe = base;
        pe.mix = YcsbMix::E;
        pe.ops = 4096;
        pe.maxScanLen = 50;
        const StoreConfig sce = cfgFor(pe);
        for (bool zipf : dists) {
            YcsbParams p = pe;
            p.zipfian = zipf;
            const std::string label =
                std::string("E") + (zipf ? "/zipf" : "/unif");
            stats::Table table({"mix " + label, "scans", "recs/scan",
                                "exec cycles", "Kops/s",
                                "writes/mut"});
            stats::JsonValue::Object grid;
            for (Backend b : bench::kStoreBackends) {
                const auto out = runStoreYcsb(b, sce, p, mcfg);
                all_verified = all_verified && out.verified;
                table.addRow(
                    {backendName(b),
                     stats::Table::num(double(out.scans), 0),
                     stats::Table::num(
                         out.scans == 0 ? 0.0
                                        : double(out.scanned) /
                                              double(out.scans),
                         1),
                     stats::Table::num(out.execCycles, 0),
                     stats::Table::num(out.opsPerSec / 1e3, 1),
                     stats::Table::num(out.writesPerMutation, 3)});

                stats::JsonValue::Object entry =
                    stats::toJson(out.stats);
                entry.emplace("ops_per_sec", out.opsPerSec);
                entry.emplace("writes_per_mutation",
                              out.writesPerMutation);
                entry.emplace(engine::statname::mutations,
                              out.mutations);
                entry.emplace(engine::statname::scans, out.scans);
                entry.emplace("scanned", out.scanned);
                entry.emplace("verified", out.verified);
                grid.emplace(backendName(b), std::move(entry));
            }
            table.print();
            std::printf("\n");
            root.emplace(std::string(zipf ? "zipf_E" : "unif_E"),
                         std::move(grid));
        }
    }

    // Uniform mix B scaling study. At 16K ops the mix yields only
    // ~800 mutations over 4096 records, so no key repeats inside the
    // fold window and LP pays journal + table against eager's table
    // only. Growing the run (fold window scaling with it) lets even
    // uniform traffic revisit keys within a window, and LP's
    // writes/mutation falls back below eager's.
    {
        stats::Table table({"unif B scaling", "mutations",
                            "lp writes/mut", "eager writes/mut",
                            "lp vs eager"});
        stats::JsonValue::Object study;
        for (std::size_t ops : {std::size_t(16384),
                                std::size_t(65536),
                                std::size_t(131072)}) {
            YcsbParams p = base;
            p.mix = YcsbMix::B;
            p.zipfian = false;
            p.ops = ops;
            const StoreConfig sc = cfgFor(p);

            const auto lp = runStoreYcsb(Backend::Lp, sc, p, mcfg);
            const auto eager =
                runStoreYcsb(Backend::EagerPerOp, sc, p, mcfg);
            all_verified =
                all_verified && lp.verified && eager.verified;

            table.addRow(
                {std::to_string(ops) + " ops",
                 stats::Table::num(double(lp.mutations), 0),
                 stats::Table::num(lp.writesPerMutation, 3),
                 stats::Table::num(eager.writesPerMutation, 3),
                 stats::Table::ratio(bench::ratio(
                     double(lp.nvmmWrites), double(eager.nvmmWrites)))});

            stats::JsonValue::Object entry;
            entry.emplace("ops", double(ops));
            entry.emplace("fold_batches", sc.foldBatches);
            entry.emplace("mutations", lp.mutations);
            entry.emplace("lp_writes_per_mutation",
                          lp.writesPerMutation);
            entry.emplace("eager_writes_per_mutation",
                          eager.writesPerMutation);
            study.emplace("ops_" + std::to_string(ops),
                          std::move(entry));
        }
        table.print();
        std::printf("\n");
        root.emplace("unif_B_scaling", std::move(study));
    }

    // Online scrub overhead on YCSB-A: the same run with the server's
    // background media patrol interleaved (a 4-region scrub step
    // every 256 mix ops -- far denser than the server's idle-gated
    // default of 32 regions per 100ms, so this bounds it from above).
    // Scrub verification reads are streaming (non-allocating) loads;
    // an allocating sweep would cycle the small LLC and evict the
    // dirty coalescing lines LP's write efficiency comes from, which
    // costs ~11% at ANY patrol rate. With NT reads the cost is the
    // honest per-region NVMM read latency and scales with the rate.
    // Measured in simulated cycles, which are deterministic; the
    // acceptance bar is <= 5%.
    {
        YcsbParams p = base;
        p.mix = YcsbMix::A;
        const auto plain = runStoreYcsb(Backend::Lp, scfg, p, mcfg);
        p.scrubEveryOps = 256;
        p.scrubRegions = 4;
        const auto scrubbed = runStoreYcsb(Backend::Lp, scfg, p, mcfg);
        all_verified =
            all_verified && plain.verified && scrubbed.verified;
        const double overhead =
            plain.execCycles == 0.0
                ? 0.0
                : scrubbed.execCycles / plain.execCycles - 1.0;

        stats::Table table({"scrub overhead (a/zipf)", "exec cycles",
                            "vs no scrub"});
        table.addRow({"lp", stats::Table::num(plain.execCycles, 0),
                      "-"});
        table.addRow({"lp + scrub/256ops",
                      stats::Table::num(scrubbed.execCycles, 0),
                      stats::Table::num(overhead * 100.0, 2) + "%"});
        table.print();
        std::printf("\n");

        stats::JsonValue::Object entry;
        entry.emplace("scrub_every_ops", double(p.scrubEveryOps));
        entry.emplace("scrub_regions", double(p.scrubRegions));
        entry.emplace("exec_cycles_plain", plain.execCycles);
        entry.emplace("exec_cycles_scrubbed", scrubbed.execCycles);
        entry.emplace("overhead_frac", overhead);
        entry.emplace("within_5pct", overhead <= 0.05);
        root.emplace("scrub_overhead_A", std::move(entry));
    }

    // Native wall-clock latency per backend: the same templated store
    // code under NativeEnv (simulated timestamps would be meaningless
    // for latency claims). Values in microseconds; JSON keys carry
    // the canonical "_ns" bases with percentile suffixes.
    {
        stats::Table table({"native lat (a/zipf)", "mutations",
                            "stage p50", "stage p99", "stage p999",
                            "commit p99", "fold p99"});
        const auto us = [](double ns) {
            return stats::Table::num(ns / 1e3, 2) + "us";
        };
        stats::JsonValue::Object lat;
        YcsbParams p = base;
        p.mix = YcsbMix::A;
        const std::string traceBase =
            bench::argFlag(argc, argv, "trace-out");
        for (Backend b : bench::kStoreBackends) {
            std::unique_ptr<obs::TraceCollector> tc;
            if (!traceBase.empty())
                tc = std::make_unique<obs::TraceCollector>();
            const auto out = runStoreNative(b, scfg, p, tc.get());
            if (tc)
                tc->writeChromeTrace(traceBase + "." +
                                     backendName(b) + ".json");
            all_verified = all_verified && out.verified;
            table.addRow({backendName(b),
                          stats::Table::num(double(out.mutations), 0),
                          us(out.stageLat.p50Ns),
                          us(out.stageLat.p99Ns),
                          us(out.stageLat.p999Ns),
                          us(out.commitLat.p99Ns),
                          us(out.foldLat.p99Ns)});

            stats::JsonValue::Object entry;
            entry.emplace("seconds", out.seconds);
            entry.emplace("mutations", out.mutations);
            entry.emplace("verified", out.verified);
            const auto putLat =
                [&entry](const char *key,
                         const obs::Histogram::Summary &s) {
                    const std::string k(key);
                    entry.emplace(k + "_count", double(s.count));
                    entry.emplace(k + "_p50", s.p50Ns);
                    entry.emplace(k + "_p90", s.p90Ns);
                    entry.emplace(k + "_p99", s.p99Ns);
                    entry.emplace(k + "_p999", s.p999Ns);
                };
            putLat(engine::statname::stageLatNs, out.stageLat);
            putLat(engine::statname::commitLatNs, out.commitLat);
            putLat(engine::statname::foldLatNs, out.foldLat);
            lat.emplace(backendName(b), std::move(entry));
        }
        table.print();
        std::printf("\n");
        root.emplace("native_latency", std::move(lat));
    }

    // Native YCSB-E scan latency per backend: whole-scan wall-clock
    // percentiles from the always-on scanNs histogram, plus the
    // realized scan-length distribution. The backend decides how much
    // staged state get() must consult per key, so scan tails follow
    // the same LP-vs-eager story as point ops.
    {
        stats::Table table({"native E (zipf)", "scans", "len mean",
                            "scan p50", "scan p99", "scan p999"});
        const auto us = [](double ns) {
            return stats::Table::num(ns / 1e3, 2) + "us";
        };
        stats::JsonValue::Object lat;
        YcsbParams p = base;
        p.mix = YcsbMix::E;
        for (Backend b : bench::kStoreBackends) {
            const auto out = runStoreNative(b, scfg, p);
            all_verified = all_verified && out.verified;
            table.addRow({backendName(b),
                          stats::Table::num(double(out.scans), 0),
                          stats::Table::num(out.scanLen.meanNs, 1),
                          us(out.scanLat.p50Ns),
                          us(out.scanLat.p99Ns),
                          us(out.scanLat.p999Ns)});

            stats::JsonValue::Object entry;
            entry.emplace("seconds", out.seconds);
            entry.emplace(engine::statname::scans, out.scans);
            entry.emplace("verified", out.verified);
            const auto putLat =
                [&entry](const char *key,
                         const obs::Histogram::Summary &s) {
                    const std::string k(key);
                    entry.emplace(k + "_count", double(s.count));
                    entry.emplace(k + "_mean", s.meanNs);
                    entry.emplace(k + "_p50", s.p50Ns);
                    entry.emplace(k + "_p90", s.p90Ns);
                    entry.emplace(k + "_p99", s.p99Ns);
                    entry.emplace(k + "_p999", s.p999Ns);
                };
            putLat(engine::statname::scanLatNs, out.scanLat);
            putLat(engine::statname::scanLen, out.scanLen);
            lat.emplace(backendName(b), std::move(entry));
        }
        table.print();
        std::printf("\n");
        root.emplace("native_latency_E", std::move(lat));
    }

    // Scan-length sensitivity (LP backend, native): scan latency is
    // expected to grow linearly in the records resolved -- the
    // index walk is O(log n) to seek, then O(len) gets -- so p50
    // should track maxScanLen/2 and p99 close to maxScanLen.
    {
        stats::Table table({"lp scan-len sweep", "len mean",
                            "scan p50", "scan p99", "scans/s"});
        const auto us = [](double ns) {
            return stats::Table::num(ns / 1e3, 2) + "us";
        };
        stats::JsonValue::Object sweep;
        for (std::size_t maxLen : {std::size_t(16), std::size_t(100),
                                   std::size_t(400)}) {
            YcsbParams p = base;
            p.mix = YcsbMix::E;
            p.maxScanLen = maxLen;
            const auto out = runStoreNative(Backend::Lp, scfg, p);
            all_verified = all_verified && out.verified;
            table.addRow(
                {"maxScanLen " + std::to_string(maxLen),
                 stats::Table::num(out.scanLen.meanNs, 1),
                 us(out.scanLat.p50Ns), us(out.scanLat.p99Ns),
                 stats::Table::num(out.seconds == 0.0
                                       ? 0.0
                                       : double(out.scans) /
                                             out.seconds,
                                   0)});

            stats::JsonValue::Object entry;
            entry.emplace("max_scan_len", double(maxLen));
            entry.emplace("scan_len_mean", out.scanLen.meanNs);
            entry.emplace("scan_lat_ns_p50", out.scanLat.p50Ns);
            entry.emplace("scan_lat_ns_p99", out.scanLat.p99Ns);
            entry.emplace(engine::statname::scans, out.scans);
            sweep.emplace("max_len_" + std::to_string(maxLen),
                          std::move(entry));
        }
        table.print();
        std::printf("\n");
        root.emplace("scan_len_sensitivity", std::move(sweep));
    }

    if (!bench::writeJsonReport(argc, argv, "BENCH_store.json", root))
        return 1;
    return all_verified ? 0 : 1;
}
