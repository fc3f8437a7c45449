/**
 * @file
 * lazyper_cli -- run any kernel x scheme x machine configuration from
 * the command line and print the measurements. The fastest way to
 * explore the design space without writing code.
 *
 * Examples:
 *   lazyper_cli --kernel tmm --scheme lp
 *   lazyper_cli --kernel gauss --scheme ep --n 128 --threads 4
 *   lazyper_cli --kernel fft --scheme lp --crash-at 50 --seed 7
 *   lazyper_cli --kernel tmm --scheme lp --l2-kb 64 \
 *               --checksum adler32 --cleaner-period 100000
 *
 * The `store` subcommand drives the persistent KV store instead of a
 * kernel (see docs/store_design.md):
 *   lazyper_cli store --backend lp --mix a --records 4096 --ops 16384
 *   lazyper_cli store --backend wal --mix b --uniform --json
 *   lazyper_cli store --backend lp --crash-at 2000
 *
 * The `serve` subcommand runs the lp::server network front-end over
 * file-backed shards (see docs/server_design.md):
 *   lazyper_cli serve --data-dir /tmp/lpdb --port 7070 --shards 4
 *   lazyper_cli serve --data-dir /tmp/lpdb --backend wal
 *
 * The `top` subcommand polls a live server's METRICS op and renders a
 * refreshing per-shard table (docs/observability.md):
 *   lazyper_cli top --data-dir /tmp/lpdb
 *   lazyper_cli top --port 7070 --interval-ms 500
 *
 * The `inject` subcommand flips bits in a shard's backing file to
 * exercise the media-fault tolerance layer (docs/repair_design.md):
 *   lazyper_cli inject --data-dir /tmp/lpdb --shard 0 --site superblock
 *   lazyper_cli inject --data-dir /tmp/lpdb --site journal --bytes 64
 *
 * The `postmortem` subcommand decodes the crash-persistent flight
 * recorder out of a dead server's shard files and writes the
 * surviving spans as Chrome trace JSON (docs/observability.md):
 *   lazyper_cli postmortem --data-dir /tmp/lpdb
 *   lazyper_cli postmortem --data-dir /tmp/lpdb --out crash.json
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <thread>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include "base/logging.hh"
#include "kernels/env.hh"
#include "kernels/harness.hh"
#include "obs/flight.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "pmem/fault.hh"
#include "server/client.hh"
#include "server/server.hh"
#include "stats/json.hh"
#include "stats/table.hh"
#include "store/driver.hh"
#include "store/kv_store.hh"

using namespace lp;
using namespace lp::kernels;

namespace
{

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [options]\n"
        "  --kernel tmm|cholesky|conv2d|gauss|fft|spmv\n"
        "  --scheme base|lp|ep|wal                  (default lp)\n"
        "  --n N             problem size            (default 128)\n"
        "  --bsize B         tile/band size          (default 16)\n"
        "  --threads T       worker threads          (default 8)\n"
        "  --iterations I    conv2d outer iterations (default 4)\n"
        "  --checksum parity|modular|adler32|combined|crc32\n"
        "  --seed S          input seed              (default 12345)\n"
        "  --l1-kb K         per-core L1 size        (default 16)\n"
        "  --l2-kb K         shared L2 size          (default 128)\n"
        "  --read-ns / --write-ns   NVMM latencies   (150 / 300)\n"
        "  --cleaner-period C       cycles, 0 = off  (default 0)\n"
        "  --crash-at P      crash at P%% of the LP store stream,\n"
        "                    recover, resume, verify (default off)\n"
        "  --json            emit the full stats snapshot as JSON\n"
        "or: %s store ...   (persistent KV store; see `%s store -h`)\n"
        "or: %s serve ...   (network front-end; see `%s serve -h`)\n"
        "or: %s top ...     (live server metrics; see `%s top -h`)\n"
        "or: %s inject ...  (media-fault injection; `%s inject -h`)\n"
        "or: %s postmortem ...  (crashed-server flight recorder dump;\n"
        "                        see `%s postmortem -h`)\n",
        argv0, argv0, argv0, argv0, argv0, argv0, argv0, argv0,
        argv0, argv0, argv0);
    std::exit(2);
}

KernelId
parseKernel(const std::string &s)
{
    if (s == "tmm")
        return KernelId::Tmm;
    if (s == "cholesky")
        return KernelId::Cholesky;
    if (s == "conv2d" || s == "2d-conv")
        return KernelId::Conv2d;
    if (s == "gauss")
        return KernelId::Gauss;
    if (s == "fft")
        return KernelId::Fft;
    if (s == "spmv")
        return KernelId::Spmv;
    fatal("unknown kernel: " + s);
}

Scheme
parseScheme(const std::string &s)
{
    if (s == "base")
        return Scheme::Base;
    if (s == "lp")
        return Scheme::Lp;
    if (s == "ep" || s == "eager")
        return Scheme::EagerRecompute;
    if (s == "wal")
        return Scheme::Wal;
    fatal("unknown scheme: " + s);
}

core::ChecksumKind
parseChecksum(const std::string &s)
{
    if (s == "parity")
        return core::ChecksumKind::Parity;
    if (s == "modular")
        return core::ChecksumKind::Modular;
    if (s == "adler32")
        return core::ChecksumKind::Adler32;
    if (s == "combined" || s == "modular+parity")
        return core::ChecksumKind::ModularParity;
    if (s == "crc32")
        return core::ChecksumKind::Crc32;
    fatal("unknown checksum kind: " + s);
}

[[noreturn]] void
storeUsage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s store [options]\n"
        "  --backend lp|eager|wal    persistency scheme  (default lp)\n"
        "  --records R     loaded key-space size         (default 4096)\n"
        "  --ops O         mix operations                (default 16384)\n"
        "  --mix a|b|c     YCSB mix                      (default a)\n"
        "  --uniform       uniform keys instead of zipfian\n"
        "  --theta T       zipfian skew                  (default 0.99)\n"
        "  --shards S / --batch-ops B / --fold-batches F / --capacity C\n"
        "  --seed S                                      (default 42)\n"
        "  --crash-at N    crash after N persistent stores, recover,\n"
        "                  verify against the committed-batch replay\n"
        "  --crash-regions N   same, but after N region commits;\n"
        "                  both print the recovery's simulated cycles\n"
        "  --trace-out F   write a Chrome trace-event JSON (epoch\n"
        "                  commits, folds, recovery spans) to F\n"
        "  --json          emit the result as JSON\n",
        argv0);
    std::exit(2);
}

[[noreturn]] void
serveUsage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s serve [options]\n"
        "  --data-dir D    shard files + PORT file   (default ./lpdb)\n"
        "  --host H        listen address            (default 127.0.0.1)\n"
        "  --port P        TCP port, 0 = ephemeral   (default 0)\n"
        "  --shards S      worker threads = shards   (default 4)\n"
        "  --backend lp|eager|wal                    (default lp)\n"
        "  --capacity C    max live keys per shard   (default 16384)\n"
        "  --batch-ops B / --fold-batches F\n"
        "  --flush-deadline-us U  partial-batch commit deadline "
        "(default 2000)\n"
        "  --max-inflight N   per-connection backpressure "
        "(default 256)\n"
        "  --max-conns N      connection cap         (default 256)\n"
        "  --trace-out F   write a Chrome trace-event JSON (epoch\n"
        "                  commits, folds, recovery, connection\n"
        "                  lifecycles, request flows) to F at shutdown\n"
        "  --quiet\n"
        "Runs until SIGINT/SIGTERM or a SHUTDOWN op; on shutdown every\n"
        "shard is checkpointed (eager fold) before the process exits.\n",
        argv0);
    std::exit(2);
}

int
runServeCommand(int argc, char **argv)
{
    server::ServerConfig cfg;
    cfg.dataDir = "./lpdb";

    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                serveUsage(argv[0]);
            return argv[++i];
        };
        if (arg == "--data-dir") {
            cfg.dataDir = next();
        } else if (arg == "--host") {
            cfg.host = next();
        } else if (arg == "--port") {
            cfg.port = std::atoi(next().c_str());
        } else if (arg == "--shards") {
            cfg.shards = std::atoi(next().c_str());
        } else if (arg == "--backend") {
            cfg.backend = store::parseBackend(next());
        } else if (arg == "--capacity") {
            cfg.capacityPerShard =
                std::strtoull(next().c_str(), nullptr, 10);
        } else if (arg == "--batch-ops") {
            cfg.batchOps = std::atoi(next().c_str());
        } else if (arg == "--fold-batches") {
            cfg.foldBatches = std::atoi(next().c_str());
        } else if (arg == "--flush-deadline-us") {
            cfg.flushDeadlineUs =
                std::strtoull(next().c_str(), nullptr, 10);
        } else if (arg == "--max-inflight") {
            cfg.maxInflightPerConn =
                std::uint32_t(std::atoi(next().c_str()));
        } else if (arg == "--max-conns") {
            cfg.maxConns = std::atoi(next().c_str());
        } else if (arg == "--trace-out") {
            cfg.traceOut = next();
        } else if (arg == "--quiet") {
            cfg.quiet = true;
        } else {
            serveUsage(argv[0]);
        }
    }

    server::Server srv(cfg);
    srv.start();
    srv.installSignalHandlers();
    srv.join();
    return 0;
}

int
runStoreCommand(int argc, char **argv)
{
    using namespace lp::store;

    Backend backend = Backend::Lp;
    StoreConfig scfg;
    YcsbParams p;
    std::int64_t crash_at = -1;
    bool crash_regions = false;
    bool json = false;
    std::string traceOut;

    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                storeUsage(argv[0]);
            return argv[++i];
        };
        if (arg == "--backend") {
            backend = parseBackend(next());
        } else if (arg == "--records") {
            p.records = std::strtoull(next().c_str(), nullptr, 10);
        } else if (arg == "--ops") {
            p.ops = std::strtoull(next().c_str(), nullptr, 10);
        } else if (arg == "--mix") {
            p.mix = parseMix(next());
        } else if (arg == "--uniform") {
            p.zipfian = false;
        } else if (arg == "--theta") {
            p.theta = std::atof(next().c_str());
        } else if (arg == "--shards") {
            scfg.shards = std::atoi(next().c_str());
        } else if (arg == "--batch-ops") {
            scfg.batchOps = std::atoi(next().c_str());
        } else if (arg == "--fold-batches") {
            scfg.foldBatches = std::atoi(next().c_str());
        } else if (arg == "--capacity") {
            scfg.capacity = std::strtoull(next().c_str(), nullptr, 10);
        } else if (arg == "--seed") {
            p.seed = std::strtoull(next().c_str(), nullptr, 10);
        } else if (arg == "--crash-at") {
            crash_at = std::atoll(next().c_str());
            crash_regions = false;
        } else if (arg == "--crash-regions") {
            crash_at = std::atoll(next().c_str());
            crash_regions = true;
        } else if (arg == "--trace-out") {
            traceOut = next();
        } else if (arg == "--json") {
            json = true;
        } else {
            storeUsage(argv[0]);
        }
    }

    sim::MachineConfig mcfg;
    mcfg.numCores = 1;
    mcfg.l1 = {16 * 1024, 8, 2};
    mcfg.l2 = {128 * 1024, 8, 11};

    std::printf("store backend=%s records=%zu ops=%zu mix=%s %s "
                "shards=%d batch=%d fold=%d\n",
                backendName(backend).c_str(), p.records, p.ops,
                mixName(p.mix).c_str(),
                p.zipfian ? "zipfian" : "uniform", scfg.shards,
                scfg.batchOps, scfg.foldBatches);

    std::unique_ptr<obs::TraceCollector> trace;
    if (!traceOut.empty())
        trace = std::make_unique<obs::TraceCollector>();
    const auto writeTrace = [&] {
        if (!trace)
            return;
        if (trace->writeChromeTrace(traceOut))
            inform("wrote trace " + traceOut);
        else
            warn("could not write trace file " + traceOut);
    };

    if (crash_at >= 0) {
        StoreCrashSpec spec;
        spec.records = p.records;
        spec.preOps = p.ops;
        spec.byRegions = crash_regions;
        spec.point = static_cast<std::uint64_t>(crash_at);
        spec.seed = p.seed;
        const auto out =
            runStoreWithCrash(backend, scfg, spec, mcfg, trace.get());
        std::printf(
            "crash after %lld %s: %s\n",
            static_cast<long long>(crash_at),
            crash_regions ? "region commits" : "persistent stores",
            out.crashed ? "fired" : "did not fire");
        std::printf("recovery: replayed=%llu entries=%llu "
                    "discarded=%llu wal-undone=%llu\n",
                    static_cast<unsigned long long>(
                        out.report.batchesReplayed),
                    static_cast<unsigned long long>(
                        out.report.entriesReplayed),
                    static_cast<unsigned long long>(
                        out.report.batchesDiscarded),
                    static_cast<unsigned long long>(
                        out.report.walUndone));
        std::printf("recovery cycles: %llu (simulated)\n",
                    static_cast<unsigned long long>(out.recoveryCycles));
        const bool ok = out.committedStateVerified &&
                        out.finalStateVerified && out.scanStateVerified;
        std::printf("committed state: %s   final state: %s   "
                    "scans: %s\n",
                    out.committedStateVerified ? "verified" : "WRONG",
                    out.finalStateVerified ? "verified" : "WRONG",
                    out.scanStateVerified ? "verified" : "WRONG");
        writeTrace();
        if (json) {
            // The shape tools/check_sim_gate.py reads (--gate
            // store_recovery).
            const auto metric = [](std::uint64_t v) {
                return stats::JsonValue::Object{{"value", v}};
            };
            const stats::JsonValue::Object obj{
                {"backend", backendName(backend)},
                {"crashed", out.crashed},
                {"correct", ok},
                {"metrics",
                 stats::JsonValue::Object{
                     {"recovery_cycles", metric(out.recoveryCycles)},
                     {"batches_replayed",
                      metric(out.report.batchesReplayed)},
                     {"entries_replayed",
                      metric(out.report.entriesReplayed)},
                     {"batches_discarded",
                      metric(out.report.batchesDiscarded)}}}};
            std::printf("%s\n", stats::JsonValue(obj).render().c_str());
        }
        return ok ? 0 : 1;
    }

    const auto out = runStoreYcsb(backend, scfg, p, mcfg, trace.get());
    writeTrace();
    if (json) {
        stats::JsonValue::Object obj = stats::toJson(out.stats);
        obj.emplace("backend", backendName(backend));
        obj.emplace("mix", mixName(p.mix));
        obj.emplace("zipfian", p.zipfian);
        obj.emplace("records", double(p.records));
        obj.emplace("ops", double(p.ops));
        obj.emplace("writes_per_mutation", out.writesPerMutation);
        obj.emplace("ops_per_sec", out.opsPerSec);
        stats::JsonValue::Object by;
        for (std::size_t i = 0; i < out.nvmmByStructure.size(); ++i) {
            const NvmmTraffic &t = out.nvmmByStructure[i];
            by.emplace(kNvmmStructures[i],
                       stats::JsonValue::Object{
                           {"writes_per_mut", t.writesPerMut},
                           {"reads_per_mut", t.readsPerMut}});
        }
        obj.emplace("nvmm_by_structure", std::move(by));
        obj.emplace("verified", out.verified);
        std::printf("%s\n", stats::JsonValue(obj).render().c_str());
        return out.verified ? 0 : 1;
    }
    std::printf("exec cycles:     %.0f\n", out.execCycles);
    std::printf("NVMM writes:     %llu\n",
                static_cast<unsigned long long>(out.nvmmWrites));
    std::printf("NVMM reads:      %.0f\n", out.stats.at("nvmm_reads"));
    std::printf("read/mutate ops: %llu / %llu\n",
                static_cast<unsigned long long>(out.reads),
                static_cast<unsigned long long>(out.mutations));
    std::printf("writes/mutation: %.3f\n", out.writesPerMutation);
    std::printf("throughput:      %.3g ops/s (simulated)\n",
                out.opsPerSec);
    std::printf("prefetches:      %.0f (waited %.0f cycles, "
                "%.0f unused)\n",
                out.stats.at("prefetches"),
                out.stats.at("prefetch_wait_cycles"),
                out.stats.at("prefetch_unused"));
    std::printf("NVMM per mutation by structure (writes / reads):\n");
    for (std::size_t i = 0; i < out.nvmmByStructure.size(); ++i) {
        const NvmmTraffic &t = out.nvmmByStructure[i];
        if (t.writesPerMut > 0.0 || t.readsPerMut > 0.0)
            std::printf("  %-15s %.4f / %.4f\n", kNvmmStructures[i],
                        t.writesPerMut, t.readsPerMut);
    }
    std::printf("verified:        %s\n", out.verified ? "yes" : "NO");
    return out.verified ? 0 : 1;
}

[[noreturn]] void
topUsage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s top [options]\n"
        "  --host H        server address          (default 127.0.0.1)\n"
        "  --port P        server port; when 0, read --data-dir/PORT\n"
        "  --data-dir D    directory with the PORT file (default ./lpdb)\n"
        "  --interval-ms M refresh period          (default 1000)\n"
        "  --count N       frames to render, 0 = until the server\n"
        "                  goes away               (default 0)\n"
        "  --no-clear      append frames instead of clearing the screen\n"
        "Scrapes the METRICS op each interval and shows per-shard op\n"
        "rates plus latency percentiles computed from the interval's\n"
        "histogram bucket deltas. The first frame shows totals since\n"
        "server start. Exits 1, naming the series, when a scrape\n"
        "lacks one that top shows.\n",
        argv0);
    std::exit(2);
}

/**
 * Collect the `<name>_bucket{...}` series of one histogram from a
 * parsed exposition: le bound -> cumulative count. @p shard empty
 * selects the unlabelled series.
 */
std::map<double, double>
bucketSeries(const stats::Snapshot &snap, const std::string &name,
             const std::string &shard)
{
    const std::string prefix =
        shard.empty()
            ? name + "_bucket{le=\""
            : name + "_bucket{shard=\"" + shard + "\",le=\"";
    std::map<double, double> out;
    for (auto it = snap.lower_bound(prefix);
         it != snap.end() &&
         it->first.compare(0, prefix.size(), prefix) == 0;
         ++it) {
        const char *s = it->first.c_str() + prefix.size();
        const double le =
            std::strncmp(s, "+Inf", 4) == 0
                ? std::numeric_limits<double>::infinity()
                : std::strtod(s, nullptr);
        out[le] = it->second;
    }
    return out;
}

int
runTopCommand(int argc, char **argv)
{
    std::string host = "127.0.0.1";
    std::string dataDir = "./lpdb";
    int port = 0;
    int intervalMs = 1000;
    int count = 0;
    bool noClear = false;

    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                topUsage(argv[0]);
            return argv[++i];
        };
        if (arg == "--host") {
            host = next();
        } else if (arg == "--port") {
            port = std::atoi(next().c_str());
        } else if (arg == "--data-dir") {
            dataDir = next();
        } else if (arg == "--interval-ms") {
            intervalMs = std::atoi(next().c_str());
        } else if (arg == "--count") {
            count = std::atoi(next().c_str());
        } else if (arg == "--no-clear") {
            noClear = true;
        } else {
            topUsage(argv[0]);
        }
    }

    if (port == 0) {
        port = server::waitForPortFile(dataDir, 2000);
        if (port == 0)
            fatal("no PORT file in " + dataDir +
                  "; pass --port or --data-dir");
    }
    server::Client cli;
    if (!cli.connectTo(host, port))
        fatal("cannot connect to " + host + ":" +
              std::to_string(port));

    stats::Snapshot prev;
    for (int frame = 0; count == 0 || frame < count; ++frame) {
        if (frame > 0)
            std::this_thread::sleep_for(
                std::chrono::milliseconds(intervalMs));
        const auto resp = cli.metrics(5000);
        if (!resp || resp->status != server::Status::Ok) {
            std::fprintf(stderr, "lp top: server went away\n");
            return frame > 0 ? 0 : 1;
        }
        stats::Snapshot snap;
        if (!obs::parseExposition(resp->body, snap))
            fatal("unparseable METRICS exposition");

        // Interval deltas of the monotonic counters (and histogram
        // buckets); the first frame diffs against empty = totals.
        const stats::Snapshot d = stats::snapshotDelta(prev, snap);
        const double secs =
            frame == 0 ? 1.0 : double(intervalMs) / 1000.0;

        // Every series shown must be in the scrape: a missing one
        // means the server renamed it, so fail rather than print 0.
        // A key missing only from the delta reads 0: snapshotDelta
        // drops counters that went backwards across a restart.
        const auto now = [&](const std::string &key) {
            const auto it = snap.find(key);
            if (it == snap.end())
                fatal("METRICS has no series " + key);
            return it->second;
        };
        const auto rate = [&](const std::string &key) {
            now(key);
            const auto it = d.find(key);
            return it == d.end() ? 0.0 : it->second / secs;
        };
        // Interval quantile of a histogram; @p sh empty selects the
        // unlabelled series.
        const auto pct = [&](const std::string &name,
                             const std::string &sh, double p) {
            now(name + "_count" +
                (sh.empty() ? "" : "{shard=\"" + sh + "\"}"));
            return obs::quantileFromBuckets(bucketSeries(d, name, sh),
                                            p);
        };
        const auto us = [](double seconds) {
            return stats::Table::num(seconds * 1e6, 1) + "us";
        };

        if (!noClear)
            std::printf("\033[H\033[2J");
        std::printf("lp top -- %s:%d   conns=%g accepted=%g "
                    "retries=%g errors=%g   (%s)\n",
                    host.c_str(), port, now("lp_conn_active"),
                    now("lp_accepted"), now("lp_retries"),
                    now("lp_errors"),
                    frame == 0 ? "totals since start"
                               : "per-second rates");
        // Transactions span shards, so their counters are unlabelled
        // totals and get a summary line, not per-shard columns. Abort
        // rate is per interval: aborts over decided transactions, the
        // wait-die pressure gauge.
        const double tc = rate("lp_txn_commits");
        const double ta = rate("lp_txn_aborts");
        std::printf("txn: commit/s=%.0f abort/s=%.0f "
                    "abort-rate=%.1f%% commit p99=%.1fus\n",
                    tc, ta, tc + ta == 0.0 ? 0.0 : 100.0 * ta / (tc + ta),
                    pct("lp_txn_commit_lat_seconds", "", 0.99) * 1e6);
        // writev batch depth from the unitless histogram's interval
        // delta: how well replies coalesce into gathered writes.
        std::printf("net: outbuf=%gB eagain/s=%.0f "
                    "writev-batch p50=%.0f p99=%.0f\n",
                    now("lp_outbuf_bytes"), rate("lp_eagain_total"),
                    pct("lp_writev_batch", "", 0.5),
                    pct("lp_writev_batch", "", 0.99));
        stats::Table t({"shard", "get/s", "mut/s", "epoch/s", "fold/s",
                        "dlc/s", "qdepth", "epoch", "commit p99",
                        "qwait p99", "cwait p99", "scan/s", "scan p99",
                        "idx keys", "idx KB", "scrub/s", "repair",
                        "unrep", "quar", "drops"});
        const auto n0 = [](double v) { return stats::Table::num(v, 0); };
        for (int sIdx = 0;; ++sIdx) {
            const std::string sh = std::to_string(sIdx);
            const std::string lab = "{shard=\"" + sh + "\"}";
            if (snap.find("lp_gets" + lab) == snap.end())
                break;
            // Repair and drop counters are lifetime totals, not
            // rates: one repaired region or one overflowed ring is
            // worth knowing about long after the interval it was in.
            t.addRow({sh, n0(rate("lp_gets" + lab)),
                      n0(rate("lp_mutations" + lab)),
                      n0(rate("lp_epochs_committed" + lab)),
                      n0(rate("lp_folds" + lab)),
                      n0(rate("lp_deadline_commits" + lab)),
                      n0(now("lp_queue_depth" + lab)),
                      n0(now("lp_committed_epoch" + lab)),
                      us(pct("lp_commit_lat_seconds", sh, 0.99)),
                      us(pct("lp_req_queue_seconds", sh, 0.99)),
                      us(pct("lp_req_commit_wait_seconds", sh, 0.99)),
                      n0(rate("lp_scans" + lab)),
                      us(pct("lp_scan_lat_seconds", sh, 0.99)),
                      n0(now("lp_index_entries" + lab)),
                      stats::Table::num(
                          now("lp_index_bytes" + lab) / 1024.0, 1),
                      n0(rate("lp_scrub_regions" + lab)),
                      n0(now("lp_media_repaired_total" + lab)),
                      n0(now("lp_media_unrepairable_total" + lab)),
                      now("lp_quarantined" + lab) > 0 ? "YES" : "-",
                      n0(now("lp_trace_drops_total" + lab))});
        }
        t.print();
        std::fflush(stdout);
        prev = std::move(snap);
    }
    return 0;
}

[[noreturn]] void
injectUsage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s inject [options]\n"
        "  --data-dir D    server data directory     (default ./lpdb)\n"
        "  --shard N       shard file to corrupt     (default 0)\n"
        "  --site superblock|superblock-replica|journal|parity\n"
        "                  what to corrupt           (default superblock);\n"
        "                  LP batch trailers, which carry the batch\n"
        "                  digests, are journal bytes: --site journal\n"
        "  --offset O      byte offset within site   (default 0)\n"
        "  --bit B         bit 0-7 to flip           (default 3)\n"
        "  --bytes N       corrupt N bytes from offset instead of a\n"
        "                  single bit flip\n"
        "  --seed S        mask seed for --bytes     (default 1)\n"
        "  --backend lp|eager|wal  must match the server (default lp)\n"
        "  --capacity C / --batch-ops B / --fold-batches F\n"
        "                  must match the serve flags (the layout is\n"
        "                  re-derived from the configuration)\n"
        "Flips bits in the mmap'd backing file of a shard -- simulated\n"
        "bit rot underneath the store. Works on a stopped store (the\n"
        "next restart's recovery must detect it) and on a live one\n"
        "(the shared page cache makes the flip visible to the serving\n"
        "process; its next scrub pass must catch it). Never repairs\n"
        "anything; see `top` or STATS for the repair counters.\n",
        argv0);
    std::exit(2);
}

int
runInjectCommand(int argc, char **argv)
{
    using namespace lp::store;

    std::string dataDir = "./lpdb";
    int shard = 0;
    std::string site = "superblock";
    std::size_t offset = 0;
    int bit = 3;
    std::size_t bytes = 0;
    std::uint64_t seed = 1;
    Backend backend = Backend::Lp;
    StoreConfig scfg;
    scfg.capacity = 16384;  // serve defaults; override to match
    scfg.shards = 1;        // one arena file per server shard

    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                injectUsage(argv[0]);
            return argv[++i];
        };
        if (arg == "--data-dir") {
            dataDir = next();
        } else if (arg == "--shard") {
            shard = std::atoi(next().c_str());
        } else if (arg == "--site") {
            site = next();
        } else if (arg == "--offset") {
            offset = std::strtoull(next().c_str(), nullptr, 10);
        } else if (arg == "--bit") {
            bit = std::atoi(next().c_str());
        } else if (arg == "--bytes") {
            bytes = std::strtoull(next().c_str(), nullptr, 10);
        } else if (arg == "--seed") {
            seed = std::strtoull(next().c_str(), nullptr, 10);
        } else if (arg == "--backend") {
            backend = parseBackend(next());
        } else if (arg == "--capacity") {
            scfg.capacity = std::strtoull(next().c_str(), nullptr, 10);
        } else if (arg == "--batch-ops") {
            scfg.batchOps = std::atoi(next().c_str());
        } else if (arg == "--fold-batches") {
            scfg.foldBatches = std::atoi(next().c_str());
        } else {
            injectUsage(argv[0]);
        }
    }

    const std::string path =
        dataDir + "/shard-" + std::to_string(shard) + ".lpdb";
    struct stat st{};
    if (::stat(path.c_str(), &st) != 0 || st.st_size == 0)
        fatal("no shard backing file at " + path +
              "; point --data-dir/--shard at an initialized store");

    // Re-attach the arena and re-derive the shard layout exactly the
    // way a restarting server does: same total size (flight ring +
    // store -- a size mismatch fatal()s in the mmap),
    // same allocation order. The flight ring region is skipped with a
    // bare allocRaw rather than a FlightRing, whose constructor would
    // seal a new generation into a live server's recorder; KvStore
    // attach construction writes nothing, it only replays the
    // allocation sequence, so this is safe against both a stopped
    // file and a live server's mapping (MAP_SHARED over the same
    // pages).
    const std::size_t flightBytes =
        obs::FlightRing::bytesFor(server::kFlightEvents);
    pmem::PersistentArena arena(flightBytes + storeArenaBytes(scfg), path);
    arena.allocRaw(flightBytes);
    store::KvStore<kernels::NativeEnv> kv(arena, scfg, backend,
                                          /*attach=*/true);
    const FaultSurface fs = kv.faultSurface(0);

    const void *base = nullptr;
    std::size_t limit = 0;
    if (site == "superblock") {
        base = fs.metaPrimary;
        limit = sizeof(ShardMeta);
    } else if (site == "superblock-replica") {
        base = fs.metaReplica;
        limit = sizeof(ShardMeta);
    } else if (site == "journal") {
        base = fs.journal;
        limit = fs.sealedBytes ? fs.sealedBytes : fs.journalBytes;
    } else if (site == "parity") {
        base = fs.parity;
        limit = fs.parityBytes;
    } else {
        injectUsage(argv[0]);
    }
    if (!base || limit == 0)
        fatal("site '" + site + "' does not exist on backend " +
              backendName(backend) + " (or the shard is empty)");
    if (offset >= limit || (bytes > 0 && offset + bytes > limit))
        fatal("offset/bytes past the end of site '" + site + "' (" +
              std::to_string(limit) + " bytes)");

    pmem::FaultInjector inj(arena);
    const auto *p = static_cast<const std::uint8_t *>(base) + offset;
    if (bytes > 0)
        inj.corruptRange(p, bytes, seed);
    else
        inj.flipBit(p, bit);
    arena.persistAll();

    std::printf("injected %llu fault byte%s into %s site=%s "
                "offset=%zu (file offset %llu)\n",
                static_cast<unsigned long long>(inj.flips()),
                inj.flips() == 1 ? "" : "s", path.c_str(),
                site.c_str(), offset,
                static_cast<unsigned long long>(arena.addrOf(p)));
    return 0;
}

[[noreturn]] void
postmortemUsage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s postmortem [DIR] [options]\n"
        "  DIR             crashed server's data directory\n"
        "  --data-dir D    same, as a flag (default ./lpdb)\n"
        "  --out F         Chrome trace JSON destination\n"
        "                  (default <data-dir>/postmortem.json)\n"
        "Decodes the crash-persistent flight recorder at the head of\n"
        "every shard-N.lpdb file (docs/observability.md): picks the\n"
        "newest checksum-clean seal, discards torn and stale slots,\n"
        "and writes the surviving spans -- request flow arcs included\n"
        "-- as Chrome trace-event JSON loadable in Perfetto. Reads\n"
        "the raw files only: no store configuration is needed and a\n"
        "live server is not disturbed. Run it BEFORE restarting a\n"
        "crashed server -- restart reseals the rings for the new\n"
        "incarnation.\n",
        argv0);
    std::exit(2);
}

int
runPostmortemCommand(int argc, char **argv)
{
    std::string dataDir = "./lpdb";
    std::string out;

    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                postmortemUsage(argv[0]);
            return argv[++i];
        };
        if (arg == "--data-dir") {
            dataDir = next();
        } else if (arg == "--out") {
            out = next();
        } else if (!arg.empty() && arg[0] != '-') {
            dataDir = arg; // positional: postmortem <dir>
        } else {
            postmortemUsage(argv[0]);
        }
    }
    if (out.empty())
        out = dataDir + "/postmortem.json";

    obs::TraceCollector trace;
    std::uint64_t totalEvents = 0, totalRejected = 0;
    int shardsFound = 0, shardsValid = 0;
    for (int s = 0;; ++s) {
        const std::string path =
            dataDir + "/shard-" + std::to_string(s) + ".lpdb";
        const int fd = ::open(path.c_str(), O_RDONLY);
        if (fd < 0)
            break;
        struct stat st{};
        if (::fstat(fd, &st) != 0 ||
            st.st_size <= std::int64_t(blockBytes)) {
            ::close(fd);
            break;
        }
        const std::size_t len = std::size_t(st.st_size);
        void *map =
            ::mmap(nullptr, len, PROT_READ, MAP_PRIVATE, fd, 0);
        ::close(fd);
        if (map == MAP_FAILED)
            fatal("cannot mmap " + path);
        ++shardsFound;
        // Placement contract (obs/flight.hh): the flight ring is the
        // shard arena's FIRST allocation, so its headers sit at the
        // arena base offset -- one block into the file.
        const auto *base = static_cast<const std::uint8_t *>(map);
        const obs::FlightRecovered rec = obs::FlightRing::recover(
            base + blockBytes, len - blockBytes);
        if (!rec.valid) {
            std::printf("shard %d: no valid flight seal in %s "
                        "(the file predates the flight recorder, or "
                        "the region is damaged)\n",
                        s, path.c_str());
            ::munmap(map, len);
            continue;
        }
        ++shardsValid;
        char when[32] = "?";
        const std::time_t secs =
            std::time_t(rec.wallAnchorNs / 1000000000ULL);
        struct tm tmv{};
        if (::gmtime_r(&secs, &tmv) != nullptr)
            std::strftime(when, sizeof(when), "%Y-%m-%dT%H:%M:%SZ",
                          &tmv);
        std::printf("shard %d: gen=%llu sealed-events=%llu "
                    "recovered=%zu rejected=%llu sealed-at=%s\n",
                    s, static_cast<unsigned long long>(rec.gen),
                    static_cast<unsigned long long>(rec.sealedSeq),
                    rec.events.size(),
                    static_cast<unsigned long long>(rec.rejected),
                    when);
        obs::TraceRing *ring =
            trace.ring("shard-" + std::to_string(s) + "-flight",
                       rec.tid, rec.events.size() + 8);
        for (const obs::TraceEvent &e : rec.events)
            ring->push(e);
        totalEvents += rec.events.size();
        totalRejected += rec.rejected;
        ::munmap(map, len);
    }
    if (shardsFound == 0)
        fatal("no shard-*.lpdb files in " + dataDir);
    if (shardsValid == 0) {
        std::fprintf(
            stderr,
            "postmortem: no shard carried a valid flight seal\n");
        return 1;
    }
    if (!trace.writeChromeTrace(out))
        fatal("cannot write " + out);
    std::printf(
        "wrote %s (%llu events from %d/%d shards, %llu slots "
        "discarded as torn/stale)\n",
        out.c_str(), static_cast<unsigned long long>(totalEvents),
        shardsValid, shardsFound,
        static_cast<unsigned long long>(totalRejected));
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc >= 2 && std::strcmp(argv[1], "store") == 0)
        return runStoreCommand(argc, argv);
    if (argc >= 2 && std::strcmp(argv[1], "serve") == 0)
        return runServeCommand(argc, argv);
    if (argc >= 2 && std::strcmp(argv[1], "top") == 0)
        return runTopCommand(argc, argv);
    if (argc >= 2 && std::strcmp(argv[1], "inject") == 0)
        return runInjectCommand(argc, argv);
    if (argc >= 2 && std::strcmp(argv[1], "postmortem") == 0)
        return runPostmortemCommand(argc, argv);

    KernelId kernel = KernelId::Tmm;
    Scheme scheme = Scheme::Lp;
    KernelParams params;
    sim::MachineConfig cfg;
    cfg.l1 = {16 * 1024, 8, 2};
    cfg.l2 = {128 * 1024, 8, 11};
    int crash_pct = -1;
    bool json = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(argv[0]);
            return argv[++i];
        };
        if (arg == "--kernel") {
            kernel = parseKernel(next());
        } else if (arg == "--scheme") {
            scheme = parseScheme(next());
        } else if (arg == "--n") {
            params.n = std::atoi(next().c_str());
        } else if (arg == "--bsize") {
            params.bsize = std::atoi(next().c_str());
        } else if (arg == "--threads") {
            params.threads = std::atoi(next().c_str());
        } else if (arg == "--iterations") {
            params.iterations = std::atoi(next().c_str());
        } else if (arg == "--checksum") {
            params.checksum = parseChecksum(next());
        } else if (arg == "--seed") {
            params.seed = std::strtoull(next().c_str(), nullptr, 10);
        } else if (arg == "--l1-kb") {
            cfg.l1.sizeBytes = std::atoi(next().c_str()) * 1024;
        } else if (arg == "--l2-kb") {
            cfg.l2.sizeBytes = std::atoi(next().c_str()) * 1024;
        } else if (arg == "--read-ns") {
            cfg.nvmmReadNs = std::atof(next().c_str());
        } else if (arg == "--write-ns") {
            cfg.nvmmWriteNs = std::atof(next().c_str());
        } else if (arg == "--cleaner-period") {
            cfg.cleanerPeriodCycles =
                std::strtoull(next().c_str(), nullptr, 10);
        } else if (arg == "--crash-at") {
            crash_pct = std::atoi(next().c_str());
        } else if (arg == "--json") {
            json = true;
        } else {
            usage(argv[0]);
        }
    }
    cfg.numCores = params.threads;

    std::printf("kernel=%s scheme=%s n=%d bsize=%d threads=%d "
                "checksum=%s L1=%uKB L2=%uKB NVMM=%g/%gns\n",
                kernelName(kernel).c_str(),
                schemeName(scheme).c_str(), params.n, params.bsize,
                params.threads,
                core::checksumKindName(params.checksum).c_str(),
                cfg.l1.sizeBytes / 1024, cfg.l2.sizeBytes / 1024,
                cfg.nvmmReadNs, cfg.nvmmWriteNs);

    if (crash_pct < 0) {
        const auto out = runScheme(kernel, scheme, params, cfg);
        if (json) {
            stats::JsonValue::Object obj = stats::toJson(out.stats);
            obj.emplace("kernel", kernelName(kernel));
            obj.emplace("scheme", schemeName(scheme));
            obj.emplace("verified", out.verified);
            std::printf("%s\n",
                        stats::JsonValue(obj).render().c_str());
            return out.verified ? 0 : 1;
        }
        std::printf("exec cycles:   %.0f\n", out.execCycles);
        std::printf("NVMM writes:   %.0f (evict %.0f, flush %.0f, "
                    "cleaner %.0f)\n",
                    out.nvmmWrites, out.stat("eviction_writes"),
                    out.stat("flush_writes"),
                    out.stat("cleaner_writes"));
        std::printf("NVMM reads:    %.0f\n", out.stat("nvmm_reads"));
        std::printf("flush instrs:  %.0f   fences: %.0f\n",
                    out.stat("flush_instrs"), out.stat("fences"));
        std::printf("L2 miss rate:  %.4f\n",
                    out.stat("l2_accesses") > 0
                        ? out.stat("l2_misses") /
                              out.stat("l2_accesses")
                        : 0.0);
        std::printf("verified:      %s (max abs err %.3e)\n",
                    out.verified ? "yes" : "NO", out.maxAbsError);
        return out.verified ? 0 : 1;
    }

    if (scheme != Scheme::Lp)
        fatal("--crash-at requires --scheme lp");
    const auto full = runScheme(kernel, Scheme::Lp, params, cfg);
    const auto total =
        static_cast<std::uint64_t>(full.stat("stores"));
    const auto out = runLpWithCrash(
        kernel, params, cfg,
        total * static_cast<std::uint64_t>(crash_pct) / 100);
    std::printf("crash injected at %d%% (%llu stores): %s\n",
                crash_pct,
                static_cast<unsigned long long>(
                    total * crash_pct / 100),
                out.crashed ? "fired" : "did not fire");
    std::printf("recovery: matched=%llu repaired=%llu checked=%llu "
                "resume-stage=%d\n",
                static_cast<unsigned long long>(out.recovery.matched),
                static_cast<unsigned long long>(
                    out.recovery.repaired),
                static_cast<unsigned long long>(out.recovery.checked),
                out.recovery.resumeStage);
    std::printf("recovery+resume cycles: %.0f\n", out.recoveryCycles);
    std::printf("verified: %s (max abs err %.3e)\n",
                out.verified ? "yes" : "NO", out.maxAbsError);
    return out.verified ? 0 : 1;
}
