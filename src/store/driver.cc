#include "store/driver.hh"

#include <algorithm>
#include <chrono>
#include <map>
#include <vector>

#include "base/rng.hh"
#include "kernels/env.hh"
#include "kernels/workload.hh"
#include "obs/flight.hh"
#include "pmem/crash.hh"
#include "pmem/fault.hh"
#include "repair/repair.hh"

namespace lp::store
{

namespace
{

/**
 * Flight-recorder slots every driver run carves out of its arena
 * (first allocation, per the postmortem placement contract). The
 * recorder stays ON in every bench so the published numbers carry
 * its cost; its stores are host-side, so the simulated tiers see
 * zero cycles and the native tier pays the true overhead.
 */
constexpr std::uint32_t kFlightEvents = 4096;

/**
 * Tee every shard ring of @p store into @p flight. The driver is
 * single-threaded (one owner for all shards), so sharing one
 * FlightRing across the shard rings respects its single-writer
 * contract.
 */
template <typename Env>
void
attachFlightSink(KvStore<Env> &store, obs::FlightRing &flight)
{
    for (int s = 0; s < store.config().shards; ++s)
        if (obs::TraceRing *r = store.shardObs(s).ring)
            r->attachSink(&flight);
}

/** Compare the store's persistent map against a golden map. */
bool
mapsEqual(const std::map<std::uint64_t, std::uint64_t> &snap,
          const std::unordered_map<std::uint64_t, std::uint64_t> &golden)
{
    if (snap.size() != golden.size())
        return false;
    for (const auto &[k, v] : golden) {
        const auto it = snap.find(k);
        if (it == snap.end() || it->second != v)
            return false;
    }
    return true;
}

/** The counters StoreRunResult reports, summed over every shard's
 *  commit pipeline (host-side). */
struct PipelineTotals
{
    std::uint64_t opsStaged = 0;
    std::uint64_t epochsCommitted = 0;
    std::uint64_t folds = 0;
};

template <typename Env>
PipelineTotals
sumPipelineCounters(const KvStore<Env> &store)
{
    PipelineTotals sum;
    for (int s = 0; s < store.config().shards; ++s) {
        const engine::PipelineCounters &c =
            store.pipeline(s).counters();
        sum.opsStaged += c.opsStaged.load(std::memory_order_relaxed);
        sum.epochsCommitted +=
            c.epochsCommitted.load(std::memory_order_relaxed);
        sum.folds += c.folds.load(std::memory_order_relaxed);
    }
    return sum;
}

/**
 * Attribute @p m's per-block NVMM writes and reads to the structures
 * of @p store and the flight ring (kNvmmStructures order), per
 * mutation.
 */
std::vector<NvmmTraffic>
nvmmByStructure(const sim::Machine &m, const pmem::PersistentArena &arena,
                const KvStore<kernels::SimEnv> &store,
                const obs::FlightRing &flight, std::uint64_t mutations)
{
    enum : std::size_t { Table, Journal, Parity, ParityHeader,
                         Superblocks, Flight, Other };
    static_assert(std::size(kNvmmStructures) == Other + 1);
    struct Range
    {
        Addr lo, hi;
        std::size_t what;
    };
    std::vector<Range> ranges;
    const auto add = [&](std::size_t what, const void *p,
                         std::size_t bytes) {
        if (p != nullptr && bytes > 0)
            ranges.push_back({arena.addrOf(p), arena.addrOf(p) + bytes,
                              what});
    };
    for (int s = 0; s < store.config().shards; ++s) {
        const FaultSurface fs = store.faultSurface(s);
        if (s == 0)
            add(Table, fs.table, fs.tableBytes);
        add(Journal, fs.journal, fs.journalBytes);
        add(Parity, fs.parity, fs.parityBytes);
        add(ParityHeader, fs.parityHeader,
            fs.parityHeader ? blockBytes : 0);
        add(Superblocks, fs.metaPrimary, sizeof(ShardMeta));
        add(Superblocks, fs.metaReplica, sizeof(ShardMeta));
    }
    add(Flight, flight.raw(), obs::FlightRing::bytesFor(flight.capacity()));
    std::sort(ranges.begin(), ranges.end(),
              [](const Range &a, const Range &b) { return a.lo < b.lo; });
    const auto structureOf = [&](Addr blk) {
        auto it = std::upper_bound(
            ranges.begin(), ranges.end(), blk,
            [](Addr a, const Range &r) { return a < r.lo; });
        if (it == ranges.begin() || blk >= (--it)->hi)
            return std::size_t(Other);
        return it->what;
    };

    std::vector<NvmmTraffic> out(std::size(kNvmmStructures));
    const double muts = mutations == 0 ? 1.0 : double(mutations);
    for (const auto &[blk, n] : m.blockWriteCounts())
        out[structureOf(blk)].writesPerMut += double(n) / muts;
    for (const auto &[blk, n] : m.blockReadCounts())
        out[structureOf(blk)].readsPerMut += double(n) / muts;
    return out;
}

/**
 * The store every simulated run builds: flight ring first in the
 * arena (the postmortem placement contract), then the store, its
 * shard rings traced and teed into the flight ring, then the image
 * made durable. perfbench's replay of the gate mirrors this order.
 */
struct SimStore
{
    SimStore(Backend b, const StoreConfig &scfg,
             const sim::MachineConfig &mcfg, obs::TraceCollector *trace)
        : ctx(mcfg, obs::FlightRing::bytesFor(kFlightEvents) +
                        storeArenaBytes(scfg)),
          flight(ctx.arena, kFlightEvents, 0), store(ctx.arena, scfg, b)
    {
        attachStoreTrace(store, trace ? trace : &localTrace);
        attachFlightSink(store, flight);
        ctx.arena.persistAll();
    }

    kernels::SimContext ctx;
    obs::FlightRing flight;
    obs::TraceCollector localTrace;
    KvStore<kernels::SimEnv> store;
};

} // namespace

CommittedLedger::CommittedLedger(const StoreConfig &cfg)
    : batchOps_(std::uint64_t(cfg.batchOps)),
      shardMuts_(std::size_t(cfg.shards), 0)
{
}

void
CommittedLedger::issue(Env &env, KvStore<Env> &store, bool isPut,
                       std::uint64_t key, std::uint64_t value)
{
    const int sh = store.shardOf(key);
    ops_.push_back({sh, isPut, shardMuts_[sh]++ / batchOps_ + 1, key, value});
    if (isPut)
        store.put(env, key, value);
    else
        store.del(env, key);
}

CommittedLedger::Map
CommittedLedger::golden() const
{
    Map m;
    for (const Op &op : ops_) {
        if (op.isPut)
            m[op.key] = op.value;
        else
            m.erase(op.key);
    }
    return m;
}

void
CommittedLedger::keepCommitted(const std::vector<std::uint64_t> &committed)
{
    std::erase_if(ops_, [&](const Op &op) {
        return op.epoch > committed[std::size_t(op.shard)];
    });
    for (std::size_t s = 0; s < shardMuts_.size(); ++s)
        shardMuts_[s] = committed[s] * batchOps_;
}

bool
CommittedLedger::keepRecovered(Backend b, const RecoveryReport &rep,
                               const Map &snap)
{
    if (b != Backend::EagerPerOp) {
        keepCommitted(rep.committedEpochs);
        return snap == golden();
    }
    const bool all = snap == golden();
    if (all || ops_.empty())
        return all;
    const Op inFlight = ops_.back();
    ops_.pop_back();
    if (snap == golden())
        return true;
    ops_.push_back(inFlight);
    return false;
}

bool
CommittedLedger::scanMatches(Env &env, KvStore<Env> &store) const
{
    const Map want = golden();
    // Overshoot the limit, so truncation cannot mask a surplus entry.
    const auto got = store.scan(env, 0, want.size() + 16);
    return std::equal(got.begin(), got.end(), want.begin(), want.end(),
                      [](const auto &g, const auto &w) {
                          return g.first == w.first && g.second == w.second;
                      });
}

StoreRunResult
runStoreYcsb(Backend b, const StoreConfig &scfg, const YcsbParams &p,
             const sim::MachineConfig &mcfg,
             obs::TraceCollector *trace)
{
    SimStore s(b, scfg, mcfg, trace);
    kernels::SimContext &ctx = s.ctx;
    KvStore<kernels::SimEnv> &store = s.store;
    kernels::SimEnv env(ctx.machine, ctx.arena, 0);

    std::unordered_map<std::uint64_t, std::uint64_t> golden;
    ycsbLoad(env, store, p, &golden);
    s.flight.seal();

    StoreRunResult out;
    out.loadStats = ctx.machine.snapshot();
    out.loadWritesPerRecord =
        p.records == 0 ? 0.0
                       : out.loadStats.at("nvmm_writes") /
                             double(p.records);
    ctx.machine.resetStats();
    const PipelineTotals loadCtrs = sumPipelineCounters(store);

    const MixCounts c = ycsbMix(env, store, p, &golden);
    s.flight.seal();

    const PipelineTotals mixCtrs = sumPipelineCounters(store);
    out.opsStaged = mixCtrs.opsStaged - loadCtrs.opsStaged;
    out.epochsCommitted =
        mixCtrs.epochsCommitted - loadCtrs.epochsCommitted;
    out.folds = mixCtrs.folds - loadCtrs.folds;

    out.stats = ctx.machine.snapshot();
    out.execCycles = out.stats.at("exec_cycles");
    out.nvmmWrites =
        static_cast<std::uint64_t>(out.stats.at("nvmm_writes"));
    out.reads = c.reads;
    out.mutations = c.mutations;
    out.scans = c.scans;
    out.scanned = c.scanned;
    out.writesPerMutation =
        c.mutations == 0
            ? 0.0
            : double(out.nvmmWrites) / double(c.mutations);
    const double seconds =
        out.execCycles / (sim::kClockGhz * 1e9);
    out.opsPerSec = seconds == 0.0 ? 0.0 : double(p.ops) / seconds;
    out.nvmmByStructure = nvmmByStructure(ctx.machine, ctx.arena, store,
                                          s.flight, c.mutations);
    out.verified =
        mapsEqual(store.snapshot(), golden) && c.scanErrors == 0;
    return out;
}

NativeRunResult
runStoreNative(Backend b, const StoreConfig &scfg, const YcsbParams &p,
               obs::TraceCollector *trace)
{
    pmem::PersistentArena arena(
        obs::FlightRing::bytesFor(kFlightEvents) +
        storeArenaBytes(scfg));
    obs::FlightRing flight(arena, kFlightEvents, 0);
    obs::TraceCollector localTrace;
    KvStore<kernels::NativeEnv> store(arena, scfg, b);
    attachStoreTrace(store, trace ? trace : &localTrace);
    attachFlightSink(store, flight);
    arena.persistAll();
    kernels::NativeEnv env;

    std::unordered_map<std::uint64_t, std::uint64_t> golden;
    const auto t0 = std::chrono::steady_clock::now();
    ycsbLoad(env, store, p, &golden);
    const MixCounts c = ycsbMix(env, store, p, &golden);
    const auto t1 = std::chrono::steady_clock::now();
    flight.seal();

    NativeRunResult out;
    out.seconds = std::chrono::duration<double>(t1 - t0).count();
    out.reads = c.reads;
    out.mutations = c.mutations;
    out.scans = c.scans;
    out.verified =
        mapsEqual(store.snapshot(), golden) && c.scanErrors == 0;

    obs::Histogram stage, commit, fold, scan, scanLen;
    for (int s = 0; s < scfg.shards; ++s) {
        stage.merge(store.shardObs(s).stageNs);
        commit.merge(store.shardObs(s).commitNs);
        fold.merge(store.shardObs(s).foldNs);
        scan.merge(store.shardObs(s).scanNs);
        scanLen.merge(store.shardObs(s).scanLen);
    }
    out.stageLat = stage.summary();
    out.commitLat = commit.summary();
    out.foldLat = fold.summary();
    out.scanLat = scan.summary();
    out.scanLen = scanLen.summary();
    return out;
}

StoreCrashOutcome
runStoreWithCrash(Backend b, const StoreConfig &scfg,
                  const StoreCrashSpec &spec,
                  const sim::MachineConfig &mcfg,
                  obs::TraceCollector *trace)
{
    SimStore s(b, scfg, mcfg, trace);
    kernels::SimContext &ctx = s.ctx;
    KvStore<kernels::SimEnv> &store = s.store;
    kernels::SimEnv env(ctx.machine, ctx.arena, 0, &ctx.crash);

    CommittedLedger ledger(scfg);
    Rng rng(spec.seed);
    auto issueOne = [&](std::size_t i) {
        const std::uint64_t key =
            keyOfRecord(rng.below(spec.records), spec.seed);
        ledger.issue(env, store, !rng.chance(spec.delFraction), key,
                     0x1000 + i);
    };

    StoreCrashOutcome out;
    if (spec.byRegions)
        ctx.crash.armAfterRegions(spec.point);
    else
        ctx.crash.armAfterStores(spec.point);

    try {
        for (std::size_t i = 0; i < spec.preOps; ++i)
            issueOne(i);
        store.checkpoint(env);
        ctx.crash.disarm();
    } catch (const pmem::CrashException &) {
        out.crashed = true;
        ctx.powerFail();
        obs::traceInstant(store.shardObs(0).ring, "crash",
                          spec.point);
        // Torn-write injection: the dying device shredded a partial
        // page at the end of shard 0's sealed journal prefix.
        // Recovery must parity-repair the tear or cleanly discard
        // the affected epochs; the committed-prefix checks below
        // hold either way because they trust the recovery report.
        if (spec.tornBytes > 0) {
            const FaultSurface fs = store.faultSurface(0);
            if (fs.journal != nullptr && fs.sealedBytes > 0) {
                pmem::FaultInjector inj(ctx.arena);
                const std::size_t n =
                    std::min(spec.tornBytes, fs.sealedBytes);
                inj.corruptRange(
                    static_cast<const std::uint8_t *>(fs.journal) +
                        (fs.sealedBytes - n),
                    n, spec.seed);
            }
        }
        const Cycles recoverStart = ctx.machine.coreCycles(0);
        out.report = store.recover(env);
        out.recoveryCycles = ctx.machine.coreCycles(0) - recoverStart;

        out.committedStateVerified =
            ledger.keepRecovered(b, out.report, store.snapshot());
        // Right after recovery, a scan over the rebuilt index must
        // observe exactly the committed prefix -- never a torn epoch.
        out.scanStateVerified = ledger.scanMatches(env, store);
    }
    if (!out.crashed) {
        out.committedStateVerified = true;  // nothing to check
        out.scanStateVerified = true;
    }

    // Forward progress: the recovered store must keep working.
    for (std::size_t j = 0; j < spec.postOps; ++j)
        issueOne(spec.preOps + j);
    store.checkpoint(env);
    s.flight.seal();
    out.finalStateVerified = store.snapshot() == ledger.golden();
    out.scanStateVerified =
        out.scanStateVerified && ledger.scanMatches(env, store);
    return out;
}

StoreFaultOutcome
runStoreWithFault(Backend b, const StoreConfig &scfg,
                  const StoreFaultSpec &spec,
                  const sim::MachineConfig &mcfg)
{
    // The eager and WAL backends own no journal or parity;
    // their media-protected structure is the superblock pair, so the
    // LP-specific sites degrade onto it -- keeping the matrix total.
    FaultSite site = spec.site;
    if (b != Backend::Lp) {
        switch (site) {
          case FaultSite::JournalPayload:
          case FaultSite::JournalLastCovered:
          case FaultSite::JournalTrailer:
            site = FaultSite::SuperblockPrimary;
            break;
          case FaultSite::JournalTail:
          case FaultSite::ParityPage:
            site = FaultSite::SuperblockReplica;
            break;
          case FaultSite::JournalMultiRegion:
            site = FaultSite::SuperblockBoth;
            break;
          default:
            break;
        }
    }

    SimStore s(b, scfg, mcfg, nullptr);
    kernels::SimContext &ctx = s.ctx;
    KvStore<kernels::SimEnv> &store = s.store;
    kernels::SimEnv env(ctx.machine, ctx.arena, 0);

    CommittedLedger ledger(scfg);
    Rng rng(spec.seed);
    auto issueOne = [&](std::size_t i) {
        const std::uint64_t key =
            keyOfRecord(rng.below(spec.records), spec.seed);
        ledger.issue(env, store, !rng.chance(spec.delFraction), key,
                     0x2000 + i);
    };

    for (std::size_t i = 0; i < spec.preOps; ++i)
        issueOne(i);

    // Clean shutdown WITHOUT a fold: commit every batch, durably mark
    // the shards clean, drain everything. The journal still carries
    // the whole stream, so journal-site faults have teeth, and the
    // clean flag makes the coming recovery STRICT.
    store.commitBatches(env);
    store.markClean(env);
    ctx.arena.persistAll();

    StoreFaultOutcome out;
    out.effectiveSite = site;
    out.viaScrub = site == FaultSite::ParityPage;

    pmem::FaultInjector inj(ctx.arena);
    const FaultSurface fs = store.faultSurface(0);
    const std::size_t coveredBytes = fs.coveredBytes;
    const std::size_t wholeBytes =
        fs.sealedBytes / repair::regionBytes * repair::regionBytes;
    switch (site) {
      case FaultSite::JournalPayload:
        // Byte 9 of region 0: the value word of epoch 1's first
        // record.
        if (coveredBytes >= repair::regionBytes) {
            inj.flipBitAt(fs.journal, 9, 3);
            out.injected = true;
        }
        break;
      case FaultSite::JournalLastCovered:
        // The last whole sealed region. Its parity group is not
        // complete, so only the clean marking covered it; strict
        // recovery relies on that.
        if (wholeBytes >= repair::regionBytes) {
            inj.flipBitAt(fs.journal,
                          wholeBytes - repair::regionBytes + 8, 1);
            out.injected = true;
        }
        break;
      case FaultSite::JournalTail:
        // First sealed byte past parity coverage: detectable by the
        // digest, unrepairable by parity -- the epoch is LOST, which
        // strict recovery must refuse to paper over.
        if (fs.sealedBytes > coveredBytes) {
            inj.flipBitAt(fs.journal, coveredBytes, 4);
            out.injected = true;
        }
        break;
      case FaultSite::JournalMultiRegion:
        // Two rotted regions in one 8-region parity group: XOR
        // parity reconstructs at most one.
        if (coveredBytes >= 2 * repair::regionBytes) {
            inj.flipBitAt(fs.journal, 1, 2);
            inj.flipBitAt(fs.journal, repair::regionBytes + 1, 2);
            out.injected = true;
        }
        break;
      case FaultSite::JournalTrailer: {
        // Epoch 1's trailer is the journal's first record keyed
        // slotEmptyKey; byte 5 of its second word is digest, not tag.
        // Parity must restore it.
        const auto *j = static_cast<const JEntry *>(fs.journal);
        const std::size_t n = coveredBytes / sizeof(JEntry);
        std::size_t i = 0;
        while (i < n && j[i].key != slotEmptyKey)
            ++i;
        if (i < n) {
            inj.flipBitAt(&j[i].value, 5, 5);
            out.injected = true;
        }
        break;
      }
      case FaultSite::ParityPage:
        if (fs.parityBytes > 0 &&
            coveredBytes >= repair::regionBytes) {
            inj.flipBitAt(fs.parity, 3, 2);
            out.injected = true;
        }
        break;
      case FaultSite::SuperblockPrimary:
        inj.flipBitAt(fs.metaPrimary, 0, 1);
        out.injected = true;
        break;
      case FaultSite::SuperblockReplica:
        inj.flipBitAt(fs.metaReplica, 0, 1);
        out.injected = true;
        break;
      case FaultSite::SuperblockBoth:
        inj.flipBitAt(fs.metaPrimary, 0, 1);
        inj.flipBitAt(fs.metaReplica, 0, 6);
        out.injected = true;
        break;
    }

    if (out.viaScrub) {
        // The journal still validates, so recovery would
        // never look at the parity blocks; the online scrub is what
        // finds and rewrites them. Walk one full pass.
        while (store.scrubStep(env, 0, 64) > 0) {
        }
    } else {
        // Restart: volatile state dies, recovery sees the durable
        // image -- clean-shutdown flag set, bits flipped.
        ctx.powerFail();
        out.report = store.recover(env);
    }

    for (int s = 0; s < scfg.shards; ++s) {
        const MediaCounters &mc = store.mediaCounters(s);
        out.mediaRepaired +=
            mc.repaired.load(std::memory_order_relaxed);
        out.mediaUnrepairable +=
            mc.unrepairable.load(std::memory_order_relaxed);
        out.quarantined = out.quarantined || store.quarantined(s);
    }

    // Golden comparison. LP gates data on committed epochs (after a
    // recovery they are the report's watermarks; on the scrub path
    // nothing was discarded). Eager/WAL tables are never discarded
    // at all -- even a superblock-dead quarantine keeps every op.
    if (b == Backend::Lp && !out.viaScrub)
        ledger.keepCommitted(out.report.committedEpochs);
    out.stateVerified = store.snapshot() == ledger.golden();
    out.scanStateVerified = ledger.scanMatches(env, store);

    if (out.quarantined) {
        // No forward progress on a quarantined shard; the state
        // checks above are the final word.
        out.finalStateVerified = out.stateVerified;
        return out;
    }
    for (std::size_t j = 0; j < spec.postOps; ++j)
        issueOne(spec.preOps + j);
    store.checkpoint(env);
    s.flight.seal();
    out.finalStateVerified = store.snapshot() == ledger.golden();
    out.scanStateVerified =
        out.scanStateVerified && ledger.scanMatches(env, store);
    return out;
}

} // namespace lp::store
