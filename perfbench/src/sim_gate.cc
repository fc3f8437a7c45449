#include "perfbench/src/sim_gate.hh"

#include <cstdio>

#include "bench/common.hh"
#include "kernels/env.hh"
#include "kernels/workload.hh"
#include "obs/flight.hh"
#include "store/ycsb.hh"

namespace perfbench
{

using lp::store::Backend;

namespace
{

/**
 * Gate geometry. The StoreConfig is the production one (4 shards,
 * 32-op batches, fold every 64 batches) -- foldBatches is NOT scaled
 * to the run length, so each shard folds ~8 times and writes per
 * mutation reach their steady state. The 2 MiB table alone is 16x
 * the simulated 128 KiB L2.
 */
constexpr std::size_t kCapacity = 1 << 16;
constexpr std::size_t kRecords = 32768;
constexpr std::size_t kOps = 131072;

/**
 * Flight-ring slots runStoreYcsb carves first out of its arena. The
 * replay lays out its arena the same way, so both runs see the same
 * addresses (and therefore the same cache behaviour).
 */
constexpr std::uint32_t kFlightEvents = 4096;

lp::store::StoreConfig
gateConfig()
{
    lp::store::StoreConfig cfg;
    cfg.capacity = kCapacity;
    return cfg;
}

lp::store::YcsbParams
gateParams(std::uint64_t seed)
{
    lp::store::YcsbParams p;
    p.records = kRecords;
    p.ops = kOps;
    p.mix = lp::store::YcsbMix::A;
    p.zipfian = true;
    p.seed = seed;
    return p;
}

/**
 * The gate's mix once more, on a store set up exactly as runStoreYcsb
 * sets up its own (flight ring first, every shard traced into it), but
 * one KvStore call at a time: ycsbMix runs the mix as one call, so it
 * cannot time a single put. Every put and the closing checkpoint are
 * bracketed by reads of the core clock -- spans in simulated cycles,
 * free in simulated time -- and NVMM writes are sampled at every whole
 * fold window (one fold period of every shard), so the last window's
 * rate can be set beside the whole-run rate: a run too short to level
 * off shows as a gap.
 */
Replay
replayCalls(Backend b, const lp::store::StoreConfig &scfg,
            const lp::store::YcsbParams &p)
{
    using Env = lp::kernels::SimEnv;
    lp::kernels::SimContext ctx(
        lp::bench::paperMachine(1),
        lp::obs::FlightRing::bytesFor(kFlightEvents) +
            lp::store::storeArenaBytes(scfg));
    lp::obs::FlightRing flight(ctx.arena, kFlightEvents, 0);
    lp::obs::TraceCollector trace;
    lp::store::KvStore<Env> store(ctx.arena, scfg, b);
    lp::store::attachStoreTrace(store, &trace);
    for (int s = 0; s < scfg.shards; ++s)
        if (lp::obs::TraceRing *ring = store.shardObs(s).ring)
            ring->attachSink(&flight);
    ctx.arena.persistAll();
    Env env(ctx.machine, ctx.arena, 0);
    lp::sim::Machine &m = ctx.machine;

    lp::store::ycsbLoad(env, store, p, nullptr);
    flight.seal();
    m.resetStats();

    const auto timed = [&](auto &&call) {
        const lp::Cycles c0 = m.coreCycles(0);
        call();
        return std::uint64_t(m.coreCycles(0) - c0);
    };
    const std::uint64_t window = std::uint64_t(scfg.batchOps) *
                                 std::uint64_t(scfg.foldBatches) *
                                 std::uint64_t(scfg.shards);
    std::vector<std::uint64_t> windowWrites{0};

    Replay out;
    lp::store::YcsbStream stream(p);
    for (std::size_t i = 0; i < p.ops; ++i) {
        const auto op = stream.next();
        if (op.read()) {
            store.get(env, op.key);
            continue;
        }
        // The value ycsbMix writes, so the two runs stay identical.
        const std::uint64_t val = 0x100000 + i;
        out.putCycles += timed([&] { store.put(env, op.key, val); });
        if (++out.puts % window == 0)
            windowWrites.push_back(m.machineStats().nvmmWrites.value());
    }
    out.checkpointCycles = timed([&] { store.checkpoint(env); });
    flight.seal();

    out.nvmmWrites = m.machineStats().nvmmWrites.value();
    out.execCycles = m.snapshot().at("exec_cycles");
    if (windowWrites.size() >= 2) {
        const std::size_t n = windowWrites.size();
        out.lastWindowWritesPerMut =
            double(windowWrites[n - 1] - windowWrites[n - 2]) /
            double(window);
    }
    return out;
}

/** True when two runs of the same seed produced the same counts. */
bool
sameCounts(const lp::store::StoreRunResult &a,
           const lp::store::StoreRunResult &b)
{
    return a.stats == b.stats && a.opsStaged == b.opsStaged &&
           a.epochsCommitted == b.epochsCommitted && a.folds == b.folds;
}

} // namespace

void
reportSimGate(const std::vector<SimRun> &runs, bool perLayer, Report &r)
{
    std::size_t i = 0;
    for (const Backend b : lp::bench::kStoreBackends) {
        const lp::store::StoreRunResult &x = runs[i].run;
        const Replay &calls = runs[i++].calls;
        std::string sfx = ".";
        sfx += lp::store::backendName(b);
        if (!perLayer) {
            r.add("nvmm_writes_per_mut" + sfx, x.writesPerMutation,
                  "writes/mutation");
            r.add("sim_kops_per_s" + sfx, x.opsPerSec / 1e3, "kops/s");
            continue;
        }
        const double muts = double(x.mutations);
        const auto perMut = [&](const char *stat) {
            return ratio(x.stats.at(stat), muts);
        };
        std::printf("  sim %-5s writes/mutation: whole run %.4f, last "
                    "fold window %.4f\n",
                    lp::store::backendName(b).c_str(),
                    x.writesPerMutation, calls.lastWindowWritesPerMut);
        r.add("store.put_cycles_mean" + sfx,
              ratio(double(calls.putCycles), double(calls.puts)),
              "cycles");
        r.add("store.checkpoint_cycles_mean" + sfx,
              double(calls.checkpointCycles), "cycles");
        r.add("sim.flush_writes_per_mut" + sfx, perMut("flush_writes"),
              "writes/mutation");
        r.add("sim.eviction_writes_per_mut" + sfx,
              perMut("eviction_writes"), "writes/mutation");
        r.add("sim.last_window_writes_per_mut" + sfx,
              calls.lastWindowWritesPerMut, "writes/mutation");
        r.add("sim.flush_instrs_per_mut" + sfx, perMut("flush_instrs"),
              "instrs/mutation");
        r.add("sim.fence_stall_cycles_per_mut" + sfx,
              perMut("fence_stall_cycles"), "cycles/mutation");
        r.add("sim.l2_miss_rate" + sfx,
              ratio(x.stats.at("l2_misses"), x.stats.at("l2_accesses")),
              "frac");
        r.add("engine.epochs_per_kmut" + sfx,
              ratio(double(x.epochsCommitted), muts) * 1e3,
              "epochs/kmut");
        r.add("engine.folds" + sfx, double(x.folds), "count");
    }
}

std::vector<SimRun>
runSimGates(const Options &opt, Report &r)
{
    const lp::store::StoreConfig scfg = gateConfig();
    const lp::store::YcsbParams p = gateParams(opt.seed);
    const lp::sim::MachineConfig mcfg = lp::bench::paperMachine(1);
    std::vector<SimRun> runs;
    for (const Backend b : lp::bench::kStoreBackends) {
        const std::string name = lp::store::backendName(b);
        SimRun x;
        x.run = lp::store::runStoreYcsb(b, scfg, p, mcfg);
        r.attempted += p.ops;
        if (!x.run.verified) {
            ++r.failed;
            r.fail("sim gate " + name +
                   ": store disagrees with the golden map");
        }
        if (opt.trace) {
            x.calls = replayCalls(b, scfg, p);
            if (x.calls.nvmmWrites != x.run.nvmmWrites ||
                x.calls.execCycles != x.run.execCycles)
                r.fail("sim gate " + name +
                       ": the per-call replay differs from the gate run");
        }
        runs.push_back(x);
    }
    // The gate is only a gate if it is exact: a second LP run of the
    // same seed must reproduce every count and every cycle.
    if (!sameCounts(runs[0].run,
                    lp::store::runStoreYcsb(Backend::Lp, scfg, p, mcfg)))
        r.fail("sim gate: a rerun of the same seed differs");
    return runs;
}

} // namespace perfbench
