/**
 * @file
 * How to LP-ify *your own* loop nest with the public API.
 *
 * The kernel here is one the library does not ship: a persistent
 * histogram + prefix-sum over a large input (the core of a counting
 * sort or a database group-by). It shows the three things a user
 * must supply (Section III of the paper):
 *
 *   1. a region structure whose regions are associative
 *      (per-thread partial histograms merge by addition);
 *   2. a checksum call per protected store;
 *   3. recovery code per region (here: regions are idempotent given
 *      the durable input, so recovery = recompute, the Section III-E
 *      special case).
 *
 * Build & run:  ./build/examples/custom_kernel
 */

#include <cstdio>
#include <cstdint>

#include "base/rng.hh"
#include "ep/pmem_ops.hh"
#include "kernels/env.hh"
#include "lp/checksum_table.hh"
#include "lp/runtime.hh"
#include "pmem/arena.hh"
#include "pmem/crash.hh"
#include "sim/machine.hh"
#include "sim/scheduler.hh"

using namespace lp;
using kernels::SimEnv;

namespace
{

constexpr int num_items = 1 << 16;
constexpr int num_buckets = 256;
constexpr int num_threads = 4;

struct App
{
    const std::uint64_t *items;   // durable input
    std::uint64_t *partial;       // per-thread histograms (regions)
    std::uint64_t *histogram;     // merged result
    core::ChecksumTable *table;
};

/**
 * Region t: thread t's partial histogram over its slice of the
 * input. Associative with every other region (merge is addition)
 * and idempotent given the durable input.
 */
void
histogramRegion(SimEnv &env, const App &app, int t, bool eager)
{
    core::LpRegion region(*app.table, core::ChecksumKind::Modular);
    region.reset(env);
    std::uint64_t *mine = app.partial +
                          static_cast<std::size_t>(t) * num_buckets;
    for (int b = 0; b < num_buckets; ++b)
        env.st(&mine[b], std::uint64_t{0});
    const int per = num_items / num_threads;
    for (int i = t * per; i < (t + 1) * per; ++i) {
        const std::uint64_t v = env.ld(&app.items[i]);
        const int b = static_cast<int>(v % num_buckets);
        env.st(&mine[b], mine[b] + 1);
        env.tick(4);
    }
    // Checksum the region's final values, in a fixed order.
    for (int b = 0; b < num_buckets; ++b)
        region.updateWord(env, env.ld(&mine[b]));
    if (eager) {
        ep::flushRange(env, mine,
                       num_buckets * sizeof(std::uint64_t));
        env.sfence();
        region.commitEager(env, t);
    } else {
        region.commit(env, t);
    }
}

/** The merge region (runs after a barrier; key = num_threads). */
void
mergeRegion(SimEnv &env, const App &app, bool eager)
{
    core::LpRegion region(*app.table, core::ChecksumKind::Modular);
    region.reset(env);
    for (int b = 0; b < num_buckets; ++b) {
        std::uint64_t sum = 0;
        for (int t = 0; t < num_threads; ++t) {
            sum += env.ld(&app.partial[
                static_cast<std::size_t>(t) * num_buckets + b]);
        }
        env.st(&app.histogram[b], sum);
        region.updateWord(env, sum);
        env.tick(2 * num_threads);
    }
    if (eager) {
        ep::flushRange(env, app.histogram,
                       num_buckets * sizeof(std::uint64_t));
        env.sfence();
        region.commitEager(env, num_threads);
    } else {
        region.commit(env, num_threads);
    }
}

/** Recompute a region's digest from the current durable data. */
std::uint64_t
digestOf(SimEnv &env, const App &app, int key)
{
    core::ChecksumAcc acc(core::ChecksumKind::Modular);
    if (key < num_threads) {
        const std::uint64_t *mine =
            app.partial + static_cast<std::size_t>(key) * num_buckets;
        for (int b = 0; b < num_buckets; ++b)
            acc.addWord(env.ld(&mine[b]));
    } else {
        for (int b = 0; b < num_buckets; ++b)
            acc.addWord(env.ld(&app.histogram[b]));
    }
    return acc.value();
}

} // namespace

int
main()
{
    sim::MachineConfig cfg;
    cfg.numCores = num_threads;
    cfg.l1 = {8 * 1024, 4, 2};
    cfg.l2 = {64 * 1024, 8, 11};
    pmem::PersistentArena arena(8u << 20);
    sim::Machine machine(cfg, &arena);
    pmem::CrashController crash;
    sim::RegionScheduler sched(machine, num_threads);

    auto *items = arena.alloc<std::uint64_t>(num_items);
    auto *partial = arena.alloc<std::uint64_t>(
        static_cast<std::size_t>(num_threads) * num_buckets);
    auto *histogram = arena.alloc<std::uint64_t>(num_buckets);
    core::ChecksumTable table(arena, num_threads + 1);

    Rng rng(42);
    for (int i = 0; i < num_items; ++i)
        items[i] = rng.next64();
    arena.persistAll();

    App app{items, partial, histogram, &table};

    // --- normal run with an injected crash --------------------------
    auto schedule_all = [&] {
        for (int t = 0; t < num_threads; ++t) {
            sched.add(t, [&, t] {
                SimEnv env(machine, arena, t, &crash);
                histogramRegion(env, app, t, false);
            });
        }
    };
    crash.armAfterStores(num_items / 2);
    bool crashed = false;
    try {
        schedule_all();
        sched.barrier();
        SimEnv env(machine, arena, 0, &crash);
        mergeRegion(env, app, false);
    } catch (const pmem::CrashException &) {
        crashed = true;
        sched.clear();
        machine.powerFail();
    }
    std::printf("crash injected: %s\n", crashed ? "yes" : "no");

    // --- recovery: validate each region; recompute the broken ones -
    if (crashed) {
        SimEnv env(machine, arena, 0);
        int repaired = 0;
        for (int t = 0; t < num_threads; ++t) {
            const bool ok = !table.neverCommitted(t) &&
                            table.stored(t) == digestOf(env, app, t);
            if (!ok) {
                histogramRegion(env, app, t, /*eager=*/true);
                ++repaired;
            }
        }
        // The merge depends on every partial region, so validate it
        // last and recompute it if stale.
        const bool merge_ok =
            repaired == 0 && !table.neverCommitted(num_threads) &&
            table.stored(num_threads) ==
                digestOf(env, app, num_threads);
        if (!merge_ok)
            mergeRegion(env, app, /*eager=*/true);
        std::printf("recovery: %d partial histograms recomputed, "
                    "merge %s\n",
                    repaired, merge_ok ? "intact" : "recomputed");
    }

    // --- verify against a plain host computation --------------------
    std::uint64_t expect[num_buckets] = {};
    for (int i = 0; i < num_items; ++i)
        ++expect[items[i] % num_buckets];
    int bad = 0;
    for (int b = 0; b < num_buckets; ++b)
        if (histogram[b] != expect[b])
            ++bad;
    std::printf("verification: %d incorrect buckets (expect 0)\n",
                bad);
    return bad == 0 ? 0 : 1;
}
