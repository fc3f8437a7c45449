/**
 * @file
 * Quickstart: the paper's Figure 1 kernel, end to end.
 *
 * The original loop computes C[i] = foo(A[i], B[i]) and
 * D[i] = bar(A[i], B[i]). We make it failure-safe with Lazy
 * Persistency: each iteration block is an LP region protected by a
 * checksum; no cache-line flushes, no fences, no logging. We then
 * inject a power failure, restore the durable image, detect the
 * damaged regions by checksum mismatch, and repair them with the
 * Eager Persistency recovery code of Figure 1's right column.
 *
 * Build & run:  ./build/examples/quickstart
 */

#include <cstdio>

#include "ep/pmem_ops.hh"
#include "kernels/env.hh"
#include "lp/checksum_table.hh"
#include "lp/runtime.hh"
#include "pmem/arena.hh"
#include "pmem/crash.hh"
#include "sim/machine.hh"

using namespace lp;
using kernels::SimEnv;

namespace
{

double
foo(double a, double b)
{
    return 3.0 * a + b;
}

double
bar(double a, double b)
{
    return a * b - 1.0;
}

constexpr int n = 4096;
constexpr int region_size = 64;  // iterations per LP region
constexpr int num_regions = n / region_size;

/** One LP region: iterations [r*region_size, (r+1)*region_size). */
void
runRegion(SimEnv &env, core::ChecksumTable &table, const double *a,
          const double *b, double *c, double *d, int r)
{
    core::LpRegion region(table, core::ChecksumKind::Modular);
    region.reset(env);
    for (int i = r * region_size; i < (r + 1) * region_size; ++i) {
        const double ci = foo(env.ld(&a[i]), env.ld(&b[i]));
        const double di = bar(env.ld(&a[i]), env.ld(&b[i]));
        env.tick(8);
        env.st(&c[i], ci);
        env.st(&d[i], di);
        region.update(env, ci);
        region.update(env, di);
    }
    region.commit(env, r);  // a plain store -- lazy!
}

/** Recompute a region's checksum from the current (durable) data. */
std::uint64_t
regionDigest(SimEnv &env, const double *c, const double *d, int r)
{
    core::ChecksumAcc acc(core::ChecksumKind::Modular);
    for (int i = r * region_size; i < (r + 1) * region_size; ++i) {
        acc.add(env.ld(&c[i]));
        acc.add(env.ld(&d[i]));
    }
    return acc.value();
}

} // namespace

int
main()
{
    // A machine with one core and a small cache, wired to a
    // persistent arena (the simulated NVMM).
    sim::MachineConfig cfg;
    cfg.numCores = 1;
    cfg.l1 = {4 * 1024, 4, 2};
    cfg.l2 = {16 * 1024, 8, 11};
    pmem::PersistentArena arena(4u << 20);
    sim::Machine machine(cfg, &arena);
    pmem::CrashController crash;

    double *a = arena.alloc<double>(n);
    double *b = arena.alloc<double>(n);
    double *c = arena.alloc<double>(n);
    double *d = arena.alloc<double>(n);
    core::ChecksumTable table(arena, num_regions);
    for (int i = 0; i < n; ++i) {
        a[i] = 0.25 * i;
        b[i] = 1.0 / (i + 1);
    }
    arena.persistAll();  // inputs start durable

    // --- normal execution, with a power failure in the middle -----
    SimEnv env(machine, arena, 0, &crash);
    crash.armAfterStores(2 * n / 2 + 17);  // mid-run, mid-region
    int completed = 0;
    try {
        for (int r = 0; r < num_regions; ++r) {
            runRegion(env, table, a, b, c, d, r);
            ++completed;
        }
    } catch (const pmem::CrashException &) {
        std::printf("power failure injected after region %d "
                    "started\n", completed);
    }

    const auto flushes_normal = machine.machineStats()
                                    .flushInstrs.value();
    const auto fences_normal = machine.machineStats().fences.value();

    // --- crash: caches lost, NVMM contents survive -----------------
    machine.powerFail();

    // --- recovery: detect damage by checksum, repair eagerly -------
    SimEnv renv(machine, arena, 0);
    int intact = 0;
    int repaired = 0;
    for (int r = 0; r < num_regions; ++r) {
        const bool ok = !table.neverCommitted(r) &&
                        table.stored(r) == regionDigest(renv, c, d, r);
        if (ok) {
            ++intact;
            continue;
        }
        // Figure 1's recovery: recompute with Eager Persistency so a
        // crash during recovery cannot lose progress.
        core::LpRegion region(table, core::ChecksumKind::Modular);
        region.reset(renv);
        for (int i = r * region_size; i < (r + 1) * region_size;
             ++i) {
            const double ci = foo(renv.ld(&a[i]), renv.ld(&b[i]));
            const double di = bar(renv.ld(&a[i]), renv.ld(&b[i]));
            renv.st(&c[i], ci);
            renv.st(&d[i], di);
            region.update(renv, ci);
            region.update(renv, di);
        }
        ep::flushRange(renv, &c[r * region_size],
                       region_size * sizeof(double));
        ep::flushRange(renv, &d[r * region_size],
                       region_size * sizeof(double));
        renv.sfence();
        region.commitEager(renv, r);
        ++repaired;
    }
    std::printf("recovery: %d regions intact, %d repaired\n", intact,
                repaired);

    // --- verify -----------------------------------------------------
    int bad = 0;
    for (int i = 0; i < n; ++i) {
        if (c[i] != foo(a[i], b[i]) || d[i] != bar(a[i], b[i]))
            ++bad;
    }
    std::printf("verification: %d incorrect elements (expect 0)\n",
                bad);
    std::printf("normal execution used %llu flushes and %llu fences "
                "(lazy persistency!)\n",
                static_cast<unsigned long long>(flushes_normal),
                static_cast<unsigned long long>(fences_normal));
    return bad == 0 ? 0 : 1;
}
