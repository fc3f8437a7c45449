/**
 * @file
 * Simulator sanity properties, checked as parameterized sweeps:
 * monotonicity in NVMM latency, cache-size effects, scheme ordering
 * invariants, and determinism. These pin down relations every
 * experiment implicitly relies on.
 */

#include <gtest/gtest.h>

#include "kernels/harness.hh"
#include "pmem/arena.hh"

namespace lp::kernels
{
namespace
{

sim::MachineConfig
machineWith(unsigned l2_kb, double read_ns, double write_ns)
{
    sim::MachineConfig cfg;
    cfg.numCores = 4;
    cfg.l1 = {4 * 1024, 4, 2};
    cfg.l2 = {l2_kb * 1024, 8, 11};
    cfg.nvmmReadNs = read_ns;
    cfg.nvmmWriteNs = write_ns;
    return cfg;
}

KernelParams
tmm32()
{
    KernelParams p;
    p.n = 32;
    p.bsize = 8;
    p.threads = 4;
    return p;
}

TEST(SimProperties, ExecTimeMonotonicInNvmmReadLatency)
{
    double prev = 0.0;
    for (double ns : {60.0, 100.0, 150.0, 300.0}) {
        const auto out = runScheme(KernelId::Tmm, Scheme::Base,
                                   tmm32(),
                                   machineWith(16, ns, 2 * ns));
        EXPECT_GE(out.execCycles, prev) << ns;
        prev = out.execCycles;
    }
}

TEST(SimProperties, WriteCountInvariantToNvmmLatencySingleThread)
{
    // With one thread the access stream is latency-independent, so
    // latency changes timing but never which blocks get written.
    // (Multi-threaded runs legitimately differ slightly: per-core
    // latency shifts the min-clock interleaving and thus shared-L2
    // contents.)
    KernelParams p = tmm32();
    p.threads = 1;
    const auto slow = runScheme(KernelId::Tmm, Scheme::Base, p,
                                machineWith(16, 300, 600));
    const auto fast = runScheme(KernelId::Tmm, Scheme::Base, p,
                                machineWith(16, 60, 150));
    EXPECT_DOUBLE_EQ(slow.nvmmWrites, fast.nvmmWrites);
    EXPECT_DOUBLE_EQ(slow.stat("l2_misses"), fast.stat("l2_misses"));
}

TEST(SimProperties, BiggerL2NeverMissesMore)
{
    // The L2 changes only cache behaviour: every size runs the same
    // instruction stream as the smallest.
    RunOutcome first;
    double prev_misses = -1.0;
    for (unsigned kb : {8u, 16u, 32u, 64u, 128u}) {
        const auto out = runScheme(KernelId::Tmm, Scheme::Base,
                                   tmm32(),
                                   machineWith(kb, 150, 300));
        if (prev_misses >= 0.0) {
            EXPECT_LE(out.stat("l2_misses"), prev_misses) << kb;
            for (const char *op : {"loads", "stores", "compute_ops"})
                EXPECT_EQ(out.stat(op), first.stat(op)) << op << kb;
        } else {
            first = out;
        }
        prev_misses = out.stat("l2_misses");
    }
}

TEST(SimProperties, BiggerL2NeverWritesMoreUnderLazySchemes)
{
    for (Scheme scheme : {Scheme::Base, Scheme::Lp}) {
        double prev = -1.0;
        for (unsigned kb : {8u, 32u, 128u}) {
            const auto out = runScheme(KernelId::Tmm, scheme, tmm32(),
                                       machineWith(kb, 150, 300));
            if (prev >= 0.0) {
                EXPECT_LE(out.nvmmWrites, prev)
                    << schemeName(scheme) << " " << kb;
            }
            prev = out.nvmmWrites;
        }
    }
}

TEST(SimProperties, LpNeverBeatsBaseOnInstructionCount)
{
    // LP adds checksum work; its compute-op count must exceed base.
    const auto base = runScheme(KernelId::Tmm, Scheme::Base, tmm32(),
                                machineWith(16, 150, 300));
    const auto lp = runScheme(KernelId::Tmm, Scheme::Lp, tmm32(),
                              machineWith(16, 150, 300));
    EXPECT_GT(lp.stat("compute_ops"), base.stat("compute_ops"));
    EXPECT_GT(lp.stat("stores"), base.stat("stores"));
}

TEST(SimProperties, SchemeFlushFenceContract)
{
    const auto cfg = machineWith(16, 150, 300);
    const auto base = runScheme(KernelId::Tmm, Scheme::Base, tmm32(),
                                cfg);
    const auto lp = runScheme(KernelId::Tmm, Scheme::Lp, tmm32(),
                              cfg);
    const auto ep = runScheme(KernelId::Tmm, Scheme::EagerRecompute,
                              tmm32(), cfg);
    const auto wal = runScheme(KernelId::Tmm, Scheme::Wal, tmm32(),
                               cfg);
    EXPECT_EQ(base.stat("flush_instrs"), 0.0);
    EXPECT_EQ(lp.stat("flush_instrs"), 0.0);
    EXPECT_GT(ep.stat("flush_instrs"), 0.0);
    // WAL flushes log + data: strictly more flushes than EP, and
    // exactly 4 fences per region vs EP's 2.
    EXPECT_GT(wal.stat("flush_instrs"), ep.stat("flush_instrs"));
    EXPECT_DOUBLE_EQ(wal.stat("fences"), 2.0 * ep.stat("fences"));
}

TEST(SimProperties, CleanerOnlyAddsWrites)
{
    sim::MachineConfig with = machineWith(64, 150, 300);
    with.cleanerPeriodCycles = 5000;
    const auto clean = runScheme(KernelId::Tmm, Scheme::Lp, tmm32(),
                                 with);
    const auto lazy = runScheme(KernelId::Tmm, Scheme::Lp, tmm32(),
                                machineWith(64, 150, 300));
    EXPECT_GE(clean.nvmmWrites, lazy.nvmmWrites);
    EXPECT_GE(clean.stat("cleaner_writes"), 1.0);
    EXPECT_TRUE(clean.verified);
}

TEST(SimProperties, DecayCleanerWritesNoMoreThanFullSweep)
{
    sim::MachineConfig sweep = machineWith(64, 150, 300);
    sweep.cleanerPeriodCycles = 5000;
    sim::MachineConfig decay = sweep;
    decay.cleanerDecayCycles = 50000;
    const auto full = runScheme(KernelId::Tmm, Scheme::Lp, tmm32(),
                                sweep);
    const auto aged = runScheme(KernelId::Tmm, Scheme::Lp, tmm32(),
                                decay);
    EXPECT_LE(aged.stat("cleaner_writes"),
              full.stat("cleaner_writes"));
    EXPECT_TRUE(aged.verified);
}

TEST(SimProperties, ThreadCountPreservesWorkCounts)
{
    KernelParams p1 = tmm32();
    p1.threads = 1;
    KernelParams p4 = tmm32();
    p4.threads = 4;
    const auto one = runScheme(KernelId::Tmm, Scheme::Lp, p1,
                               machineWith(32, 150, 300));
    const auto four = runScheme(KernelId::Tmm, Scheme::Lp, p4,
                                machineWith(32, 150, 300));
    EXPECT_DOUBLE_EQ(one.stat("stores"), four.stat("stores"));
    EXPECT_DOUBLE_EQ(one.stat("compute_ops"),
                     four.stat("compute_ops"));
}

TEST(SimProperties, EverySchemeIsDeterministicOnFourThreads)
{
    // Threads interleave by simulated clock, not by the host: a rerun
    // of any scheme reproduces every counter, cycles included.
    const auto cfg = machineWith(16, 150, 300);
    for (Scheme s : {Scheme::Base, Scheme::Lp, Scheme::EagerRecompute,
                     Scheme::Wal}) {
        const auto a = runScheme(KernelId::Tmm, s, tmm32(), cfg);
        const auto b = runScheme(KernelId::Tmm, s, tmm32(), cfg);
        EXPECT_TRUE(a.verified) << schemeName(s);
        EXPECT_EQ(a.stats, b.stats) << schemeName(s);
    }
}

TEST(SimProperties, BiggerL2KeepsLpWorkCountsOnFourThreads)
{
    // A sixteen times bigger L2 changes the interleaving's timing, not
    // the work: LP issues the same operations, misses less and writes
    // no more.
    const auto small = runScheme(KernelId::Tmm, Scheme::Lp, tmm32(),
                                 machineWith(16, 150, 300));
    const auto big = runScheme(KernelId::Tmm, Scheme::Lp, tmm32(),
                               machineWith(256, 150, 300));
    for (const char *op : {"loads", "stores", "compute_ops",
                           "flush_instrs", "fences"})
        EXPECT_EQ(big.stat(op), small.stat(op)) << op;
    EXPECT_LT(big.stat("l2_misses"), small.stat("l2_misses"));
    EXPECT_LE(big.nvmmWrites, small.nvmmWrites);
    EXPECT_TRUE(big.verified);
}

TEST(SimProperties, NvmmLatencyKeepsLpWorkCountsOnFourThreads)
{
    // Latency may shift which blocks four threads write back, but
    // never how many operations they issue.
    const auto first = runScheme(KernelId::Tmm, Scheme::Lp, tmm32(),
                                 machineWith(16, 60, 120));
    for (double ns : {150.0, 300.0}) {
        const auto out = runScheme(KernelId::Tmm, Scheme::Lp, tmm32(),
                                   machineWith(16, ns, 2 * ns));
        for (const char *op : {"loads", "stores", "compute_ops"})
            EXPECT_EQ(out.stat(op), first.stat(op)) << op << " " << ns;
        EXPECT_GT(out.execCycles, first.execCycles) << ns;
    }
}

TEST(SimProperties, WearTrackingCountsPerBlockWrites)
{
    // The wear summary must reconcile with the write counter, and
    // eager flushing of one hot block must show as a hot spot.
    pmem::PersistentArena arena(1 << 16);
    sim::Machine m(machineWith(16, 150, 300), &arena);
    double *hot = arena.alloc<double>(1);
    double *cold = arena.alloc<double>(8);
    for (int i = 0; i < 10; ++i) {
        *hot = i;
        m.write(0, arena.addrOf(hot), 8);
        m.clflushopt(0, arena.addrOf(hot));
        m.sfence(0);
    }
    m.write(0, arena.addrOf(cold), 8);
    m.clflushopt(0, arena.addrOf(cold));
    m.sfence(0);

    const auto wear = m.wearSummary();
    EXPECT_EQ(wear.blocksWritten, 2u);
    EXPECT_EQ(wear.totalWrites, 11u);
    EXPECT_EQ(wear.maxBlockWrites, 10u);
    EXPECT_GT(wear.hotSpotFactor, 1.5);
    EXPECT_EQ(wear.totalWrites,
              m.machineStats().nvmmWrites.value());
}

TEST(SimProperties, LazySchemesWearMoreEvenlyThanWal)
{
    // WAL rewrites its log and status blocks every transaction: its
    // wear hot spot must exceed LP's.
    const auto cfg = machineWith(16, 150, 300);
    const auto lp = runScheme(KernelId::Tmm, Scheme::Lp, tmm32(),
                              cfg);
    const auto wal = runScheme(KernelId::Tmm, Scheme::Wal, tmm32(),
                               cfg);
    EXPECT_GT(wal.stat("wear_max_block_writes"),
              lp.stat("wear_max_block_writes"));
    EXPECT_GT(wal.stat("wear_hot_spot_factor"),
              lp.stat("wear_hot_spot_factor"));
}

class LatencySweepAllKernels
    : public ::testing::TestWithParam<KernelId>
{
};

TEST_P(LatencySweepAllKernels, LpOverheadBoundedAcrossLatencies)
{
    // The Figure 14(a) claim as a property: LP's relative overhead
    // stays modest at every NVMM latency point.
    const KernelId id = GetParam();
    KernelParams p;
    p.threads = 4;
    if (id == KernelId::Fft) {
        p.n = 128;
    } else {
        p.n = 32;
        p.bsize = 8;
    }
    for (double ns : {60.0, 150.0}) {
        const auto cfg = machineWith(16, ns, 2 * ns);
        const auto base = runScheme(id, Scheme::Base, p, cfg);
        const auto lp = runScheme(id, Scheme::Lp, p, cfg);
        EXPECT_LT(lp.execCycles / base.execCycles, 1.25)
            << kernelName(id) << " @ " << ns << "ns";
    }
}

INSTANTIATE_TEST_SUITE_P(
    Kernels, LatencySweepAllKernels,
    ::testing::Values(KernelId::Tmm, KernelId::Cholesky,
                      KernelId::Conv2d, KernelId::Gauss,
                      KernelId::Fft, KernelId::Spmv),
    [](const ::testing::TestParamInfo<KernelId> &info) {
        std::string n = kernelName(info.param);
        for (auto &ch : n)
            if (ch == '-')
                ch = '_';
        return n;
    });

} // namespace
} // namespace lp::kernels
