/**
 * @file
 * Crash/recovery property tests -- the heart of the reproduction.
 *
 * For every kernel, inject a power failure at many points in the
 * store stream, restore the durable image, run the kernel's recovery,
 * resume, and require the final persistent result to equal the golden
 * host result. Also covers repeated crashes (including crashes during
 * recovery itself), the EagerRecompute recovery for TMM, and what a
 * SimContext power failure leaves behind.
 */

#include <gtest/gtest.h>

#include "base/rng.hh"
#include "kernels/env.hh"
#include "kernels/harness.hh"
#include "kernels/tmm.hh"
#include "kernels/workload.hh"
#include "pmem/crash.hh"

namespace lp::kernels
{
namespace
{

sim::MachineConfig
testMachine(int cores = 4)
{
    sim::MachineConfig cfg;
    cfg.numCores = cores;
    cfg.l1 = {8 * 1024, 4, 2};
    cfg.l2 = {64 * 1024, 8, 11};
    return cfg;
}

KernelParams
smallParams(KernelId id)
{
    KernelParams p;
    p.threads = 4;
    switch (id) {
      case KernelId::Fft:
        p.n = 256;
        break;
      default:
        p.n = 32;
        p.bsize = 8;
        break;
    }
    return p;
}

/** Total stores a full LP run performs (to place crash points). */
std::uint64_t
storesInLpRun(KernelId id)
{
    const auto out = runScheme(id, Scheme::Lp, smallParams(id),
                               testMachine());
    return static_cast<std::uint64_t>(out.stat("stores"));
}

class CrashSweep
    : public ::testing::TestWithParam<std::tuple<KernelId, int>>
{
};

TEST_P(CrashSweep, RecoversToGoldenResult)
{
    auto [kernel, slice] = GetParam();
    const std::uint64_t total = storesInLpRun(kernel);
    ASSERT_GT(total, 16u);
    // Crash points spread across the run: early, mid, late.
    const std::uint64_t point =
        1 + (total - 2) * static_cast<std::uint64_t>(slice) / 7;
    const auto out = runLpWithCrash(kernel, smallParams(kernel),
                                    testMachine(), point);
    EXPECT_TRUE(out.crashed) << "crash point " << point << " of "
                             << total;
    EXPECT_TRUE(out.verified)
        << kernelName(kernel) << " crash after " << point
        << " stores: max abs error " << out.maxAbsError;
}

INSTANTIATE_TEST_SUITE_P(
    AllKernels, CrashSweep,
    ::testing::Combine(
        ::testing::Values(KernelId::Tmm, KernelId::Cholesky,
                          KernelId::Conv2d, KernelId::Gauss,
                          KernelId::Fft),
        ::testing::Range(0, 8)),
    [](const ::testing::TestParamInfo<std::tuple<KernelId, int>>
           &info) {
        std::string n =
            kernelName(std::get<0>(info.param)) + "_slice" +
            std::to_string(std::get<1>(info.param));
        for (auto &ch : n)
            if (ch == '-')
                ch = '_';
        return n;
    });

TEST(CrashRecovery, RandomCrashPointsTmm)
{
    const std::uint64_t total = storesInLpRun(KernelId::Tmm);
    Rng rng(2024);
    for (int trial = 0; trial < 12; ++trial) {
        const std::uint64_t point = 1 + rng.below(total - 1);
        const auto out = runLpWithCrash(
            KernelId::Tmm, smallParams(KernelId::Tmm), testMachine(),
            point);
        ASSERT_TRUE(out.verified)
            << "trial " << trial << " point " << point;
    }
}

TEST(CrashRecovery, CrashImmediatelyAtFirstStore)
{
    const auto out = runLpWithCrash(
        KernelId::Tmm, smallParams(KernelId::Tmm), testMachine(), 1);
    EXPECT_TRUE(out.crashed);
    EXPECT_TRUE(out.verified);
    // Nothing useful persisted: recovery resumes from stage 0.
    EXPECT_EQ(out.recovery.resumeStage, 0);
}

TEST(CrashRecovery, CrashBudgetBeyondRunMeansNoCrash)
{
    const auto out = runLpWithCrash(KernelId::Tmm,
                                    smallParams(KernelId::Tmm),
                                    testMachine(), UINT64_MAX);
    EXPECT_FALSE(out.crashed);
    EXPECT_TRUE(out.verified);
}

TEST(CrashRecovery, RepeatedCrashesStillConverge)
{
    const std::uint64_t total = storesInLpRun(KernelId::Tmm);
    // Three crashes: mid-run, then during recovery/resume, then late.
    const std::vector<std::uint64_t> points = {
        total / 2, total / 8, total / 3};
    const auto out = runLpWithCrashes(
        KernelId::Tmm, smallParams(KernelId::Tmm), testMachine(),
        points);
    EXPECT_EQ(out.crashes, 3);
    EXPECT_TRUE(out.verified) << "max abs error " << out.maxAbsError;
}

TEST(CrashRecovery, RepeatedCrashesAllKernels)
{
    for (KernelId id : {KernelId::Cholesky, KernelId::Conv2d,
                        KernelId::Gauss, KernelId::Fft}) {
        const std::uint64_t total = storesInLpRun(id);
        const std::vector<std::uint64_t> points = {total / 2,
                                                   total / 5};
        const auto out = runLpWithCrashes(id, smallParams(id),
                                          testMachine(), points);
        EXPECT_EQ(out.crashes, 2) << kernelName(id);
        EXPECT_TRUE(out.verified)
            << kernelName(id) << " err " << out.maxAbsError;
    }
}

TEST(CrashRecovery, LateCrashResumesNearTheEnd)
{
    // A crash in the last tenth of the run must not recompute
    // everything *when the cache is small enough that earlier
    // results drained to NVMM*: recovery should find matched
    // regions. (With a cache larger than the working set, nothing
    // evicts and LP legitimately redoes everything.)
    sim::MachineConfig cfg = testMachine();
    cfg.l1 = {1024, 2, 2};
    cfg.l2 = {4096, 4, 11};
    std::uint64_t total;
    {
        const auto full = runScheme(KernelId::Tmm, Scheme::Lp,
                                    smallParams(KernelId::Tmm), cfg);
        total = static_cast<std::uint64_t>(full.stat("stores"));
    }
    const auto out = runLpWithCrash(KernelId::Tmm,
                                    smallParams(KernelId::Tmm), cfg,
                                    total - total / 10);
    EXPECT_TRUE(out.crashed);
    EXPECT_TRUE(out.verified);
    EXPECT_GT(out.recovery.matched, 0u);
    // Note: resumeStage is the *minimum* over bands and may be 0: the
    // band that was mid-region at the crash holds a mixed durable
    // state matching no digest and legitimately restarts from
    // scratch, while the matched bands resume near the end.
}

TEST(CrashRecovery, EagerRecomputeRecoveryTmm)
{
    const KernelParams p = smallParams(KernelId::Tmm);
    const auto cfg = testMachine();
    // Count stores in a full EagerRecompute run first.
    std::uint64_t total;
    {
        SimContext ctx(cfg, arenaBytesFor(KernelId::Tmm, p));
        TmmWorkload w(p, ctx);
        w.run(Scheme::EagerRecompute);
        total = ctx.machine.machineStats().stores.value();
    }
    for (int slice = 1; slice <= 5; ++slice) {
        SimContext ctx(cfg, arenaBytesFor(KernelId::Tmm, p));
        TmmWorkload w(p, ctx);
        ctx.crash.armAfterStores(total * slice / 6);
        bool crashed = false;
        try {
            w.run(Scheme::EagerRecompute);
        } catch (const pmem::CrashException &) {
            crashed = true;
            ctx.powerFail();
            w.recoverEagerAndResume();
        }
        EXPECT_TRUE(crashed) << "slice " << slice;
        EXPECT_TRUE(w.verify())
            << "slice " << slice << " err " << w.maxAbsError();
    }
}

TEST(CrashRecovery, RecoveryCausesNoDataLossUnderSmallCache)
{
    // A tiny cache means most data persisted before the crash.
    sim::MachineConfig cfg = testMachine();
    cfg.l1 = {1024, 2, 2};
    cfg.l2 = {4096, 4, 11};
    const auto out = runLpWithCrash(KernelId::Tmm,
                                    smallParams(KernelId::Tmm), cfg,
                                    5000);
    EXPECT_TRUE(out.verified);
}

TEST(CrashRecovery, RecoversWhenEvictionsPersistPartialStages)
{
    // An 8KB L2 evicts throughout the run, so the durable image mixes
    // stages (testMachine's 64KB L2 holds these working sets whole).
    // Gauss is the sharp case: band digests match while multipliers
    // that earlier stages stored in the same rows never persisted.
    sim::MachineConfig cfg = testMachine();
    cfg.l2 = {8 * 1024, 8, 11};
    for (KernelId id : {KernelId::Tmm, KernelId::Cholesky,
                        KernelId::Conv2d, KernelId::Gauss,
                        KernelId::Fft, KernelId::Spmv}) {
        const KernelParams p = smallParams(id);
        const auto total = static_cast<std::uint64_t>(
            runScheme(id, Scheme::Lp, p, cfg).stat("stores"));
        for (int slice = 1; slice < 8; ++slice) {
            const std::uint64_t point = total * slice / 8;
            const auto out = runLpWithCrash(id, p, cfg, point);
            EXPECT_TRUE(out.crashed) << kernelName(id) << " " << point;
            EXPECT_TRUE(out.verified)
                << kernelName(id) << " crash after " << point << " of "
                << total << " stores: max abs error "
                << out.maxAbsError;
        }
    }
}

TEST(CrashRecovery, CleanerShrinksRecoveryWork)
{
    // With a frequent cleaner, more regions are durable at the crash,
    // so recovery validates more and repairs/replays less.
    const KernelParams p = smallParams(KernelId::Tmm);
    const std::uint64_t total = storesInLpRun(KernelId::Tmm);

    sim::MachineConfig lazy_cfg = testMachine();
    const auto lazy = runLpWithCrash(KernelId::Tmm, p, lazy_cfg,
                                     total / 2);

    sim::MachineConfig clean_cfg = testMachine();
    clean_cfg.cleanerPeriodCycles = 2000;
    const auto cleaned = runLpWithCrash(KernelId::Tmm, p, clean_cfg,
                                        total / 2);

    EXPECT_TRUE(lazy.verified);
    EXPECT_TRUE(cleaned.verified);
    EXPECT_GE(cleaned.recovery.resumeStage,
              lazy.recovery.resumeStage);
}

/**
 * SimContext::powerFail() leaves nothing of the failed run armed or
 * queued: the crash is disarmed, the scheduler is empty, no line is
 * dirty, and the arena holds exactly what was flushed.
 */
TEST(CrashRecovery, PowerFailDisarmsAndDropsQueuedRegions)
{
    SimContext ctx(testMachine(2), 1 << 16);
    auto *x = ctx.arena.alloc<double>(64);
    ctx.arena.persistAll();
    SimEnv env(ctx.machine, ctx.arena, 0, &ctx.crash);

    env.st(&x[0], 5.0);
    ctx.machine.clwb(0, ctx.arena.addrOf(&x[0]));
    ctx.machine.sfence(0);
    env.st(&x[32], 7.0);  // another line, never flushed
    ctx.crash.armAfterStores(100);
    int ran = 0;
    for (int t = 0; t < 2; ++t)
        ctx.sched.add(t, [&ran] { ++ran; });

    ctx.powerFail();
    EXPECT_FALSE(ctx.crash.armed());
    EXPECT_EQ(ctx.sched.pending(), 0u);
    EXPECT_EQ(ctx.machine.totalDirtyLines(), 0u);
    EXPECT_DOUBLE_EQ(x[0], 5.0);
    EXPECT_DOUBLE_EQ(x[32], 0.0);

    // The disarmed budget never fires, and the dropped items never run.
    for (int i = 0; i < 200; ++i)
        env.st(&x[1], double(i));
    ctx.sched.run();
    EXPECT_EQ(ran, 0);
}

} // namespace
} // namespace lp::kernels
