/**
 * @file
 * Kernel correctness tests: every kernel x scheme must reproduce the
 * golden host result; the FFT is additionally checked against a naive
 * DFT; write/flush behaviour must match the scheme's contract.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <vector>

#include "base/rng.hh"
#include "kernels/fft.hh"
#include "kernels/harness.hh"
#include "kernels/workload.hh"

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
      case KernelId::Gauss:
        p.n = 32;
        p.bsize = 8;
        break;
      default:
        p.n = 32;
        p.bsize = 8;
        break;
    }
    return p;
}

struct Case
{
    KernelId kernel;
    Scheme scheme;
};

std::string
caseName(const ::testing::TestParamInfo<Case> &info)
{
    std::string n = kernelName(info.param.kernel) + "_" +
                    schemeName(info.param.scheme);
    for (auto &ch : n)
        if (ch == '-' || ch == '+')
            ch = '_';
    return n;
}

class KernelScheme : public ::testing::TestWithParam<Case>
{
};

TEST_P(KernelScheme, ProducesGoldenResult)
{
    const Case c = GetParam();
    const auto out = runScheme(c.kernel, c.scheme,
                               smallParams(c.kernel), testMachine());
    EXPECT_TRUE(out.verified)
        << "max abs error " << out.maxAbsError;
}

INSTANTIATE_TEST_SUITE_P(
    AllKernels, KernelScheme,
    ::testing::Values(
        Case{KernelId::Tmm, Scheme::Base},
        Case{KernelId::Tmm, Scheme::Lp},
        Case{KernelId::Tmm, Scheme::EagerRecompute},
        Case{KernelId::Tmm, Scheme::Wal},
        Case{KernelId::Cholesky, Scheme::Base},
        Case{KernelId::Cholesky, Scheme::Lp},
        Case{KernelId::Cholesky, Scheme::EagerRecompute},
        Case{KernelId::Conv2d, Scheme::Base},
        Case{KernelId::Conv2d, Scheme::Lp},
        Case{KernelId::Conv2d, Scheme::EagerRecompute},
        Case{KernelId::Gauss, Scheme::Base},
        Case{KernelId::Gauss, Scheme::Lp},
        Case{KernelId::Gauss, Scheme::EagerRecompute},
        Case{KernelId::Fft, Scheme::Base},
        Case{KernelId::Fft, Scheme::Lp},
        Case{KernelId::Fft, Scheme::EagerRecompute}),
    caseName);

/** All LP variants also verify under every checksum kind. */
class KernelChecksumKind
    : public ::testing::TestWithParam<
          std::tuple<KernelId, core::ChecksumKind>>
{
};

TEST_P(KernelChecksumKind, LpVerifiesUnderEveryChecksum)
{
    auto [kernel, kind] = GetParam();
    KernelParams p = smallParams(kernel);
    p.checksum = kind;
    const auto out = runScheme(kernel, Scheme::Lp, p, testMachine());
    EXPECT_TRUE(out.verified);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, KernelChecksumKind,
    ::testing::Combine(
        ::testing::Values(KernelId::Tmm, KernelId::Cholesky,
                          KernelId::Conv2d, KernelId::Gauss,
                          KernelId::Fft),
        ::testing::Values(core::ChecksumKind::Parity,
                          core::ChecksumKind::Modular,
                          core::ChecksumKind::Adler32,
                          core::ChecksumKind::ModularParity)));

TEST(KernelBehaviour, LpAddsNoFlushesOrFences)
{
    const auto out = runScheme(KernelId::Tmm, Scheme::Lp,
                               smallParams(KernelId::Tmm),
                               testMachine());
    EXPECT_EQ(out.stat("flush_instrs"), 0.0);
    EXPECT_EQ(out.stat("fences"), 0.0);
}

TEST(KernelBehaviour, EagerRecomputeFlushesAndFences)
{
    const auto out = runScheme(KernelId::Tmm, Scheme::EagerRecompute,
                               smallParams(KernelId::Tmm),
                               testMachine());
    EXPECT_GT(out.stat("flush_instrs"), 0.0);
    EXPECT_GT(out.stat("fences"), 0.0);
}

TEST(KernelBehaviour, WalIsSlowerAndWriteHeavierThanEager)
{
    const auto p = smallParams(KernelId::Tmm);
    const auto cfg = testMachine();
    const auto ep = runScheme(KernelId::Tmm, Scheme::EagerRecompute,
                              p, cfg);
    const auto wal = runScheme(KernelId::Tmm, Scheme::Wal, p, cfg);
    EXPECT_GT(wal.execCycles, ep.execCycles);
    EXPECT_GT(wal.nvmmWrites, ep.nvmmWrites);
}

TEST(KernelBehaviour, LpIsCheaperThanEagerRecompute)
{
    const auto p = smallParams(KernelId::Tmm);
    const auto cfg = testMachine();
    const auto lp = runScheme(KernelId::Tmm, Scheme::Lp, p, cfg);
    const auto ep = runScheme(KernelId::Tmm, Scheme::EagerRecompute,
                              p, cfg);
    EXPECT_LT(lp.execCycles, ep.execCycles);
    EXPECT_LT(lp.nvmmWrites, ep.nvmmWrites);
}

TEST(KernelBehaviour, SingleThreadMatchesMultiThreadResult)
{
    KernelParams p1 = smallParams(KernelId::Tmm);
    p1.threads = 1;
    const auto single = runScheme(KernelId::Tmm, Scheme::Lp, p1,
                                  testMachine());
    EXPECT_TRUE(single.verified);

    KernelParams p4 = smallParams(KernelId::Tmm);
    p4.threads = 4;
    const auto multi = runScheme(KernelId::Tmm, Scheme::Lp, p4,
                                 testMachine());
    EXPECT_TRUE(multi.verified);
    // More threads must not run longer (regions are independent).
    EXPECT_LE(multi.execCycles, single.execCycles);
}

TEST(Fft, MatchesNaiveDftOnSmallInput)
{
    const int n = 32;
    Rng rng(3);
    std::vector<double> re(n), im(n);
    for (int i = 0; i < n; ++i) {
        re[i] = rng.uniform(-1, 1);
        im[i] = rng.uniform(-1, 1);
    }
    std::vector<double> out_re, out_im;
    fftGolden(re, im, out_re, out_im);

    for (int k = 0; k < n; ++k) {
        std::complex<double> acc(0, 0);
        for (int j = 0; j < n; ++j) {
            const double ang = -2.0 * M_PI * k * j / n;
            acc += std::complex<double>(re[j], im[j]) *
                   std::complex<double>(std::cos(ang), std::sin(ang));
        }
        EXPECT_NEAR(out_re[k], acc.real(), 1e-9) << "k=" << k;
        EXPECT_NEAR(out_im[k], acc.imag(), 1e-9) << "k=" << k;
    }
}

TEST(Fft, LinearityProperty)
{
    const int n = 64;
    Rng rng(5);
    std::vector<double> x_re(n), x_im(n), y_re(n), y_im(n);
    std::vector<double> s_re(n), s_im(n);
    for (int i = 0; i < n; ++i) {
        x_re[i] = rng.uniform(-1, 1);
        x_im[i] = rng.uniform(-1, 1);
        y_re[i] = rng.uniform(-1, 1);
        y_im[i] = rng.uniform(-1, 1);
        s_re[i] = x_re[i] + y_re[i];
        s_im[i] = x_im[i] + y_im[i];
    }
    std::vector<double> fx_re, fx_im, fy_re, fy_im, fs_re, fs_im;
    fftGolden(x_re, x_im, fx_re, fx_im);
    fftGolden(y_re, y_im, fy_re, fy_im);
    fftGolden(s_re, s_im, fs_re, fs_im);
    for (int i = 0; i < n; ++i) {
        EXPECT_NEAR(fs_re[i], fx_re[i] + fy_re[i], 1e-9);
        EXPECT_NEAR(fs_im[i], fx_im[i] + fy_im[i], 1e-9);
    }
}

TEST(Fft, ImpulseGivesFlatSpectrum)
{
    const int n = 16;
    std::vector<double> re(n, 0.0), im(n, 0.0);
    re[0] = 1.0;
    std::vector<double> out_re, out_im;
    fftGolden(re, im, out_re, out_im);
    for (int k = 0; k < n; ++k) {
        EXPECT_NEAR(out_re[k], 1.0, 1e-12);
        EXPECT_NEAR(out_im[k], 0.0, 1e-12);
    }
}

TEST(Kernels, RegionCountsAreConsistent)
{
    for (KernelId id : {KernelId::Tmm, KernelId::Cholesky,
                        KernelId::Conv2d, KernelId::Gauss,
                        KernelId::Fft}) {
        const KernelParams p = smallParams(id);
        SimContext ctx(testMachine(), arenaBytesFor(id, p));
        auto w = makeWorkload(id, p, ctx);
        EXPECT_GT(w->numRegions(), 0u) << w->name();
    }
}

TEST(Kernels, FreshWorkloadIsUnverified)
{
    // Before running, outputs are zero and must not match golden.
    const KernelParams p = smallParams(KernelId::Tmm);
    SimContext ctx(testMachine(), arenaBytesFor(KernelId::Tmm, p));
    auto w = makeWorkload(KernelId::Tmm, p, ctx);
    EXPECT_FALSE(w->verify());
}

TEST(KernelDeathTest, WalIsOnlyForTmm)
{
    for (KernelId id : {KernelId::Cholesky, KernelId::Conv2d,
                        KernelId::Gauss, KernelId::Fft,
                        KernelId::Spmv}) {
        EXPECT_EXIT(runScheme(id, Scheme::Wal, smallParams(id),
                              testMachine()),
                    ::testing::ExitedWithCode(1),
                    "WAL is only implemented for tmm \\(Table IV\\)")
            << kernelName(id);
    }
}

} // namespace
} // namespace lp::kernels
