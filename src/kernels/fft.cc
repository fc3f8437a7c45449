#include "kernels/fft.hh"

#include <algorithm>
#include <cmath>

#include "base/intmath.hh"
#include "base/logging.hh"
#include "base/rng.hh"
#include "ep/eager_recompute.hh"
#include "ep/pmem_ops.hh"
#include "kernels/env.hh"

namespace lp::kernels
{

void
fftGolden(const std::vector<double> &in_re,
          const std::vector<double> &in_im,
          std::vector<double> &out_re, std::vector<double> &out_im)
{
    const int n = static_cast<int>(in_re.size());
    LP_ASSERT(isPowerOf2(static_cast<std::uint64_t>(n)),
              "FFT length must be a power of two");
    const int t = static_cast<int>(floorLog2(n));

    std::vector<double> a_re(n), a_im(n), b_re(n), b_im(n);
    const double *sre = in_re.data();
    const double *sim = in_im.data();
    for (int k = 0; k < t; ++k) {
        double *dre = (k % 2 == 0) ? a_re.data() : b_re.data();
        double *dim = (k % 2 == 0) ? a_im.data() : b_im.data();
        const std::int64_t sk = std::int64_t{1} << k;
        const std::int64_t mk = (std::int64_t{n} >> k) / 2;
        const double theta = -2.0 * M_PI / static_cast<double>(n >> k);
        for (std::int64_t p = 0; p < mk; ++p) {
            const double wre = std::cos(theta * static_cast<double>(p));
            const double wim = std::sin(theta * static_cast<double>(p));
            for (std::int64_t q = 0; q < sk; ++q) {
                const double are = sre[q + sk * p];
                const double aim = sim[q + sk * p];
                const double bre = sre[q + sk * (p + mk)];
                const double bim = sim[q + sk * (p + mk)];
                dre[q + sk * 2 * p] = are + bre;
                dim[q + sk * 2 * p] = aim + bim;
                const double dr = are - bre;
                const double di = aim - bim;
                dre[q + sk * (2 * p + 1)] = dr * wre - di * wim;
                dim[q + sk * (2 * p + 1)] = dr * wim + di * wre;
            }
        }
        sre = dre;
        sim = dim;
    }
    out_re.assign(sre, sre + n);
    out_im.assign(sim, sim + n);
}

FftWorkload::FftWorkload(const KernelParams &params, SimContext &c)
    : Workload(params, c)
{
    LP_ASSERT(p.n >= 2 &&
              isPowerOf2(static_cast<std::uint64_t>(p.n)),
              "FFT length must be a power of two >= 2");
    stages = static_cast<int>(floorLog2(p.n));
    regions = static_cast<int>(
        std::min<std::int64_t>(p.threads * 2, std::int64_t{p.n} / 2));

    double *in_re = ctx.arena.alloc<double>(p.n);
    double *in_im = ctx.arena.alloc<double>(p.n);
    double *a_re = ctx.arena.alloc<double>(p.n);
    double *a_im = ctx.arena.alloc<double>(p.n);
    double *b_re = ctx.arena.alloc<double>(p.n);
    double *b_im = ctx.arena.alloc<double>(p.n);
    v = FftView{in_re, in_im, a_re, a_im, b_re, b_im, p.n};

    Rng rng(p.seed);
    for (int i = 0; i < p.n; ++i) {
        in_re[i] = rng.uniform(-1.0, 1.0);
        in_im[i] = rng.uniform(-1.0, 1.0);
    }
    std::fill(a_re, a_re + p.n, 0.0);
    std::fill(a_im, a_im + p.n, 0.0);
    std::fill(b_re, b_re + p.n, 0.0);
    std::fill(b_im, b_im + p.n, 0.0);

    // Golden: the real parts, then the imaginary parts.
    std::vector<double> golden_im;
    fftGolden(std::vector<double>(in_re, in_re + p.n),
              std::vector<double>(in_im, in_im + p.n), golden,
              golden_im);
    golden.insert(golden.end(), golden_im.begin(), golden_im.end());
    result = {{fftDstRe(v, stages - 1), std::size_t(p.n)},
              {fftDstIm(v, stages - 1), std::size_t(p.n)}};

    table_ = std::make_unique<core::ChecksumTable>(
        ctx.arena, static_cast<std::size_t>(stages) * regions);
    ctx.arena.persistAll();
}

std::size_t
FftWorkload::numRegions() const
{
    return static_cast<std::size_t>(stages) * regions;
}

void
FftWorkload::chunkBounds(int r, std::int64_t &u0,
                         std::int64_t &u1) const
{
    const std::int64_t half = std::int64_t{p.n} / 2;
    u0 = half * r / regions;
    u1 = half * (r + 1) / regions;
}

void
FftWorkload::runStages(Scheme scheme, int from_stage)
{
    for (int k = from_stage; k < stages; ++k) {
        for (int r = 0; r < regions; ++r) {
            ctx.schedule(r % p.threads, [this, scheme, k,
                                         r](SimEnv &env) {
                std::int64_t u0;
                std::int64_t u1;
                chunkBounds(r, u0, u1);
                if (scheme == Scheme::Lp) {
                    core::LpRegion region(*table_, p.checksum);
                    region.reset(env);
                    fftChunk(env, v, k, u0, u1, &region);
                    region.commit(env, key(k, r));
                    return;
                }
                fftChunk(env, v, k, u0, u1, nullptr);
                if (scheme != Scheme::EagerRecompute)
                    return;
                // A stride-group-aligned u-range [p0*sk, p1*sk)
                // writes exactly the contiguous index range
                // [2*p0*sk, 2*p1*sk); chunk bounds may split a group,
                // so round outward -- a few redundant clean-line
                // flushes, never a missed dirty one.
                const std::int64_t sk = std::int64_t{1} << k;
                const std::int64_t lo = (u0 / sk) * sk;
                const std::int64_t hi = ((u1 + sk - 1) / sk) * sk;
                const std::size_t bytes =
                    static_cast<std::size_t>(hi - lo) * 2 *
                    sizeof(double);
                ep::flushRange(env, fftDstRe(v, k) + 2 * lo, bytes);
                ep::flushRange(env, fftDstIm(v, k) + 2 * lo, bytes);
                env.sfence();
                env.onRegionCommit();
            });
        }
        ctx.sched.barrier();
    }
}

core::RecoveryResult
FftWorkload::recoverAndResume()
{
    SimEnv env = ctx.env(0);
    core::RecoveryCallbacks cb;
    cb.numStages = stages;
    cb.regionsInStage = [this](int) { return regions; };
    cb.matches = [this, &env](int k, int r) {
        if (table_->neverCommitted(key(k, r)))
            return false;
        std::int64_t u0;
        std::int64_t u1;
        chunkBounds(r, u0, u1);
        return fftChunkChecksum(env, v, k, u0, u1, p.checksum) ==
               table_->stored(key(k, r));
    };
    return recoverStages(env, cb, core::ResumePolicy::NewestFullStage,
                         [this, &env](int k, int r) {
                             table_->invalidate(env, key(k, r));
                         });
}

} // namespace lp::kernels
