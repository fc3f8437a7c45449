#include "kernels/conv2d.hh"

#include <algorithm>

#include "base/logging.hh"
#include "base/rng.hh"
#include "kernels/env.hh"

namespace lp::kernels
{

Conv2dWorkload::Conv2dWorkload(const KernelParams &params,
                               SimContext &c)
    : Workload(params, c)
{
    LP_ASSERT(p.n > 0 && p.bsize > 0 && p.n % p.bsize == 0,
              "n must be a multiple of bsize");
    LP_ASSERT(p.iterations >= 1, "need at least one iteration");

    const std::size_t elems = static_cast<std::size_t>(p.n) * p.n;
    double *input = ctx.arena.alloc<double>(elems);
    double *w = ctx.arena.alloc<double>(9);
    double *buf_a = ctx.arena.alloc<double>(elems);
    double *buf_b = ctx.arena.alloc<double>(elems);
    v = Conv2dView{input, w, buf_a, buf_b, p.n, p.bsize};

    Rng rng(p.seed);
    for (std::size_t i = 0; i < elems; ++i)
        input[i] = rng.uniform(-1.0, 1.0);
    // A mildly smoothing, non-symmetric stencil.
    const double stencil[9] = {0.05, 0.10, 0.05,
                               0.10, 0.35, 0.12,
                               0.04, 0.11, 0.08};
    std::copy(stencil, stencil + 9, w);
    std::fill(buf_a, buf_a + elems, 0.0);
    std::fill(buf_b, buf_b + elems, 0.0);

    // Golden: apply the same iterated stencil on the host.
    std::vector<double> src(input, input + elems);
    std::vector<double> dst(elems, 0.0);
    for (int s = 0; s < p.iterations; ++s) {
        for (int i = 0; i < p.n; ++i) {
            for (int j = 0; j < p.n; ++j) {
                double acc = 0.0;
                for (int di = -1; di <= 1; ++di) {
                    const int si = i + di;
                    if (si < 0 || si >= p.n)
                        continue;
                    for (int dj = -1; dj <= 1; ++dj) {
                        const int sj = j + dj;
                        if (sj < 0 || sj >= p.n)
                            continue;
                        acc += src[static_cast<std::size_t>(si) * p.n +
                                   sj] *
                               stencil[(di + 1) * 3 + (dj + 1)];
                    }
                }
                dst[static_cast<std::size_t>(i) * p.n + j] = acc;
            }
        }
        std::swap(src, dst);
    }
    golden = std::move(src);
    result = {{conv2dDst(v, p.iterations - 1), elems}};

    table_ = std::make_unique<core::ChecksumTable>(
        ctx.arena,
        static_cast<std::size_t>(numStages()) * numBands());
    markers = std::make_unique<ep::ProgressMarkers>(ctx.arena,
                                                    p.threads);
    ctx.arena.persistAll();
}

std::size_t
Conv2dWorkload::numRegions() const
{
    return static_cast<std::size_t>(numStages()) * numBands();
}

void
Conv2dWorkload::runStages(Scheme scheme, int from_stage)
{
    for (int s = from_stage; s < numStages(); ++s) {
        std::uint64_t idx = 0;
        for (int band = 0; band < numBands(); ++band) {
            const int t = band % p.threads;
            const std::uint64_t my_idx = idx++;
            ctx.schedule(t, [this, scheme, s, band, t,
                             my_idx](SimEnv &env) {
                const int row0 = band * p.bsize;
                const int row1 = row0 + p.bsize;
                if (scheme == Scheme::Lp) {
                    core::LpRegion region(*table_, p.checksum);
                    conv2dBandLp(env, v, s, row0, row1, region,
                                 key(s, band));
                    return;
                }
                conv2dBandBase(env, v, s, row0, row1);
                if (scheme != Scheme::EagerRecompute)
                    return;
                ep::flushRange(env,
                               conv2dDst(v, s) +
                                   static_cast<std::size_t>(row0) * p.n,
                               static_cast<std::size_t>(p.bsize) * p.n *
                                   sizeof(double));
                env.sfence();
                ep::commitMarker(env, *markers, t, my_idx);
            });
        }
        // Data dependence between stages: barrier.
        ctx.sched.barrier();
    }
}

core::RecoveryResult
Conv2dWorkload::recoverAndResume()
{
    SimEnv env = ctx.env(0);
    core::RecoveryCallbacks cb;
    cb.numStages = numStages();
    cb.regionsInStage = [this](int) { return numBands(); };
    cb.matches = [this, &env](int s, int band) {
        if (table_->neverCommitted(key(s, band)))
            return false;
        const int row0 = band * p.bsize;
        const std::uint64_t digest = conv2dBandChecksum(
            env, v, s, row0, row0 + p.bsize, p.checksum);
        return digest == table_->stored(key(s, band));
    };
    return recoverStages(env, cb, core::ResumePolicy::NewestFullStage,
                         [this, &env](int s, int band) {
                             table_->invalidate(env, key(s, band));
                         });
}

} // namespace lp::kernels
