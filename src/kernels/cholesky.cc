#include "kernels/cholesky.hh"

#include <algorithm>
#include <cmath>

#include "base/logging.hh"
#include "base/rng.hh"
#include "ep/eager_recompute.hh"
#include "kernels/env.hh"

namespace lp::kernels
{

CholeskyWorkload::CholeskyWorkload(const KernelParams &params,
                                   SimContext &c)
    : Workload(params, c)
{
    LP_ASSERT(p.n > 0 && p.bsize > 0 && p.n % p.bsize == 0,
              "n must be a multiple of bsize");

    const std::size_t elems = static_cast<std::size_t>(p.n) * p.n;
    double *a = ctx.arena.alloc<double>(elems);
    double *l = ctx.arena.alloc<double>(elems);
    v = CholView{a, l, p.n, p.bsize};

    // Symmetric, diagonally dominant => positive definite.
    Rng rng(p.seed);
    for (int i = 0; i < p.n; ++i) {
        for (int j = 0; j <= i; ++j) {
            const double x = rng.uniform(0.0, 1.0);
            a[static_cast<std::size_t>(i) * p.n + j] = x;
            a[static_cast<std::size_t>(j) * p.n + i] = x;
        }
        a[static_cast<std::size_t>(i) * p.n + i] += p.n;
    }
    std::fill(l, l + elems, 0.0);

    // Golden: plain host Cholesky (lower).
    result = {{l, elems}};
    golden.assign(a, a + elems);
    for (int j = 0; j < p.n; ++j) {
        double d = golden[static_cast<std::size_t>(j) * p.n + j];
        for (int t = 0; t < j; ++t) {
            const double x = golden[static_cast<std::size_t>(j) * p.n +
                                    t];
            d -= x * x;
        }
        const double diag = std::sqrt(d);
        golden[static_cast<std::size_t>(j) * p.n + j] = diag;
        for (int i = j + 1; i < p.n; ++i) {
            double x = golden[static_cast<std::size_t>(i) * p.n + j];
            for (int t = 0; t < j; ++t) {
                x -= golden[static_cast<std::size_t>(i) * p.n + t] *
                     golden[static_cast<std::size_t>(j) * p.n + t];
            }
            golden[static_cast<std::size_t>(i) * p.n + j] = x / diag;
        }
    }
    // Zero the upper triangle of the golden factor to match l.
    for (int i = 0; i < p.n; ++i)
        for (int j = i + 1; j < p.n; ++j)
            golden[static_cast<std::size_t>(i) * p.n + j] = 0.0;

    // Key layout: stage jb owns a contiguous range of
    // regionsInStage(jb) entries.
    stageKeyBase.resize(numStages() + 1);
    stageKeyBase[0] = 0;
    for (int jb = 0; jb < numStages(); ++jb)
        stageKeyBase[jb + 1] = stageKeyBase[jb] + regionsInStage(jb);
    table_ = std::make_unique<core::ChecksumTable>(
        ctx.arena, stageKeyBase[numStages()]);
    markers = std::make_unique<ep::ProgressMarkers>(ctx.arena,
                                                    p.threads);
    ctx.arena.persistAll();
}

void
CholeskyWorkload::runRegion(SimEnv &env, Scheme scheme, int jb, int r)
{
    if (scheme == Scheme::Lp) {
        core::LpRegion region(*table_, p.checksum);
        region.reset(env);
        cholBlock(env, v, jb, jb + r, &region, /*eager=*/false);
        region.commit(env, key(jb, r));
    } else if (scheme == Scheme::EagerRecompute) {
        cholBlock(env, v, jb, jb + r, nullptr, /*eager=*/true);
        // Marker value: the region's global key (monotonic per
        // thread under the round-robin assignment).
        ep::commitMarker(env, *markers, env.core(), key(jb, r));
    } else {
        cholBlock(env, v, jb, jb + r, nullptr, /*eager=*/false);
    }
}

std::size_t
CholeskyWorkload::key(int jb, int r) const
{
    return stageKeyBase[jb] + static_cast<std::size_t>(r);
}

std::size_t
CholeskyWorkload::numRegions() const
{
    return stageKeyBase[numStages()];
}

void
CholeskyWorkload::runStages(Scheme scheme, int from_stage)
{
    for (int jb = from_stage; jb < numStages(); ++jb) {
        // Region 0: the diagonal block must finish before the panel.
        ctx.schedule(jb % p.threads, [this, scheme, jb](SimEnv &env) {
            runRegion(env, scheme, jb, 0);
        });
        ctx.sched.barrier();

        for (int r = 1; r < regionsInStage(jb); ++r) {
            ctx.schedule(r % p.threads,
                         [this, scheme, jb, r](SimEnv &env) {
                             runRegion(env, scheme, jb, r);
                         });
        }
        ctx.sched.barrier();
    }
}

core::RecoveryResult
CholeskyWorkload::recoverAndResume()
{
    SimEnv env = ctx.env(0);
    core::RecoveryCallbacks cb;
    cb.numStages = numStages();
    cb.regionsInStage = [this](int jb) { return regionsInStage(jb); };
    cb.matches = [this, &env](int jb, int r) {
        if (table_->neverCommitted(key(jb, r)))
            return false;
        return cholBlockChecksum(env, v, jb, jb + r, p.checksum) ==
               table_->stored(key(jb, r));
    };
    cb.repair = [this, &env](int jb, int r) {
        core::LpRegion region(*table_, p.checksum);
        region.reset(env);
        cholBlock(env, v, jb, jb + r, &region, /*eager=*/true);
        region.commitEager(env, key(jb, r));
    };
    return recoverStages(env, cb, core::ResumePolicy::ValidateAllUpTo,
                         [this, &env](int jb, int r) {
                             table_->invalidate(env, key(jb, r));
                         });
}

} // namespace lp::kernels
