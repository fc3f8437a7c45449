#include "kernels/spmv.hh"

#include <algorithm>

#include "base/logging.hh"
#include "base/rng.hh"
#include "ep/pmem_ops.hh"
#include "kernels/env.hh"

namespace lp::kernels
{

SpmvWorkload::SpmvWorkload(const KernelParams &params, SimContext &c)
    : Workload(params, c)
{
    LP_ASSERT(p.n > 0 && p.bsize > 0 && p.n % p.bsize == 0,
              "n must be a multiple of bsize");
    LP_ASSERT(p.iterations >= 1, "need at least one iteration");

    // Build a CSR operator with an irregular pattern: row i has
    // 1 + (i % 13) off-diagonal entries at pseudo-random columns,
    // plus a dominant diagonal so iterates stay bounded.
    Rng rng(p.seed);
    std::vector<std::int32_t> row_ptr(p.n + 1, 0);
    std::vector<std::int32_t> col_idx;
    std::vector<double> vals;
    for (int i = 0; i < p.n; ++i) {
        const int off = 1 + (i % 13);
        col_idx.push_back(i);
        vals.push_back(0.5);
        for (int e = 0; e < off; ++e) {
            col_idx.push_back(
                static_cast<std::int32_t>(rng.below(p.n)));
            vals.push_back(rng.uniform(-0.4, 0.4) /
                           static_cast<double>(off));
        }
        row_ptr[i + 1] =
            static_cast<std::int32_t>(col_idx.size());
    }
    const std::size_t nnz = col_idx.size();

    auto *rp = ctx.arena.alloc<std::int32_t>(p.n + 1);
    auto *ci = ctx.arena.alloc<std::int32_t>(nnz);
    auto *va = ctx.arena.alloc<double>(nnz);
    auto *x0 = ctx.arena.alloc<double>(p.n);
    auto *ba = ctx.arena.alloc<double>(p.n);
    auto *bb = ctx.arena.alloc<double>(p.n);
    std::copy(row_ptr.begin(), row_ptr.end(), rp);
    std::copy(col_idx.begin(), col_idx.end(), ci);
    std::copy(vals.begin(), vals.end(), va);
    for (int i = 0; i < p.n; ++i)
        x0[i] = rng.uniform(-1.0, 1.0);
    std::fill(ba, ba + p.n, 0.0);
    std::fill(bb, bb + p.n, 0.0);
    v = SpmvView{rp, ci, va, x0, ba, bb, p.n, p.bsize};

    // Golden: the same iteration on the host.
    std::vector<double> x(x0, x0 + p.n);
    std::vector<double> y(p.n, 0.0);
    for (int s = 0; s < p.iterations; ++s) {
        for (int i = 0; i < p.n; ++i) {
            double sum = 0.0;
            for (std::int32_t e = row_ptr[i]; e < row_ptr[i + 1];
                 ++e) {
                sum += vals[e] * x[col_idx[e]];
            }
            y[i] = sum;
        }
        std::swap(x, y);
    }
    golden = std::move(x);
    result = {{spmvDst(v, p.iterations - 1), std::size_t(p.n)}};

    // The keyed table sized for ~50% load factor.
    table_ = std::make_unique<core::KeyedChecksumTable>(
        ctx.arena,
        static_cast<std::size_t>(numStages()) * numBands() * 2);
    markers = std::make_unique<ep::ProgressMarkers>(ctx.arena,
                                                    p.threads);
    ctx.arena.persistAll();
}

std::size_t
SpmvWorkload::numRegions() const
{
    return static_cast<std::size_t>(numStages()) * numBands();
}

void
SpmvWorkload::runStages(Scheme scheme, int from_stage)
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
                    core::ChecksumAcc acc(p.checksum);
                    spmvBand(env, v, s, row0, row1, &acc);
                    // Claim a slot and commit key + digest lazily
                    // through the environment.
                    const std::uint64_t key = regionKey(s, band);
                    const std::size_t slot = table_->claimSlot(key);
                    env.st(table_->keyPtr(slot), key);
                    env.st(table_->digestPtr(slot), acc.value());
                    env.onRegionCommit();
                    return;
                }
                spmvBand(env, v, s, row0, row1, nullptr);
                if (scheme != Scheme::EagerRecompute)
                    return;
                ep::flushRange(env, spmvDst(v, s) + row0,
                               static_cast<std::size_t>(p.bsize) *
                                   sizeof(double));
                env.sfence();
                ep::commitMarker(env, *markers, t, my_idx);
            });
        }
        ctx.sched.barrier();
    }
}

std::uint64_t
SpmvWorkload::digestOf(SimEnv &env, int s, int band) const
{
    const double *y = spmvDst(v, s);
    core::ChecksumAcc acc(p.checksum);
    const std::uint64_t cost =
        core::ChecksumAcc::updateCost(p.checksum);
    for (int i = band * p.bsize; i < (band + 1) * p.bsize; ++i) {
        acc.add(env.ld(&y[i]));
        env.tick(cost);
    }
    return acc.value();
}

core::RecoveryResult
SpmvWorkload::recoverAndResume()
{
    SimEnv env = ctx.env(0);
    core::RecoveryCallbacks cb;
    cb.numStages = numStages();
    cb.regionsInStage = [this](int) { return numBands(); };
    cb.matches = [this, &env](int s, int band) {
        // A torn slot (key persisted without its digest, or vice
        // versa) fails this check and the stage is recomputed.
        return table_->matches(regionKey(s, band),
                               digestOf(env, s, band));
    };
    return recoverStages(env, cb, core::ResumePolicy::NewestFullStage,
                         [this, &env](int s, int band) {
                             table_->invalidate(env, regionKey(s, band));
                         });
}

} // namespace lp::kernels
