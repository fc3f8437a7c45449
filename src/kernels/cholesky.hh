/**
 * @file
 * Blocked left-looking Cholesky factorization (the paper's Cholesky
 * benchmark).
 *
 * A = L * L^T with A symmetric positive definite. The left-looking
 * (lazy) variant computes one block column of L per stage from the
 * original matrix and previously finished columns; no block is ever
 * rewritten, which makes every LP region idempotent given earlier
 * stages -- repair simply recomputes the block (Section III-E's
 * idempotent special case).
 *
 * Stage jb has one region per row block i >= jb. Region 0 is the
 * diagonal block (factor); regions 1.. are the panel blocks
 * (triangular solve), which depend on the diagonal, so the schedule
 * barriers after region 0 and recovery repairs in region order
 * (lp::core::recover guarantees increasing-region repair).
 *
 * Recovery policy: ValidateAllUpTo.
 */

#ifndef LP_KERNELS_CHOLESKY_HH
#define LP_KERNELS_CHOLESKY_HH

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "ep/eager_recompute.hh"
#include "ep/pmem_ops.hh"
#include "lp/checksum.hh"
#include "lp/checksum_table.hh"
#include "lp/recovery.hh"
#include "lp/runtime.hh"
#include "kernels/workload.hh"

namespace lp::kernels
{

/** Pointers into the factorization's persistent state. */
struct CholView
{
    const double *a;  ///< immutable SPD input
    double *l;        ///< output factor (lower triangular)
    int n;
    int bsize;
};

/**
 * Compute block (row block @p rblk, column block @p jb) of L.
 *
 * If @p region is non-null, every stored value is folded into it in
 * store order. If @p eager is true the block is flushed and fenced
 * after computation (used by repair and by the EagerRecompute
 * scheme's body; the marker handling differs between the two and is
 * done by the caller).
 */
template <typename Env>
void cholBlock(Env &env, const CholView &v, int jb, int rblk,
               core::LpRegion *region, bool eager);

/** Checksum of the block's current contents, in store order. */
template <typename Env>
std::uint64_t cholBlockChecksum(Env &env, const CholView &v, int jb,
                                int rblk, core::ChecksumKind kind);

/** The simulated Cholesky workload. */
class CholeskyWorkload : public Workload
{
  public:
    CholeskyWorkload(const KernelParams &params, SimContext &ctx);

    std::string name() const override { return "cholesky"; }
    core::RecoveryResult recoverAndResume() override;
    std::size_t numRegions() const override;

    int numStages() const { return p.n / p.bsize; }

    /** Regions in stage @p jb: one per row block >= jb. */
    int
    regionsInStage(int jb) const
    {
        return numStages() - jb;
    }

  private:
    std::size_t key(int jb, int r) const;

    void runStages(Scheme scheme, int from_stage) override;

    /** Execute one region under the given scheme. */
    void runRegion(SimEnv &env, Scheme scheme, int jb, int r);

    CholView v;
    std::unique_ptr<core::ChecksumTable> table_;
    std::unique_ptr<ep::ProgressMarkers> markers;
    std::vector<std::size_t> stageKeyBase;
};

// --- template definitions -------------------------------------------

template <typename Env>
void
cholBlock(Env &env, const CholView &v, int jb, int rblk,
          core::LpRegion *region, bool eager)
{
    const int n = v.n;
    const int b = v.bsize;
    const int i0 = rblk * b;
    const int j0 = jb * b;
    const bool diag = (rblk == jb);

    // tmp = A(i-block, j-block) - L(i-block, 0:j0) * L(j-block, 0:j0)^T
    std::vector<double> tmp(static_cast<std::size_t>(b) * b, 0.0);
    for (int ci = 0; ci < b; ++ci) {
        const int i = i0 + ci;
        for (int cj = 0; cj < b; ++cj) {
            if (diag && cj > ci)
                continue;
            const int j = j0 + cj;
            double acc = env.ld(&v.a[static_cast<std::size_t>(i) * n +
                                     j]);
            for (int t = 0; t < j0; ++t) {
                acc -= env.ld(&v.l[static_cast<std::size_t>(i) * n +
                                   t]) *
                       env.ld(&v.l[static_cast<std::size_t>(j) * n +
                                   t]);
            }
            env.tick(2 * static_cast<std::uint64_t>(j0) + 4);
            tmp[static_cast<std::size_t>(ci) * b + cj] = acc;
        }
    }

    if (diag) {
        // Dense Cholesky of tmp (lower part), then store.
        for (int q = 0; q < b; ++q) {
            double d = tmp[static_cast<std::size_t>(q) * b + q];
            for (int t = 0; t < q; ++t) {
                const double x =
                    tmp[static_cast<std::size_t>(q) * b + t];
                d -= x * x;
            }
            tmp[static_cast<std::size_t>(q) * b + q] = std::sqrt(d);
            env.tick(2 * static_cast<std::uint64_t>(q) + 20);
            for (int r2 = q + 1; r2 < b; ++r2) {
                double x = tmp[static_cast<std::size_t>(r2) * b + q];
                for (int t = 0; t < q; ++t) {
                    x -= tmp[static_cast<std::size_t>(r2) * b + t] *
                         tmp[static_cast<std::size_t>(q) * b + t];
                }
                x /= tmp[static_cast<std::size_t>(q) * b + q];
                tmp[static_cast<std::size_t>(r2) * b + q] = x;
                env.tick(2 * static_cast<std::uint64_t>(q) + 8);
            }
        }
        for (int ci = 0; ci < b; ++ci) {
            for (int cj = 0; cj <= ci; ++cj) {
                const double val =
                    tmp[static_cast<std::size_t>(ci) * b + cj];
                env.st(&v.l[static_cast<std::size_t>(i0 + ci) * n +
                            j0 + cj],
                       val);
                if (region)
                    region->update(env, val);
            }
        }
    } else {
        // Triangular solve: X * L(jb,jb)^T = tmp, row by row.
        for (int ci = 0; ci < b; ++ci) {
            std::vector<double> row(b);
            for (int cj = 0; cj < b; ++cj) {
                double x = tmp[static_cast<std::size_t>(ci) * b + cj];
                for (int t = 0; t < cj; ++t) {
                    x -= row[t] *
                         env.ld(&v.l[static_cast<std::size_t>(j0 + cj) *
                                     n + j0 + t]);
                }
                x /= env.ld(&v.l[static_cast<std::size_t>(j0 + cj) * n +
                                 j0 + cj]);
                row[cj] = x;
                env.tick(2 * static_cast<std::uint64_t>(cj) + 8);
            }
            for (int cj = 0; cj < b; ++cj) {
                env.st(&v.l[static_cast<std::size_t>(i0 + ci) * n +
                            j0 + cj],
                       row[cj]);
                if (region)
                    region->update(env, row[cj]);
            }
        }
    }

    if (eager) {
        // The diagonal block stores only the lower part, but the rest
        // of each row segment is untouched (clean), so a full-width
        // flush is harmless and simpler.
        for (int ci = 0; ci < b; ++ci) {
            ep::flushRange(
                env,
                &v.l[static_cast<std::size_t>(i0 + ci) * n + j0],
                static_cast<std::size_t>(b) * sizeof(double));
        }
        env.sfence();
    }
}

template <typename Env>
std::uint64_t
cholBlockChecksum(Env &env, const CholView &v, int jb, int rblk,
                  core::ChecksumKind kind)
{
    const int n = v.n;
    const int b = v.bsize;
    const int i0 = rblk * b;
    const int j0 = jb * b;
    const bool diag = (rblk == jb);
    core::ChecksumAcc acc(kind);
    const std::uint64_t cost = core::ChecksumAcc::updateCost(kind);
    for (int ci = 0; ci < b; ++ci) {
        const int hi = diag ? ci + 1 : b;
        for (int cj = 0; cj < hi; ++cj) {
            acc.add(env.ld(&v.l[static_cast<std::size_t>(i0 + ci) * n +
                                j0 + cj]));
            env.tick(cost);
        }
    }
    return acc.value();
}

} // namespace lp::kernels

#endif // LP_KERNELS_CHOLESKY_HH
