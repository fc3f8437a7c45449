/**
 * @file
 * Gaussian elimination (in-place Doolittle LU, no pivoting -- the
 * input is made diagonally dominant), the paper's Gauss benchmark.
 *
 * Stage k eliminates column k: every row i > k stores its multiplier
 * into m[i][k] and updates m[i][k+1..n). LP regions are row bands
 * within a stage, plus one tiny "pivot-final" region per stage that
 * checksums pivot row k, which became final when stage k-1 completed
 * and is never written again.
 *
 * Because the trailing matrix is updated in place, checksums of old
 * stages go stale; recovery therefore uses a per-band newest-match
 * scan (like TMM's Figure 9 refinement) for the in-flight rows, and
 * the pivot-final digests to validate (or rebuild from the immutable
 * input) each finalized row, in ascending row order so rebuilt pivot
 * rows feed later rebuilds. A band digest does not cover the
 * multipliers its rows stored in earlier stages, so recovery
 * recomputes those from the input. See recoverAndResume() for the
 * full procedure.
 */

#ifndef LP_KERNELS_GAUSS_HH
#define LP_KERNELS_GAUSS_HH

#include <algorithm>
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

/** Pointers into the elimination's persistent state. */
struct GaussView
{
    const double *a;  ///< immutable input matrix
    double *m;        ///< working matrix (becomes L\\U in place)
    int n;
    int bsize;        ///< rows per band
};

/**
 * Eliminate column @p k in rows [row0, row1) (rows <= k are skipped).
 * Stores multipliers in column k. Folds stored values into
 * @p region when non-null.
 */
template <typename Env>
void
gaussBandBody(Env &env, const GaussView &v, int k, int row0, int row1,
              core::LpRegion *region)
{
    const int n = v.n;
    for (int i = std::max(row0, k + 1); i < row1; ++i) {
        const double piv =
            env.ld(&v.m[static_cast<std::size_t>(k) * n + k]);
        const double mult =
            env.ld(&v.m[static_cast<std::size_t>(i) * n + k]) / piv;
        env.tick(6);
        env.st(&v.m[static_cast<std::size_t>(i) * n + k], mult);
        if (region)
            region->update(env, mult);
        for (int j = k + 1; j < n; ++j) {
            const double val =
                env.ld(&v.m[static_cast<std::size_t>(i) * n + j]) -
                mult *
                    env.ld(&v.m[static_cast<std::size_t>(k) * n + j]);
            env.tick(2);
            env.st(&v.m[static_cast<std::size_t>(i) * n + j], val);
            if (region)
                region->update(env, val);
        }
    }
}

/**
 * Checksum of the values the (k, band) region stored, recomputed
 * from the current matrix in the body's traversal order.
 */
template <typename Env>
std::uint64_t
gaussBandChecksum(Env &env, const GaussView &v, int k, int row0,
                  int row1, core::ChecksumKind kind)
{
    const int n = v.n;
    core::ChecksumAcc acc(kind);
    const std::uint64_t cost = core::ChecksumAcc::updateCost(kind);
    for (int i = std::max(row0, k + 1); i < row1; ++i) {
        for (int j = k; j < n; ++j) {
            acc.add(
                env.ld(&v.m[static_cast<std::size_t>(i) * n + j]));
            env.tick(cost);
        }
    }
    return acc.value();
}

/** Checksum of (full) row @p k's current contents. */
template <typename Env>
std::uint64_t
gaussRowChecksum(Env &env, const GaussView &v, int k,
                 core::ChecksumKind kind)
{
    core::ChecksumAcc acc(kind);
    const std::uint64_t cost = core::ChecksumAcc::updateCost(kind);
    for (int j = 0; j < v.n; ++j) {
        acc.add(env.ld(&v.m[static_cast<std::size_t>(k) * v.n + j]));
        env.tick(cost);
    }
    return acc.value();
}

/** The simulated Gaussian-elimination workload. */
class GaussWorkload : public Workload
{
  public:
    GaussWorkload(const KernelParams &params, SimContext &ctx);

    std::string name() const override { return "gauss"; }
    core::RecoveryResult recoverAndResume() override;
    std::size_t numRegions() const override;

    int numStages() const { return p.n - 1; }
    int numBands() const { return p.n / p.bsize; }

  private:
    /** Key of the (stage k, band) region digest. */
    std::size_t
    bandKey(int k, int band) const
    {
        return static_cast<std::size_t>(k) * numBands() + band;
    }

    /** Key of the pivot-final digest of row @p k. */
    std::size_t
    pivotKey(int k) const
    {
        return static_cast<std::size_t>(numStages()) * numBands() + k;
    }

    /** True iff band has rows to update at stage k. */
    bool
    bandActive(int k, int band) const
    {
        return (band + 1) * p.bsize - 1 > k;
    }

    void runStages(Scheme scheme, int from_stage) override;

    /**
     * Rebuild columns [0, @p cols) of row @p i from the input through
     * stage @p through-1.
     */
    void rebuildRowEager(SimEnv &env, int i, int through, int cols);

    /** Advance rows [row0,row1) in place over stages [s0, s1). */
    void advanceRowsEager(SimEnv &env, int row0, int row1, int s0,
                          int s1);

    GaussView v;
    std::unique_ptr<core::ChecksumTable> table_;
    std::unique_ptr<ep::ProgressMarkers> markers;
};

} // namespace lp::kernels

#endif // LP_KERNELS_GAUSS_HH
