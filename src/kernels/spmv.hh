/**
 * @file
 * Iterated sparse matrix-vector multiply (CSR), an extension kernel
 * beyond the paper's five.
 *
 * Why it is here: the paper's kernels are dense and regular, so a
 * dense, collision-free checksum table (Figure 7(b)) fits perfectly.
 * SpMV is the canonical *irregular* loop kernel -- per-region work
 * varies with the sparsity pattern, and a program iterating over
 * many sparse operators has no convenient dense region index. It
 * therefore exercises the parts of the library the dense kernels do
 * not: the KeyedChecksumTable (open addressing, collision-safe) and
 * load balancing of uneven regions under the min-clock scheduler.
 *
 * Structure: x_{s+1} = A * x_s for a fixed number of iterations,
 * ping-ponging between two persistent vectors (stage 0 reads the
 * immutable x_0). LP regions are row bands; recovery is
 * NewestFullStage, like the other ping-pong kernels.
 */

#ifndef LP_KERNELS_SPMV_HH
#define LP_KERNELS_SPMV_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "ep/eager_recompute.hh"
#include "lp/checksum.hh"
#include "lp/keyed_table.hh"
#include "lp/recovery.hh"
#include "kernels/workload.hh"

namespace lp::kernels
{

/** Pointers into the persistent CSR operator and vectors. */
struct SpmvView
{
    const std::int32_t *rowPtr;  ///< n + 1 entries
    const std::int32_t *colIdx;  ///< nnz entries
    const double *vals;          ///< nnz entries
    const double *x0;            ///< immutable stage-0 input
    double *bufA;                ///< dst of even stages
    double *bufB;                ///< dst of odd stages
    int n;
    int bsize;                   ///< rows per band
};

inline const double *
spmvSrc(const SpmvView &v, int s)
{
    if (s == 0)
        return v.x0;
    return (s - 1) % 2 == 0 ? v.bufA : v.bufB;
}

inline double *
spmvDst(const SpmvView &v, int s)
{
    return s % 2 == 0 ? v.bufA : v.bufB;
}

/**
 * Compute rows [row0, row1) of stage @p s; fold stored values into
 * @p acc when non-null (region traversal order = ascending row).
 */
template <typename Env>
void
spmvBand(Env &env, const SpmvView &v, int s, int row0, int row1,
         core::ChecksumAcc *acc)
{
    const double *x = spmvSrc(v, s);
    double *y = spmvDst(v, s);
    for (int i = row0; i < row1; ++i) {
        const std::int32_t lo = env.ld(&v.rowPtr[i]);
        const std::int32_t hi = env.ld(&v.rowPtr[i + 1]);
        double sum = 0.0;
        for (std::int32_t e = lo; e < hi; ++e) {
            sum += env.ld(&v.vals[e]) *
                   env.ld(&x[env.ld(&v.colIdx[e])]);
        }
        env.tick(2 * static_cast<std::uint64_t>(hi - lo) + 6);
        env.st(&y[i], sum);
        if (acc) {
            acc->add(sum);
            env.tick(core::ChecksumAcc::updateCost(acc->kind()));
        }
    }
}

/** The iterated SpMV workload. */
class SpmvWorkload : public Workload
{
  public:
    SpmvWorkload(const KernelParams &params, SimContext &ctx);

    std::string name() const override { return "spmv"; }
    core::RecoveryResult recoverAndResume() override;
    std::size_t numRegions() const override;

    int numStages() const { return p.iterations; }
    int numBands() const { return p.n / p.bsize; }

    /** Region key used in the keyed table. */
    static std::uint64_t
    regionKey(int stage, int band)
    {
        return (static_cast<std::uint64_t>(stage) << 20) |
               static_cast<std::uint64_t>(band);
    }

    const core::KeyedChecksumTable &table() const { return *table_; }

  private:
    void runStages(Scheme scheme, int from_stage) override;

    /** Current digest of (stage, band) from the restored data. */
    std::uint64_t digestOf(SimEnv &env, int s, int band) const;

    SpmvView v;
    std::unique_ptr<core::KeyedChecksumTable> table_;
    std::unique_ptr<ep::ProgressMarkers> markers;
};

} // namespace lp::kernels

#endif // LP_KERNELS_SPMV_HH
