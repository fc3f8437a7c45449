/**
 * @file
 * Iterated 2D convolution (the paper's 2D-conv benchmark, run for a
 * number of outer iterations as in Section V-C).
 *
 * Each outer iteration applies a 3x3 stencil with zero padding,
 * reading one buffer and writing the other (ping-pong). Stage 0 reads
 * an immutable persistent input, so a worst-case recovery can always
 * restart from scratch. LP regions are row bands of the output; a
 * band is idempotent given the previous buffer, which makes repair
 * trivial (Section III-E's idempotent-region special case).
 *
 * Recovery policy: NewestFullStage (see lp/recovery.hh) -- stage s+1
 * fully overwrites the buffer stage s read, so execution resumes
 * after the newest stage whose regions all persisted.
 */

#ifndef LP_KERNELS_CONV2D_HH
#define LP_KERNELS_CONV2D_HH

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

/** Pointers into the convolution's persistent state. */
struct Conv2dView
{
    const double *input;  ///< immutable stage-0 source
    const double *w;      ///< the 3x3 stencil
    double *bufA;         ///< dst of even stages
    double *bufB;         ///< dst of odd stages
    int n;
    int bsize;            ///< rows per band
};

/** Source buffer of stage @p s. */
inline const double *
conv2dSrc(const Conv2dView &v, int s)
{
    if (s == 0)
        return v.input;
    return (s - 1) % 2 == 0 ? v.bufA : v.bufB;
}

/** Destination buffer of stage @p s. */
inline double *
conv2dDst(const Conv2dView &v, int s)
{
    return s % 2 == 0 ? v.bufA : v.bufB;
}

/** Convolve one row band (rows [row0, row1)) of stage @p s. */
template <typename Env>
void
conv2dBandBase(Env &env, const Conv2dView &v, int s, int row0, int row1)
{
    const int n = v.n;
    const double *src = conv2dSrc(v, s);
    double *dst = conv2dDst(v, s);
    for (int i = row0; i < row1; ++i) {
        for (int j = 0; j < n; ++j) {
            double acc = 0.0;
            for (int di = -1; di <= 1; ++di) {
                const int si = i + di;
                if (si < 0 || si >= n)
                    continue;
                for (int dj = -1; dj <= 1; ++dj) {
                    const int sj = j + dj;
                    if (sj < 0 || sj >= n)
                        continue;
                    acc += env.ld(&src[static_cast<std::size_t>(si) *
                                       n + sj]) *
                           env.ld(&v.w[(di + 1) * 3 + (dj + 1)]);
                }
            }
            env.tick(24);
            env.st(&dst[static_cast<std::size_t>(i) * n + j], acc);
        }
    }
}

/** LP variant of one band: base body plus checksum maintenance. */
template <typename Env>
void
conv2dBandLp(Env &env, const Conv2dView &v, int s, int row0, int row1,
             core::LpRegion &region, std::size_t key,
             bool eager_commit = false)
{
    const int n = v.n;
    const double *src = conv2dSrc(v, s);
    double *dst = conv2dDst(v, s);
    region.reset(env);
    for (int i = row0; i < row1; ++i) {
        for (int j = 0; j < n; ++j) {
            double acc = 0.0;
            for (int di = -1; di <= 1; ++di) {
                const int si = i + di;
                if (si < 0 || si >= n)
                    continue;
                for (int dj = -1; dj <= 1; ++dj) {
                    const int sj = j + dj;
                    if (sj < 0 || sj >= n)
                        continue;
                    acc += env.ld(&src[static_cast<std::size_t>(si) *
                                       n + sj]) *
                           env.ld(&v.w[(di + 1) * 3 + (dj + 1)]);
                }
            }
            env.tick(24);
            env.st(&dst[static_cast<std::size_t>(i) * n + j], acc);
            region.update(env, acc);
        }
    }
    if (eager_commit)
        region.commitEager(env, key);
    else
        region.commit(env, key);
}

/** Checksum of a band's current contents (region traversal order). */
template <typename Env>
std::uint64_t
conv2dBandChecksum(Env &env, const Conv2dView &v, int s, int row0,
                   int row1, core::ChecksumKind kind)
{
    const double *dst = conv2dDst(v, s);
    core::ChecksumAcc acc(kind);
    const std::uint64_t cost = core::ChecksumAcc::updateCost(kind);
    for (int i = row0; i < row1; ++i) {
        for (int j = 0; j < v.n; ++j) {
            acc.add(env.ld(&dst[static_cast<std::size_t>(i) * v.n + j]));
            env.tick(cost);
        }
    }
    return acc.value();
}

/** The simulated iterated-convolution workload. */
class Conv2dWorkload : public Workload
{
  public:
    Conv2dWorkload(const KernelParams &params, SimContext &ctx);

    std::string name() const override { return "2d-conv"; }
    core::RecoveryResult recoverAndResume() override;
    std::size_t numRegions() const override;

    int numBands() const { return p.n / p.bsize; }
    int numStages() const { return p.iterations; }

  private:
    std::size_t
    key(int stage, int band) const
    {
        return static_cast<std::size_t>(stage) * numBands() + band;
    }

    /** Queue each stage's regions and run them to a barrier. */
    void runStages(Scheme scheme, int from_stage) override;

    Conv2dView v;
    std::unique_ptr<core::ChecksumTable> table_;
    std::unique_ptr<ep::ProgressMarkers> markers;
};

} // namespace lp::kernels

#endif // LP_KERNELS_CONV2D_HH
