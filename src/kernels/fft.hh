/**
 * @file
 * Iterative Stockham radix-2 FFT (the paper's FFT benchmark).
 *
 * Stockham's autosort formulation is naturally out-of-place: stage k
 * reads one buffer and writes the other, with no bit-reversal pass.
 * That ping-pong structure is exactly what staged Lazy Persistency
 * recovery wants: stage k+1 fully overwrites the buffer stage k read,
 * so recovery resumes after the newest stage whose regions all
 * persisted (NewestFullStage), and stage 0 reads an immutable
 * persistent input so even a total loss restarts cleanly.
 *
 * Complex data is stored as separate re/im arrays (SoA). LP regions
 * are contiguous chunks of the per-stage butterfly index space.
 */

#ifndef LP_KERNELS_FFT_HH
#define LP_KERNELS_FFT_HH

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "lp/checksum.hh"
#include "lp/checksum_table.hh"
#include "lp/recovery.hh"
#include "lp/runtime.hh"
#include "kernels/workload.hh"

namespace lp::kernels
{

/** Pointers into the FFT's persistent state. */
struct FftView
{
    const double *inRe;  ///< immutable input (stage-0 source)
    const double *inIm;
    double *aRe;         ///< dst of even stages
    double *aIm;
    double *bRe;         ///< dst of odd stages
    double *bIm;
    int n;               ///< length, a power of two
};

/** Source re/im of stage @p k. */
inline const double *
fftSrcRe(const FftView &v, int k)
{
    if (k == 0)
        return v.inRe;
    return (k - 1) % 2 == 0 ? v.aRe : v.bRe;
}

inline const double *
fftSrcIm(const FftView &v, int k)
{
    if (k == 0)
        return v.inIm;
    return (k - 1) % 2 == 0 ? v.aIm : v.bIm;
}

inline double *
fftDstRe(const FftView &v, int k)
{
    return k % 2 == 0 ? v.aRe : v.bRe;
}

inline double *
fftDstIm(const FftView &v, int k)
{
    return k % 2 == 0 ? v.aIm : v.bIm;
}

/**
 * Execute butterflies [u0, u1) of stage @p k; if @p region is
 * non-null, fold every stored value into it.
 *
 * Stage k treats the data as n_k = n>>k interleaved transforms of
 * stride s_k = 1<<k: butterfly u = p*s_k + q combines src[q + s_k*p]
 * and src[q + s_k*(p + m_k)] into dst[q + s_k*2p] (sum) and
 * dst[q + s_k*(2p+1)] (twiddled difference), m_k = n_k / 2.
 */
template <typename Env>
void
fftChunk(Env &env, const FftView &v, int k, std::int64_t u0,
         std::int64_t u1, core::LpRegion *region)
{
    const double *sre = fftSrcRe(v, k);
    const double *sim = fftSrcIm(v, k);
    double *dre = fftDstRe(v, k);
    double *dim = fftDstIm(v, k);

    const std::int64_t sk = std::int64_t{1} << k;
    const std::int64_t mk = (static_cast<std::int64_t>(v.n) >> k) / 2;
    const double theta = -2.0 * M_PI /
                         static_cast<double>(v.n >> k);

    double wre = 1.0;
    double wim = 0.0;
    std::int64_t wp = -1;
    for (std::int64_t u = u0; u < u1; ++u) {
        const std::int64_t p = u >> k;
        const std::int64_t q = u & (sk - 1);
        if (p != wp) {
            wre = std::cos(theta * static_cast<double>(p));
            wim = std::sin(theta * static_cast<double>(p));
            wp = p;
            env.tick(40);
        }
        const double are = env.ld(&sre[q + sk * p]);
        const double aim = env.ld(&sim[q + sk * p]);
        const double bre = env.ld(&sre[q + sk * (p + mk)]);
        const double bim = env.ld(&sim[q + sk * (p + mk)]);

        const double sum_re = are + bre;
        const double sum_im = aim + bim;
        const double dif_re = are - bre;
        const double dif_im = aim - bim;
        const double tw_re = dif_re * wre - dif_im * wim;
        const double tw_im = dif_re * wim + dif_im * wre;
        env.tick(14);

        env.st(&dre[q + sk * 2 * p], sum_re);
        env.st(&dim[q + sk * 2 * p], sum_im);
        env.st(&dre[q + sk * (2 * p + 1)], tw_re);
        env.st(&dim[q + sk * (2 * p + 1)], tw_im);
        if (region) {
            region->update(env, sum_re);
            region->update(env, sum_im);
            region->update(env, tw_re);
            region->update(env, tw_im);
        }
    }
}

/** Checksum of chunk [u0, u1)'s current outputs for stage @p k. */
template <typename Env>
std::uint64_t
fftChunkChecksum(Env &env, const FftView &v, int k, std::int64_t u0,
                 std::int64_t u1, core::ChecksumKind kind)
{
    const double *dre = fftDstRe(v, k);
    const double *dim = fftDstIm(v, k);
    const std::int64_t sk = std::int64_t{1} << k;
    core::ChecksumAcc acc(kind);
    const std::uint64_t cost = core::ChecksumAcc::updateCost(kind);
    for (std::int64_t u = u0; u < u1; ++u) {
        const std::int64_t p = u >> k;
        const std::int64_t q = u & (sk - 1);
        acc.add(env.ld(&dre[q + sk * 2 * p]));
        acc.add(env.ld(&dim[q + sk * 2 * p]));
        acc.add(env.ld(&dre[q + sk * (2 * p + 1)]));
        acc.add(env.ld(&dim[q + sk * (2 * p + 1)]));
        env.tick(4 * cost);
    }
    return acc.value();
}

/** Host reference: the same Stockham FFT on plain arrays. */
void fftGolden(const std::vector<double> &in_re,
               const std::vector<double> &in_im,
               std::vector<double> &out_re,
               std::vector<double> &out_im);

/** The simulated FFT workload. */
class FftWorkload : public Workload
{
  public:
    FftWorkload(const KernelParams &params, SimContext &ctx);

    std::string name() const override { return "fft"; }
    core::RecoveryResult recoverAndResume() override;
    std::size_t numRegions() const override;

    int numStages() const { return stages; }

  private:
    std::size_t
    key(int stage, int r) const
    {
        return static_cast<std::size_t>(stage) * regions + r;
    }

    /** Butterfly range [u0, u1) of region @p r. */
    void chunkBounds(int r, std::int64_t &u0, std::int64_t &u1) const;

    void runStages(Scheme scheme, int from_stage) override;

    FftView v;
    int stages;
    int regions;
    std::unique_ptr<core::ChecksumTable> table_;
};

} // namespace lp::kernels

#endif // LP_KERNELS_FFT_HH
