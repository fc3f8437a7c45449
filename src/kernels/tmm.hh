/**
 * @file
 * Tiled matrix multiplication (Figures 3, 4, 8, 9 of the paper).
 *
 * The 6-loop tiling of Figure 4 computes c += a * b tile by tile. The
 * LP region is one ii iteration inside a kk iteration (the paper's
 * chosen granularity, Table IV): it updates a band of bsize rows of c
 * across all columns, accumulating the contribution of columns
 * [kk, kk+bsize) of a.
 *
 * Region bodies are templates over the memory environment so the same
 * code runs simulated (SimEnv) and native (NativeEnv, Table VII).
 *
 * Recovery follows Figure 9, refined per band: bands are row-disjoint,
 * so each band independently scans its checksums newest-first for the
 * stage its durable data matches, repairs (zeroes) bands with no match
 * at all, and resumes accumulation from the matched stage + 1.
 */

#ifndef LP_KERNELS_TMM_HH
#define LP_KERNELS_TMM_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "ep/eager_recompute.hh"
#include "ep/pmem_ops.hh"
#include "ep/wal.hh"
#include "lp/checksum.hh"
#include "lp/checksum_table.hh"
#include "lp/runtime.hh"
#include "kernels/workload.hh"

namespace lp::kernels
{

/** Plain pointers into the three persistent matrices. */
struct TmmView
{
    const double *a;
    const double *b;
    double *c;
    int n;
    int bsize;
};

/**
 * One base (not failure-safe) region: band @p ii at stage @p kk.
 * This is Figure 4's j/i/k nest for a fixed (kk, ii).
 */
template <typename Env>
void
tmmRegionBase(Env &env, const TmmView &v, int kk, int ii)
{
    const int n = v.n;
    const int b = v.bsize;
    for (int jj = 0; jj < n; jj += b) {
        for (int i = ii; i < ii + b; ++i) {
            for (int j = jj; j < jj + b; ++j) {
                double sum = env.ld(&v.c[i * n + j]);
                for (int k = kk; k < kk + b; ++k) {
                    sum += env.ld(&v.a[i * n + k]) *
                           env.ld(&v.b[k * n + j]);
                }
                env.tick(2 * b + 4);
                env.st(&v.c[i * n + j], sum);
            }
        }
    }
}

/**
 * One Lazy Persistency region (Figure 8): the base body plus
 * reset / update / commit of the region checksum.
 */
template <typename Env>
void
tmmRegionLp(Env &env, const TmmView &v, int kk, int ii,
            core::LpRegion &region, std::size_t key,
            bool eager_commit = false)
{
    const int n = v.n;
    const int b = v.bsize;
    region.reset(env);
    for (int jj = 0; jj < n; jj += b) {
        for (int i = ii; i < ii + b; ++i) {
            for (int j = jj; j < jj + b; ++j) {
                double sum = env.ld(&v.c[i * n + j]);
                for (int k = kk; k < kk + b; ++k) {
                    sum += env.ld(&v.a[i * n + k]) *
                           env.ld(&v.b[k * n + j]);
                }
                env.tick(2 * b + 4);
                env.st(&v.c[i * n + j], sum);
                region.update(env, sum);
            }
        }
    }
    if (eager_commit)
        region.commitEager(env, key);
    else
        region.commit(env, key);
}

/**
 * Checksum of band @p ii's *current* contents, traversed in exactly
 * the order the region body updates it (Adler-32 is order-sensitive).
 * Recovery compares this against stored digests.
 */
template <typename Env>
std::uint64_t
tmmBandChecksum(Env &env, const TmmView &v, int ii,
                core::ChecksumKind kind)
{
    const int n = v.n;
    const int b = v.bsize;
    core::ChecksumAcc acc(kind);
    const std::uint64_t cost = core::ChecksumAcc::updateCost(kind);
    for (int jj = 0; jj < n; jj += b) {
        for (int i = ii; i < ii + b; ++i) {
            for (int j = jj; j < jj + b; ++j) {
                acc.add(env.ld(&v.c[i * n + j]));
                env.tick(cost);
            }
        }
    }
    return acc.value();
}

/**
 * One EagerRecompute region: the base body, then flush every modified
 * range, fence, and persist the progress marker (two fences total).
 */
template <typename Env>
void
tmmRegionEager(Env &env, const TmmView &v, int kk, int ii,
               ep::ProgressMarkers &markers, int thread,
               std::uint64_t marker_value)
{
    tmmRegionBase(env, v, kk, ii);
    std::vector<std::pair<const void *, std::size_t>> ranges;
    ranges.reserve(v.bsize);
    for (int i = ii; i < ii + v.bsize; ++i) {
        ranges.emplace_back(v.c + static_cast<std::size_t>(i) * v.n,
                            static_cast<std::size_t>(v.n) *
                                sizeof(double));
    }
    ep::eagerCommitRegion(env, ranges, markers, thread, marker_value);
}

/**
 * One WAL region: a durable transaction (Figure 2) logging the
 * pre-image of every word the region modifies, with four fences.
 */
template <typename Env>
void
tmmRegionWal(Env &env, const TmmView &v, int kk, int ii,
             ep::WalArea &log)
{
    ep::WalTx<Env> tx(env, log, ep::WriteBack::Clflushopt);
    for (int i = ii; i < ii + v.bsize; ++i)
        for (int j = 0; j < v.n; ++j)
            tx.logWord(&v.c[i * v.n + j]);
    tx.seal();
    tmmRegionBase(env, v, kk, ii);
    tx.commit();
}

/** The simulated TMM workload (all four schemes + both recoveries). */
class TmmWorkload : public Workload
{
  public:
    TmmWorkload(const KernelParams &params, SimContext &ctx);

    std::string name() const override { return "tmm"; }

    /** Like Workload::run, but tmm also implements WAL. */
    void run(Scheme scheme) override { runStages(scheme, 0); }

    core::RecoveryResult recoverAndResume() override;
    std::size_t numRegions() const override;

    /** EagerRecompute recovery: marker-driven recompute (tests). */
    void recoverEagerAndResume();

    /**
     * Windowed execution matching the paper's methodology
     * (Section V-C): run @p warm_stages kk stages as warm-up, reset
     * the machine statistics, then run @p window_stages more. The
     * paper warms up ~250M instructions and measures two kk
     * iterations; measuring a window (instead of the whole run)
     * leaves the tail of the output dirty in the cache, which is
     * precisely why eager flushing shows up as write amplification.
     * The run stops after the window, so verify() does not apply.
     */
    void runWindow(Scheme scheme, int warm_stages, int window_stages);

    const TmmView &view() const { return v; }
    core::ChecksumTable &table() { return *table_; }
    int numBands() const { return p.n / p.bsize; }
    int numStages() const { return p.n / p.bsize; }

  private:
    /**
     * Hash-table key per the paper (Section III-D): ii, kk, and the
     * thread id, collision-free, table size (N/bsize)^2 * P. The
     * thread dimension is redundant under our band partitioning but
     * is kept for fidelity -- it reproduces the paper's "table is 1%
     * of the matrices" space overhead and its cache footprint.
     */
    std::size_t
    key(int band, int stage) const
    {
        return (static_cast<std::size_t>(band) * numStages() + stage) *
                   p.threads +
               bandThread(band);
    }

    int bandThread(int band) const { return band % p.threads; }

    /**
     * Queue LP regions: band @p band runs stages
     * [resume_stage[band], end_stage).
     */
    void scheduleLp(const std::vector<int> &resume_stage,
                    int end_stage);

    /**
     * Queue Base / EagerRecompute / WAL regions for stages
     * [from_stage, end_stage) in kk-major order.
     */
    void scheduleUniform(Scheme scheme, int from_stage,
                         int end_stage);

    /** Queue every band's stages [@p from_stage, @p end_stage). */
    void schedule(Scheme scheme, int from_stage, int end_stage);

    void runStages(Scheme scheme, int from_stage) override;

    /** Zero band @p band and re-accumulate stages [0,@p through) EP. */
    void rebuildBandEager(SimEnv &env, int band, int through);

    TmmView v;
    std::unique_ptr<core::ChecksumTable> table_;
    std::unique_ptr<ep::ProgressMarkers> markers;
    std::vector<std::unique_ptr<ep::WalArea>> walAreas;
};

} // namespace lp::kernels

#endif // LP_KERNELS_TMM_HH
