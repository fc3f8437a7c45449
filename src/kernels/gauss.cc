#include "kernels/gauss.hh"

#include <algorithm>

#include "base/logging.hh"
#include "base/rng.hh"
#include "kernels/env.hh"

namespace lp::kernels
{

GaussWorkload::GaussWorkload(const KernelParams &params, SimContext &c)
    : Workload(params, c)
{
    LP_ASSERT(p.n >= 2 && p.bsize > 0 && p.n % p.bsize == 0,
              "n must be a multiple of bsize");

    const std::size_t elems = static_cast<std::size_t>(p.n) * p.n;
    double *a = ctx.arena.alloc<double>(elems);
    double *m = ctx.arena.alloc<double>(elems);
    v = GaussView{a, m, p.n, p.bsize};

    // Diagonally dominant so elimination needs no pivoting.
    Rng rng(p.seed);
    for (int i = 0; i < p.n; ++i) {
        for (int j = 0; j < p.n; ++j) {
            a[static_cast<std::size_t>(i) * p.n + j] =
                rng.uniform(-1.0, 1.0);
        }
        a[static_cast<std::size_t>(i) * p.n + i] += p.n;
    }
    std::copy(a, a + elems, m);

    // Golden: the same in-place elimination on the host.
    result = {{m, elems}};
    golden.assign(a, a + elems);
    for (int k = 0; k < p.n - 1; ++k) {
        const double piv = golden[static_cast<std::size_t>(k) * p.n +
                                  k];
        for (int i = k + 1; i < p.n; ++i) {
            const double mult =
                golden[static_cast<std::size_t>(i) * p.n + k] / piv;
            golden[static_cast<std::size_t>(i) * p.n + k] = mult;
            for (int j = k + 1; j < p.n; ++j) {
                golden[static_cast<std::size_t>(i) * p.n + j] -=
                    mult *
                    golden[static_cast<std::size_t>(k) * p.n + j];
            }
        }
    }

    table_ = std::make_unique<core::ChecksumTable>(
        ctx.arena,
        static_cast<std::size_t>(numStages()) * numBands() +
            numStages());
    markers = std::make_unique<ep::ProgressMarkers>(ctx.arena,
                                                    p.threads);
    ctx.arena.persistAll();
}

std::size_t
GaussWorkload::numRegions() const
{
    std::size_t n_regions = numStages();  // pivot-final regions
    for (int k = 0; k < numStages(); ++k)
        for (int band = 0; band < numBands(); ++band)
            if (bandActive(k, band))
                ++n_regions;
    return n_regions;
}

void
GaussWorkload::runStages(Scheme scheme, int from_stage)
{
    for (int k = from_stage; k < numStages(); ++k) {
        // Pivot-final region: checksum the now-final row k.
        if (scheme == Scheme::Lp) {
            ctx.schedule(k % p.threads, [this, k](SimEnv &env) {
                core::LpRegion region(*table_, p.checksum);
                region.reset(env);
                for (int j = 0; j < p.n; ++j) {
                    region.update(
                        env,
                        env.ld(&v.m[static_cast<std::size_t>(k) *
                                    p.n + j]));
                }
                region.commit(env, pivotKey(k));
            });
        }
        for (int band = 0; band < numBands(); ++band) {
            if (!bandActive(k, band))
                continue;
            const int t = band % p.threads;
            ctx.schedule(t, [this, scheme, k, band, t](SimEnv &env) {
                const int row0 = band * p.bsize;
                const int row1 = row0 + p.bsize;
                if (scheme == Scheme::Lp) {
                    core::LpRegion region(*table_, p.checksum);
                    region.reset(env);
                    gaussBandBody(env, v, k, row0, row1, &region);
                    region.commit(env, bandKey(k, band));
                    return;
                }
                gaussBandBody(env, v, k, row0, row1, nullptr);
                if (scheme != Scheme::EagerRecompute)
                    return;
                for (int i = std::max(row0, k + 1); i < row1; ++i) {
                    ep::flushRange(
                        env, &v.m[static_cast<std::size_t>(i) * p.n + k],
                        static_cast<std::size_t>(p.n - k) *
                            sizeof(double));
                }
                env.sfence();
                ep::commitMarker(env, *markers, t, bandKey(k, band));
            });
        }
        ctx.sched.barrier();
    }
}

void
GaussWorkload::rebuildRowEager(SimEnv &env, int i, int through,
                               int cols)
{
    // Replay columns [0, cols) of row i from the immutable input
    // through stage min(through, i) - 1, reading pivot rows from the
    // (already validated or rebuilt) working matrix.
    const int n = p.n;
    std::vector<double> row(cols);
    for (int j = 0; j < cols; ++j)
        row[j] = env.ld(&v.a[static_cast<std::size_t>(i) * n + j]);
    const int last = std::min(through, i);
    for (int s = 0; s < last; ++s) {
        const double piv =
            env.ld(&v.m[static_cast<std::size_t>(s) * n + s]);
        const double mult = row[s] / piv;
        row[s] = mult;
        env.tick(6);
        for (int j = s + 1; j < cols; ++j) {
            row[j] -= mult *
                      env.ld(&v.m[static_cast<std::size_t>(s) * n +
                                  j]);
            env.tick(2);
        }
    }
    for (int j = 0; j < cols; ++j)
        env.st(&v.m[static_cast<std::size_t>(i) * n + j], row[j]);
    ep::flushRange(env, &v.m[static_cast<std::size_t>(i) * n],
                   static_cast<std::size_t>(cols) * sizeof(double));
    env.sfence();
}

void
GaussWorkload::advanceRowsEager(SimEnv &env, int row0, int row1,
                                int s0, int s1)
{
    for (int s = s0; s < s1; ++s)
        gaussBandBody(env, v, s, row0, row1, nullptr);
    for (int i = row0; i < row1; ++i) {
        ep::flushRange(env, &v.m[static_cast<std::size_t>(i) * p.n],
                       static_cast<std::size_t>(p.n) * sizeof(double));
    }
    env.sfence();
}

core::RecoveryResult
GaussWorkload::recoverAndResume()
{
    SimEnv env = ctx.env(0);
    core::RecoveryResult res;
    const int B = numBands();
    const int S = numStages();

    // 1. Per-band newest-match scan over the in-place band digests.
    std::vector<int> found(B, -1);
    for (int band = 0; band < B; ++band) {
        const int row0 = band * p.bsize;
        const int row1 = row0 + p.bsize;
        for (int k = S - 1; k >= 0; --k) {
            if (!bandActive(k, band))
                continue;
            ++res.checked;
            if (table_->neverCommitted(bandKey(k, band)))
                continue;
            if (gaussBandChecksum(env, v, k, row0, row1, p.checksum) ==
                table_->stored(bandKey(k, band))) {
                found[band] = k;
                break;
            }
        }
    }
    int resume = 0;
    for (int band = 0; band < B; ++band)
        resume = std::max(resume, found[band] + 1);
    res.resumeStage = resume;

    // 2a. Validate or rebuild finalized pivot rows, ascending, so a
    // rebuilt row feeds the rebuilds of later rows.
    for (int k = 0; k < resume; ++k) {
        ++res.checked;
        const bool ok =
            !table_->neverCommitted(pivotKey(k)) &&
            gaussRowChecksum(env, v, k, p.checksum) ==
                table_->stored(pivotKey(k));
        if (ok) {
            ++res.matched;
            continue;
        }
        rebuildRowEager(env, k, k, p.n);
        core::LpRegion region(*table_, p.checksum);
        region.reset(env);
        for (int j = 0; j < p.n; ++j) {
            region.update(env,
                          env.ld(&v.m[static_cast<std::size_t>(k) *
                                      p.n + j]));
        }
        region.commitEager(env, pivotKey(k));
        ++res.repaired;
    }

    // 2b. Bring every band's non-finalized rows (index >= resume) to
    // the post-(resume-1) state. A band digest of stage k >= 0 only
    // covers columns k.. of its rows; their multipliers in columns
    // [0, k) were stored by earlier stages and may not have
    // persisted, so they are recomputed from the input and the
    // finalized pivot rows. A band with no match is rebuilt whole.
    for (int band = 0; band < B; ++band) {
        const int lo = std::max(band * p.bsize, resume);
        const int hi = (band + 1) * p.bsize;
        if (lo >= hi)
            continue;
        const int k = found[band];
        if (k < 0) {
            for (int i = lo; i < hi; ++i)
                rebuildRowEager(env, i, resume, p.n);
            ++res.repaired;
            continue;
        }
        for (int i = lo; i < hi; ++i)
            rebuildRowEager(env, i, k, k);
        if (k == resume - 1) {
            ++res.matched;
        } else {
            advanceRowsEager(env, lo, hi, k + 1, resume);
            ++res.repaired;
        }
    }

    // 2c. Drop digests that are stale or about to be re-created.
    for (int band = 0; band < B; ++band) {
        for (int k = found[band] + 1; k < S; ++k) {
            if (bandActive(k, band))
                table_->invalidate(env, bandKey(k, band));
        }
    }
    for (int k = resume; k < S; ++k)
        table_->invalidate(env, pivotKey(k));
    env.sfence();

    // 3. Resume normal (lazy) execution.
    runStages(Scheme::Lp, resume);
    return res;
}

} // namespace lp::kernels
