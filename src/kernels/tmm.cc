#include "kernels/tmm.hh"

#include <algorithm>

#include "base/logging.hh"
#include "base/rng.hh"
#include "kernels/env.hh"

namespace lp::kernels
{

TmmWorkload::TmmWorkload(const KernelParams &params, SimContext &c)
    : Workload(params, c)
{
    LP_ASSERT(p.n > 0 && p.bsize > 0 && p.n % p.bsize == 0,
              "n must be a multiple of bsize");

    const std::size_t elems = static_cast<std::size_t>(p.n) * p.n;
    double *a = ctx.arena.alloc<double>(elems);
    double *b = ctx.arena.alloc<double>(elems);
    double *cm = ctx.arena.alloc<double>(elems);
    v = TmmView{a, b, cm, p.n, p.bsize};

    Rng rng(p.seed);
    for (std::size_t i = 0; i < elems; ++i)
        a[i] = rng.uniform(0.0, 1.0);
    for (std::size_t i = 0; i < elems; ++i)
        b[i] = rng.uniform(0.0, 1.0);
    std::fill(cm, cm + elems, 0.0);

    // Golden result on the host (untiled i/k/j loop).
    result = {{cm, elems}};
    golden.assign(elems, 0.0);
    for (int i = 0; i < p.n; ++i) {
        for (int k = 0; k < p.n; ++k) {
            const double aik = a[static_cast<std::size_t>(i) * p.n + k];
            for (int j = 0; j < p.n; ++j) {
                golden[static_cast<std::size_t>(i) * p.n + j] +=
                    aik * b[static_cast<std::size_t>(k) * p.n + j];
            }
        }
    }

    table_ = std::make_unique<core::ChecksumTable>(
        ctx.arena,
        static_cast<std::size_t>(numBands()) * numStages() *
            p.threads);
    markers = std::make_unique<ep::ProgressMarkers>(ctx.arena,
                                                    p.threads);
    walAreas.reserve(p.threads);
    for (int t = 0; t < p.threads; ++t) {
        walAreas.push_back(std::make_unique<ep::WalArea>(
            ctx.arena,
            static_cast<std::size_t>(p.bsize) * p.n));
    }

    // The paper assumes inputs (and zeroed outputs) are already
    // persistent when the kernel starts.
    ctx.arena.persistAll();
}

std::size_t
TmmWorkload::numRegions() const
{
    return static_cast<std::size_t>(numBands()) * numStages();
}

void
TmmWorkload::scheduleLp(const std::vector<int> &resume_stage,
                        int end_stage)
{
    // kk-major order, as in Figure 8's loop nest.
    for (int t = 0; t < p.threads; ++t) {
        for (int s = 0; s < end_stage; ++s) {
            for (int band = t; band < numBands(); band += p.threads) {
                if (s < resume_stage[band])
                    continue;
                ctx.schedule(t, [this, band, s](SimEnv &env) {
                    core::LpRegion region(*table_, p.checksum);
                    tmmRegionLp(env, v, s * p.bsize, band * p.bsize,
                                region, key(band, s));
                });
            }
        }
    }
}

void
TmmWorkload::scheduleUniform(Scheme scheme, int from_stage,
                             int end_stage)
{
    for (int t = 0; t < p.threads; ++t) {
        std::uint64_t idx = 0;
        for (int s = 0; s < end_stage; ++s) {
            for (int band = t; band < numBands(); band += p.threads) {
                const std::uint64_t my_idx = idx++;
                if (s < from_stage)
                    continue;
                ctx.schedule(t, [this, t, band, s, scheme,
                                 my_idx](SimEnv &env) {
                    const int kk = s * p.bsize;
                    const int ii = band * p.bsize;
                    switch (scheme) {
                      case Scheme::Base:
                        tmmRegionBase(env, v, kk, ii);
                        break;
                      case Scheme::EagerRecompute:
                        tmmRegionEager(env, v, kk, ii, *markers, t,
                                       my_idx);
                        break;
                      case Scheme::Wal:
                        tmmRegionWal(env, v, kk, ii, *walAreas[t]);
                        break;
                      case Scheme::Lp:
                        panic("LP goes through scheduleLp");
                    }
                });
            }
        }
    }
}

void
TmmWorkload::schedule(Scheme scheme, int from_stage, int end_stage)
{
    if (scheme == Scheme::Lp) {
        scheduleLp(std::vector<int>(numBands(), from_stage), end_stage);
    } else {
        scheduleUniform(scheme, from_stage, end_stage);
    }
}

void
TmmWorkload::runStages(Scheme scheme, int from_stage)
{
    schedule(scheme, from_stage, numStages());
    ctx.sched.run();
}

void
TmmWorkload::runWindow(Scheme scheme, int warm_stages,
                       int window_stages)
{
    LP_ASSERT(warm_stages >= 0 && window_stages > 0 &&
              warm_stages + window_stages <= numStages(),
              "window exceeds the stage count");
    if (warm_stages > 0) {
        schedule(scheme, 0, warm_stages);
        ctx.sched.run();
        ctx.machine.syncAllCores();
    }
    ctx.machine.resetStats();
    schedule(scheme, warm_stages, warm_stages + window_stages);
    ctx.sched.run();
}

void
TmmWorkload::rebuildBandEager(SimEnv &env, int band, int through)
{
    const int ii = band * p.bsize;
    for (int i = ii; i < ii + p.bsize; ++i)
        for (int j = 0; j < p.n; ++j)
            env.st(&v.c[static_cast<std::size_t>(i) * p.n + j], 0.0);
    for (int s = 0; s < through; ++s)
        tmmRegionBase(env, v, s * p.bsize, ii);
    for (int i = ii; i < ii + p.bsize; ++i) {
        ep::flushRange(env, v.c + static_cast<std::size_t>(i) * p.n,
                       static_cast<std::size_t>(p.n) * sizeof(double));
    }
    env.sfence();
}

core::RecoveryResult
TmmWorkload::recoverAndResume()
{
    // Runs on the restored durable image. Per-band Figure 9: each
    // band independently finds the newest stage whose stored digest
    // matches the band's current (durable) contents.
    SimEnv env = ctx.env(0);
    core::RecoveryResult res;
    std::vector<int> resume(numBands(), 0);

    for (int band = 0; band < numBands(); ++band) {
        const std::uint64_t current =
            tmmBandChecksum(env, v, band * p.bsize, p.checksum);
        int found = -1;
        for (int s = numStages() - 1; s >= 0; --s) {
            ++res.checked;
            if (table_->neverCommitted(key(band, s)))
                continue;
            if (table_->stored(key(band, s)) == current) {
                found = s;
                break;
            }
        }
        if (found < 0) {
            // No stage matches: the band may hold partial stage-0
            // writes. Repair = zero it eagerly; accumulation restarts
            // from stage 0.
            rebuildBandEager(env, band, 0);
            ++res.repaired;
        } else {
            ++res.matched;
        }
        resume[band] = found + 1;

        // Drop stale digests of stages this band will re-execute, so
        // a second crash cannot match a pre-crash digest.
        for (int s = resume[band]; s < numStages(); ++s)
            table_->invalidate(env, key(band, s));
    }
    env.sfence();

    res.resumeStage = *std::min_element(resume.begin(), resume.end());
    scheduleLp(resume, numStages());
    ctx.sched.run();
    return res;
}

void
TmmWorkload::recoverEagerAndResume()
{
    // Marker-driven EagerRecompute recovery: everything up to and
    // including marker is durable; the marker+1 region may be
    // partially persisted and its band is rebuilt from the inputs.
    SimEnv env = ctx.env(0);
    const int owned_base = numBands() / p.threads;
    std::vector<std::uint64_t> done(p.threads, 0);
    for (int t = 0; t < p.threads; ++t) {
        int owned = owned_base + (t < numBands() % p.threads ? 1 : 0);
        const std::uint64_t total =
            static_cast<std::uint64_t>(owned) * numStages();
        const std::uint64_t m = markers->value(t);
        done[t] = (m == ep::ProgressMarkers::none) ? 0 : m + 1;
        if (done[t] >= total || owned == 0)
            continue;
        const int s = static_cast<int>(done[t] / owned);
        const int pos = static_cast<int>(done[t] % owned);
        const int band = t + pos * p.threads;
        rebuildBandEager(env, band, s);
    }
    // Resume each thread at its first unexecuted region. Schedule all
    // threads with a shared skip is incorrect when counts differ, so
    // queue per thread.
    for (int t = 0; t < p.threads; ++t) {
        std::uint64_t idx = 0;
        for (int s = 0; s < numStages(); ++s) {
            for (int band = t; band < numBands(); band += p.threads) {
                const std::uint64_t my_idx = idx++;
                if (my_idx < done[t])
                    continue;
                ctx.schedule(t, [this, t, band, s,
                                 my_idx](SimEnv &env) {
                    tmmRegionEager(env, v, s * p.bsize,
                                   band * p.bsize, *markers, t,
                                   my_idx);
                });
            }
        }
    }
    ctx.sched.run();
}

} // namespace lp::kernels
