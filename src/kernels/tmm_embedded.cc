#include "kernels/tmm_embedded.hh"

#include <algorithm>
#include <cmath>
#include <vector>

#include "base/logging.hh"
#include "base/rng.hh"
#include "ep/pmem_ops.hh"
#include "kernels/env.hh"
#include "pmem/crash.hh"

namespace lp::kernels
{

namespace
{

/** Everything one embedded run owns. */
struct EmbRun
{
    EmbRun(const KernelParams &params, const sim::MachineConfig &cfg)
        : p(params),
          ctx(cfg, arenaBytesFor(KernelId::Tmm, params) +
                       static_cast<std::size_t>(params.n) *
                           (params.n / params.bsize) *
                           sizeof(double))
    {
        LP_ASSERT(p.n % p.bsize == 0, "n must be a multiple of bsize");
        stages = p.n / p.bsize;
        bands = p.n / p.bsize;
        const int stride = p.n + stages;

        const std::size_t elems = static_cast<std::size_t>(p.n) * p.n;
        double *a = ctx.arena.alloc<double>(elems);
        double *b = ctx.arena.alloc<double>(elems);
        double *c = ctx.arena.alloc<double>(
            static_cast<std::size_t>(p.n) * stride);
        v = TmmEmbView{a, b, c, p.n, p.bsize, stride};

        Rng rng(p.seed);
        for (std::size_t i = 0; i < elems; ++i)
            a[i] = rng.uniform(0.0, 1.0);
        for (std::size_t i = 0; i < elems; ++i)
            b[i] = rng.uniform(0.0, 1.0);
        std::fill(c, c + static_cast<std::size_t>(p.n) * stride, 0.0);
        // Digest cells start as the NaN sentinel (Section IV).
        for (int band = 0; band < bands; ++band)
            for (int s = 0; s < stages; ++s)
                *embDigestCell(v, band, s) =
                    std::bit_cast<double>(core::invalidDigest);

        golden.assign(elems, 0.0);
        for (int i = 0; i < p.n; ++i) {
            for (int k = 0; k < p.n; ++k) {
                const double aik =
                    a[static_cast<std::size_t>(i) * p.n + k];
                for (int j = 0; j < p.n; ++j) {
                    golden[static_cast<std::size_t>(i) * p.n + j] +=
                        aik * b[static_cast<std::size_t>(k) * p.n + j];
                }
            }
        }
        ctx.arena.persistAll();
    }

    /** Queue regions for bands resuming at resume[band]. */
    void
    schedule(const std::vector<int> &resume)
    {
        for (int t = 0; t < p.threads; ++t) {
            for (int s = 0; s < stages; ++s) {
                for (int band = t; band < bands; band += p.threads) {
                    if (s < resume[band])
                        continue;
                    ctx.schedule(t, [this, band, s](SimEnv &env) {
                        tmmEmbRegionLp(env, v, s, band, p.checksum);
                    });
                }
            }
        }
    }

    /** Per-band Figure 9 recovery on the embedded digests. */
    void
    recoverAndResume(TmmEmbeddedOutcome &out)
    {
        SimEnv env = ctx.env(0);
        std::vector<int> resume(bands, 0);
        for (int band = 0; band < bands; ++band) {
            const std::uint64_t current =
                tmmEmbBandChecksum(env, v, band, p.checksum);
            int found = -1;
            for (int s = stages - 1; s >= 0; --s) {
                const std::uint64_t stored = std::bit_cast<
                    std::uint64_t>(*embDigestCell(v, band, s));
                if (stored == core::invalidDigest)
                    continue;
                if (stored == current) {
                    found = s;
                    break;
                }
            }
            if (found < 0) {
                // Zero the band eagerly; accumulation restarts.
                for (int i = band * p.bsize;
                     i < (band + 1) * p.bsize; ++i) {
                    for (int j = 0; j < p.n; ++j) {
                        env.st(&v.c[static_cast<std::size_t>(i) *
                                    v.stride + j],
                               0.0);
                    }
                    ep::flushRange(
                        env,
                        &v.c[static_cast<std::size_t>(i) * v.stride],
                        static_cast<std::size_t>(p.n) *
                            sizeof(double));
                }
                ++out.bandsRebuilt;
            } else {
                ++out.bandsMatched;
            }
            resume[band] = found + 1;
            for (int s = resume[band]; s < stages; ++s) {
                double *cell = embDigestCell(v, band, s);
                env.st(cell,
                       std::bit_cast<double>(core::invalidDigest));
                env.clflushopt(cell);
            }
        }
        env.sfence();
        schedule(resume);
        ctx.sched.run();
    }

    double
    maxAbsError() const
    {
        double worst = 0.0;
        for (int i = 0; i < p.n; ++i) {
            for (int j = 0; j < p.n; ++j) {
                worst = std::max(
                    worst,
                    std::fabs(v.c[static_cast<std::size_t>(i) *
                                  v.stride + j] -
                              golden[static_cast<std::size_t>(i) *
                                     p.n + j]));
            }
        }
        return worst;
    }

    KernelParams p;
    SimContext ctx;
    TmmEmbView v;
    int stages;
    int bands;
    std::vector<double> golden;
};

} // namespace

TmmEmbeddedOutcome
runTmmEmbedded(const KernelParams &params,
               const sim::MachineConfig &cfg,
               std::uint64_t crash_after_stores)
{
    EmbRun run(params, cfg);
    TmmEmbeddedOutcome out;
    out.embeddedBytes = static_cast<std::size_t>(params.n) *
                        run.stages * sizeof(double);

    if (crash_after_stores > 0)
        run.ctx.crash.armAfterStores(crash_after_stores);
    try {
        run.schedule(std::vector<int>(run.bands, 0));
        run.ctx.sched.run();
    } catch (const pmem::CrashException &) {
        out.crashed = true;
        run.ctx.powerFail();
        run.recoverAndResume(out);
    }

    out.execCycles =
        static_cast<double>(run.ctx.machine.execCycles());
    out.nvmmWrites = static_cast<double>(
        run.ctx.machine.machineStats().nvmmWrites.value());
    out.maxAbsError = run.maxAbsError();
    out.verified = out.maxAbsError <= 1e-6;
    return out;
}

} // namespace lp::kernels
