#include "kernels/workload.hh"

#include <algorithm>
#include <cmath>

#include "base/logging.hh"
#include "kernels/cholesky.hh"
#include "kernels/conv2d.hh"
#include "kernels/fft.hh"
#include "kernels/gauss.hh"
#include "kernels/spmv.hh"
#include "kernels/tmm.hh"

namespace lp::kernels
{

std::string
schemeName(Scheme s)
{
    switch (s) {
      case Scheme::Base:           return "base";
      case Scheme::Lp:             return "LP";
      case Scheme::EagerRecompute: return "EP";
      case Scheme::Wal:            return "WAL";
    }
    return "unknown";
}

std::string
kernelName(KernelId k)
{
    switch (k) {
      case KernelId::Tmm:      return "tmm";
      case KernelId::Cholesky: return "cholesky";
      case KernelId::Conv2d:   return "2d-conv";
      case KernelId::Gauss:    return "gauss";
      case KernelId::Fft:      return "fft";
      case KernelId::Spmv:     return "spmv";
    }
    return "unknown";
}

Workload::Workload(const KernelParams &params, SimContext &c)
    : p(params), ctx(c)
{
    LP_ASSERT(p.threads >= 1 &&
              p.threads <= ctx.machine.config().numCores,
              "more threads than cores");
}

void
Workload::run(Scheme scheme)
{
    if (scheme == Scheme::Wal)
        fatal("WAL is only implemented for tmm (Table IV)");
    runStages(scheme, 0);
}

double
Workload::maxAbsError() const
{
    double worst = 0.0;
    std::size_t g = 0;
    for (std::span<const double> part : result)
        for (double x : part)
            worst = std::max(worst, std::fabs(x - golden[g++]));
    return worst;
}

core::RecoveryResult
Workload::recoverStages(SimEnv &env, const core::RecoveryCallbacks &cb,
                        core::ResumePolicy policy,
                        const std::function<void(int, int)> &invalidate)
{
    const core::RecoveryResult res = core::recover(cb, policy);
    for (int s = res.resumeStage; s < cb.numStages; ++s)
        for (int r = 0; r < cb.regionsInStage(s); ++r)
            invalidate(s, r);
    env.sfence();
    runStages(Scheme::Lp, res.resumeStage);
    return res;
}

std::unique_ptr<Workload>
makeWorkload(KernelId id, const KernelParams &params, SimContext &ctx)
{
    switch (id) {
      case KernelId::Tmm:
        return std::make_unique<TmmWorkload>(params, ctx);
      case KernelId::Cholesky:
        return std::make_unique<CholeskyWorkload>(params, ctx);
      case KernelId::Conv2d:
        return std::make_unique<Conv2dWorkload>(params, ctx);
      case KernelId::Gauss:
        return std::make_unique<GaussWorkload>(params, ctx);
      case KernelId::Fft:
        return std::make_unique<FftWorkload>(params, ctx);
      case KernelId::Spmv:
        return std::make_unique<SpmvWorkload>(params, ctx);
    }
    panic("unknown kernel id");
}

std::size_t
arenaBytesFor(KernelId id, const KernelParams &params)
{
    const std::size_t n = static_cast<std::size_t>(params.n);
    std::size_t data = 0;
    switch (id) {
      case KernelId::Tmm:
      case KernelId::Cholesky:
      case KernelId::Gauss:
        data = 2 * n * n * sizeof(double);
        break;
      case KernelId::Conv2d:
        data = 3 * n * n * sizeof(double);
        break;
      case KernelId::Fft:
        data = 6 * n * sizeof(double);
        break;
      case KernelId::Spmv:
        // CSR arrays (~14 nnz/row) + three vectors + keyed table.
        data = n * 14 * (sizeof(double) + 4) + 8 * n * sizeof(double);
        break;
    }
    if (id == KernelId::Tmm)
        data += n * n * sizeof(double);  // the third matrix
    // Checksum tables, markers, WAL logs, per-allocation block
    // padding: a generous fixed + proportional reserve.
    return data + data / 2 + (1u << 20);
}

} // namespace lp::kernels
