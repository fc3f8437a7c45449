/**
 * @file
 * Figure 13: normalized write amplification (NVMM writes) of Lazy
 * Persistency vs. EagerRecompute across all five benchmarks.
 *
 * Paper shape: LP 0.1%-4.4% extra writes (avg 3%); EagerRecompute
 * 0.2%-55% (avg 20.6%); the gap is largest for store-coalescing
 * workloads and smallest for large-footprint ones (Gauss).
 *
 * Every run's raw NVMM writes and reads go to a JSON report (argv[1],
 * default fig13.json) that tools/check_sim_gate.py --gate fig13
 * checks exactly. The exit status is 1 when any run fails
 * verification.
 */

#include <cmath>
#include <cstdio>
#include <string>

#include "bench/common.hh"

using namespace lp;
using namespace lp::kernels;

namespace
{

/** Record @p out's raw counts under "<kernel>.<scheme>.". */
void
record(stats::Snapshot &metrics, KernelId id, const char *scheme,
       const RunOutcome &out)
{
    const std::string pre = kernelName(id) + "." + scheme + ".";
    metrics[pre + "nvmm_writes"] = out.nvmmWrites;
    metrics[pre + "nvmm_reads"] = out.stat("nvmm_reads");
}

} // namespace

int
main(int argc, char **argv)
{
    bench::banner("Figure 13: normalized write amplification",
                  "Fig. 13 -- LP 0.1-4.4% extra writes (avg 3%); "
                  "EP 0.2-55% (avg 20.6%)");

    const auto cfg = bench::paperMachine();
    const KernelId ids[] = {KernelId::Tmm, KernelId::Cholesky,
                            KernelId::Conv2d, KernelId::Gauss,
                            KernelId::Fft};

    stats::Table table({"benchmark", "base writes", "LP", "EP",
                        "LP overhead", "EP overhead"});
    double lp_gmean = 1.0;
    double ep_gmean = 1.0;
    int count = 0;
    stats::Snapshot metrics;
    bool verified = true;
    for (KernelId id : ids) {
        const auto params = bench::paperParams(id);
        const auto base = runScheme(id, Scheme::Base, params, cfg);
        const auto lp = runScheme(id, Scheme::Lp, params, cfg);
        const auto ep = runScheme(id, Scheme::EagerRecompute, params,
                                  cfg);
        record(metrics, id, "base", base);
        record(metrics, id, "lp", lp);
        record(metrics, id, "ep", ep);
        verified = verified && base.verified && lp.verified &&
                   ep.verified;
        const double lp_rel = bench::ratio(lp.nvmmWrites,
                                           base.nvmmWrites);
        const double ep_rel = bench::ratio(ep.nvmmWrites,
                                           base.nvmmWrites);
        lp_gmean *= lp_rel;
        ep_gmean *= ep_rel;
        ++count;
        table.addRow({kernelName(id),
                      stats::Table::num(base.nvmmWrites, 0),
                      stats::Table::ratio(lp_rel),
                      stats::Table::ratio(ep_rel),
                      stats::Table::percent(lp_rel - 1.0),
                      stats::Table::percent(ep_rel - 1.0)});
    }
    lp_gmean = std::pow(lp_gmean, 1.0 / count);
    ep_gmean = std::pow(ep_gmean, 1.0 / count);
    table.addRow({"gmean", "-", stats::Table::ratio(lp_gmean),
                  stats::Table::ratio(ep_gmean),
                  stats::Table::percent(lp_gmean - 1.0),
                  stats::Table::percent(ep_gmean - 1.0)});
    table.print();
    if (!verified)
        std::printf("\nA run FAILED verification.\n");
    const bool ok = bench::writeJsonReport(
        argc, argv, "fig13.json",
        bench::gateReport("fig13", verified, metrics));
    return ok && verified ? 0 : 1;
}
