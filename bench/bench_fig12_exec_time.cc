/**
 * @file
 * Figure 12: normalized execution time of Lazy Persistency vs.
 * EagerRecompute across all five benchmarks.
 *
 * Paper shape: LP overhead 0.1%-3.5% (avg 1.1%); EagerRecompute
 * 4.4%-17.9% (avg 9%).
 *
 * Every run's raw cycles and NVMM writes go to a JSON report
 * (argv[1], default fig12.json) that tools/check_sim_gate.py
 * --gate fig12 checks exactly. The exit status is 1 when any run
 * fails verification.
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
    metrics[pre + "exec_cycles"] = out.execCycles;
    metrics[pre + "nvmm_writes"] = out.nvmmWrites;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::banner("Figure 12: normalized execution time, all kernels",
                  "Fig. 12 -- LP 0.1-3.5% overhead (avg 1.1%); "
                  "EP 4.4-17.9% (avg 9%)");

    const auto cfg = bench::paperMachine();
    const KernelId ids[] = {KernelId::Tmm, KernelId::Cholesky,
                            KernelId::Conv2d, KernelId::Gauss,
                            KernelId::Fft};

    stats::Table table({"benchmark", "base", "LP", "EP",
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
        const double lp_rel = bench::ratio(lp.execCycles,
                                           base.execCycles);
        const double ep_rel = bench::ratio(ep.execCycles,
                                           base.execCycles);
        lp_gmean *= lp_rel;
        ep_gmean *= ep_rel;
        ++count;
        table.addRow({kernelName(id), "1.000",
                      stats::Table::ratio(lp_rel),
                      stats::Table::ratio(ep_rel),
                      stats::Table::percent(lp_rel - 1.0),
                      stats::Table::percent(ep_rel - 1.0)});
    }
    lp_gmean = std::pow(lp_gmean, 1.0 / count);
    ep_gmean = std::pow(ep_gmean, 1.0 / count);
    table.addRow({"gmean", "1.000", stats::Table::ratio(lp_gmean),
                  stats::Table::ratio(ep_gmean),
                  stats::Table::percent(lp_gmean - 1.0),
                  stats::Table::percent(ep_gmean - 1.0)});
    table.print();
    if (!verified)
        std::printf("\nA run FAILED verification.\n");
    const bool ok = bench::writeJsonReport(
        argc, argv, "fig12.json",
        bench::gateReport("fig12", verified, metrics));
    return ok && verified ? 0 : 1;
}
