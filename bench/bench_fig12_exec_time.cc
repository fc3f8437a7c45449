/**
 * @file
 * Figures 12 and 13 from one set of runs: normalized execution time
 * (Figure 12) and normalized write amplification, i.e. NVMM writes
 * (Figure 13), of Lazy Persistency vs. EagerRecompute across all
 * five benchmarks.
 *
 * Paper shape: Figure 12, LP overhead 0.1%-3.5% (avg 1.1%),
 * EagerRecompute 4.4%-17.9% (avg 9%). Figure 13, LP 0.1%-4.4% extra
 * writes (avg 3%), EagerRecompute 0.2%-55% (avg 20.6%); the gap is
 * largest for store-coalescing workloads and smallest for
 * large-footprint ones (Gauss).
 *
 * Every run's raw cycles and NVMM writes go to a JSON report
 * (argv[1], default fig12.json) that tools/check_sim_gate.py
 * --gate fig12 checks exactly, and its NVMM writes and reads to a
 * second one (argv[2], default fig13.json) for --gate fig13. The
 * exit status is 1 when any run fails verification.
 */

#include <cmath>
#include <cstdio>
#include <string>

#include "bench/common.hh"

using namespace lp;
using namespace lp::kernels;

namespace
{

/**
 * Record @p out's raw counts under "<kernel>.<scheme>.": cycles and
 * writes for Figure 12, writes and reads for Figure 13.
 */
void
record(stats::Snapshot &fig12, stats::Snapshot &fig13, KernelId id,
       const char *scheme, const RunOutcome &out)
{
    const std::string pre = kernelName(id) + "." + scheme + ".";
    fig12[pre + "exec_cycles"] = out.execCycles;
    fig12[pre + "nvmm_writes"] = out.nvmmWrites;
    fig13[pre + "nvmm_writes"] = out.nvmmWrites;
    fig13[pre + "nvmm_reads"] = out.stat("nvmm_reads");
}

/** One figure's table (each scheme over base) and its running gmeans. */
struct Figure
{
    stats::Table table;
    double lpGmean = 1.0;
    double epGmean = 1.0;

    void
    addRow(const std::string &name, const std::string &baseCell,
           double lpRel, double epRel)
    {
        lpGmean *= lpRel;
        epGmean *= epRel;
        table.addRow({name, baseCell, stats::Table::ratio(lpRel),
                      stats::Table::ratio(epRel),
                      stats::Table::percent(lpRel - 1.0),
                      stats::Table::percent(epRel - 1.0)});
    }

    /** Close with the geometric-mean row over @p count rows. */
    void
    print(const std::string &baseCell, int count)
    {
        lpGmean = std::pow(lpGmean, 1.0 / count);
        epGmean = std::pow(epGmean, 1.0 / count);
        table.addRow({"gmean", baseCell, stats::Table::ratio(lpGmean),
                      stats::Table::ratio(epGmean),
                      stats::Table::percent(lpGmean - 1.0),
                      stats::Table::percent(epGmean - 1.0)});
        table.print();
    }
};

} // namespace

int
main(int argc, char **argv)
{
    bench::banner("Figures 12 and 13: normalized execution time and "
                  "write amplification, all kernels",
                  "Fig. 12 -- LP 0.1-3.5% overhead (avg 1.1%); "
                  "EP 4.4-17.9% (avg 9%). Fig. 13 -- LP 0.1-4.4% "
                  "extra writes (avg 3%); EP 0.2-55% (avg 20.6%)");

    const auto cfg = bench::paperMachine();
    const KernelId ids[] = {KernelId::Tmm, KernelId::Cholesky,
                            KernelId::Conv2d, KernelId::Gauss,
                            KernelId::Fft};

    Figure time{stats::Table({"benchmark", "base", "LP", "EP",
                              "LP overhead", "EP overhead"})};
    Figure writes{stats::Table({"benchmark", "base writes", "LP", "EP",
                                "LP overhead", "EP overhead"})};
    int count = 0;
    stats::Snapshot fig12, fig13;
    bool verified = true;
    for (KernelId id : ids) {
        const auto params = bench::paperParams(id);
        const auto base = runScheme(id, Scheme::Base, params, cfg);
        const auto lp = runScheme(id, Scheme::Lp, params, cfg);
        const auto ep = runScheme(id, Scheme::EagerRecompute, params,
                                  cfg);
        record(fig12, fig13, id, "base", base);
        record(fig12, fig13, id, "lp", lp);
        record(fig12, fig13, id, "ep", ep);
        verified = verified && base.verified && lp.verified &&
                   ep.verified;
        time.addRow(kernelName(id), "1.000",
                    bench::ratio(lp.execCycles, base.execCycles),
                    bench::ratio(ep.execCycles, base.execCycles));
        writes.addRow(kernelName(id),
                      stats::Table::num(base.nvmmWrites, 0),
                      bench::ratio(lp.nvmmWrites, base.nvmmWrites),
                      bench::ratio(ep.nvmmWrites, base.nvmmWrites));
        ++count;
    }
    std::printf("Figure 12: normalized execution time\n\n");
    time.print("1.000", count);
    std::printf("\nFigure 13: normalized write amplification\n\n");
    writes.print("-", count);
    if (!verified)
        std::printf("\nA run FAILED verification.\n");
    const bool ok12 = bench::writeJsonReport(
        argc, argv, "fig12.json",
        bench::gateReport("fig12", verified, fig12));
    const bool ok13 = bench::writeJsonReport(
        argc, argv, "fig13.json",
        bench::gateReport("fig13", verified, fig13), 1);
    return ok12 && ok13 && verified ? 0 : 1;
}
