/**
 * @file
 * Figure 11: extra NVMM writes vs. the period of the background cache
 * cleaner (Section VI-A's hardware support), for Lazy Persistency,
 * with the EagerRecompute write overhead as the reference line.
 *
 * Uses the paper's windowed methodology (Section V-C): extra writes
 * come from persisting data that would otherwise still sit dirty in
 * the cache when measurement ends, so frequent cleaning approaches
 * EagerRecompute's write count while long periods cost almost
 * nothing.
 *
 * Paper shape: at a tiny 0.08% flush period the LP write overhead
 * (32%) is already below EagerRecompute's (36%); by a 33% period it
 * falls under 2%.
 *
 * Every run's raw cycles and NVMM writes go to a JSON report
 * (argv[1], default fig11.json) that tools/check_sim_gate.py
 * --gate fig11 checks exactly.
 */

#include <cstdio>
#include <string>

#include "bench/common.hh"

using namespace lp;
using namespace lp::kernels;

namespace
{

/** "cleaner.0_08pct" for a period of 0.0008 of the window. */
std::string
periodKey(double fraction)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "cleaner.%.2fpct", 100.0 * fraction);
    std::string key = buf;
    key[key.find('.', 8)] = '_';
    return key;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::banner(
        "Figure 11: extra writes vs. time between periodic flushes",
        "Fig. 11 -- LP+cleaner beats EP (36% extra writes) even at a "
        "0.08% period; <2% extra at a 33% period");

    const auto cfg = bench::paperMachine();
    const auto params = bench::paperParams(KernelId::Tmm);
    const int warm = 2;
    const int window = 2;

    // References without a cleaner (same window).
    const auto base = runTmmWindow(Scheme::Base, params, cfg, warm,
                                   window);
    const auto lp = runTmmWindow(Scheme::Lp, params, cfg, warm,
                                 window);
    const auto ep = runTmmWindow(Scheme::EagerRecompute, params, cfg,
                                 warm, window);

    stats::Snapshot metrics;
    bench::recordRun(metrics, "window.base", base);
    bench::recordRun(metrics, "window.lp", lp);
    bench::recordRun(metrics, "window.ep", ep);

    const double window_cycles = lp.execCycles;
    std::printf("window writes -- base: %.0f, LP (no cleaner): %.0f "
                "(%+.1f%%), EP: %.0f (%+.1f%%)\n\n",
                base.nvmmWrites, lp.nvmmWrites,
                100.0 * (bench::ratio(lp.nvmmWrites,
                                      base.nvmmWrites) - 1.0),
                ep.nvmmWrites,
                100.0 * (bench::ratio(ep.nvmmWrites,
                                      base.nvmmWrites) - 1.0));

    const double fractions[] = {0.0008, 0.004, 0.02, 0.08, 0.33};

    stats::Table table({"period (% of window)", "period (cycles)",
                        "extra writes vs base"});
    for (double f : fractions) {
        sim::MachineConfig c = cfg;
        c.cleanerPeriodCycles =
            static_cast<Cycles>(window_cycles * f) + 1;
        const auto out = runTmmWindow(Scheme::Lp, params, c, warm,
                                      window);
        bench::recordRun(metrics, periodKey(f), out);
        metrics[periodKey(f) + ".period_cycles"] =
            double(c.cleanerPeriodCycles);
        table.addRow({stats::Table::percent(f, 2),
                      std::to_string(c.cleanerPeriodCycles),
                      stats::Table::percent(
                          bench::ratio(out.nvmmWrites,
                                       base.nvmmWrites) - 1.0)});
    }
    table.addRow({"EP reference", "-",
                  stats::Table::percent(
                      bench::ratio(ep.nvmmWrites, base.nvmmWrites) -
                      1.0)});
    table.print();
    // Windowed runs stop mid-kernel, so there is no result to verify.
    return bench::writeJsonReport(argc, argv, "fig11.json",
                                  bench::gateReport("fig11", true,
                                                    metrics))
               ? 0
               : 1;
}
