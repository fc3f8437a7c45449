/**
 * @file
 * Figure 14: sensitivity of tmm execution time (a) to NVMM read/write
 * latency for LP vs. EagerRecompute, and (b) to thread count for LP
 * vs. base.
 *
 * Paper shape: (a) EP's overhead grows with NVMM latency while LP's
 * relative overhead shrinks; (b) LP scales like base from 1 to 16
 * threads.
 *
 * Every run's raw cycles and NVMM writes go to a JSON report
 * (argv[1], default fig14.json) that tools/check_sim_gate.py
 * --gate fig14 checks exactly. Exits 1 if any run computes a wrong
 * result.
 */

#include <cstdio>
#include <string>

#include "bench/common.hh"

using namespace lp;
using namespace lp::kernels;

int
main(int argc, char **argv)
{
    bench::banner("Figure 14(a): NVMM latency sensitivity (tmm)",
                  "Fig. 14(a) -- EP overhead rises with latency; "
                  "LP overhead stays ~flat or falls");

    const auto params = bench::paperParams(KernelId::Tmm);

    struct Lat
    {
        double read;
        double write;
    };
    const Lat lats[] = {{60, 150}, {100, 200}, {150, 300}};

    stats::Snapshot metrics;
    bool verified = true;

    stats::Table table_a({"(read,write) ns", "LP overhead",
                          "EP overhead"});
    for (const Lat &l : lats) {
        sim::MachineConfig cfg = bench::paperMachine();
        cfg.nvmmReadNs = l.read;
        cfg.nvmmWriteNs = l.write;
        const auto base = runScheme(KernelId::Tmm, Scheme::Base,
                                    params, cfg);
        const auto lp = runScheme(KernelId::Tmm, Scheme::Lp, params,
                                  cfg);
        const auto ep = runScheme(KernelId::Tmm,
                                  Scheme::EagerRecompute, params,
                                  cfg);
        const std::string point =
            "latency.r" + stats::Table::num(l.read, 0) + "_w" +
            stats::Table::num(l.write, 0);
        bench::recordRun(metrics, point + ".base", base);
        bench::recordRun(metrics, point + ".lp", lp);
        bench::recordRun(metrics, point + ".ep", ep);
        verified = verified && base.verified && lp.verified &&
                   ep.verified;
        std::string lat("(");
        lat.append(stats::Table::num(l.read, 0))
            .append(",")
            .append(stats::Table::num(l.write, 0))
            .append(")");
        table_a.addRow({lat,
                        stats::Table::percent(
                            bench::ratio(lp.execCycles,
                                         base.execCycles) - 1.0),
                        stats::Table::percent(
                            bench::ratio(ep.execCycles,
                                         base.execCycles) - 1.0)});
    }
    table_a.print();

    bench::banner("Figure 14(b): thread scaling (tmm)",
                  "Fig. 14(b) -- LP scales with thread count like "
                  "base; all values normalized to base @ 1 thread");

    double base1 = 0.0;
    stats::Table table_b({"threads", "base", "LP", "LP overhead"});
    for (int threads : {1, 2, 4, 8, 16}) {
        sim::MachineConfig cfg = bench::paperMachine(threads);
        const auto p = bench::paperParams(KernelId::Tmm, threads);
        const auto base = runScheme(KernelId::Tmm, Scheme::Base, p,
                                    cfg);
        const auto lp = runScheme(KernelId::Tmm, Scheme::Lp, p, cfg);
        const std::string point = "threads." + std::to_string(threads);
        bench::recordRun(metrics, point + ".base", base);
        bench::recordRun(metrics, point + ".lp", lp);
        verified = verified && base.verified && lp.verified;
        if (threads == 1)
            base1 = base.execCycles;
        table_b.addRow({std::to_string(threads),
                        stats::Table::ratio(
                            bench::ratio(base.execCycles, base1)),
                        stats::Table::ratio(
                            bench::ratio(lp.execCycles, base1)),
                        stats::Table::percent(
                            bench::ratio(lp.execCycles,
                                         base.execCycles) - 1.0)});
    }
    table_b.print();
    if (!verified)
        std::printf("\nA run FAILED verification.\n");
    const bool ok = bench::writeJsonReport(
        argc, argv, "fig14.json",
        bench::gateReport("fig14", verified, metrics));
    return ok && verified ? 0 : 1;
}
