/**
 * @file
 * Table VI: structural-hazard proxies (MSHR, FUI, FUR, FUW) and L2
 * miss rate for base / EagerRecompute / LP on tmm, plus the
 * volatility-duration comparison from the Section VI text
 * (EP maxvdur ~= 20% of base, LP ~= 101%).
 *
 * Our in-order model cannot count issue-stage stall events exactly as
 * gem5's OoO core does; DESIGN.md section 5 defines the proxies.
 * What must reproduce is the ordering: EP suffers orders of magnitude
 * more hazards than base, LP is within noise of base.
 *
 * The raw counters behind both tables go to a JSON report (argv[1],
 * default table6.json) that tools/check_sim_gate.py --gate table6
 * checks exactly.
 */

#include <algorithm>
#include <cstdio>
#include <string>

#include "bench/common.hh"

using namespace lp;
using namespace lp::kernels;

int
main(int argc, char **argv)
{
    bench::banner("Table VI: pipeline hazards and L2 miss rate (tmm)",
                  "Table VI -- EP: MSHR 1.84x, FUI 21.57x, FUR 22.4x, "
                  "FUW 31109, L2MR 0.05; LP: 0.95x/1.11x/1.2x/2/0.02");

    const auto cfg = bench::paperMachine();
    const auto params = bench::paperParams(KernelId::Tmm);

    struct Row
    {
        const char *name;
        const char *key;  ///< metric-name prefix in the JSON report
        Scheme scheme;
    };
    const Row rows[] = {
        {"base (tmm)", "base", Scheme::Base},
        {"tmm+EP", "ep", Scheme::EagerRecompute},
        {"tmm+LP", "lp", Scheme::Lp},
    };

    // Windowed measurement as in the paper (warm up, then measure
    // two kk iterations); vdur in particular depends on it.
    RunOutcome outs[3];
    for (int i = 0; i < 3; ++i)
        outs[i] = runTmmWindow(rows[i].scheme, params, cfg, 2, 2);
    const RunOutcome &base = outs[0];

    auto norm = [](double v, double b) {
        return stats::Table::ratio(bench::ratio(v, std::max(b, 1.0)),
                                   2);
    };

    stats::Table table({"scheme", "MSHR", "FUI", "FUR", "FUW(raw)",
                        "L2MR"});
    for (int i = 0; i < 3; ++i) {
        const RunOutcome &o = outs[i];
        const double mshr = o.stat("mshr_full_events");
        const double fui = o.stat("fui_slots_lost") +
                           o.stat("compute_ops");
        const double fur = o.stat("load_port_conflicts");
        const double fuw = o.stat("lsq_full_events");
        const double l2mr = bench::ratio(o.stat("l2_misses"),
                                         o.stat("l2_accesses"));
        const double base_fui = base.stat("fui_slots_lost") +
                                base.stat("compute_ops");
        table.addRow({rows[i].name,
                      norm(mshr, base.stat("mshr_full_events")),
                      norm(fui, base_fui),
                      norm(fur, base.stat("load_port_conflicts")),
                      stats::Table::num(fuw, 0),
                      stats::Table::num(l2mr, 3)});
    }
    table.print();

    std::printf("\nVolatility duration (Section VI text: EP maxvdur "
                "~20%% of base, LP ~101%%):\n\n");
    stats::Table vtable({"scheme", "max vdur (cycles)",
                         "vs base", "avg vdur"});
    for (int i = 0; i < 3; ++i) {
        const RunOutcome &o = outs[i];
        vtable.addRow({rows[i].name,
                       stats::Table::num(o.stat("max_vdur"), 0),
                       stats::Table::percent(
                           bench::ratio(o.stat("max_vdur"),
                                        base.stat("max_vdur"))),
                       stats::Table::num(o.stat("avg_vdur"), 0)});
    }
    vtable.print();

    stats::Snapshot metrics;
    bool verified = true;
    for (int i = 0; i < 3; ++i) {
        const std::string pre = std::string(rows[i].key) + ".";
        for (const char *name :
             {"exec_cycles", "mshr_full_events", "fui_slots_lost",
              "compute_ops", "load_port_conflicts", "lsq_full_events",
              "l2_misses", "l2_accesses", "max_vdur", "avg_vdur"})
            metrics[pre + name] = outs[i].stat(name);
        verified = verified && outs[i].verified;
    }
    const bool ok = bench::writeJsonReport(
        argc, argv, "table6.json",
        bench::gateReport("table6", verified, metrics));
    return ok && verified ? 0 : 1;
}
