/**
 * @file
 * Figure 15: LP execution-time overhead (a) vs. L2 cache size and
 * (b) vs. checksum kind, on tmm.
 *
 * Paper shape: (a) overhead falls as the L2 grows (6.5% at 256KB,
 * 0.2% at 512KB, 0.1% at 1MB against a 1024-square input) because
 * the working set plus checksums stop overflowing the cache; L2 miss
 * rates fall alongside. (b) modular and parity are cheapest (~0.2%),
 * Adler-32 ~1%, the parallel modular+parity combination ~3.4% -- all
 * below Eager Persistency's 12%.
 *
 * Every run's raw cycles, NVMM writes, L2 misses and L2 accesses go
 * to a JSON report (argv[1], default fig15.json) that
 * tools/check_sim_gate.py --gate fig15 checks exactly. Exits 1 if any
 * run computes a wrong result.
 */

#include <cstdio>
#include <string>

#include "bench/common.hh"
#include "lp/checksum.hh"

using namespace lp;
using namespace lp::kernels;

namespace
{

/** Record @p out's cycles, NVMM writes and L2 traffic under "<prefix>.". */
void
record(stats::Snapshot &metrics, const std::string &prefix,
       const RunOutcome &out)
{
    bench::recordRun(metrics, prefix, out);
    metrics[prefix + ".l2_misses"] = out.stat("l2_misses");
    metrics[prefix + ".l2_accesses"] = out.stat("l2_accesses");
}

} // namespace

int
main(int argc, char **argv)
{
    bench::banner("Figure 15(a): L2 size sensitivity (tmm+LP)",
                  "Fig. 15(a) -- LP overhead falls with L2 size; so "
                  "does the L2 miss rate");

    const auto params = bench::paperParams(KernelId::Tmm);

    // The interesting regime is where the working set *marginally*
    // fits: below it everything thrashes (LP and base alike), above
    // it everything fits. Intermediate sizes use non-8-way
    // associativities so the set count stays a power of two.
    const struct
    {
        unsigned kb;
        unsigned assoc;
    } sizes[] = {{32, 8}, {40, 10}, {48, 6}, {56, 14},
                 {64, 8}, {128, 8}, {256, 8}, {512, 8}};

    stats::Snapshot metrics;
    bool verified = true;

    stats::Table table_a({"L2 size", "LP overhead", "base L2MR",
                          "LP L2MR"});
    for (const auto &sz : sizes) {
        const unsigned kb = sz.kb;
        sim::MachineConfig cfg = bench::paperMachine();
        cfg.l2 = {kb * 1024, sz.assoc, 11};
        const auto base = runScheme(KernelId::Tmm, Scheme::Base,
                                    params, cfg);
        const auto lp = runScheme(KernelId::Tmm, Scheme::Lp, params,
                                  cfg);
        const std::string point = "l2." + std::to_string(kb) + "kb";
        record(metrics, point + ".base", base);
        record(metrics, point + ".lp", lp);
        verified = verified && base.verified && lp.verified;
        table_a.addRow({std::to_string(kb) + "KB",
                        stats::Table::percent(
                            bench::ratio(lp.execCycles,
                                         base.execCycles) - 1.0),
                        stats::Table::num(
                            bench::ratio(base.stat("l2_misses"),
                                         base.stat("l2_accesses")),
                            3),
                        stats::Table::num(
                            bench::ratio(lp.stat("l2_misses"),
                                         lp.stat("l2_accesses")),
                            3)});
    }
    table_a.print();

    bench::banner("Figure 15(b): checksum-kind sensitivity (tmm+LP)",
                  "Fig. 15(b) -- parity ~0.1%, modular ~0.2%, "
                  "Adler-32 ~1%, modular||parity ~3.4%, all below "
                  "EP's 12%");

    const auto cfg = bench::paperMachine();
    const auto base = runScheme(KernelId::Tmm, Scheme::Base, params,
                                cfg);
    const auto ep = runScheme(KernelId::Tmm, Scheme::EagerRecompute,
                              params, cfg);
    record(metrics, "checksum.base", base);
    record(metrics, "checksum.ep", ep);
    verified = verified && base.verified && ep.verified;

    stats::Table table_b({"error detection", "LP overhead"});
    for (core::ChecksumKind kind :
         {core::ChecksumKind::Parity, core::ChecksumKind::Modular,
          core::ChecksumKind::Adler32,
          core::ChecksumKind::ModularParity}) {
        KernelParams p = params;
        p.checksum = kind;
        const auto lp = runScheme(KernelId::Tmm, Scheme::Lp, p, cfg);
        record(metrics, "checksum." + core::checksumKindName(kind) + ".lp",
               lp);
        verified = verified && lp.verified;
        table_b.addRow({core::checksumKindName(kind),
                        stats::Table::percent(
                            bench::ratio(lp.execCycles,
                                         base.execCycles) - 1.0)});
    }
    table_b.addRow({"(EP reference)",
                    stats::Table::percent(
                        bench::ratio(ep.execCycles,
                                     base.execCycles) - 1.0)});
    table_b.print();
    if (!verified)
        std::printf("\nA run FAILED verification.\n");
    const bool ok = bench::writeJsonReport(
        argc, argv, "fig15.json",
        bench::gateReport("fig15", verified, metrics));
    return ok && verified ? 0 : 1;
}
