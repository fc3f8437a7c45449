/**
 * @file
 * Figure 10 (and its inline table): normalized execution time and
 * number of NVMM writes for tiled matrix multiplication under base,
 * Lazy Persistency, EagerRecompute, and write-ahead logging.
 *
 * Methodology follows Section V-C: warm up, then measure a window of
 * two kk iterations. Windowed measurement matters for the write
 * counts -- the lazy schemes leave the window's tail dirty in the
 * cache (uncounted), while eager flushing pays for every line -- and
 * is exactly how the paper obtains EagerRecompute's 1.36x writes.
 *
 * Paper values: base 1.00/1.00, tmm+LP 1.002/1.003, tmm+EP 1.12/1.36,
 * tmm+WAL 5.97/3.83.
 *
 * A full-run (non-windowed) comparison with end-to-end verification
 * is printed as a second table. Every run's raw cycles, writes and
 * reads go to a JSON report (argv[1], default fig10.json) that
 * tools/check_sim_gate.py --gate fig10 checks exactly.
 */

#include <cstdio>
#include <string>

#include "bench/common.hh"

using namespace lp;
using namespace lp::kernels;

namespace
{

struct Row
{
    const char *name;
    const char *key;  ///< metric-name prefix in the JSON report
    Scheme scheme;
    double paper_time;
    double paper_writes;
};

const Row rows[] = {
    {"base (tmm)", "base", Scheme::Base, 1.00, 1.00},
    {"tmm+LP", "lp", Scheme::Lp, 1.002, 1.003},
    {"tmm+EP", "ep", Scheme::EagerRecompute, 1.12, 1.36},
    {"tmm+WAL", "wal", Scheme::Wal, 5.97, 3.83},
};

/** Record @p out's raw counts under "<phase>.<row key>.". */
void
record(stats::Snapshot &metrics, const char *phase, const Row &row,
       const RunOutcome &out)
{
    const std::string pre = std::string(phase) + "." + row.key + ".";
    metrics[pre + "exec_cycles"] = out.execCycles;
    metrics[pre + "nvmm_writes"] = out.nvmmWrites;
    metrics[pre + "nvmm_reads"] = out.stat("nvmm_reads");
}

} // namespace

int
main(int argc, char **argv)
{
    bench::banner("Figure 10: execution time and NVMM writes (tmm)",
                  "Fig. 10 -- base 1.00/1.00, LP 1.002/1.003, "
                  "EP 1.12/1.36, WAL 5.97/3.83");

    const auto cfg = bench::paperMachine();
    const auto params = bench::paperParams(KernelId::Tmm);

    std::printf("windowed measurement (warm-up 2 kk stages, "
                "measure 2 kk stages), as in Section V-C:\n\n");
    stats::Snapshot metrics;
    bool verified = true;
    RunOutcome base;
    stats::Table table({"scheme", "exec time", "num writes",
                        "paper exec", "paper writes"});
    for (const Row &row : rows) {
        const auto out = runTmmWindow(row.scheme, params, cfg, 2, 2);
        record(metrics, "window", row, out);
        if (row.scheme == Scheme::Base)
            base = out;
        table.addRow({row.name,
                      stats::Table::ratio(
                          bench::ratio(out.execCycles,
                                       base.execCycles)),
                      stats::Table::ratio(
                          bench::ratio(out.nvmmWrites,
                                       base.nvmmWrites)),
                      stats::Table::ratio(row.paper_time, 2),
                      stats::Table::ratio(row.paper_writes, 2)});
    }
    table.print();

    std::printf("\nfull-run measurement with end-to-end result "
                "verification:\n\n");
    RunOutcome fbase;
    stats::Table ftable({"scheme", "exec time", "num writes",
                         "verified"});
    for (const Row &row : rows) {
        const auto out = runScheme(KernelId::Tmm, row.scheme, params,
                                   cfg);
        record(metrics, "full", row, out);
        verified = verified && out.verified;
        if (row.scheme == Scheme::Base)
            fbase = out;
        ftable.addRow({row.name,
                       stats::Table::ratio(
                           bench::ratio(out.execCycles,
                                        fbase.execCycles)),
                       stats::Table::ratio(
                           bench::ratio(out.nvmmWrites,
                                        fbase.nvmmWrites)),
                       out.verified ? "yes" : "NO"});
    }
    ftable.print();

    std::printf("\nworkload: %dx%d tmm, tile %d, %d threads; "
                "L2 %u KB; NVMM %g/%g ns\n",
                params.n, params.n, params.bsize, params.threads,
                cfg.l2.sizeBytes / 1024, cfg.nvmmReadNs,
                cfg.nvmmWriteNs);
    const bool ok = bench::writeJsonReport(
        argc, argv, "fig10.json",
        bench::gateReport("fig10", verified, metrics));
    return ok && verified ? 0 : 1;
}
