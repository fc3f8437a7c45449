/**
 * @file
 * Recovery-cost ablations (Sections III-C, III-E.1, VI-A):
 *
 *  1. Recovery + resume cost after a mid-run crash as a function of
 *     the cleaner period -- the paper's argument that periodic
 *     flushing bounds recovery work.
 *  2. Region-granularity tradeoff: smaller LP regions cost more
 *     checksum overhead in normal execution but lose less work on a
 *     crash (Section III-C's granularity discussion).
 *  3. Every other kernel's LP recovery: each of Cholesky, 2D-conv,
 *     Gauss, FFT and SpMV (the last at n=4096) crashes at half its
 *     LP stores, recovers and resumes.
 *
 * The tmm rows' raw counts go to a JSON report (argv[1], default
 * recovery_time.json) that tools/check_sim_gate.py --gate
 * recovery_time checks exactly; part 3's go to a second report
 * (argv[2], default kernel_recovery.json) for --gate
 * kernel_recovery. The exit status is 1 when any run fails
 * verification.
 */

#include <cstdio>
#include <string>

#include "bench/common.hh"

using namespace lp;
using namespace lp::kernels;

namespace
{

/** Record @p out's recovery counts under "<pre>.". */
void
record(stats::Snapshot &metrics, const std::string &pre,
       const CrashOutcome &out)
{
    metrics[pre + ".resume_stage"] = out.recovery.resumeStage;
    metrics[pre + ".regions_matched"] = double(out.recovery.matched);
    metrics[pre + ".regions_repaired"] = double(out.recovery.repaired);
    metrics[pre + ".recovery_cycles"] = out.recoveryCycles;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::banner("Recovery-time ablations (tmm+LP)",
                  "Sections III-C / III-E.1 / VI-A -- periodic "
                  "flushing bounds recovery; granularity trades "
                  "normal-execution overhead against lost work");

    KernelParams params = bench::paperParams(KernelId::Tmm);
    params.n = 128;  // keep the many-crash sweep quick

    // Part 1 uses an L2 large enough to hold the whole working set:
    // with no natural evictions, the periodic cleaner is the *only*
    // route to durability, which isolates its effect on recovery
    // (Section III-E.1's "recovery time may be unbounded for a large
    // cache" motivation).
    sim::MachineConfig cfg = bench::paperMachine();
    cfg.l2 = {1024 * 1024, 8, 11};

    // Total stores in a full run, to place the crash mid-run.
    const auto full = runScheme(KernelId::Tmm, Scheme::Lp, params,
                                cfg);
    const auto total =
        static_cast<std::uint64_t>(full.stat("stores"));
    stats::Snapshot metrics;
    metrics["full.stores"] = double(total);
    bool verified = full.verified;

    std::printf("1) Crash at 50%% of the store stream; recovery + "
                "resume cost vs. cleaner period (1MB L2: nothing "
                "evicts naturally)\n\n");
    stats::Table t1({"cleaner period (cycles)", "resume stage (min)",
                     "regions matched", "repaired",
                     "recovery+resume Mcycles", "verified"});
    const Cycles periods[] = {0, 2000000, 500000, 100000, 20000};
    for (Cycles period : periods) {
        sim::MachineConfig c = cfg;
        c.cleanerPeriodCycles = period;
        const auto out = runLpWithCrash(KernelId::Tmm, params, c,
                                        total / 2);
        const std::string name =
            period == 0 ? "off" : std::to_string(period);
        record(metrics, "period_" + name, out);
        verified = verified && out.verified;
        t1.addRow({name, std::to_string(out.recovery.resumeStage),
                   std::to_string(out.recovery.matched),
                   std::to_string(out.recovery.repaired),
                   stats::Table::num(out.recoveryCycles / 1e6, 2),
                   out.verified ? "yes" : "NO"});
    }
    t1.print();

    std::printf("\n2) Region granularity (tile size): normal-run "
                "overhead vs. post-crash recovery cost\n\n");
    const sim::MachineConfig gcfg = bench::paperMachine();
    stats::Table t2({"bsize", "regions", "LP overhead",
                     "recovery+resume Mcycles", "verified"});
    for (int bs : {8, 16, 32}) {
        KernelParams p = bench::paperParams(KernelId::Tmm);
        p.bsize = bs;
        const auto base = runScheme(KernelId::Tmm, Scheme::Base, p,
                                    gcfg);
        const auto lp = runScheme(KernelId::Tmm, Scheme::Lp, p, gcfg);
        const auto stores =
            static_cast<std::uint64_t>(lp.stat("stores"));
        const auto crash = runLpWithCrash(KernelId::Tmm, p, gcfg,
                                          stores / 2);
        const std::string pre = "bsize_" + std::to_string(bs);
        metrics[pre + ".base.exec_cycles"] = base.execCycles;
        metrics[pre + ".lp.exec_cycles"] = lp.execCycles;
        record(metrics, pre, crash);
        verified = verified && base.verified && lp.verified &&
                   crash.verified;
        const int bands = p.n / bs;
        t2.addRow({std::to_string(bs),
                   std::to_string(bands * bands),
                   stats::Table::percent(
                       bench::ratio(lp.execCycles, base.execCycles) -
                       1.0),
                   stats::Table::num(crash.recoveryCycles / 1e6, 2),
                   crash.verified ? "yes" : "NO"});
    }
    t2.print();

    std::printf("\n3) Every other kernel: crash at 50%% of its LP "
                "stores, recover, resume\n\n");
    stats::Table t3({"kernel", "resume stage", "regions checked",
                     "matched", "repaired", "recovery+resume Mcycles",
                     "verified"});
    stats::Snapshot kmetrics;
    bool kverified = true;
    for (KernelId k : {KernelId::Cholesky, KernelId::Conv2d,
                       KernelId::Gauss, KernelId::Fft,
                       KernelId::Spmv}) {
        KernelParams p = bench::paperParams(k);
        // At n=256 SpMV's vectors stay in the L2, so nothing would
        // have persisted at the crash for recovery to validate.
        if (k == KernelId::Spmv)
            p.n = 4096;
        const auto lp = runScheme(k, Scheme::Lp, p, gcfg);
        const auto crash = runLpWithCrash(
            k, p, gcfg,
            static_cast<std::uint64_t>(lp.stat("stores")) / 2);
        const std::string pre = kernelName(k);
        record(kmetrics, pre, crash);
        kmetrics[pre + ".regions_checked"] =
            double(crash.recovery.checked);
        kverified = kverified && lp.verified && crash.verified;
        t3.addRow({pre, std::to_string(crash.recovery.resumeStage),
                   std::to_string(crash.recovery.checked),
                   std::to_string(crash.recovery.matched),
                   std::to_string(crash.recovery.repaired),
                   stats::Table::num(crash.recoveryCycles / 1e6, 2),
                   crash.verified ? "yes" : "NO"});
    }
    t3.print();

    if (!verified || !kverified)
        std::printf("\nA run FAILED verification.\n");
    const bool ok = bench::writeJsonReport(
        argc, argv, "recovery_time.json",
        bench::gateReport("recovery_time", verified, metrics));
    const bool kok = bench::writeJsonReport(
        argc, argv, "kernel_recovery.json",
        bench::gateReport("kernel_recovery", kverified, kmetrics), 1);
    return ok && kok && verified && kverified ? 0 : 1;
}
