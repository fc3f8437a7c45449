#include "kernels/harness.hh"

#include "base/logging.hh"
#include "kernels/tmm.hh"
#include "pmem/crash.hh"

namespace lp::kernels
{

RunOutcome
runScheme(KernelId kernel, Scheme scheme, const KernelParams &params,
          const sim::MachineConfig &cfg)
{
    SimContext ctx(cfg, arenaBytesFor(kernel, params));
    auto w = makeWorkload(kernel, params, ctx);

    w->run(scheme);

    RunOutcome out;
    out.stats = ctx.machine.snapshot();
    out.execCycles = static_cast<double>(ctx.machine.execCycles());
    out.nvmmWrites =
        static_cast<double>(ctx.machine.machineStats().nvmmWrites
                                .value());
    out.maxAbsError = w->maxAbsError();
    out.verified = w->verify();
    return out;
}

RunOutcome
runTmmWindow(Scheme scheme, const KernelParams &params,
             const sim::MachineConfig &cfg, int warm_stages,
             int window_stages)
{
    SimContext ctx(cfg, arenaBytesFor(KernelId::Tmm, params));
    TmmWorkload w(params, ctx);

    // runWindow resets statistics after the warm-up; the snapshot's
    // exec_cycles is the current stats epoch, i.e. the window only.
    w.runWindow(scheme, warm_stages, window_stages);
    const auto snap = ctx.machine.snapshot();

    RunOutcome out;
    out.stats = snap;
    out.execCycles = snap.at("exec_cycles");
    out.nvmmWrites = snap.at("nvmm_writes");
    out.maxAbsError = 0.0;
    out.verified = true;
    return out;
}

CrashOutcome
runLpWithCrash(KernelId kernel, const KernelParams &params,
               const sim::MachineConfig &cfg,
               std::uint64_t crash_after_stores)
{
    return runLpWithCrashes(kernel, params, cfg,
                            {crash_after_stores});
}

CrashOutcome
runLpWithCrashes(KernelId kernel, const KernelParams &params,
                 const sim::MachineConfig &cfg,
                 const std::vector<std::uint64_t> &crash_points)
{
    SimContext ctx(cfg, arenaBytesFor(kernel, params));
    auto w = makeWorkload(kernel, params, ctx);

    CrashOutcome out;
    std::size_t next_point = 0;
    bool in_recovery = false;

    if (next_point < crash_points.size())
        ctx.crash.armAfterStores(crash_points[next_point++]);

    for (;;) {
        try {
            if (!in_recovery) {
                w->run(Scheme::Lp);
            } else {
                const Cycles rec_start = ctx.machine.coreCycles(0);
                out.recovery = w->recoverAndResume();
                out.recoveryCycles +=
                    static_cast<double>(ctx.machine.coreCycles(0) -
                                        rec_start);
            }
            break;  // completed
        } catch (const pmem::CrashException &) {
            out.crashed = true;
            ++out.crashes;
            ctx.powerFail();
            if (next_point < crash_points.size())
                ctx.crash.armAfterStores(crash_points[next_point++]);
            in_recovery = true;
        }
    }

    out.maxAbsError = w->maxAbsError();
    out.verified = w->verify();
    return out;
}

} // namespace lp::kernels
