/**
 * @file
 * Workload framework: the region runner shared by all six kernels
 * (TMM, Cholesky, 2D-convolution, Gauss/LU, FFT, SpMV).
 *
 * The Workload base owns the parameters, the SimContext and the
 * golden host-side result; it verifies the persistent result, runs
 * the stages, and ends every staged recovery the same way (drop the
 * digests of the stages to redo, fence, resume lazily). A kernel
 * supplies its persistent data (allocated from the context's arena),
 * its stages and region keys, its checksum walk, and its recovery
 * decisions.
 */

#ifndef LP_KERNELS_WORKLOAD_HH
#define LP_KERNELS_WORKLOAD_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "kernels/env.hh"
#include "lp/checksum.hh"
#include "lp/recovery.hh"
#include "pmem/arena.hh"
#include "pmem/crash.hh"
#include "sim/machine.hh"
#include "sim/scheduler.hh"

namespace lp::kernels
{

/** The persistency schemes compared in the paper (Table IV). */
enum class Scheme
{
    Base,            ///< no failure safety
    Lp,              ///< Lazy Persistency (this paper)
    EagerRecompute,  ///< Eager Persistency baseline (PACT'17)
    Wal,             ///< durable transactions w/ write-ahead logging
};

/** The five evaluated kernels (Table V). */
enum class KernelId
{
    Tmm,
    Cholesky,
    Conv2d,
    Gauss,
    Fft,
    Spmv,   ///< extension kernel (irregular; uses the keyed table)
};

std::string schemeName(Scheme s);
std::string kernelName(KernelId k);

/** Problem-size and scheme parameters for one workload instance. */
struct KernelParams
{
    /** Matrix dimension (or FFT length; rounded to a power of two). */
    int n = 128;

    /** Tile / band size (Table IV: 16). */
    int bsize = 16;

    /** Worker threads (paper default: 8 workers). */
    int threads = 8;

    /** Outer iterations for the iterated 2D convolution. */
    int iterations = 4;

    /** Checksum kind for LP variants (paper default: modular). */
    core::ChecksumKind checksum = core::ChecksumKind::Modular;

    /** Seed for deterministic input generation. */
    std::uint64_t seed = 12345;
};

/**
 * Everything a simulated workload executes against: one arena, one
 * machine wired to it, a crash controller, and a region scheduler.
 */
struct SimContext
{
    SimContext(const sim::MachineConfig &cfg, std::size_t arena_bytes)
        : arena(arena_bytes), machine(cfg, &arena),
          sched(machine, cfg.numCores)
    {
    }

    /** Power failure: disarm, drop queued regions, Machine::powerFail(). */
    void powerFail() { crash.disarm(); sched.clear(); machine.powerFail(); }

    /** An environment driving core @p t, wired to the crash hooks. */
    SimEnv env(CoreId t) { return SimEnv(machine, arena, t, &crash); }

    /** Queue @p body(env) as one region on thread @p t. */
    template <typename Body>
    void
    schedule(int t, Body body)
    {
        sched.add(t, [this, t, body] {
            SimEnv e = env(t);
            body(e);
        });
    }

    pmem::PersistentArena arena;
    sim::Machine machine;
    pmem::CrashController crash;
    sim::RegionScheduler sched;
};

/** A kernel bound to a SimContext, with its golden result. */
class Workload
{
  public:
    virtual ~Workload() = default;

    virtual std::string name() const = 0;

    /**
     * Run the kernel to completion under @p scheme. Requires a fresh
     * durable initial image (the constructor establishes one); a
     * workload instance runs exactly once, plus recovery. WAL is
     * only implemented for tmm (Table IV): any other kernel dies.
     */
    virtual void run(Scheme scheme);

    /**
     * After an injected crash of the Lp scheme (the harness has
     * already discarded volatile machine state and restored the
     * durable image): detect damaged regions via checksums, repair
     * them eagerly, and resume normal execution to completion.
     */
    virtual core::RecoveryResult recoverAndResume() = 0;

    /** Compare the persistent result against the golden host result. */
    bool verify(double tol = 1e-6) const { return maxAbsError() <= tol; }

    /** Largest absolute element error vs. the golden result. */
    double maxAbsError() const;

    /** Total number of LP regions the kernel commits. */
    virtual std::size_t numRegions() const = 0;

  protected:
    /** Checks that every thread has a core of its own. */
    Workload(const KernelParams &params, SimContext &ctx);

    /** Run stages [@p from_stage, end) under @p scheme. */
    virtual void runStages(Scheme scheme, int from_stage) = 0;

    /**
     * The Figure 9 recovery of a staged kernel, run on core 0's
     * @p env: core::recover(@p cb, @p policy), then
     * @p invalidate(stage, region) for every region of the stages it
     * re-executes -- so a second crash cannot match a pre-crash
     * digest -- a fence, and lazy execution from the resume stage.
     */
    core::RecoveryResult
    recoverStages(SimEnv &env, const core::RecoveryCallbacks &cb,
                  core::ResumePolicy policy,
                  const std::function<void(int, int)> &invalidate);

    KernelParams p;
    SimContext &ctx;

    /** Golden host result, in the order of @p result's parts. */
    std::vector<double> golden;

    /** The persistent result, compared element-wise with golden. */
    std::vector<std::span<const double>> result;
};

/** Instantiate a kernel workload bound to @p ctx. */
std::unique_ptr<Workload> makeWorkload(KernelId id,
                                       const KernelParams &params,
                                       SimContext &ctx);

/** Arena bytes ample for any kernel at the given size. */
std::size_t arenaBytesFor(KernelId id, const KernelParams &params);

} // namespace lp::kernels

#endif // LP_KERNELS_WORKLOAD_HH
