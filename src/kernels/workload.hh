/**
 * @file
 * Workload framework: the pieces shared by all five benchmark kernels
 * (TMM, Cholesky, 2D-convolution, Gauss/LU, FFT).
 *
 * A Workload owns its persistent data (allocated from the context's
 * arena), a golden host-side result for verification, and knows how
 * to run itself under each persistency scheme and how to recover its
 * Lazy Persistency variant after an injected crash.
 */

#ifndef LP_KERNELS_WORKLOAD_HH
#define LP_KERNELS_WORKLOAD_HH

#include <cstdint>
#include <memory>
#include <string>

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

    pmem::PersistentArena arena;
    sim::Machine machine;
    pmem::CrashController crash;
    sim::RegionScheduler sched;
};

/** Abstract interface each kernel implements. */
class Workload
{
  public:
    virtual ~Workload() = default;

    virtual std::string name() const = 0;

    /**
     * Run the kernel to completion under @p scheme. Requires a fresh
     * durable initial image (the constructor establishes one); a
     * workload instance runs exactly once, plus recovery.
     */
    virtual void run(Scheme scheme) = 0;

    /**
     * After an injected crash of the Lp scheme (the harness has
     * already discarded volatile machine state and restored the
     * durable image): detect damaged regions via checksums, repair
     * them eagerly, and resume normal execution to completion.
     */
    virtual core::RecoveryResult recoverAndResume() = 0;

    /** Compare the persistent result against the golden host result. */
    virtual bool verify(double tol = 1e-6) const = 0;

    /** Largest absolute element error vs. the golden result. */
    virtual double maxAbsError() const = 0;

    /** Total number of LP regions the kernel commits. */
    virtual std::size_t numRegions() const = 0;
};

/** Instantiate a kernel workload bound to @p ctx. */
std::unique_ptr<Workload> makeWorkload(KernelId id,
                                       const KernelParams &params,
                                       SimContext &ctx);

/** Arena bytes ample for any kernel at the given size. */
std::size_t arenaBytesFor(KernelId id, const KernelParams &params);

} // namespace lp::kernels

#endif // LP_KERNELS_WORKLOAD_HH
