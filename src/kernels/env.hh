/**
 * @file
 * Memory environments: the one abstraction kernels are written
 * against.
 *
 * Every kernel loop body is a template over an Env. Two environments
 * exist:
 *
 *  - SimEnv routes every load/store/flush/fence and an instruction
 *    budget through the simulated Machine, operating on data in a
 *    PersistentArena, and fires the CrashController hooks. This is
 *    the gem5-substitute used for all simulator experiments.
 *
 *  - NativeEnv compiles to raw loads/stores with every hook a no-op,
 *    so the identical kernel code runs at full native speed for the
 *    real-machine overhead experiment (Table VII).
 *
 * Both are final concrete types: kernels instantiate per-Env, so the
 * abstraction costs nothing at runtime.
 *
 * CONCURRENCY CONTRACT -- one thread at a time per shard. An Env
 * instance, and every structure driven through it (an LpRegion, a
 * KvStore and each shard inside it), is unsynchronized state:
 * neither SimEnv nor NativeEnv performs any synchronization, and
 * NativeEnv's plain loads/stores are NOT atomic. The rules every
 * caller must follow:
 *
 *  1. One thread at a time per Env and per shard, handed over under
 *     the shard's mutex. Concurrent software threads each get their
 *     own Env (SimEnv: own core id; NativeEnv: own instance) over
 *     disjoint persistent data. The simulator emulates parallelism
 *     by interleaving single-threaded region work items
 *     (RegionScheduler). A native service shards at the process
 *     level -- one single-shard KvStore per worker, as lp::server
 *     does -- and a shard may change threads only through the
 *     worker's shard mutex: the worker holds it for each round of
 *     work, and another thread (lp::server's acceptor serving a
 *     read or staging a mutation of an idle shard) may take it
 *     between rounds. Whoever
 *     takes the mutex claims the shard (KvStore::claimShards); debug
 *     builds of KvStore assert on every access that the accessing
 *     thread is the one that claimed it last.
 *  2. Ownership transfer must synchronize. Handing work or results
 *     between a shard owner and another thread (e.g. lp::server's
 *     acceptor <-> worker queues) must go through a synchronizing
 *     mechanism (mutex, atomic release/acquire); the Env itself
 *     provides no visibility guarantees between host threads.
 *  3. Cross-thread observers read atomics only. Any watermark or
 *     statistic a non-owning thread may poll (e.g. lp::server's
 *     acceptor reading worker progress for STATS) must be mirrored
 *     into std::atomic variables by the owner; peeking at a live
 *     shard's fields from another thread is a data race even when it
 *     "only reads".
 */

#ifndef LP_KERNELS_ENV_HH
#define LP_KERNELS_ENV_HH

#include <cstdint>

#include "base/types.hh"
#include "pmem/arena.hh"
#include "pmem/crash.hh"
#include "sim/machine.hh"

namespace lp::kernels
{

/** Instrumented environment: all traffic goes through the Machine. */
class SimEnv
{
  public:
    /**
     * @param machine the simulated machine
     * @param arena   the persistent arena holding all kernel data
     * @param core    which core (= software thread) this env drives
     * @param crash   optional crash injector (may be nullptr)
     */
    SimEnv(sim::Machine &machine, pmem::PersistentArena &arena,
           CoreId core, pmem::CrashController *crash = nullptr)
        : m(&machine), a(&arena), core_(core), crash(crash)
    {
    }

    static constexpr bool simulated = true;

    /** Load a T through the cache hierarchy. */
    template <typename T>
    T
    ld(const T *p)
    {
        m->read(core_, a->addrOf(p), sizeof(T));
        return *p;
    }

    /**
     * Non-allocating (streaming) load: a cached copy is used, but a
     * miss does not install a line. For bulk verification sweeps
     * (media scrub, recovery validation) that must not displace the
     * workload's dirty coalescing lines. Only valid from the core
     * that owns the data (rule 1 of the contract above).
     */
    template <typename T>
    T
    ldStream(const T *p)
    {
        m->readStream(core_, a->addrOf(p), sizeof(T));
        return *p;
    }

    /** Store a T through the cache hierarchy. */
    template <typename T>
    void
    st(T *p, T v)
    {
        *p = v;
        m->write(core_, a->addrOf(p), sizeof(T));
        if (crash)
            crash->onStore();
    }

    /**
     * Non-allocating (streaming) store: the bytes bypass the caches
     * and drain through the core's write-combining buffer
     * (sim::Machine::writeStream). For append-only structures written
     * front to back in whole lines, like the store's journal: a full
     * line costs one NVMM write and no NVMM read.
     */
    template <typename T>
    void
    stStream(T *p, T v)
    {
        m->writeStream(core_, a->addrOf(p), sizeof(T),
                       [p, v] { *p = v; });
        if (crash)
            crash->onStore();
    }

    /**
     * Software prefetch of @p p's line for writing
     * (sim::Machine::prefetch): the miss overlaps with later work, up
     * to the core's MSHR count. A hint only; it changes no byte.
     */
    void
    prefetch(const void *p)
    {
        m->prefetch(core_, a->addrOf(p));
    }

    /** Account @p n non-memory instructions. */
    void tick(std::uint64_t n) { m->tick(core_, n); }

    void
    clflushopt(const void *p)
    {
        m->clflushopt(core_, a->addrOf(p));
    }

    void
    clwb(const void *p)
    {
        m->clwb(core_, a->addrOf(p));
    }

    void sfence() { m->sfence(core_); }

    /** Region-commit hook for region-count crash triggers. */
    void
    onRegionCommit()
    {
        if (crash)
            crash->onRegionCommit();
    }

    CoreId core() const { return core_; }
    sim::Machine &machine() { return *m; }
    pmem::PersistentArena &arena() { return *a; }

  private:
    sim::Machine *m;
    pmem::PersistentArena *a;
    CoreId core_;
    pmem::CrashController *crash;
};

/** Native environment: raw memory, every persistency hook a no-op. */
class NativeEnv
{
  public:
    static constexpr bool simulated = false;

    template <typename T>
    T
    ld(const T *p)
    {
        return *p;
    }

    template <typename T>
    T
    ldStream(const T *p)
    {
        return *p;
    }

    template <typename T>
    void
    st(T *p, T v)
    {
        *p = v;
    }

    template <typename T>
    void
    stStream(T *p, T v)
    {
        *p = v;
    }

    void prefetch(const void *p) { __builtin_prefetch(p, 1); }
    void tick(std::uint64_t) {}
    void clflushopt(const void *) {}
    void clwb(const void *) {}
    void sfence() {}
    void onRegionCommit() {}
    CoreId core() const { return 0; }
};

} // namespace lp::kernels

#endif // LP_KERNELS_ENV_HH
