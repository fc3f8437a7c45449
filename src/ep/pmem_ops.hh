/**
 * @file
 * Eager Persistency primitives in the Intel PMEM style (Section II-A).
 *
 * These helpers wrap the environment's clflushopt/clwb/sfence to
 * persist ranges of memory. Both write-back instructions are weakly
 * ordered, so a range persist issues all of them back-to-back and
 * orders them with a single sfence -- the cheapest correct PMEM idiom,
 * which both Eager baseline schemes use.
 *
 * clflushopt writes a dirty line back and invalidates it; clwb writes
 * it back and keeps it cached clean. The paper's kernels persist with
 * clflushopt (what Figure 10 measured), so the range helpers default
 * to it. The KV store persists with clwb: it reads again what it has
 * just persisted (the next GET of a key, the next batch's log lines),
 * and a flush that invalidates makes every such read an NVMM miss.
 */

#ifndef LP_EP_PMEM_OPS_HH
#define LP_EP_PMEM_OPS_HH

#include <cstddef>
#include <cstdint>

#include "base/types.hh"

namespace lp::ep
{

/** The write-back instruction a persist helper issues. */
enum class WriteBack
{
    Clflushopt,  ///< write back and invalidate
    Clwb,        ///< write back, keep the line cached clean
};

/** Write back the block of @p p with @p wb. Does not fence. */
template <typename Env>
void
writeBack(Env &env, const void *p, WriteBack wb)
{
    if (wb == WriteBack::Clwb)
        env.clwb(p);
    else
        env.clflushopt(p);
}

/**
 * Issue @p wb for every cache block overlapping
 * [@p p, @p p + @p bytes). Does not fence.
 */
template <typename Env>
void
flushRange(Env &env, const void *p, std::size_t bytes,
           WriteBack wb = WriteBack::Clflushopt)
{
    auto addr = reinterpret_cast<std::uintptr_t>(p);
    const std::uintptr_t first = addr & ~std::uintptr_t(blockBytes - 1);
    const std::uintptr_t last =
        (addr + (bytes ? bytes - 1 : 0)) & ~std::uintptr_t(blockBytes - 1);
    for (std::uintptr_t b = first; b <= last; b += blockBytes)
        writeBack(env, reinterpret_cast<const void *>(b), wb);
}

/** Flush a range and fence: on return the range is durable. */
template <typename Env>
void
persistRange(Env &env, const void *p, std::size_t bytes)
{
    flushRange(env, p, bytes);
    env.sfence();
}

/** Persist a single object (store must already have executed). */
template <typename Env, typename T>
void
persistObject(Env &env, const T *p)
{
    persistRange(env, p, sizeof(T));
}

} // namespace lp::ep

#endif // LP_EP_PMEM_OPS_HH
