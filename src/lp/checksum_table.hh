/**
 * @file
 * The standalone checksum store of Section III-D (Figure 7(b)).
 *
 * Checksums live in a persistent hash table separate from the
 * application's data structures, so the data layout is untouched. The
 * paper sizes the table so that the (region key, thread) mapping is
 * collision-free and lock-free; we follow that design: the kernel maps
 * each region to a unique dense index, the table is sized to the exact
 * number of regions, and distinct threads own disjoint entries.
 *
 * Every entry is a 64-bit digest initialized to invalidDigest, which
 * lets recovery distinguish "region never committed" from "region
 * committed but data not persistent" (Section IV, last paragraph).
 */

#ifndef LP_LP_CHECKSUM_TABLE_HH
#define LP_LP_CHECKSUM_TABLE_HH

#include <cstddef>
#include <cstdint>

#include "base/logging.hh"
#include "lp/checksum.hh"
#include "pmem/arena.hh"

namespace lp::core
{

/** Persistent, collision-free table of region checksums. */
class ChecksumTable
{
  public:
    /**
     * Allocate a table of @p num_entries digests in @p arena, all
     * initialized to invalidDigest. Call
     * PersistentArena::persistAll() (or flush the entries) afterward
     * to make the initial image durable, as the harness setup does.
     */
    ChecksumTable(pmem::PersistentArena &arena, std::size_t num_entries);

    std::size_t size() const { return count; }

    /** Host pointer to entry @p idx (for instrumented stores/loads). */
    std::uint64_t *
    entry(std::size_t idx)
    {
        LP_ASSERT(idx < count, "checksum table index out of range");
        return entries + idx;
    }

    const std::uint64_t *
    entry(std::size_t idx) const
    {
        LP_ASSERT(idx < count, "checksum table index out of range");
        return entries + idx;
    }

    /** Uninstrumented read (recovery runs on restored durable data). */
    std::uint64_t
    stored(std::size_t idx) const
    {
        return *entry(idx);
    }

    /** True iff entry @p idx was never committed. */
    bool
    neverCommitted(std::size_t idx) const
    {
        return stored(idx) == invalidDigest;
    }

    /**
     * Drop entry @p idx durably through @p env: store invalidDigest
     * and write the line back. The caller fences.
     */
    template <typename Env>
    void
    invalidate(Env &env, std::size_t idx)
    {
        std::uint64_t *e = entry(idx);
        env.st(e, invalidDigest);
        env.clflushopt(e);
    }

    /** Reset every entry to invalidDigest (volatile view only). */
    void clear();

    /** Bytes occupied by the table (space-overhead reporting). */
    std::size_t
    bytes() const
    {
        return count * sizeof(std::uint64_t);
    }

  private:
    std::uint64_t *entries;
    std::size_t count;
};

} // namespace lp::core

#endif // LP_LP_CHECKSUM_TABLE_HH
