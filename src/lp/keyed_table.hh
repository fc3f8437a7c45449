/**
 * @file
 * A keyed, collision-handling checksum table.
 *
 * Section III-D's primary design sizes the table so the (region,
 * thread) -> slot mapping is collision-free, which the bundled
 * kernels use (ChecksumTable). The paper also notes the alternative:
 * "The hash function and hash table size are adjustable depending on
 * the space target and tolerance for hash collisions... If a smaller
 * hash table is used where threads may collide on a single hash
 * table entry, locks will be needed."
 *
 * KeyedChecksumTable implements that alternative for irregular
 * workloads where a dense region index is awkward: open addressing
 * with the 64-bit region key stored next to the digest, so a
 * collision is *detected* (the probe keeps walking) rather than
 * silently merging two regions' digests. Both the key and digest
 * words of a slot live in one cache block, so a slot persists
 * atomically-enough for recovery: a torn slot (key without matching
 * digest) simply fails validation and the region is recomputed.
 *
 * Concurrency: slots are claimed per key; when regions with distinct
 * keys hash to nearby buckets, threads may race on probing. The
 * bundled simulator serializes execution (region-granularity
 * interleaving), matching the paper's lock discussion: a real
 * multithreaded deployment would take a per-slot lock on first
 * claim. claimSlot() is idempotent per key, so re-execution after a
 * crash reuses the same slot.
 */

#ifndef LP_LP_KEYED_TABLE_HH
#define LP_LP_KEYED_TABLE_HH

#include <cstddef>
#include <cstdint>

#include "base/logging.hh"
#include "lp/checksum.hh"
#include "pmem/arena.hh"

namespace lp::core
{

/** Open-addressing persistent checksum table keyed by 64-bit keys. */
class KeyedChecksumTable
{
  public:
    /** Key value marking an empty slot; never use as a region key. */
    static constexpr std::uint64_t emptyKey = ~0ull;

    /**
     * Allocate a table with @p num_slots slots (rounded up to a
     * power of two) in @p arena.
     *
     * Load-factor limit: open addressing degrades sharply as the
     * table fills (expected probe length ~1/(1-load)), and a
     * completely full table would make every claim of a new key probe
     * all slots. claimSlot() therefore refuses to push the occupancy
     * past maxLoadNum/maxLoadDen (7/8) and fatal()s with a sizing
     * hint instead of degrading silently. Size tables at or below
     * ~50% expected occupancy (as the bundled users do); the table
     * cannot grow in place because slots live at fixed persistent
     * addresses that committed digests already reference.
     *
     * @p attach: when true, the slots are NOT initialized -- the
     * arena region is an existing durable image (e.g. a re-mapped
     * backing file after a process restart) whose committed digests
     * recovery is about to validate. The caller must guarantee the
     * allocation replays at the same arena offset as the incarnation
     * that wrote the image.
     */
    KeyedChecksumTable(pmem::PersistentArena &arena,
                       std::size_t num_slots, bool attach = false);

    /// Occupancy ceiling enforced by claimSlot(): 7/8 of the slots.
    static constexpr std::size_t maxLoadNum = 7;
    static constexpr std::size_t maxLoadDen = 8;

    /** Number of slots (a power of two). */
    std::size_t size() const { return slots; }

    /** Slots currently claimed by a key (volatile view). */
    std::size_t occupancy() const;

    /**
     * Find (or claim) the slot for @p key; returns its index.
     * Idempotent: the same key always maps to the same slot within
     * one durable lifetime of the table.
     */
    std::size_t claimSlot(std::uint64_t key);

    /**
     * Slot for @p key if it is already claimed *in the durable /
     * current image*, or npos. Recovery uses this: an unclaimed key
     * means the region never committed.
     */
    std::size_t findSlot(std::uint64_t key) const;

    static constexpr std::size_t npos = ~static_cast<std::size_t>(0);

    /** Host pointers for instrumented access to a slot. */
    std::uint64_t *keyPtr(std::size_t slot);
    std::uint64_t *digestPtr(std::size_t slot);

    /** Uninstrumented reads for recovery. */
    std::uint64_t storedKey(std::size_t slot) const;
    std::uint64_t storedDigest(std::size_t slot) const;

    /**
     * True iff @p key has a committed, validatable digest equal to
     * @p digest in the current image.
     */
    bool
    matches(std::uint64_t key, std::uint64_t digest) const
    {
        const std::size_t s = findSlot(key);
        return s != npos && storedDigest(s) == digest;
    }

    /**
     * Drop @p key's digest durably through @p env, if the key has a
     * slot: store invalidDigest and write the line back. The caller
     * fences.
     */
    template <typename Env>
    void
    invalidate(Env &env, std::uint64_t key)
    {
        const std::size_t s = findSlot(key);
        if (s == npos)
            return;
        env.st(digestPtr(s), invalidDigest);
        env.clflushopt(digestPtr(s));
    }

    /** Bytes occupied (space-overhead reporting). */
    std::size_t
    bytes() const
    {
        return slots * 2 * sizeof(std::uint64_t);
    }

  private:
    struct Slot
    {
        std::uint64_t key;
        std::uint64_t digest;
    };

    std::size_t
    bucketOf(std::uint64_t key) const
    {
        // Fibonacci hashing spreads dense keys.
        return static_cast<std::size_t>(
                   (key * 0x9e3779b97f4a7c15ull) >> 32) &
               (slots - 1);
    }

    Slot *data;
    std::size_t slots;

    /**
     * Claims observed by this (volatile) handle. May overcount after
     * a crash restore reverts unpersisted claims; claimSlot() resyncs
     * it from the table before declaring the table over-full.
     */
    std::size_t claimed = 0;
};

} // namespace lp::core

#endif // LP_LP_KEYED_TABLE_HH
