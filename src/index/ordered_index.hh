/**
 * @file
 * lp::index -- an ordered in-memory index over the KV store's keys.
 *
 * The store's persistent layout is a flat open-addressing table:
 * perfect for point ops, useless for range queries. OrderedIndex adds
 * ordering the ListDB way: the LP-checksummed journal stays the
 * persistent truth, and this pure-DRAM index is rebuilt from the
 * recovered table after a crash. Nothing here is ever flushed.
 *
 * Structure: a dense sorted set of KEYS ONLY (a scan resolves values
 * through KvStore::get(), so range reads see what point reads see).
 * Keys sit in sorted 64-key (512 B) leaves under one sorted array of
 * leaf references, each holding its leaf's lower fence and key count;
 * two levels suffice because a shard's table bounds its key count.
 *
 * Ownership: one index per shard, touched only by the thread that
 * owns that shard now (src/kernels/env.hh), so it needs no locks and
 * erase() frees at once. entries() and residentBytes() (live leaves
 * plus the reference array; 0 when empty) are relaxed atomics any
 * thread may read, for STATS/METRICS.
 */

#ifndef LP_INDEX_ORDERED_INDEX_HH
#define LP_INDEX_ORDERED_INDEX_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace lp::index
{

class OrderedIndex
{
    struct LeafRef
    {
        std::uint64_t min;  ///< lower fence (leaf 0: 0, takes any key)
        std::uint32_t size;
        std::unique_ptr<std::uint64_t[]> keys;  ///< leafKeys, sorted
    };

  public:
    /** Keys per leaf: one 512 B sorted run. */
    static constexpr std::uint32_t leafKeys = 64;

    /** Add @p key; a no-op if already present. */
    void insert(std::uint64_t key);

    /** Remove @p key; a no-op if absent. */
    void erase(std::uint64_t key);

    /** Drop every key and free every leaf. */
    void clear();

    /** In-order iterator from lowerBound(); valid until a mutation. */
    class Cursor
    {
      public:
        bool valid() const { return ref_ != end_; }
        std::uint64_t key() const { return ref_->keys[pos_]; }

        void
        advance()
        {
            if (++pos_ == ref_->size) {
                ++ref_;
                pos_ = 0;
            }
        }

      private:
        friend class OrderedIndex;
        Cursor(const LeafRef *ref, const LeafRef *end, std::uint32_t pos)
            : ref_(ref), end_(end), pos_(pos)
        {
        }
        const LeafRef *ref_;
        const LeafRef *end_;
        std::uint32_t pos_;
    };

    /** Cursor on the first key >= @p key (invalid if none). */
    Cursor lowerBound(std::uint64_t key) const;

    /** Live key count (relaxed; any thread). */
    std::uint64_t
    entries() const
    {
        return entries_.load(std::memory_order_relaxed);
    }

    /** Bytes held: live leaves plus the leaf array (any thread). */
    std::uint64_t
    residentBytes() const
    {
        return bytes_.load(std::memory_order_relaxed);
    }

  private:
    /** The leaf @p key belongs in; refs_ must be non-empty. */
    std::size_t leafFor(std::uint64_t key) const;

    /** Republish residentBytes() after the leaf set changed. */
    void account();

    std::vector<LeafRef> refs_;
    std::atomic<std::uint64_t> entries_{0};
    std::atomic<std::uint64_t> bytes_{0};
};

/**
 * K-way merge over cursors on disjoint key sets (any type with
 * valid(), key(), advance()): offers keys in ascending order to
 * take(cursor index, key) until it kept @p limit of them or the
 * cursors run out, so a caller resolves values only for kept keys.
 */
template <typename Cursor, typename Take>
void
mergeCursors(std::vector<Cursor> &cur, std::size_t limit, Take &&take)
{
    for (std::size_t kept = 0; kept < limit;) {
        std::size_t best = cur.size();
        for (std::size_t s = 0; s < cur.size(); ++s)
            if (cur[s].valid() &&
                (best == cur.size() || cur[s].key() < cur[best].key()))
                best = s;
        if (best == cur.size())
            return;
        kept += take(best, cur[best].key()) ? 1 : 0;
        cur[best].advance();
    }
}

} // namespace lp::index

#endif // LP_INDEX_ORDERED_INDEX_HH
