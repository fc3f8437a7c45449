/**
 * @file
 * lp::index -- an ordered in-memory index over the KV store's keys.
 *
 * The store's persistent layout is a flat open-addressing table plus
 * per-shard journals: perfect for point ops, useless for range
 * queries. OrderedIndex adds ordering the ListDB way: the
 * LP-checksummed journal stays the persistent truth, and the ordered
 * structure is pure DRAM, rebuilt from the recovered table after
 * crash recovery. Nothing here is ever flushed; crash consistency
 * comes entirely from the store's checksums, never from this index.
 *
 * Structure: a classic skiplist (p = 1/4, capped height) holding
 * KEYS ONLY. Values are not cached here -- a scan resolves each key
 * through KvStore::get(), so range reads see exactly what point reads
 * see (including staged, not-yet-folded deltas) byte for byte.
 *
 * Ownership: one index per shard, touched only by the thread that
 * owns that shard now (the store's one-thread-at-a-time contract,
 * src/kernels/env.hh). Every method except entries()/residentBytes()
 * is owner-only; there are no concurrent readers, so erase() frees
 * the node at once and a Cursor is valid until the owner's next
 * insert/erase/clear.
 *
 * Memory accounting: entries() is a relaxed atomic any thread may
 * read (the server's acceptor exports it via STATS/METRICS), and
 * residentBytes() derives from it: the head plus one node per live
 * key. Nodes carry a fixed maxHeight pointer array (no flexible-array
 * tricks, so ASan/UBSan see plain well-defined objects); the constant
 * is sized for ~16M entries at p = 1/4.
 */

#ifndef LP_INDEX_ORDERED_INDEX_HH
#define LP_INDEX_ORDERED_INDEX_HH

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace lp::index
{

/** Skiplist levels: 4^12 expected entries at the height cap. */
inline constexpr int orderedIndexMaxHeight = 12;

/**
 * One skiplist node. Namespace scope (not nested) so the Cursor's
 * hot-path advance() stays inline in this header while allocation
 * and list surgery live in the .cc.
 */
struct OrderedIndexNode
{
    std::uint64_t key;
    int height;
    OrderedIndexNode *next[orderedIndexMaxHeight];
};

class OrderedIndex
{
  public:
    static constexpr int maxHeight = orderedIndexMaxHeight;

    OrderedIndex();
    ~OrderedIndex();

    OrderedIndex(const OrderedIndex &) = delete;
    OrderedIndex &operator=(const OrderedIndex &) = delete;

    /** Add @p key; a no-op if already present. */
    void insert(std::uint64_t key);

    /** Unlink and free @p key's node; a no-op if absent. */
    void erase(std::uint64_t key);

    /** Drop every key. */
    void clear();

    /**
     * A forward iterator over the bottom level, obtained from
     * lowerBound()/first(). Valid until the next insert, erase or
     * clear.
     */
    class Cursor
    {
      public:
        bool valid() const { return node_ != nullptr; }
        std::uint64_t key() const { return node_->key; }
        void advance() { node_ = node_->next[0]; }

      private:
        friend class OrderedIndex;
        explicit Cursor(const OrderedIndexNode *n) : node_(n) {}
        const OrderedIndexNode *node_;
    };

    bool contains(std::uint64_t key) const;

    /** Cursor on the first key >= @p key (invalid if none). */
    Cursor lowerBound(std::uint64_t key) const;

    /** Cursor on the smallest key (invalid if empty). */
    Cursor first() const { return Cursor(head_->next[0]); }

    /** Live key count (relaxed; any thread). */
    std::uint64_t
    entries() const
    {
        return entries_.load(std::memory_order_relaxed);
    }

    /** Bytes held: the head plus one node per live key (any thread). */
    std::uint64_t
    residentBytes() const
    {
        return (entries() + 1) * sizeof(OrderedIndexNode);
    }

  private:
    int randomHeight();

    /**
     * Walk toward @p key: fills @p preds (when non-null) with the
     * last node strictly below @p key per level, returns the first
     * node with key >= @p key (null if none).
     */
    OrderedIndexNode *findFrom(std::uint64_t key,
                               OrderedIndexNode **preds) const;

    OrderedIndexNode *head_ = nullptr;
    std::uint64_t rngState_;
    std::atomic<std::uint64_t> entries_{0};
};

} // namespace lp::index

#endif // LP_INDEX_ORDERED_INDEX_HH
