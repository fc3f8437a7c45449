/**
 * @file
 * Persistent layout, configuration, and slot-table logic of the
 * `lp::store` key-value store.
 *
 * The store is an open-addressing persistent hash map (16-byte
 * slots: key + value, linear probing with tombstones) fronted, per
 * shard, by a persistent batch journal (journal.hh). How those two
 * structures are made durable is the backend's choice (backend.hh):
 * the Lazy Persistency backend streams journal lines to NVMM without
 * flushes and folds them into the table at periodic eager
 * checkpoints; the eager backend persists every mutation in place;
 * the WAL backend wraps each batch in an undo-logged durable
 * transaction.
 *
 * Table slots are 16B (4 per 64B block) so a slot never spans a
 * cache block; the simulated NVMM persists whole blocks atomically,
 * so one slot is either entirely old or entirely new in the durable
 * image. Shard metadata owns a full block so its eager updates
 * never share a line with lazily-drained data.
 */

#ifndef LP_STORE_LAYOUT_HH
#define LP_STORE_LAYOUT_HH

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include "base/logging.hh"
#include "base/types.hh"
#include "pmem/arena.hh"
#include "sim/config.hh"

namespace lp::store
{

/** How a store instance makes its mutations durable. */
enum class Backend
{
    Lp,          ///< Lazy Persistency: lazy journal + digest epochs
    EagerPerOp,  ///< clwb + sfence per mutation (PMEM idiom)
    Wal,         ///< per-batch undo-logged durable transactions
};

/** Human-readable backend name (used by the CLI and benches). */
std::string backendName(Backend b);

/** Parse a backend name ("lp", "eager", "wal"); fatal() on error. */
Backend parseBackend(const std::string &s);

/** Sizing and batching parameters of one store instance. */
struct StoreConfig
{
    /** Maximum number of live keys; the table holds 2x slots. */
    std::size_t capacity = 1 << 14;

    /** Number of shards (independent journals / epoch sequences). */
    int shards = 4;

    /** Mutations per batch (= per LP region / WAL transaction). */
    int batchOps = 32;

    /**
     * LP backend: eager checkpoint (journal fold) every this many
     * committed batches per shard. Bounds both journal space and the
     * recovery replay window, like the periodic flush of the paper's
     * Section VI-A bounds recovery time. Larger windows coalesce more
     * repeated-key table writes per fold, so write amplification
     * drops as this grows (at the cost of journal space and recovery
     * replay length).
     */
    int foldBatches = 64;
};

/**
 * Generous arena budget (bytes) for one store with @p cfg, covering
 * any backend's structures plus per-allocation alignment slack.
 */
std::size_t storeArenaBytes(const StoreConfig &cfg);

/**
 * Shard a key routes to under @p shards shards. A different mixer
 * than the table's bucket hash so shard choice and bucket are
 * independent; lp::server uses the same function to route ops to its
 * per-shard workers.
 */
inline int
shardOfKey(std::uint64_t key, int shards)
{
    std::uint64_t h = key;
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdull;
    h ^= h >> 33;
    return static_cast<int>(h % std::uint64_t(shards));
}

/** One open-addressing table slot. 16B: 4 slots per cache block. */
struct KvSlot
{
    std::uint64_t key;
    std::uint64_t value;
};

static_assert(sizeof(KvSlot) == 16);

/** Key sentinel: never-used slot (arena is zero..., set explicitly). */
inline constexpr std::uint64_t slotEmptyKey = ~0ull;

/** Key sentinel: deleted slot; probing continues past it. */
inline constexpr std::uint64_t slotTombstoneKey = ~0ull - 1;

/**
 * Key sentinel of an LP journal record {slotAppliedKey, seq}: the
 * shard applied its part of transaction decision seq (journal.hh).
 * Never a table key.
 */
inline constexpr std::uint64_t slotAppliedKey = ~0ull - 2;

/** Largest key a user may store. */
inline constexpr std::uint64_t maxUserKey = slotAppliedKey - 1;

/**
 * Per-shard persistent metadata (the shard "superblock"); owns a
 * full block so its eager updates never share a line with lazy data,
 * and so the simulated NVMM persists it atomically -- which is what
 * makes the check word a *media-fault* detector: a crash leaves the
 * block wholly old or wholly new (both self-consistent), so an
 * invalid check proves the bytes rotted underneath the program.
 * Every shard keeps TWO copies (backend.hh allocates the replica
 * right after the primary); recovery repairs a check-invalid copy
 * from its check-valid twin.
 *
 * foldedEpoch is the durable watermark: every batch up to and
 * including it is fully folded into the table (LP) or
 * transactionally committed (WAL). flags carries the clean-shutdown
 * bit; check = repair::shardMetaCheck(foldedEpoch, flags,
 * appliedSeq). appliedSeq is the highest transaction decision whose
 * part the shard durably applied (txn/decision_log.hh); it is stored
 * and read only under shardAppliedSeq, so a shard that never applied
 * a transaction part writes and reads exactly the three words above.
 */
struct ShardMeta
{
    std::uint64_t foldedEpoch;
    std::uint64_t flags;
    std::uint64_t check;
    std::uint64_t appliedSeq;
    std::uint64_t pad[4];
};

static_assert(sizeof(ShardMeta) == 64);

/**
 * ShardMeta::flags bit: the store was cleanly shut down (every
 * committed byte durably drained) after its last mutation. Recovery
 * under this flag runs in STRICT mode -- any validation failure is a
 * media fault (there was no crash to tear anything), so an
 * unrepairable batch quarantines the shard instead of being silently
 * discarded as a torn tail. recover() clears the flag.
 */
inline constexpr std::uint64_t shardCleanShutdown = 1ull << 0;

/** ShardMeta::flags bit: ShardMeta::appliedSeq holds a decision. */
inline constexpr std::uint64_t shardAppliedSeq = 1ull << 1;

/**
 * ShardMeta::flags bits from this one up hold the shard's LIFE: a
 * counter every LP recovery advances and the LP journal salts its
 * batch digests with (journal.hh), so a batch a crashed life left on
 * media never validates in a later life, even though epoch numbers
 * restart at the recovered watermark. Eager and WAL shards stay at
 * life 0.
 */
inline constexpr unsigned shardLifeShift = 8;

/** What recover() found and repaired. */
struct RecoveryReport
{
    /** Committed-but-unfolded batches replayed into the table. */
    std::uint64_t batchesReplayed = 0;

    /** Journal records replayed (with Eager Persistency). */
    std::uint64_t entriesReplayed = 0;

    /**
     * Batches whose trailer (with the expected epoch tag) reached
     * NVMM but whose body failed the trailer's digest -- the
     * torn/incomplete work LP detects and discards.
     */
    std::uint64_t batchesDiscarded = 0;

    /** WAL backend: true iff an armed transaction was rolled back. */
    bool walUndone = false;

    /**
     * Media faults detected AND repaired during recovery: journal
     * regions (trailers included) reconstructed from parity (the
     * batch digest verifies each), superblock copies restored from
     * their replica, a rotted parity header restarted.
     */
    std::uint64_t mediaRepaired = 0;

    /**
     * Media faults recovery could prove but not repair (strict mode
     * only; see shardCleanShutdown). Any non-zero count quarantined
     * the affected shard.
     */
    std::uint64_t mediaUnrepairable = 0;

    /** Per shard: the epoch watermark after recovery. */
    std::vector<std::uint64_t> committedEpochs;

    /**
     * Per shard: the highest transaction decision whose part the
     * recovered image holds (0 = none); txn recovery rolls every
     * later decision touching the shard forward.
     */
    std::vector<std::uint64_t> appliedSeqs;
};

/**
 * The shared open-addressing slot table: probe sequences, op
 * application, and the occupancy guard. Every backend mutates the
 * logical map exclusively through this class, so the probe invariants
 * recovery depends on live in exactly one place.
 *
 * Writes go through the Env (or a caller-supplied recording writer
 * for the WAL plan phase); the table itself decides nothing about
 * durability, except in applyInTableOrder, the LP backend's eager
 * fold and recovery pass.
 */
template <typename Env>
class SlotTable
{
  public:
    static constexpr std::size_t npos = ~static_cast<std::size_t>(0);

    /** Occupancy bound, mirroring KeyedChecksumTable's 7/8 guard. */
    static constexpr std::size_t maxLoadNum = 7;
    static constexpr std::size_t maxLoadDen = 8;

    /**
     * How many keys ahead of a batched walk its home-line prefetches
     * run: the modelled core's MSHR count, so one key's apply overlaps
     * the next 16 keys' misses without ever waiting for a free MSHR.
     */
    static constexpr std::size_t prefetchDistance = 16;
    static_assert(prefetchDistance == sim::kMshrsPerCore);

    /** What applying one op touched. */
    struct ApplyResult
    {
        KvSlot *slot;       // touched slot, nullptr for a del miss
        bool claimedEmpty;  // op turned a never-used slot live
    };

    /**
     * Allocate (or, with @p attach, re-derive) the table over
     * @p arena: the slot count is the power of two covering twice
     * @p capacity keys.
     */
    SlotTable(pmem::PersistentArena &arena, std::size_t capacity,
              bool attach)
    {
        slots_ = std::bit_ceil(
            capacity * 2 < 64 ? std::size_t{64} : capacity * 2);
        table_ = arena.alloc<KvSlot>(slots_);
        if (!attach) {
            for (std::size_t i = 0; i < slots_; ++i) {
                table_[i].key = slotEmptyKey;
                table_[i].value = 0;
            }
        }
    }

    std::size_t slotCount() const { return slots_; }
    KvSlot &slot(std::size_t i) { return table_[i]; }
    const KvSlot &slot(std::size_t i) const { return table_[i]; }

    /** Home slot of @p key, where every probe for it starts. */
    std::size_t
    bucketOf(std::uint64_t key) const
    {
        return static_cast<std::size_t>(
                   (key * 0x9e3779b97f4a7c15ull) >> 32) &
               (slots_ - 1);
    }

    /**
     * Call @p fn on every item of @p items in order, keeping the home
     * line of keyOf(item) prefetched prefetchDistance items ahead of
     * the call, so a batch's independent table misses overlap instead
     * of running one after another. For walks that know every key
     * before touching the first (the LP fold, the WAL plan phase).
     */
    template <typename Items, typename KeyOf, typename Fn>
    void
    walkPrefetched(Env &env, const Items &items, KeyOf keyOf, Fn fn)
    {
        auto ahead = items.begin();
        for (std::size_t i = 0;
             i < prefetchDistance && ahead != items.end(); ++i, ++ahead)
            prefetchHome(env, keyOf(*ahead));
        for (const auto &item : items) {
            fn(item);
            if (ahead != items.end())
                prefetchHome(env, keyOf(*ahead++));
        }
    }

    /**
     * The table-order apply pass of the LP fold and recovery replay:
     * apply one op per key of @p keys (distinct keys; opOf(key) gives
     * the key's last op as {isPut, value}) with Eager Persistency,
     * clwb every touched block once and end in one sfence. The pass
     * sorts @p keys with sortByHome (host bookkeeping, uncharged) and
     * walks them with walkPrefetched. Linear probing writes a key at
     * or after its home slot unless the probe wraps past the table's
     * end, so once the next key's home block lies beyond a touched
     * block, no later key writes that block again: it is written back
     * right away, and the write port drains behind the apply instead
     * of after it. Blocks below the first key's home block can only
     * be reached by wrapping and wait for a final pass. (A wrapped
     * write into a block already written back, which needs a chain
     * running from the table's end past the first home block, costs
     * that block a second write.) Crash-safe like any store + clwb
     * phase: the trailing sfence is the only ordering point.
     */
    template <typename OpOf>
    void
    applyInTableOrder(Env &env, std::vector<std::uint64_t> &keys,
                      OpOf opOf)
    {
        if (keys.empty())
            return;
        sortByHome(keys);
        constexpr std::uintptr_t end = ~std::uintptr_t{0};
        const std::uintptr_t firstHome = homeBlock(keys.front());
        std::vector<std::uintptr_t> pending;  // touched, not written back
        std::vector<std::uintptr_t> wrapped;  // touched below firstHome
        std::size_t next = 1;
        walkPrefetched(
            env, keys, [](std::uint64_t k) { return k; },
            [&](std::uint64_t key) {
                const auto op = opOf(key);
                if (const KvSlot *s =
                        applyOp(env, op.isPut, key, op.value)) {
                    const std::uintptr_t b = blockOf(s);
                    (b < firstHome ? wrapped : pending).push_back(b);
                }
                writeBackBelow(env, pending,
                               next < keys.size() ? homeBlock(keys[next])
                                                  : end);
                ++next;
            });
        writeBackBelow(env, wrapped, end);
        env.sfence();
    }

    /**
     * Sort @p keys by home slot, then key: an LSD radix sort on the
     * home slot's bytes through one reused key-sized vector, then an
     * insertion pass over each (short) run of equal home slots.
     */
    void
    sortByHome(std::vector<std::uint64_t> &keys)
    {
        sortScratch_.resize(keys.size());
        for (unsigned sh = 0; (slots_ - 1) >> sh != 0; sh += 8) {
            std::size_t at[257] = {};
            for (const std::uint64_t k : keys)
                ++at[((bucketOf(k) >> sh) & 0xff) + 1];
            std::partial_sum(at, at + 257, at);
            for (const std::uint64_t k : keys)
                sortScratch_[at[(bucketOf(k) >> sh) & 0xff]++] = k;
            keys.swap(sortScratch_);
        }
        for (std::size_t i = 1; i < keys.size(); ++i)
            for (std::size_t j = i; j > 0 && keys[j - 1] > keys[j] &&
                                    bucketOf(keys[j - 1]) == bucketOf(keys[j]);
                 --j)
                std::swap(keys[j - 1], keys[j]);
    }

    /** Slot holding @p key, or npos. Probes stop at never-used slots. */
    std::size_t
    probeFind(Env &env, std::uint64_t key)
    {
        std::size_t i = bucketOf(key);
        for (std::size_t probes = 0; probes < slots_; ++probes) {
            const std::uint64_t k = env.ld(&table_[i].key);
            if (k == key)
                return i;
            if (k == slotEmptyKey)
                return npos;
            i = (i + 1) & (slots_ - 1);
        }
        return npos;
    }

    /**
     * Slot to write @p key into. Scans the WHOLE chain up to the
     * first never-used slot before reusing a tombstone: recovery
     * replay depends on an existing (possibly half-drained) copy of
     * the key always being found and reused, so a key can never
     * occupy two slots.
     */
    std::size_t
    probeForInsert(Env &env, std::uint64_t key)
    {
        std::size_t i = bucketOf(key);
        std::size_t firstTomb = npos;
        for (std::size_t probes = 0; probes < slots_; ++probes) {
            const std::uint64_t k = env.ld(&table_[i].key);
            if (k == key)
                return i;
            if (k == slotEmptyKey)
                return firstTomb != npos ? firstTomb : i;
            if (k == slotTombstoneKey && firstTomb == npos)
                firstTomb = i;
            i = (i + 1) & (slots_ - 1);
        }
        if (firstTomb != npos)
            return firstTomb;
        fatal("lp::store table has no free slot; raise "
              "StoreConfig::capacity");
    }

    /**
     * Resolve one op against the table, emitting its writes through
     * @p write (the normal path passes env.st; the WAL plan phase
     * passes a recording writer). A put stores value before key so a
     * torn insert is invisible (slots never straddle blocks). @p put
     * selects put vs. del.
     */
    template <typename Writer>
    ApplyResult
    applyOpWith(Env &env, bool put, std::uint64_t key,
                std::uint64_t value, Writer &&write)
    {
        if (put) {
            const std::size_t i = probeForInsert(env, key);
            KvSlot &s = table_[i];
            const std::uint64_t cur = env.ld(&s.key);
            const bool claimedEmpty = cur == slotEmptyKey;
            write(&s.value, value);
            if (cur != key)
                write(&s.key, key);
            return {&s, claimedEmpty};
        }
        const std::size_t i = probeFind(env, key);
        if (i == npos)
            return {nullptr, false};
        write(&table_[i].key, slotTombstoneKey);
        return {&table_[i], false};
    }

    /** applyOpWith through env.st, maintaining the occupancy guard. */
    KvSlot *
    applyOp(Env &env, bool put, std::uint64_t key, std::uint64_t value)
    {
        const ApplyResult r = applyOpWith(
            env, put, key, value,
            [&env](std::uint64_t *p, std::uint64_t v) { env.st(p, v); });
        if (r.claimedEmpty)
            noteClaim();
        return r.slot;
    }

    /** Host-side count of non-empty (live or tombstoned) slots. */
    std::size_t
    scanUsed() const
    {
        std::size_t n = 0;
        for (std::size_t i = 0; i < slots_; ++i)
            if (table_[i].key != slotEmptyKey)
                ++n;
        return n;
    }

    /** Re-derive the occupancy counter (after a crash restore). */
    void resyncUsed() { used_ = scanUsed(); }

    /**
     * Occupancy guard, mirroring KeyedChecksumTable's: tombstones and
     * live keys both lengthen probe chains, so refuse past 7/8 with a
     * sizing hint rather than degrade toward full-table probes. The
     * counter can drift across crash restores; resync before refusing.
     */
    void
    noteClaim()
    {
        const std::size_t limit = slots_ * maxLoadNum / maxLoadDen;
        if (++used_ > limit) {
            used_ = scanUsed();
            if (used_ > limit) {
                fatal("lp::store table over load-factor limit: " +
                      std::to_string(used_) + "/" +
                      std::to_string(slots_) +
                      " slots used (max 7/8); raise "
                      "StoreConfig::capacity");
            }
        }
    }

  private:
    /**
     * Prefetch the line of @p key's home slot, where every probe for
     * it starts, so a later applyOp of @p key finds it on its way.
     */
    void
    prefetchHome(Env &env, std::uint64_t key)
    {
        env.prefetch(&table_[bucketOf(key)]);
    }

    static std::uintptr_t
    blockOf(const KvSlot *s)
    {
        return reinterpret_cast<std::uintptr_t>(s) / blockBytes;
    }

    std::uintptr_t
    homeBlock(std::uint64_t key) const
    {
        return blockOf(&table_[bucketOf(key)]);
    }

    /**
     * clwb each distinct block of @p blocks below @p limit once and
     * drop it from @p blocks.
     */
    static void
    writeBackBelow(Env &env, std::vector<std::uintptr_t> &blocks,
                   std::uintptr_t limit)
    {
        std::sort(blocks.begin(), blocks.end());
        blocks.erase(std::unique(blocks.begin(), blocks.end()),
                     blocks.end());
        const auto split =
            std::lower_bound(blocks.begin(), blocks.end(), limit);
        for (auto it = blocks.begin(); it != split; ++it)
            env.clwb(reinterpret_cast<const void *>(*it * blockBytes));
        blocks.erase(blocks.begin(), split);
    }

    KvSlot *table_ = nullptr;
    std::size_t slots_ = 0;
    std::size_t used_ = 0;
    std::vector<std::uint64_t> sortScratch_;  ///< sortByHome's buffer
};

} // namespace lp::store

#endif // LP_STORE_LAYOUT_HH
