/**
 * @file
 * txn::DecisionLog -- the coordinator's persistent COMMIT ring: the
 * linearization and durability point of every general-path
 * transaction, and its redo log.
 *
 * One entry per committed transaction: a header line (a
 * monotonically increasing sequence number, the transaction id, the
 * write count, the delete mask and a mix64 chain checksum over all
 * of it) followed by the transaction's resolved write-set, every
 * participant's part of it, as 16-byte {key, value} records -- at
 * most maxTxnWriteOps of them, so an entry spans at most 9 lines.
 * Appending an entry (stores, a clwb per line, ONE fence) IS the
 * commit: before it, recovery has nothing to roll forward; after it,
 * recovery can redo every part from the entry alone. The header line
 * is written first, so a crash between the lines leaves a header
 * whose checksum the stale ops lines fail: a torn entry reads as "no
 * decision", the safe answer, because the coordinator acknowledges
 * the client only after the fence.
 *
 * The sequence number is the roll-forward order. A shard applies the
 * parts that reach it in seq order and records the highest seq whose
 * part it applied in the same durability unit as the part's writes
 * (store::KvStore::stageApplied); recovery rolls forward, per shard
 * and in seq order, every entry above that seq that touches the
 * shard (txn/recovery.hh). Decision order is commit order: a later
 * transaction can only touch the same key after the earlier one's
 * locks were released, which happens after its decision.
 *
 * The ring reuses an entry only once every shard it touches has
 * made its part durable (reserve()): until then a crash could still
 * need it. Entries live in fixed 9-line slots, seq s in slot
 * (s - 1) mod capacity, so they retire oldest first.
 *
 * Concurrency: owned by the coordinator (the server acceptor, or the
 * embedded TxnKv). Shard workers read entries only during the
 * start-up recovery phase, after scan() and before any append.
 */

#ifndef LP_TXN_DECISION_LOG_HH
#define LP_TXN_DECISION_LOG_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "base/logging.hh"
#include "pmem/arena.hh"
#include "repair/repair.hh"

namespace lp::txn
{

/** Write-set cap of one transaction; matches the wire protocol's
 *  maxTxnOps, so any wire transaction fits one entry. */
inline constexpr std::size_t maxTxnWriteOps = 32;

/** One resolved write of a transaction's write-set. */
struct WriteOp
{
    std::uint64_t key = 0;
    std::uint64_t value = 0;
    bool del = false;
};

/** One COMMIT record: a header line plus the write-set, 9 lines. */
struct DecisionEntry
{
    std::uint64_t seq;      ///< 1-based, monotonic; 0 = never written
    std::uint64_t txnid;
    std::uint64_t nOps;
    std::uint64_t delMask;  ///< bit i: op i is a delete
    std::uint64_t check;    ///< chain over the words above and ops
    std::uint64_t pad[3];
    std::uint64_t ops[2 * maxTxnWriteOps];  ///< key, value per write
};

static_assert(sizeof(DecisionEntry) == 576, "entry layout drifted");

inline constexpr std::uint64_t kDecisionSalt = 0xd6e8feb86659fd93ull;

/** Bytes a DecisionLog of @p entries consumes from its arena. */
inline std::size_t
decisionLogBytes(std::size_t entries)
{
    return entries * sizeof(DecisionEntry) + 64;
}

template <typename Env>
class DecisionLog
{
  public:
    /**
     * Allocate a ring of @p entries from @p arena. With @p attach
     * false the ring is formatted empty via plain writes (caller
     * persists); with @p attach true call scan() before use.
     */
    DecisionLog(pmem::PersistentArena &arena, std::size_t entries,
                bool attach)
        : ring_(arena.alloc<DecisionEntry>(entries)), cap_(entries),
          shards_(entries)
    {
        LP_ASSERT(cap_ >= 2, "decision ring too small");
        if (!attach) {
            for (std::size_t i = 0; i < cap_; ++i) {
                ring_[i].seq = 0;
                ring_[i].check = 0;
            }
        }
    }

    std::size_t capacity() const { return cap_; }

    /** Host pointer to the ring's first byte (fault surface). */
    const void *data() const { return ring_; }

    /**
     * Rebuild from the durable image (attach and post-crash
     * recovery): the valid entries in seq order, the torn count, and
     * the next seq. A torn entry's seq word is cleared (one store, one
     * fence for all of them), so the next scan does not count it
     * again. Recovery leaves every entry's parts durable, so the
     * whole ring is free again afterwards; the caller then moves the
     * next seq past every shard's applied seq (advancePast()).
     * Returns the largest txnid seen, for seeding the id counter.
     */
    std::uint64_t
    scan(Env &env)
    {
        valid_.clear();
        torn_ = 0;
        nextSeq_ = 1;
        std::uint64_t maxId = 0;
        for (std::size_t i = 0; i < cap_; ++i) {
            const std::uint64_t seq = env.ld(&ring_[i].seq);
            if (seq == 0)
                continue;
            if (!validAt(env, i)) {
                ++torn_;  // a decision never acknowledged, or rotted
                env.st(&ring_[i].seq, std::uint64_t{0});
                env.clwb(&ring_[i].seq);
                continue;
            }
            valid_.emplace_back(seq, i);
            nextSeq_ = std::max(nextSeq_, seq + 1);
            maxId = std::max(maxId, env.ld(&ring_[i].txnid));
        }
        if (torn_ > 0)
            env.sfence();
        std::sort(valid_.begin(), valid_.end());
        oldest_ = nextSeq_;
        reserved_ = 0;
        return maxId;
    }

    /**
     * After recovery: make the next seq exceed @p appliedSeq, the
     * highest seq any shard has applied. The ring alone cannot tell:
     * media rot can take its newest entries after their parts became
     * durable, and reusing such a seq would collide with a shard's
     * applied seq (stageApplied requires it to grow).
     */
    void
    advancePast(std::uint64_t appliedSeq)
    {
        LP_ASSERT(reserved_ == 0, "advancePast with a reservation out");
        nextSeq_ = std::max(nextSeq_, appliedSeq + 1);
        oldest_ = nextSeq_;
    }

    /** Entries the last scan() found torn (checksum failed). */
    std::uint64_t torn() const { return torn_; }

    /** Call @p f(seq, writes) for every entry the last scan() found
     *  valid, in seq order. */
    template <typename F>
    void
    forEachDecision(Env &env, F &&f) const
    {
        std::vector<WriteOp> writes;
        for (const auto &[seq, i] : valid_) {
            const DecisionEntry &e = ring_[i];
            const std::uint64_t n = env.ld(&e.nOps);
            const std::uint64_t mask = env.ld(&e.delMask);
            writes.clear();
            for (std::uint64_t k = 0; k < n; ++k)
                writes.push_back(WriteOp{env.ld(&e.ops[2 * k]),
                                         env.ld(&e.ops[2 * k + 1]),
                                         ((mask >> k) & 1) != 0});
            f(seq, writes);
        }
    }

    /**
     * Reserve room for one append. Entries retire oldest first once
     * every shard they touch has made its part durable: a
     * @p durableSeqOf(shard) at or above the entry's seq. False when
     * the ring is pinned: every entry is live or reserved.
     */
    template <typename DurableSeqOf>
    bool
    reserve(const DurableSeqOf &durableSeqOf)
    {
        while (oldest_ < nextSeq_) {
            const auto &touched = shards_[slotOf(oldest_)];
            if (!std::all_of(touched.begin(), touched.end(),
                             [&](int s) {
                                 return durableSeqOf(s) >= oldest_;
                             }))
                break;
            ++oldest_;
        }
        if (nextSeq_ - oldest_ + reserved_ >= cap_)
            return false;
        ++reserved_;
        return true;
    }

    /** Give back a reservation that will not append (an abort). */
    void
    unreserve()
    {
        LP_ASSERT(reserved_ > 0, "no reservation to give back");
        --reserved_;
    }

    /**
     * Durably commit @p txnid with write-set @p writes (1 to
     * maxTxnWriteOps writes, on the participant @p shards), using a
     * reservation. The header line first, then the ops lines, a clwb
     * each, then one fence: the transaction's durability point.
     * Returns the decision's seq.
     */
    std::uint64_t
    append(Env &env, std::uint64_t txnid,
           const std::vector<WriteOp> &writes, std::vector<int> shards)
    {
        const std::size_t n = writes.size();
        LP_ASSERT(txnid != 0, "txnid 0 is reserved");
        LP_ASSERT(n >= 1 && n <= maxTxnWriteOps,
                  "decision write-set out of range");
        LP_ASSERT(reserved_ > 0, "append without a reservation");
        --reserved_;
        const std::uint64_t seq = nextSeq_++;
        DecisionEntry &e = ring_[slotOf(seq)];
        std::uint64_t mask = 0;
        for (std::size_t i = 0; i < n; ++i)
            if (writes[i].del)
                mask |= std::uint64_t(1) << i;
        std::uint64_t h = headerHash(seq, txnid, n, mask);
        for (const WriteOp &w : writes)
            h = repair::mix64(repair::mix64(h ^ w.key) ^ w.value);
        env.st(&e.txnid, txnid);
        env.st(&e.nOps, std::uint64_t(n));
        env.st(&e.delMask, mask);
        env.st(&e.check, h);
        env.st(&e.seq, seq);
        env.clwb(&e);
        for (std::size_t i = 0; i < n; ++i) {
            env.st(&e.ops[2 * i], writes[i].key);
            env.st(&e.ops[2 * i + 1], writes[i].value);
            if (i % 4 == 3 || i + 1 == n)
                env.clwb(&e.ops[2 * i]);
        }
        env.sfence();
        shards_[slotOf(seq)] = std::move(shards);
        return seq;
    }

  private:
    std::size_t slotOf(std::uint64_t seq) const { return (seq - 1) % cap_; }

    static std::uint64_t
    headerHash(std::uint64_t seq, std::uint64_t txnid, std::uint64_t n,
               std::uint64_t mask)
    {
        std::uint64_t h = repair::mix64(seq ^ kDecisionSalt);
        h = repair::mix64(h ^ txnid);
        h = repair::mix64(h ^ n);
        return repair::mix64(h ^ mask);
    }

    /** Does slot @p i hold a checksum-complete entry? */
    bool
    validAt(Env &env, std::size_t i) const
    {
        const DecisionEntry &e = ring_[i];
        const std::uint64_t n = env.ld(&e.nOps);
        if (n < 1 || n > maxTxnWriteOps)
            return false;
        std::uint64_t h = headerHash(env.ld(&e.seq), env.ld(&e.txnid),
                                     n, env.ld(&e.delMask));
        for (std::uint64_t k = 0; k < n; ++k)
            h = repair::mix64(repair::mix64(h ^ env.ld(&e.ops[2 * k])) ^
                              env.ld(&e.ops[2 * k + 1]));
        return h == env.ld(&e.check);
    }

    DecisionEntry *ring_;
    std::size_t cap_;
    /// Per slot: the shards its entry touches (volatile).
    std::vector<std::vector<int>> shards_;
    std::vector<std::pair<std::uint64_t, std::size_t>> valid_;
    std::uint64_t torn_ = 0;
    std::uint64_t nextSeq_ = 1;
    std::uint64_t oldest_ = 1;  ///< oldest entry not yet retired
    std::uint64_t reserved_ = 0;
};

} // namespace lp::txn

#endif // LP_TXN_DECISION_LOG_HH
