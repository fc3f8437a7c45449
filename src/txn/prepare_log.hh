/**
 * @file
 * txn::PrepareLog -- the per-shard persistent PREPARE record table of
 * the cross-shard commit protocol.
 *
 * A participant shard publishes one slot per in-flight transaction:
 * the transaction id, the shard's fully-resolved write-set (Add
 * deltas are resolved to concrete values under locks before
 * publishing, so replay is deterministic), and a mix64 chain checksum
 * over all of it. Publishing is eager (flush + one fence): the slot
 * is the shard's durable vote, and a torn slot simply fails its
 * checksum and reads as "never prepared" -- exactly the roll-back
 * answer recovery wants for a vote that never finished.
 *
 * After the coordinator's decision, the worker applies the write-set
 * through the ordinary (lazy) store path and then writes an *applied
 * marker* into the slot: the epoch the writes landed in plus a
 * second checksum. The marker is flushed and fenced before the
 * transaction's locks are released, which recovery relies on: if the
 * marker says epoch e and the shard's replayed watermark W >= e, the
 * writes survived and the slot must NOT be re-applied (a later
 * committed plain put to the same key would be clobbered).
 *
 * Slot lifetime: a slot may be freed only once the shard's durable
 * epoch has reached the marker epoch. Freeing earlier is unsound --
 * the free store (txnid = 0) is itself a lazy store that may persist
 * *before* the applies it covers, making a crash look like
 * "decision + no slot = nothing to do" while the applies are lost.
 * Callers keep a pending-free list gated on durableEpoch() and use
 * checkpoint() as the pressure valve when the table fills.
 *
 * Concurrency: one thread at a time per shard, like everything
 * behind an Env. Allocation is a linear scan (tables are small, <= a few
 * hundred slots).
 */

#ifndef LP_TXN_PREPARE_LOG_HH
#define LP_TXN_PREPARE_LOG_HH

#include <cstddef>
#include <cstdint>

#include "base/logging.hh"
#include "pmem/arena.hh"
#include "repair/repair.hh"

namespace lp::txn
{

/** Write-set cap per (shard, transaction); matches protocol's
 *  maxTxnOps so any wire transaction fits one slot per shard. */
inline constexpr std::size_t maxTxnWriteOps = 32;

/** One resolved write of a transaction's write-set. */
struct WriteOp
{
    std::uint64_t key = 0;
    std::uint64_t value = 0;
    bool del = false;
};

/**
 * One PREPARE slot: a 64-byte header plus the resolved write-set as
 * key/value pairs. 576 bytes = 9 cache lines, 64-byte aligned via
 * the arena.
 */
struct PrepareSlot
{
    std::uint64_t txnid;         ///< 0 = slot free
    std::uint64_t nOps;
    std::uint64_t delMask;       ///< bit i: op i is a delete
    std::uint64_t check;         ///< chain over txnid/nOps/delMask/ops
    std::uint64_t appliedEpoch;  ///< marker: epoch the applies landed in
    std::uint64_t appliedCheck;  ///< marker checksum; 0 = not applied
    std::uint64_t pad[2];
    std::uint64_t ops[2 * maxTxnWriteOps];  ///< key,value per op
};

static_assert(sizeof(PrepareSlot) == 576, "slot layout drifted");

inline constexpr std::uint64_t kPrepareSalt = 0x9e1779b97f4a7c15ull;
inline constexpr std::uint64_t kAppliedSalt = 0xc2b2ae3d27d4eb4full;

/** Bytes a PrepareLog of @p slots consumes from the shard arena. */
inline std::size_t
prepareLogBytes(std::size_t slots)
{
    return slots * sizeof(PrepareSlot) + 64;
}

template <typename Env>
class PrepareLog
{
  public:
    static constexpr std::size_t npos = ~std::size_t{0};

    /**
     * Allocate @p slots slots from @p arena. With @p attach false the
     * table is formatted free via plain writes (the caller persists,
     * same convention as KvStore); with @p attach true the existing
     * contents are kept for recovery to inspect.
     */
    PrepareLog(pmem::PersistentArena &arena, std::size_t slots,
               bool attach)
        : slots_(arena.alloc<PrepareSlot>(slots)), n_(slots)
    {
        if (!attach) {
            for (std::size_t i = 0; i < n_; ++i) {
                slots_[i].txnid = 0;
                slots_[i].appliedCheck = 0;
            }
        }
    }

    std::size_t size() const { return n_; }

    /** Index of a free slot, or npos when the table is full. */
    std::size_t
    alloc(Env &env)
    {
        for (std::size_t i = 0; i < n_; ++i) {
            const std::size_t at = (cursor_ + i) % n_;
            if (env.ld(&slots_[at].txnid) == 0) {
                cursor_ = (at + 1) % n_;
                return at;
            }
        }
        return npos;
    }

    /**
     * Durably publish slot @p idx as transaction @p txnid's vote with
     * resolved write-set @p ops (n in [1, maxTxnWriteOps]). All
     * fields are stored, every line flushed, then one fence.
     */
    void
    publish(Env &env, std::size_t idx, std::uint64_t txnid,
            const WriteOp *ops, std::size_t n)
    {
        LP_ASSERT(idx < n_ && n >= 1 && n <= maxTxnWriteOps,
                  "prepare publish out of range");
        LP_ASSERT(txnid != 0, "txnid 0 is reserved for free slots");
        PrepareSlot &s = slots_[idx];
        std::uint64_t mask = 0;
        std::uint64_t h = repair::mix64(txnid ^ kPrepareSalt);
        h = repair::mix64(h ^ std::uint64_t(n));
        for (std::size_t i = 0; i < n; ++i) {
            if (ops[i].del)
                mask |= std::uint64_t(1) << i;
            env.st(&s.ops[2 * i], ops[i].key);
            env.st(&s.ops[2 * i + 1], ops[i].value);
        }
        h = repair::mix64(h ^ mask);
        for (std::size_t i = 0; i < 2 * n; ++i)
            h = repair::mix64(h ^ s.ops[i]);
        env.st(&s.nOps, std::uint64_t(n));
        env.st(&s.delMask, mask);
        env.st(&s.check, h);
        env.st(&s.appliedEpoch, std::uint64_t{0});
        env.st(&s.appliedCheck, std::uint64_t{0});
        env.st(&s.txnid, txnid);
        flushSlot(env, s, n);
        env.sfence();
    }

    /**
     * Durably mark slot @p idx applied at @p epoch. Must complete
     * (including the fence) before the transaction's locks on this
     * shard are released.
     */
    void
    markApplied(Env &env, std::size_t idx, std::uint64_t epoch)
    {
        PrepareSlot &s = slots_[idx];
        const std::uint64_t id = env.ld(&s.txnid);
        env.st(&s.appliedEpoch, epoch);
        env.st(&s.appliedCheck, appliedCheck(id, epoch));
        env.clflushopt(&s);
        env.sfence();
    }

    /**
     * Free slot @p idx (lazy store -- the caller has already gated
     * this on the shard's durable epoch covering the applies).
     */
    void
    free(Env &env, std::size_t idx)
    {
        PrepareSlot &s = slots_[idx];
        env.st(&s.txnid, std::uint64_t{0});
        env.st(&s.appliedCheck, std::uint64_t{0});
    }

    /** What recovery sees in one slot. */
    struct View
    {
        bool valid = false;      ///< checksum-complete vote
        std::uint64_t txnid = 0;
        std::size_t nOps = 0;
        std::uint64_t delMask = 0;
        bool applied = false;    ///< marker present and self-consistent
        std::uint64_t appliedEpoch = 0;
    };

    /** Validate slot @p idx from the durable image. */
    View
    inspect(Env &env, std::size_t idx)
    {
        View v;
        const PrepareSlot &s = slots_[idx];
        v.txnid = env.ld(&s.txnid);
        if (v.txnid == 0)
            return v;
        const std::uint64_t n = env.ld(&s.nOps);
        const std::uint64_t mask = env.ld(&s.delMask);
        if (n < 1 || n > maxTxnWriteOps)
            return v;
        std::uint64_t h = repair::mix64(v.txnid ^ kPrepareSalt);
        h = repair::mix64(h ^ n);
        h = repair::mix64(h ^ mask);
        for (std::size_t i = 0; i < 2 * n; ++i)
            h = repair::mix64(h ^ env.ld(&s.ops[i]));
        if (h != env.ld(&s.check))
            return v;  // torn vote: reads as never-prepared
        v.valid = true;
        v.nOps = std::size_t(n);
        v.delMask = mask;
        const std::uint64_t ac = env.ld(&s.appliedCheck);
        const std::uint64_t ae = env.ld(&s.appliedEpoch);
        if (ac != 0 && ac == appliedCheck(v.txnid, ae)) {
            v.applied = true;
            v.appliedEpoch = ae;
        }
        return v;
    }

    /** Op @p i of a validated slot (recovery roll-forward). */
    WriteOp
    op(Env &env, std::size_t idx, std::size_t i) const
    {
        const PrepareSlot &s = slots_[idx];
        WriteOp w;
        w.key = env.ld(&s.ops[2 * i]);
        w.value = env.ld(&s.ops[2 * i + 1]);
        w.del = (env.ld(&s.delMask) >> i) & 1;
        return w;
    }

  private:
    static std::uint64_t
    appliedCheck(std::uint64_t txnid, std::uint64_t epoch)
    {
        const std::uint64_t h = repair::mix64(
            txnid ^ repair::mix64(epoch ^ kAppliedSalt));
        return h ? h : 1;
    }

    void
    flushSlot(Env &env, const PrepareSlot &s, std::size_t n)
    {
        const auto *base = reinterpret_cast<const char *>(&s);
        const std::size_t bytes =
            sizeof(PrepareSlot) -
            (maxTxnWriteOps - n) * 2 * sizeof(std::uint64_t);
        for (std::size_t off = 0; off < bytes; off += 64)
            env.clflushopt(base + off);
    }

    PrepareSlot *slots_;
    std::size_t n_;
    std::size_t cursor_ = 0;
};

} // namespace lp::txn

#endif // LP_TXN_PREPARE_LOG_HH
