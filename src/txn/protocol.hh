/**
 * @file
 * txn protocol -- the commit protocol's forward-path decisions, each
 * defined once for both consumers: the embedded TxnKv (which the
 * crash matrix drives step by step) and lp::server's coordinator and
 * participants (docs/txn_design.md). The consumers keep only their
 * sequencing: TxnKv its single thread and crash hooks, the server
 * its lock parking, votes, decisions and replies. A @p kv parameter
 * is a store::KvStore<Env>.
 */

#ifndef LP_TXN_PROTOCOL_HH
#define LP_TXN_PROTOCOL_HH

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <unordered_map>
#include <vector>

#include "store/layout.hh"
#include "txn/lock_table.hh"
#include "txn/decision_log.hh"

namespace lp::txn
{

/** One transaction sub-op. */
struct Op
{
    enum class Kind : std::uint8_t
    {
        Get = 1,
        Put = 2,
        Del = 3,
        Add = 4,  ///< atomic delta (wrapping u64; absent key reads 0)
    };
    Kind kind = Kind::Get;
    std::uint64_t key = 0;
    std::uint64_t value = 0;  ///< Put: value; Add: delta; else unused
};

/** The locks one participant takes, in acquisition order. */
struct LockPlan
{
    std::vector<std::uint64_t> keys;  ///< distinct, ascending
    std::vector<LockMode> modes;      ///< per key
};

/** Lock plan of ops[i] for i in @p indices: each distinct key once,
 *  ascending, in Write mode if any of those ops mutates it. */
inline LockPlan
lockPlan(const std::vector<Op> &ops,
         const std::vector<std::uint32_t> &indices)
{
    std::map<std::uint64_t, LockMode> modes;
    for (const auto i : indices) {
        LockMode &m = modes[ops[i].key];
        if (ops[i].kind != Op::Kind::Get)
            m = LockMode::Write;
    }
    LockPlan plan;
    for (const auto &[key, mode] : modes) {
        plan.keys.push_back(key);
        plan.modes.push_back(mode);
    }
    return plan;
}

/**
 * Run ops[i] for i in @p indices in order against an overlay over
 * @p current(key), the store's value: a Get reports through
 * @p onRead(i, value) and sees the transaction's own earlier writes;
 * Add deltas become concrete values; the last write per key wins.
 * Returns the write-set, keys in first-write order.
 */
template <typename Current, typename OnRead>
std::vector<WriteOp>
resolve(const std::vector<Op> &ops,
        const std::vector<std::uint32_t> &indices, Current &&current,
        OnRead &&onRead)
{
    std::unordered_map<std::uint64_t, std::optional<std::uint64_t>>
        overlay;  // written keys only
    std::vector<std::uint64_t> order;
    const auto valueOf =
        [&](std::uint64_t key) -> std::optional<std::uint64_t> {
        const auto it = overlay.find(key);
        return it != overlay.end() ? it->second : current(key);
    };
    const auto write = [&](std::uint64_t key,
                           std::optional<std::uint64_t> v) {
        if (overlay.insert_or_assign(key, v).second)
            order.push_back(key);
    };
    for (const auto i : indices) {
        const Op &op = ops[i];
        switch (op.kind) {
          case Op::Kind::Get:
            onRead(i, valueOf(op.key));
            break;
          case Op::Kind::Put:
            write(op.key, op.value);
            break;
          case Op::Kind::Del:
            write(op.key, std::nullopt);
            break;
          case Op::Kind::Add:
            write(op.key, valueOf(op.key).value_or(0) + op.value);
            break;
        }
    }
    std::vector<WriteOp> writes;
    writes.reserve(order.size());
    for (const auto key : order) {
        const auto &v = overlay.at(key);
        writes.push_back(WriteOp{key, v.value_or(0), !v.has_value()});
    }
    return writes;
}

/**
 * The commit-path rule: the single-shard fast path (no decision
 * record) iff every op routes to one shard (@p shardOf) and
 * nothing is written, or the backend batches (eager persists per op)
 * and the write ops fit one epoch. It is decided from the ops alone,
 * before any lock or resolution, and only the general path can hold
 * another shard's read locks until the decision.
 */
template <typename ShardOf>
bool
fastPath(const std::vector<Op> &ops, const ShardOf &shardOf,
         store::Backend backend, int batchOps)
{
    const int shard = shardOf(ops.front().key);
    std::size_t writeOps = 0;
    for (const Op &op : ops) {
        if (shardOf(op.key) != shard)
            return false;
        if (op.kind != Op::Kind::Get)
            ++writeOps;
    }
    return writeOps == 0 ||
           (backend != store::Backend::EagerPerOp &&
            writeOps <= std::size_t(batchOps));
}

/** Stage one resolved write through the ordinary (lazy) store
 *  path; returns the epoch it landed in. */
template <typename Env, typename Kv>
std::uint64_t
stageWrite(Env &env, Kv &kv, const WriteOp &w)
{
    return w.del ? kv.del(env, w.key) : kv.put(env, w.key, w.value);
}

/**
 * The fast path's commit: stage @p writes (all on @p shard) as ONE
 * epoch, whose crash atomicity is then the transaction's. An epoch
 * seals as the op that fills it stages, so the open epoch commits
 * first unless staged + writes <= batchOps. Returns the epoch.
 */
template <typename Env, typename Kv>
std::uint64_t
stageOneEpoch(Env &env, Kv &kv, int shard,
              const std::vector<WriteOp> &writes)
{
    const auto &pl = kv.pipeline(shard);
    if (pl.stagedOps() > 0 &&
        std::size_t(pl.stagedOps()) + writes.size() >
            std::size_t(kv.config().batchOps))
        kv.commitBatches(env);
    std::uint64_t epoch = 0;
    for (const auto &w : writes)
        epoch = stageWrite(env, kv, w);
    return epoch;
}

/**
 * Apply @p shard's part @p writes of decision @p seq: every write
 * through the ordinary (lazy) store path, then the shard's Applied
 * record, which rides the durability unit of those writes -- the
 * fact recovery's skip rule reads (txn/recovery.hh). Parts reach a
 * shard in seq order. Returns the record's epoch: once that epoch is
 * durable, so is the part.
 */
template <typename Env, typename Kv>
std::uint64_t
applyPart(Env &env, Kv &kv, int shard, std::uint64_t seq,
          const std::vector<WriteOp> &writes)
{
    for (const auto &w : writes)
        stageWrite(env, kv, w);
    return kv.stageApplied(env, shard, seq);
}

} // namespace lp::txn

#endif // LP_TXN_PROTOCOL_HH
