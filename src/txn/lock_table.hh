/**
 * @file
 * txn::LockTable -- a per-shard, single-threaded two-phase-locking
 * table with wait-die deadlock avoidance.
 *
 * Transactions are identified by a monotonically increasing TxnId
 * that doubles as the wait-die timestamp: a smaller id is an *older*
 * transaction. The table enforces one invariant at all times:
 *
 *     every queued waiter is older than every current holder
 *     (of the same key, excluding itself for upgrades).
 *
 * All wait-for edges therefore point old -> young, so the global
 * wait-for graph is acyclic and deadlock is impossible -- including
 * across shards, because ids are issued globally and every shard's
 * table enforces the same direction. The price is aborts: a requester
 * younger than a holder dies instead of waiting (Acquire::Die), and a
 * waiter is killed when a grant would leave it younger than a new
 * holder. Killed transactions surface Status::Aborted to the client,
 * which retries with a fresh (younger... larger) id -- this is the
 * classic wait-die approximation of 2PLSF's starvation-freedom:
 * bounded retry with jittered backoff rather than a strict FIFO
 * guarantee.
 *
 * Grant policy on release: waiters are granted in timestamp order
 * (oldest first) while compatible. FIFO order is NOT used -- granting
 * a younger waiter ahead of an older one can recreate the deadlock
 * wait-die exists to prevent (the older waiter would then be waiting
 * on a younger holder).
 *
 * Concurrency: none. A LockTable belongs to one shard worker (the
 * one-thread-at-a-time contract, kernels/env.hh); cross-shard
 * transactions reach it only via the owning worker's queue.
 */

#ifndef LP_TXN_LOCK_TABLE_HH
#define LP_TXN_LOCK_TABLE_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

namespace lp::txn
{

/** Transaction id == wait-die timestamp. 0 is reserved (invalid). */
using TxnId = std::uint64_t;

enum class LockMode : std::uint8_t
{
    Read,
    Write,
};

/** Outcome of an acquire attempt. */
enum class Acquire : std::uint8_t
{
    Granted,  ///< lock held; proceed
    Waiting,  ///< queued; resume on a later release's granted list
    Die,      ///< wait-die says abort (younger than a holder/waiter)
};

class LockTable
{
  public:
    /**
     * Transactions unblocked (granted) or killed (died) by a
     * release. The caller resumes / aborts them; the table has
     * already updated its own state.
     */
    struct Events
    {
        std::vector<TxnId> granted;
        std::vector<TxnId> died;
    };

    /**
     * Request @p key in mode @p m for transaction @p t. Re-acquiring
     * a held lock is a no-op (Granted); a sole reader upgrades to
     * writer in place. Waiting requesters are queued and will appear
     * in a later Events::granted (or Events::died) list.
     */
    Acquire
    acquire(TxnId t, std::uint64_t key, LockMode m)
    {
        Entry &e = locks_[key];
        if (e.writer == t)
            return Acquire::Granted;
        const bool reads = holdsRead(e, t);
        if (reads && m == LockMode::Read)
            return Acquire::Granted;
        if (reads) {
            // Upgrade request.
            if (e.writer == 0 && e.readers.size() == 1) {
                e.readers.clear();
                e.writer = t;
                return Acquire::Granted;
            }
            if (olderThanHolders(e, t)) {
                enqueue(e, t, LockMode::Write);
                return Acquire::Waiting;
            }
            return Acquire::Die;
        }
        const bool holderOk =
            m == LockMode::Read
                ? e.writer == 0
                : e.writer == 0 && e.readers.empty();
        if (holderOk && youngerThanWaiters(e, t)) {
            grantHolder(e, t, m);
            return Acquire::Granted;
        }
        // Conflicts with a holder, or would jump ahead of an older
        // waiter: wait-die against the holders.
        if (olderThanHolders(e, t)) {
            enqueue(e, t, m);
            return Acquire::Waiting;
        }
        return Acquire::Die;
    }

    /**
     * Drop whatever @p t holds or awaits on @p key, then run a grant
     * round; unblocked and killed waiters accumulate into @p ev.
     */
    void
    release(TxnId t, std::uint64_t key, Events &ev)
    {
        const auto it = locks_.find(key);
        if (it == locks_.end())
            return;
        Entry &e = it->second;
        if (e.writer == t)
            e.writer = 0;
        std::erase(e.readers, t);
        std::erase_if(e.waiters,
                      [t](const Waiter &w) { return w.txn == t; });
        grantRound(e, ev);
        if (e.writer == 0 && e.readers.empty() && e.waiters.empty())
            locks_.erase(it);
    }

    /** release() over a key list (a transaction's lock set). */
    void
    releaseAll(TxnId t, const std::vector<std::uint64_t> &keys,
               Events &ev)
    {
        for (const auto k : keys)
            release(t, k, ev);
    }

    /**
     * True when some key >= @p start is write-locked. Scans defer on
     * this: a granted write lock may cover an applied-but-unreleased
     * transaction write, which a k-way merge must not half-observe.
     * (Waiting writers have written nothing anywhere -- applies only
     * start after every participant prepared, which requires the
     * grant -- so only granted writers matter.)
     */
    bool
    anyWriteLockedAtOrAbove(std::uint64_t start) const
    {
        for (const auto &[key, e] : locks_)
            if (e.writer != 0 && key >= start)
                return true;
        return false;
    }

    /** Keys with any holder or waiter (diagnostics/tests). */
    std::size_t lockedKeys() const { return locks_.size(); }

    /**
     * True when some transaction holds the write lock on @p key.
     * Plain (non-transactional) mutations defer on this while a
     * prepared-but-unapplied transaction exists: its write-set was
     * resolved under the lock, so a plain store slipping in before
     * the apply would be silently clobbered (a lost update).
     */
    bool
    writeLocked(std::uint64_t key) const
    {
        const auto it = locks_.find(key);
        return it != locks_.end() && it->second.writer != 0;
    }

    bool
    holdsWrite(TxnId t, std::uint64_t key) const
    {
        const auto it = locks_.find(key);
        return it != locks_.end() && it->second.writer == t;
    }

  private:
    struct Waiter
    {
        TxnId txn;
        LockMode mode;
    };

    struct Entry
    {
        TxnId writer = 0;                ///< 0 = no writer
        std::vector<TxnId> readers;
        std::vector<Waiter> waiters;     ///< ascending TxnId (oldest first)
    };

    static bool
    holdsRead(const Entry &e, TxnId t)
    {
        return std::find(e.readers.begin(), e.readers.end(), t) !=
               e.readers.end();
    }

    /** t older (smaller) than every holder, excluding t itself. */
    static bool
    olderThanHolders(const Entry &e, TxnId t)
    {
        if (e.writer != 0 && e.writer != t && e.writer < t)
            return false;
        for (const auto r : e.readers)
            if (r != t && r < t)
                return false;
        return true;
    }

    /** t younger (larger) than every waiter: granting t now keeps
     *  the waiter-older-than-holder invariant. */
    static bool
    youngerThanWaiters(const Entry &e, TxnId t)
    {
        for (const auto &w : e.waiters)
            if (w.txn > t)
                return false;
        return true;
    }

    static void
    grantHolder(Entry &e, TxnId t, LockMode m)
    {
        if (m == LockMode::Write)
            e.writer = t;
        else
            e.readers.push_back(t);
    }

    static void
    enqueue(Entry &e, TxnId t, LockMode m)
    {
        const auto pos = std::lower_bound(
            e.waiters.begin(), e.waiters.end(), t,
            [](const Waiter &w, TxnId id) { return w.txn < id; });
        e.waiters.insert(pos, Waiter{t, m});
    }

    /**
     * Grant waiters oldest-first while compatible, then kill every
     * remaining waiter younger than a (new) holder -- restoring the
     * invariant the grants may have broken.
     */
    static void
    grantRound(Entry &e, Events &ev)
    {
        while (!e.waiters.empty()) {
            const Waiter w = e.waiters.front();
            bool ok;
            if (w.mode == LockMode::Read) {
                ok = e.writer == 0;
            } else {
                const bool soleSelfReader =
                    e.readers.size() == 1 && e.readers[0] == w.txn;
                ok = e.writer == 0 &&
                     (e.readers.empty() || soleSelfReader);
                if (ok && soleSelfReader)
                    e.readers.clear();  // upgrade in place
            }
            if (!ok)
                break;
            e.waiters.erase(e.waiters.begin());
            grantHolder(e, w.txn, w.mode);
            ev.granted.push_back(w.txn);
        }
        std::erase_if(e.waiters, [&](const Waiter &w) {
            const bool dies = !olderThanHolders(e, w.txn);
            if (dies)
                ev.died.push_back(w.txn);
            return dies;
        });
    }

    std::unordered_map<std::uint64_t, Entry> locks_;
};

} // namespace lp::txn

#endif // LP_TXN_LOCK_TABLE_HH
