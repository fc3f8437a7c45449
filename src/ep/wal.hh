/**
 * @file
 * Durable transactions via write-ahead (undo) logging, the tmm+WAL
 * baseline (Figure 2 of the paper).
 *
 * A WalArea is a persistent log buffer plus a status word. A WalTx
 * runs the four-fence protocol of Figure 2:
 *
 *   1. append undo entries (address, old value) for every word the
 *      transaction will modify; flush them; fence
 *   2. set status = armed; flush; fence
 *   3. (caller mutates the data) flush the data; fence
 *   4. set status = idle; flush; fence
 *
 * On a crash with status == armed, applyUndo() restores the logged old
 * values (eagerly), returning the data to its pre-transaction state.
 *
 * Every flush of a transaction uses the write-back instruction its
 * caller names: the paper's TMM scheme passes clflushopt, the KV
 * store's WAL backend clwb, which keeps the log, status and data
 * lines cached for its next batch (ep/pmem_ops.hh). The durable image
 * at every step is the same either way.
 */

#ifndef LP_EP_WAL_HH
#define LP_EP_WAL_HH

#include <cstdint>
#include <vector>

#include "base/logging.hh"
#include "ep/pmem_ops.hh"
#include "pmem/arena.hh"

namespace lp::ep
{

/** One undo-log record: where and what the old value was. */
struct WalEntry
{
    std::uint64_t addr;   ///< arena address of the logged word
    std::uint64_t old;    ///< value before the transaction
};

/** Persistent storage for one thread's undo log. */
class WalArea
{
  public:
    /**
     * Allocate a log able to hold @p capacity entries in @p arena.
     * Each thread uses a private WalArea, as PMEM-style software
     * logging does, to avoid synchronizing on the log tail.
     *
     * @p attach: keep the existing bytes (a re-mapped durable image
     * after a process restart) instead of zeroing count and status,
     * so an armed-but-uncommitted transaction from the previous
     * incarnation is still visible to applyUndo().
     */
    WalArea(pmem::PersistentArena &arena, std::size_t capacity,
            bool attach = false)
        : arena_(&arena),
          entries_(arena.alloc<WalEntry>(capacity)),
          count_(arena.alloc<std::uint64_t>(1)),
          status_(arena.alloc<std::uint64_t>(1)),
          capacity_(capacity)
    {
        if (!attach) {
            *count_ = 0;
            *status_ = 0;
        }
    }

    pmem::PersistentArena &arena() { return *arena_; }
    WalEntry *entries() { return entries_; }
    std::uint64_t *count() { return count_; }
    std::uint64_t *status() { return status_; }
    std::size_t capacity() const { return capacity_; }

    /** True iff a transaction was armed but never committed. */
    bool
    interrupted() const
    {
        return *status_ != 0;
    }

  private:
    pmem::PersistentArena *arena_;
    WalEntry *entries_;
    std::uint64_t *count_;
    std::uint64_t *status_;
    std::size_t capacity_;
};

/**
 * One durable transaction over a WalArea. Templated on the memory
 * environment like all instrumented code.
 */
template <typename Env>
class WalTx
{
  public:
    WalTx(Env &env, WalArea &area, WriteBack wb)
        : env(env), area(area), wb(wb)
    {
        env.st(area.count(), std::uint64_t{0});
    }

    /** Log the current (pre-image) value of one 64-bit word. */
    void
    logWord(const void *p)
    {
        logKnown(p,
                 env.template ld<std::uint64_t>(
                     static_cast<const std::uint64_t *>(p)));
    }

    /**
     * Log an explicit pre-image for @p p without re-reading it.
     * Callers that plan a whole batch of mutations before arming the
     * transaction (e.g. the KV store's WAL backend, which resolves
     * open-addressing probe targets op by op on a scratch view of the
     * table) already hold the pre-images; re-reading would observe
     * the planned post-state instead.
     */
    void
    logKnown(const void *p, std::uint64_t old_value)
    {
        std::uint64_t *cnt = area.count();
        LP_ASSERT(*cnt < area.capacity(), "WAL log overflow");
        WalEntry &e = area.entries()[*cnt];
        env.st(&e.addr, area.arena().addrOf(p));
        env.st(&e.old, old_value);
        env.st(cnt, *cnt + 1);
        dataPtrs.push_back(p);
    }

    /**
     * Persist the log and arm the status word (steps 1-2). After this
     * returns, the transaction may mutate the logged words.
     */
    void
    seal()
    {
        const std::uint64_t n = *area.count();
        flushRange(env, area.entries(), n * sizeof(WalEntry), wb);
        flushRange(env, area.count(), sizeof(std::uint64_t), wb);
        env.sfence();
        env.st(area.status(), std::uint64_t{1});
        writeBack(env, area.status(), wb);
        env.sfence();
    }

    /**
     * Persist the mutated data (step 3) and retire the log (step 4).
     */
    void
    commit()
    {
        for (const void *p : dataPtrs)
            flushRange(env, p, sizeof(std::uint64_t), wb);
        env.sfence();
        env.st(area.status(), std::uint64_t{0});
        writeBack(env, area.status(), wb);
        env.sfence();
    }

  private:
    Env &env;
    WalArea &area;
    WriteBack wb;
    std::vector<const void *> dataPtrs;
};

/**
 * Crash recovery for WAL: if a transaction was armed, restore the
 * pre-images eagerly. Runs on the restored durable image.
 */
template <typename Env>
bool
applyUndo(Env &env, WalArea &area)
{
    if (!area.interrupted())
        return false;
    const std::uint64_t n = *area.count();
    for (std::uint64_t i = 0; i < n; ++i) {
        const WalEntry &e = area.entries()[i];
        auto *word = area.arena().template ptr<std::uint64_t>(e.addr);
        env.st(word, e.old);
        env.clflushopt(word);
    }
    env.sfence();
    env.st(area.status(), std::uint64_t{0});
    env.clflushopt(area.status());
    env.sfence();
    return true;
}

} // namespace lp::ep

#endif // LP_EP_WAL_HH
