/**
 * @file
 * Per-shard batch journal of the `lp::store` key-value store: record
 * format, append/seal (the Figure 8 region-commit idiom of plain
 * stores), and the validated replay walk recovery runs.
 *
 * Journal records are 16B, four to a 64B block, and the journal base
 * is block-aligned, so no record ever straddles a block. A batch is
 * its records followed by a TRAILER {slotEmptyKey, digest | epoch
 * tag}; slotEmptyKey is never a record's first word, so the first
 * one a walk meets closes the batch. Every journal byte is written
 * exactly once, front to back, with streaming stores (Env::stStream):
 * the lines bypass the cache and a full line reaches NVMM as one
 * write with no read, as PM redo logs are written on x86. A partial
 * tail line waits in the core's write-combining buffer until the
 * line fills or the fold's fence drains it.
 *
 * The journal is SELF-VALIDATING: the trailer carries the batch's
 * digest, so a batch is committed exactly when its trailer line is
 * durable and the digest recomputed over what reached NVMM matches
 * it. No separate checksum table exists. The paper keeps its
 * checksums in a table because its regions update data in place; a
 * journal batch is append-only and already ends in a record of its
 * own, so the check rides there, and the journal parity that covers
 * every record covers the trailer too.
 *
 * The digest (BatchDigest) is the journal's ONLY checksum: it
 * decides what recovery replays, and it also decides which parity
 * reconstruction of a rotted batch is right (backend_lp.hh). So it
 * is strong: each word enters as mix64(word ^ salt) into a 64-bit
 * sum, its salt derived from one per-batch mix64 of the shard's LIFE
 * and the batch's epoch plus the word's position. mix64 is a
 * bijection, so changing any one word always moves the sum, and any
 * change to one or two words leaves the trailer's 48 digest bits
 * unchanged only with probability about 2^-48. A record stores only
 * what replay applies; its epoch and in-batch index are not stored
 * but enter the digest through the salt. LIFE is a counter kept in
 * the superblock and advanced by every recovery. A stale record from
 * an earlier journal generation -- even one sitting at the same
 * position of a permutation of the new batch -- therefore still
 * fails validation, because it is salted as the epoch and index it
 * would have to belong to; and a batch a crashed life left behind
 * fails under the next life's salt even though epoch numbers restart
 * at the recovered watermark. The journal array restarts at offset 0
 * after each fold.
 *
 * The journal owns the CURSORS (tail, open-batch start) and the
 * store/digest mechanics; epoch numbering and batch/fold accounting
 * are the CommitPipeline's (engine/commit_pipeline.hh). The geometry
 * helper shared with arena budgeting is non-template and lives in
 * journal.cc.
 */

#ifndef LP_STORE_JOURNAL_HH
#define LP_STORE_JOURNAL_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "base/logging.hh"
#include "base/types.hh"
#include "repair/repair.hh"
#include "store/layout.hh"

namespace lp::store
{

/** Journal record type; the three are told apart by their first word. */
enum class JOp : std::uint8_t
{
    Put = 1,      ///< stored as {key, value}
    Del = 2,      ///< stored as {slotTombstoneKey, key}
    Applied = 3,  ///< stored as {slotAppliedKey, decision seq}
};

/**
 * Low epoch bits a batch trailer keeps as its TAG; the other 48 bits
 * of its second word hold the digest. The tag tells a trailer the
 * walk expects from one an earlier generation left at the same
 * position: a trailer of another epoch is the journal's end, not a
 * discarded batch. Only an epoch a multiple of 2^16 away aliases the
 * tag; its digest then fails (the salt binds the full epoch), so the
 * worst case is one batch counted as discarded, never a wrong accept.
 */
inline constexpr unsigned trailerTagBits = 16;
inline constexpr std::uint64_t trailerTagMask =
    (1ull << trailerTagBits) - 1;

/**
 * One journal record, 16B (four per block). Put is {key, value}; Del
 * is {slotTombstoneKey, key}; Applied -- the shard applied its part
 * of a transaction decision, which replay reports instead of
 * applying -- is {slotAppliedKey, seq}. Both sentinels are above
 * maxUserKey, so the forms are unambiguous; the batch trailer is
 * {slotEmptyKey, digest48 << 16 | epoch tag}.
 */
struct JEntry
{
    std::uint64_t key;
    std::uint64_t value;

    /** The stored form of a Put, Del or Applied (value = seq). */
    static JEntry
    encode(JOp op, std::uint64_t key, std::uint64_t value)
    {
        if (op == JOp::Del)
            return JEntry{slotTombstoneKey, key};
        return op == JOp::Applied ? JEntry{slotAppliedKey, value}
                                  : JEntry{key, value};
    }

    /**
     * The trailer sealing @p epoch's batch of salted digest
     * @p digest: the digest's top 16 bits are XOR-folded into its
     * low 48, which sit above the epoch tag.
     */
    static JEntry
    trailer(std::uint64_t epoch, std::uint64_t digest)
    {
        return JEntry{slotEmptyKey,
                      ((digest ^ (digest >> 48)) << trailerTagBits) |
                          (epoch & trailerTagMask)};
    }
};

static_assert(sizeof(JEntry) == 16);
static_assert(blockBytes % sizeof(JEntry) == 0,
              "a journal record must never straddle a block");

/** Instructions charged per mix64. */
inline constexpr std::uint64_t mixCost = 8;

/**
 * Instructions charged per digested word: its salt step, the XOR,
 * one mix64 and the add.
 */
inline constexpr std::uint64_t digestWordCost = mixCost + 3;

/**
 * Running digest of one batch (see the file comment). The batch's
 * words are numbered: the trailer's are 0 and 1 (the trailer digests
 * as {slotEmptyKey, record count}), record j's 2j and 2j+1, j from
 * 1. The salt is XORed in: each word passes through its own mix64,
 * so no salt can cancel across words. The digest is part of the
 * journal format, which the shard file does not version: a batch
 * sealed under another digest fails validation.
 */
class BatchDigest
{
  public:
    /** Start the digest of @p epoch's batch in shard life @p life. */
    void
    start(std::uint64_t life, std::uint64_t epoch)
    {
        salt_ = repair::mix64((epoch ^ (life << 40)) * kStride);
        sum_ = 0;
    }

    /** Fold record @p index (0 = the trailer) into the sum. */
    void
    addRecord(std::uint64_t index, std::uint64_t key, std::uint64_t value)
    {
        add(2 * index, key);
        add(2 * index + 1, value);
    }

    std::uint64_t value() const { return sum_; }

  private:
    static constexpr std::uint64_t kStride = 0x9e3779b97f4a7c15ull;

    /** Fold word number @p i, holding @p w, into the sum. */
    void
    add(std::uint64_t i, std::uint64_t w)
    {
        sum_ += repair::mix64(w ^ (salt_ + i * kStride));
    }

    std::uint64_t salt_ = 0;
    std::uint64_t sum_ = 0;
};

/** Journal entry capacity for @p cfg: foldBatches + slack batches. */
std::size_t journalCapacity(const StoreConfig &cfg);

/**
 * One shard's batch journal: an append cursor over a fixed arena
 * allocation of JEntry records. Appends are STREAMING stores through
 * the Env -- no flush, no fence -- so they keep the Lazy Persistency
 * discipline while never allocating in (or reading into) the cache;
 * the fold's fence is the only eager pin.
 */
template <typename Env>
class BatchJournal
{
  public:
    static constexpr std::size_t npos = ~static_cast<std::size_t>(0);

    BatchJournal(pmem::PersistentArena &arena, std::size_t cap)
        : buf_(arena.alloc<JEntry>(cap)), cap_(cap)
    {
    }

    std::size_t tail() const { return tail_; }
    bool batchOpen() const { return batchStart_ != npos; }

    /// @name Raw buffer geometry, for parity coverage (backend_lp)
    /// and fault injection (store FaultSurface).
    /// @{
    const void *data() const { return buf_; }
    std::size_t dataBytes() const { return cap_ * sizeof(JEntry); }
    std::size_t sealedBytes() const
    {
        return (batchOpen() ? batchStart_ : tail_) * sizeof(JEntry);
    }
    /// @}

    /**
     * The words of 64B region @p r exactly as the appender stored
     * them, and those of every later region written so far. Parity
     * coverage takes them from here instead of loading the streamed
     * lines back from NVMM. Valid for any region of the parity group
     * the tail was in when the open (or last sealed) batch opened,
     * and any later region: at most 7 whole regions plus the tail.
     */
    const std::uint64_t *
    storedWords(std::size_t r) const
    {
        const std::size_t w = r * repair::regionWords;
        LP_ASSERT(w >= freshBase_ && w - freshBase_ <= fresh_.size(),
                  "region words already dropped");
        return fresh_.data() + (w - freshBase_);
    }

    /** Shard life the digests are salted with (see BatchDigest). */
    void setLife(std::uint64_t life) { life_ = life; }

    /** Room for @p batchOps records plus the trailer? */
    bool
    roomFor(int batchOps) const
    {
        return tail_ + std::size_t(batchOps) + 1 <= cap_;
    }

    /**
     * Open the batch of @p epoch and start its digest. Nothing is
     * stored until the first record: the trailer is written last, at
     * seal.
     */
    void
    open(Env &env, std::uint64_t epoch)
    {
        LP_ASSERT(!batchOpen(), "batch already open");
        batchStart_ = tail_;
        epoch_ = epoch;
        // Parity covers whole groups of regions: keep the words from
        // the first region of the group the tail is in.
        constexpr std::size_t groupWords =
            repair::groupRegions * repair::regionWords;
        const std::size_t keep = tail_ * 2 / groupWords * groupWords;
        fresh_.erase(fresh_.begin(),
                     fresh_.begin() +
                         static_cast<std::ptrdiff_t>(keep - freshBase_));
        freshBase_ = keep;
        digest_.start(life_, epoch);
        env.tick(4 + mixCost);
    }

    /** Append one record and fold it into the digest. */
    void
    append(Env &env, JOp op, std::uint64_t key, std::uint64_t value)
    {
        LP_ASSERT(batchOpen() && tail_ < cap_, "append out of bounds");
        const JEntry rec = JEntry::encode(op, key, value);
        put(env, rec);
        digest_.addRecord(tail_ - batchStart_, rec.key, rec.value);
        env.tick(recordCost);
    }

    /**
     * Seal the open batch: fold the trailer (as {slotEmptyKey, record
     * count}) into the digest and append the trailer carrying it --
     * still a streaming store. Once the trailer's line is durable the
     * batch is committed; nothing else is written.
     */
    void
    seal(Env &env)
    {
        LP_ASSERT(batchOpen() && tail_ < cap_, "no open batch");
        digest_.addRecord(0, slotEmptyKey, tail_ - batchStart_);
        put(env, JEntry::trailer(epoch_, digest_.value()));
        env.tick(recordCost);
        batchStart_ = npos;
    }

    /** Restart at offset 0 (after a fold or recovery). */
    void
    reset()
    {
        tail_ = 0;
        batchStart_ = npos;
        fresh_.clear();
        freshBase_ = 0;
    }

    /** Outcome of validating the batch expected at one position. */
    enum class Check
    {
        NoTrailer,  ///< no trailer with the expected tag: journal end
        Invalid,    ///< tagged trailer found; shape or digest fails
        Valid,
    };

    /**
     * One past the last entry a batch starting at entry @p pos can
     * occupy: batchOps records and the trailer.
     */
    std::size_t
    windowEnd(const StoreConfig &cfg, std::size_t pos) const
    {
        return std::min(cap_, pos + std::size_t(cfg.batchOps) + 1);
    }

    /**
     * Validate the batch of epoch @p e that should start at entry
     * @p pos (< capacity), reading each journal word through
     * @p load(const std::uint64_t *): its trailer must be the first
     * record within the window whose key is slotEmptyKey and carry
     * @p e's tag; each record must have a legal shape (a Del names a
     * user key); and the digest recomputed over what was read must be
     * the one the trailer carries. On Valid, @p count is the batch's
     * record count; on Invalid, too.
     */
    template <typename LoadFn>
    Check
    check(Env &env, const StoreConfig &cfg, std::size_t pos,
          std::uint64_t e, std::uint64_t &count, LoadFn &&load) const
    {
        const std::size_t end = windowEnd(cfg, pos);
        BatchDigest d;
        d.start(life_, e);
        env.tick(mixCost);
        bool shapeOk = true;
        for (std::size_t i = pos; i < end; ++i) {
            const JEntry &je = buf_[i];
            const std::uint64_t k = load(&je.key);
            const std::uint64_t v = load(&je.value);
            if (k == slotEmptyKey) {
                if ((v & trailerTagMask) != (e & trailerTagMask))
                    return Check::NoTrailer;
                count = i - pos;
                d.addRecord(0, k, count);
                env.tick(recordCost);
                return shapeOk &&
                               JEntry::trailer(e, d.value()).value == v
                           ? Check::Valid
                           : Check::Invalid;
            }
            d.addRecord(i - pos + 1, k, v);
            env.tick(recordCost);
            if (k == slotTombstoneKey && v > maxUserKey)
                shapeOk = false;
        }
        return Check::NoTrailer;
    }

    /**
     * Recovery walk (see the recovery story in backend_lp.hh): from
     * offset 0, expect epochs base+1, base+2, ...; check each batch
     * over what actually reached NVMM. Accepted batches replay
     * through @p apply(isPut, key, value) per record, in journal
     * order (an Applied record as a put of slotAppliedKey, for the
     * caller to tell apart). Stops at the first batch failing
     * validation -- appends are sequential, so durability is
     * prefix-shaped. Returns the last committed epoch.
     *
     * @p repairFn(pos, epoch) is the media-repair hook: on a
     * validation failure of any kind (a missing trailer included --
     * a rotted trailer looks exactly like the clean end of the
     * journal) it is invoked with the failing batch's entry position
     * and epoch; if it reports that it restored anything, the
     * position is re-validated once before the failure is made
     * final. Pass a `[](std::size_t, std::uint64_t) { return false; }`
     * thunk to opt out.
     */
    template <typename ApplyFn, typename RepairFn>
    std::uint64_t
    replay(Env &env, const StoreConfig &cfg, std::uint64_t base,
           ApplyFn &&apply, RepairFn &&repairFn, RecoveryReport &rep)
    {
        const auto load = [&env](const std::uint64_t *p) {
            return env.ld(p);
        };
        std::uint64_t e = base + 1;
        std::size_t pos = 0;
        bool retried = false;
        while (pos < cap_) {
            std::uint64_t count = 0;
            const Check c = check(env, cfg, pos, e, count, load);
            if (c != Check::Valid) {
                if (!retried && repairFn(pos, e)) {
                    retried = true;
                    continue;
                }
                if (c == Check::Invalid)
                    ++rep.batchesDiscarded;
                break;
            }
            retried = false;
            for (std::uint64_t i = 0; i < count; ++i) {
                JEntry &je = buf_[pos + i];
                const std::uint64_t k = env.ld(&je.key);
                const std::uint64_t v = env.ld(&je.value);
                if (k == slotTombstoneKey)
                    apply(false, v, std::uint64_t{0});
                else
                    apply(true, k, v);
                ++rep.entriesReplayed;
            }
            ++rep.batchesReplayed;
            pos += count + 1;
            ++e;
        }
        return e - 1;
    }

  private:
    /** Instructions charged per record: two digested words. */
    static constexpr std::uint64_t recordCost = 2 * digestWordCost;

    /** Stream @p rec into the tail slot and keep its words. */
    void
    put(Env &env, const JEntry &rec)
    {
        JEntry &e = buf_[tail_++];
        env.stStream(&e.key, rec.key);
        env.stStream(&e.value, rec.value);
        fresh_.push_back(rec.key);
        fresh_.push_back(rec.value);
    }

    JEntry *buf_ = nullptr;
    std::size_t cap_ = 0;
    std::size_t tail_ = 0;
    std::size_t batchStart_ = npos;
    std::uint64_t epoch_ = 0;  ///< of the open batch
    std::uint64_t life_ = 0;
    BatchDigest digest_;       ///< of the open batch

    /// Words stored since the first region of the parity group the
    /// tail was in when the last batch opened; fresh_[0] is journal
    /// word freshBase_.
    std::vector<std::uint64_t> fresh_;
    std::size_t freshBase_ = 0;
};

} // namespace lp::store

#endif // LP_STORE_JOURNAL_HH
