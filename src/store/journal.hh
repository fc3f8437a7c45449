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
 * salted digest, so a batch is committed exactly when its trailer
 * line is durable and the digest recomputed over what reached NVMM
 * matches it. No separate checksum table exists. The paper keeps its
 * checksums in a table because its regions update data in place; a
 * journal batch is append-only and already ends in a record of its
 * own, so the check rides there, and the journal parity that covers
 * every record covers the trailer too.
 *
 * A record stores only what replay applies; its epoch and in-batch
 * index are not stored but folded into the batch digest as a
 * per-word salt (journalSalt), together with the shard's LIFE -- a
 * counter kept in the superblock and advanced by every recovery. A
 * stale record from an earlier journal generation -- even one sitting
 * at the same position of a permutation of the new batch -- therefore
 * still fails validation, because it is salted as the epoch and index
 * it would have to belong to; and a batch a crashed life left behind
 * fails under the next life's salt even though epoch numbers restart
 * at the recovered watermark. The journal array restarts at offset 0
 * after each fold.
 *
 * The journal owns the CURSORS (tail, open-batch start) and the
 * store/checksum mechanics; epoch numbering and batch/fold accounting
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
#include "lp/checksum.hh"
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

/** Instructions charged per digest salt (one mix64). */
inline constexpr std::uint64_t journalSaltCost = 8;

/**
 * Digest salt of digested word @p word (trailer words 0 and 1, record
 * i words 2i and 2i+1, i from 1) of the batch of @p epoch written in
 * shard life @p life. It is ADDED to the word before the word enters
 * the checksum: an XOR salt would cancel out of a Parity digest for a
 * permuted batch, an additive one carries into the folded bits and
 * does not.
 */
inline std::uint64_t
journalSalt(std::uint64_t life, std::uint64_t epoch, std::uint64_t word)
{
    return repair::mix64((epoch ^ (life << 40)) * 0x9e3779b97f4a7c15ull +
                         word);
}

/**
 * Fold record @p index (0 = the trailer, which digests as
 * {slotEmptyKey, record count}) of @p epoch's batch of life @p life
 * into @p acc.
 */
inline void
digestRecord(core::ChecksumAcc &acc, std::uint64_t life,
             std::uint64_t epoch, std::uint64_t index, std::uint64_t key,
             std::uint64_t value)
{
    acc.addWord(key + journalSalt(life, epoch, 2 * index));
    acc.addWord(value + journalSalt(life, epoch, 2 * index + 1));
}

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

    /** Shard life the digests are salted with (see journalSalt). */
    void setLife(std::uint64_t life) { life_ = life; }

    /** Room for @p batchOps records plus the trailer? */
    bool
    roomFor(int batchOps) const
    {
        return tail_ + std::size_t(batchOps) + 1 <= cap_;
    }

    /**
     * Open a batch for the next epoch and reset @p acc for its
     * digest. Nothing is stored until the first record: the trailer
     * is written last, at seal.
     */
    void
    open(Env &env, core::ChecksumAcc &acc)
    {
        LP_ASSERT(!batchOpen(), "batch already open");
        batchStart_ = tail_;
        // Parity covers whole groups of regions: keep the words from
        // the first region of the group the tail is in.
        constexpr std::size_t groupWords =
            repair::groupRegions * repair::regionWords;
        const std::size_t keep = tail_ * 2 / groupWords * groupWords;
        fresh_.erase(fresh_.begin(),
                     fresh_.begin() +
                         static_cast<std::ptrdiff_t>(keep - freshBase_));
        freshBase_ = keep;
        acc.reset();
        env.tick(4);
    }

    /** Append one record and fold it (salted) into the digest. */
    void
    append(Env &env, JOp op, std::uint64_t key, std::uint64_t value,
           std::uint64_t epoch, core::ChecksumAcc &acc)
    {
        LP_ASSERT(batchOpen() && tail_ < cap_, "append out of bounds");
        const JEntry rec = JEntry::encode(op, key, value);
        put(env, rec);
        digestRecord(acc, life_, epoch, tail_ - batchStart_, rec.key,
                     rec.value);
        env.tick(recordCost);
    }

    /**
     * Seal the open batch: fold the trailer (as {slotEmptyKey, record
     * count}) into the digest and append the trailer carrying it --
     * still a streaming store. Once the trailer's line is durable the
     * batch is committed; nothing else is written.
     */
    void
    seal(Env &env, std::uint64_t epoch, core::ChecksumAcc &acc)
    {
        LP_ASSERT(batchOpen() && tail_ < cap_, "no open batch");
        digestRecord(acc, life_, epoch, 0, slotEmptyKey,
                     tail_ - batchStart_);
        put(env, JEntry::trailer(epoch, acc.value()));
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

    /**
     * Recovery walk (see the recovery story in backend_lp.hh): from
     * offset 0, expect epochs base+1, base+2, ...; find each batch's
     * trailer, recompute its digest over what actually reached NVMM
     * and accept it iff the trailer carries that digest. Accepted
     * batches replay through @p apply(isPut, key, value) per record,
     * in journal order (an Applied record as a put of slotAppliedKey,
     * for the caller to tell apart). Stops at the first batch
     * failing validation -- appends are sequential, so durability is
     * prefix-shaped. Returns the last committed epoch.
     *
     * @p repairFn(offset) is the media-repair hook: on the FIRST
     * validation failure of any kind (a missing trailer included --
     * a rotted trailer looks exactly like the clean end of the
     * journal) it is invoked once with the failing batch's byte
     * offset in the journal; if it reports that it changed anything,
     * the failing position is re-validated once before the failure
     * is made final. The offset lets the hook tell a batch that media
     * protection covers from the journal's natural end. Pass a
     * `[](std::size_t) { return false; }` thunk to opt out.
     */
    template <typename ApplyFn, typename RepairFn>
    std::uint64_t
    replay(Env &env, const StoreConfig &cfg, std::uint64_t base,
           ApplyFn &&apply, RepairFn &&repairFn, RecoveryReport &rep)
    {
        bool repairTried = false;
        auto tryRepair = [&](std::size_t pos) {
            if (repairTried)
                return false;
            repairTried = true;
            return repairFn(pos * sizeof(JEntry));
        };
        std::uint64_t e = base + 1;
        std::size_t pos = 0;
        while (pos < cap_) {
            std::uint64_t count = 0;
            const Check c = checkBatch(env, cfg, pos, e, count);
            if (c != Check::Valid) {
                if (tryRepair(pos))
                    continue;
                if (c == Check::Invalid)
                    ++rep.batchesDiscarded;
                break;
            }
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
    /** Outcome of validating the batch expected at one position. */
    enum class Check
    {
        NoTrailer,  ///< no trailer with the expected tag: journal end
        Invalid,    ///< tagged trailer found; shape or digest fails
        Valid,
    };

    /** Instructions charged per record: two salted digest words. */
    static constexpr std::uint64_t recordCost =
        2 * (core::ChecksumAcc::updateCost(kStoreChecksum) +
             journalSaltCost);

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

    /**
     * Validate the batch of epoch @p e that should start at @p pos
     * (< cap_): its trailer must be the first record within
     * batchOps + 1 whose key is slotEmptyKey and carry @p e's tag;
     * each record must have a legal shape (a Del names a user key);
     * and the salted digest recomputed over what reached NVMM must be
     * the one the trailer carries. On Valid, @p count is the batch's
     * record count.
     */
    Check
    checkBatch(Env &env, const StoreConfig &cfg, std::size_t pos,
               std::uint64_t e, std::uint64_t &count)
    {
        const std::size_t end =
            std::min(cap_, pos + std::size_t(cfg.batchOps) + 1);
        core::ChecksumAcc acc(kStoreChecksum);
        bool shapeOk = true;
        for (std::size_t i = pos; i < end; ++i) {
            JEntry &je = buf_[i];
            const std::uint64_t k = env.ld(&je.key);
            const std::uint64_t v = env.ld(&je.value);
            if (k == slotEmptyKey) {
                if ((v & trailerTagMask) != (e & trailerTagMask))
                    return Check::NoTrailer;
                count = i - pos;
                digestRecord(acc, life_, e, 0, k, count);
                env.tick(recordCost);
                return shapeOk &&
                               JEntry::trailer(e, acc.value()).value == v
                           ? Check::Valid
                           : Check::Invalid;
            }
            digestRecord(acc, life_, e, i - pos + 1, k, v);
            env.tick(recordCost);
            if (k == slotTombstoneKey && v > maxUserKey)
                shapeOk = false;
        }
        return Check::NoTrailer;
    }

    JEntry *buf_ = nullptr;
    std::size_t cap_ = 0;
    std::size_t tail_ = 0;
    std::size_t batchStart_ = npos;
    std::uint64_t life_ = 0;

    /// Words stored since the first region of the parity group the
    /// tail was in when the last batch opened; fresh_[0] is journal
    /// word freshBase_.
    std::vector<std::uint64_t> fresh_;
    std::size_t freshBase_ = 0;
};

} // namespace lp::store

#endif // LP_STORE_JOURNAL_HH
