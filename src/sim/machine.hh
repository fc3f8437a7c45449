/**
 * @file
 * The simulated machine: per-core L1 caches, a shared inclusive L2,
 * MESI-lite coherence, a memory controller with an ADR-protected write
 * port, NVMM latency/write accounting, volatility-duration tracking,
 * and the periodic cache cleaner of Section VI-A.
 *
 * Functional model: program data lives in a PersistBackend (the
 * PersistentArena). The caches track only metadata; when a dirty block
 * reaches the persistence domain (eviction writeback, clflushopt/clwb,
 * cleaner sweep, or drain) the backend copies that block's bytes from
 * the volatile view to the durable NVMM shadow. A crash clears all
 * cache metadata; the arena then restores the volatile view from the
 * shadow, leaving the program with exactly the bytes that persisted.
 *
 * Timing model: in-order per-core cycle accumulation. L1 hit = L1
 * latency; L2 hit adds L2 latency; L2 miss adds NVMM read latency.
 * clflushopt is weakly ordered: it enqueues an asynchronous writeback
 * whose completion respects the memory controller's write-port
 * bandwidth; sfence stalls the core until its outstanding flushes
 * drain. Evictions use the write port but never stall the core.
 *
 * Streaming (non-temporal) stores bypass the caches: each core's
 * write-combining buffer assembles them into lines, and a line whose
 * 64 bytes are all written leaves as one NVMM write through the write
 * port, with no NVMM read and no cache fill. A partial line leaves on
 * sfence, buffer overflow, any cached access to it, or drainDirty();
 * pending lines are volatile, like dirty cache lines.
 *
 * Software prefetch is the one way reads overlap in the in-order
 * model: a prefetch of an uncached line installs it in the L2 at
 * once but marks it in flight until its NVMM read completes, and up
 * to kMshrsPerCore prefetches per core may be in flight together. A
 * demand access to an in-flight line waits only for the rest of its
 * latency.
 */

#ifndef LP_SIM_MACHINE_HH
#define LP_SIM_MACHINE_HH

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "base/types.hh"
#include "sim/cache.hh"
#include "sim/config.hh"
#include "stats/stats.hh"

namespace lp::sim
{

/**
 * Interface to the durable storage backing the simulated NVMM.
 * Implemented by pmem::PersistentArena.
 */
class PersistBackend
{
  public:
    virtual ~PersistBackend() = default;

    /** Copy one block (64B at @p block_addr) into the durable domain. */
    virtual void persistBlock(Addr block_addr) = 0;

    /** Power failure: revert the volatile view to the durable image. */
    virtual void crashRestore() = 0;
};

/** Why a block was written to NVMM; used for per-cause counters. */
enum class WritebackCause
{
    Eviction,   ///< natural LRU eviction from the L2
    Flush,      ///< explicit clflushopt / clwb
    Cleaner,    ///< periodic background cleaner (Section VI-A)
    Drain,      ///< explicit drainDirty() at end of run
    Stream,     ///< a write-combined line of streaming stores
};

/** All measurements the machine collects. */
struct MachineStats
{
    stats::Counter loads;
    stats::Counter streamLoads;   ///< non-allocating loads (readStream)
    stats::Counter stores;
    stats::Counter streamStores;  ///< non-allocating stores (writeStream)
    stats::Counter computeOps;

    stats::Counter l1Accesses;
    stats::Counter l1Misses;
    stats::Counter l2Accesses;
    stats::Counter l2Misses;

    stats::Counter nvmmReads;
    stats::Counter nvmmWrites;     ///< all durable writes, any cause
    stats::Counter evictionWrites;
    stats::Counter flushWrites;
    stats::Counter cleanerWrites;
    stats::Counter drainWrites;
    stats::Counter streamWrites;   ///< write-combined lines, with the
                                   ///< cached copies they displaced

    stats::Counter flushInstrs;    ///< clflushopt/clwb executed
    stats::Counter cleanFlushes;   ///< flushes that found no dirty copy
    stats::Counter fences;

    stats::Counter upgrades;       ///< S->M upgrades
    stats::Counter invalidationsSent;
    stats::Counter cacheToCache;   ///< dirty data supplied by a peer L1
    stats::Counter backInvalidations;

    /// Structural-hazard proxies (Table VI); see DESIGN.md section 5.
    stats::Counter mshrFullEvents;
    stats::Counter lsqFullEvents;      ///< FUW proxy
    stats::Counter loadPortConflicts;  ///< FUR proxy
    stats::Counter fuiSlotsLost;       ///< FUI proxy (lost issue slots)
    stats::Counter mcQueueFullEvents;

    stats::Counter fenceStallCycles;

    stats::Counter prefetches;          ///< prefetch instructions
    stats::Counter prefetchWaitCycles;  ///< demand stalls on lines
                                        ///< still in flight
    stats::Counter prefetchUnused;      ///< prefetched lines evicted
                                        ///< or flushed before any
                                        ///< demand access

    stats::Maximum maxVdur;        ///< max volatility duration (cycles)
    stats::Average avgVdur;
};

/**
 * NVMM wear summary. The paper's motivation for write efficiency is
 * endurance: NVM cells tolerate a bounded number of writes, and both
 * the total write volume and its *concentration* matter (a scheme
 * that hammers a few metadata blocks wears them out first even at a
 * low total). Derived on demand from per-block write counts.
 */
struct WearSummary
{
    /** Distinct blocks written at least once. */
    std::uint64_t blocksWritten = 0;

    /** Total NVMM block writes. */
    std::uint64_t totalWrites = 0;

    /** Writes to the most-written block (the wear hot spot). */
    std::uint64_t maxBlockWrites = 0;

    /** totalWrites / blocksWritten (1.0 = perfectly even). */
    double meanWritesPerBlock = 0.0;

    /** maxBlockWrites / mean: wear-leveling quality (1.0 = even). */
    double hotSpotFactor = 0.0;
};

/** The simulated multicore machine with an NVMM main memory. */
class Machine
{
  public:
    /**
     * Build a machine.
     *
     * @param config  machine parameters (Table II defaults)
     * @param backend durable store receiving block writebacks; may be
     *                nullptr for pure-timing experiments
     */
    Machine(const MachineConfig &config, PersistBackend *backend);

    /// @name Program-visible memory operations
    /// @{

    /** A load of @p size bytes at @p addr executed by core @p c. */
    void read(CoreId c, Addr addr, unsigned size);

    /**
     * A non-allocating (streaming / non-temporal) load: a cached copy
     * is used where one exists, but a miss reads NVMM without
     * installing a line anywhere, so bulk verification sweeps (the
     * media scrub) cannot evict the workload's dirty coalescing
     * lines. Coherence caveat: a peer core's Modified copy is not
     * transferred -- callers must issue streaming reads only from the
     * core that owns the data (the env.hh ownership contract
     * already guarantees this for every store structure).
     */
    void readStream(CoreId c, Addr addr, unsigned size);

    /** A store of @p size bytes at @p addr executed by core @p c. */
    void write(CoreId c, Addr addr, unsigned size);

    /**
     * A non-allocating (streaming / non-temporal) store: the bytes
     * enter core @p c's write-combining buffer, never the caches. A
     * cached copy of the line is written back (if dirty) and dropped
     * first. A line whose 64 bytes are all written leaves the buffer
     * at once as one NVMM write -- no NVMM read, unlike a cached
     * store's write-allocate fill. A partial line leaves as one write
     * on sfence, on buffer overflow (oldest first), when any cached
     * access or flush touches it, or on drainDirty(). Pending lines
     * are lost by powerFail(). sfence waits for these writes
     * as it waits for a clflushopt's.
     *
     * @p store, if given, performs the store's functional effect on
     * the backend's bytes. It runs after any cached copy was written
     * back and before a completed line leaves, so each write carries
     * exactly the bytes it should. Only tests that check counters,
     * not bytes, pass none.
     */
    void writeStream(CoreId c, Addr addr, unsigned size,
                     const std::function<void()> &store = {});

    /**
     * Software prefetch of the block of @p addr into the L2: one issue
     * cycle. A line already cached costs nothing more. Otherwise the
     * line is read from NVMM and installed in the L2 now (evicting a
     * victim as a miss would) but arrives only l2.latency +
     * nvmmReadCycles() later; a demand access before then waits for
     * the rest. At most kMshrsPerCore prefetches are in flight per
     * core: another stalls until the oldest arrives. A line pending
     * in a write-combining buffer is drained first. A prefetch changes
     * no byte; like any access, it reaches NVMM only by that drain
     * and by a dirty victim's writeback.
     */
    void prefetch(CoreId c, Addr addr);

    /**
     * clflushopt: flush the block of @p addr from the whole hierarchy,
     * writing it back if dirty. Weakly ordered; order with sfence.
     */
    void clflushopt(CoreId c, Addr addr);

    /** clwb: write back the block if dirty but keep it cached clean. */
    void clwb(CoreId c, Addr addr);

    /** sfence: stall core @p c until its outstanding flushes drain. */
    void sfence(CoreId c);

    /** Account @p n non-memory instructions on core @p c. */
    void tick(CoreId c, std::uint64_t n);
    /// @}

    /// @name Failure and lifecycle control
    /// @{

    /**
     * Power failure: all cache metadata is discarded and the backend
     * reverts the program's bytes to its durable image, so the
     * program observes exactly what persisted. In-flight flushes
     * already persisted functionally at issue time (the MC write
     * queue is in the ADR persistence domain).
     */
    void
    powerFail()
    {
        loseVolatileState();
        if (backend)
            backend->crashRestore();
    }

    /**
     * Write back every dirty block (graceful shutdown or an explicit
     * full-cache clean). Lines stay resident and become clean.
     */
    void drainDirty(WritebackCause cause = WritebackCause::Drain);

    /** Synchronize all core clocks to the maximum (a barrier). */
    void syncAllCores();
    /// @}

    /// @name Introspection
    /// @{
    Cycles coreCycles(CoreId c) const { return clk[c]; }

    /** Execution time so far: the maximum core clock. */
    Cycles execCycles() const;

    const MachineStats &machineStats() const { return s; }
    const MachineConfig &config() const { return cfg; }

    /** All counters as a name->value map (for benches and tests). */
    stats::Snapshot snapshot() const;

    /** Zero all counters; cache contents are preserved (warm-up). */
    void resetStats();

    /** Dirty lines currently resident anywhere in the hierarchy. */
    unsigned totalDirtyLines() const;

    /** Lines pending in the write-combining buffers of all cores. */
    unsigned pendingStreamLines() const { return wcLines; }

    /** Per-block NVMM wear summary for the current stats epoch. */
    WearSummary wearSummary() const;

    /// NVMM writes and reads per block address for the current stats
    /// epoch, for attributing traffic to address ranges.
    /// @{
    const std::unordered_map<Addr, std::uint64_t> &
    blockWriteCounts() const
    {
        return blockWrites;
    }
    const std::unordered_map<Addr, std::uint64_t> &
    blockReadCounts() const
    {
        return blockReads;
    }
    /// @}
    /// @}

  private:
    /** Directory entry tracking which L1s hold a block. */
    struct DirEntry
    {
        std::uint32_t sharers = 0;
        int owner = -1;  ///< core holding the block Modified, or -1
    };

    static std::uint32_t bit(CoreId c) { return 1u << c; }

    /** powerFail()'s first half: drop every cache and queue entry. */
    void loseVolatileState();

    /**
     * Demand access to @p blk, an L2 hit that would complete at
     * @p done: if a prefetch of @p blk is still in flight, returns
     * the cycles it waits beyond @p done. Either way the line stops
     * being a prefetched line.
     */
    Cycles awaitPrefetch(Addr blk, Cycles done);

    /** @p blk left the L2: forget it, counting a prefetch unused. */
    void dropPrefetch(Addr blk);

    /** Fire the periodic cleaner if its deadline passed. */
    void maybeClean(CoreId c);

    /** Process one block of a load/store. */
    void accessBlock(CoreId c, Addr blk, bool is_write);

    /** Handle an L1 miss; returns the added latency. */
    Cycles handleL1Miss(CoreId c, Addr blk, bool is_write);

    /** Invalidate every L1 copy of @p blk except core @p except. */
    void invalidateOtherSharers(Addr blk, CoreId except);

    /** Evict an L1 victim line (dirty data merges into the L2). */
    void evictL1Victim(CoreId c, Line &victim);

    /** Evict an L2 victim (back-invalidate L1s, write back if dirty). */
    void evictL2Victim(CoreId c, Line &victim);

    /**
     * Reserve the MC write port at or after @p ready; returns the
     * grant time and advances the port.
     */
    Cycles grantWritePort(Cycles ready);

    /** Functionally persist a block and account the NVMM write. */
    void writebackToNvmm(CoreId c, Addr blk, WritebackCause cause);

    /** Account one NVMM read of @p blk. */
    void
    noteNvmmRead(Addr blk)
    {
        ++s.nvmmReads;
        ++blockReads[blk];
    }

    /**
     * Send write-combining entry @p i of core @p c to NVMM as one
     * write through the write port; sfence waits for it.
     */
    void flushWcEntry(CoreId c, std::size_t i);

    /** Send the pending write-combined copy of @p blk, if any. */
    void flushWcLine(Addr blk);

    /**
     * Hand @p blk to the MC write port as an asynchronous write of
     * core @p c that sfence waits for (clflushopt, streaming stores).
     */
    void sendToNvmm(CoreId c, Addr blk, WritebackCause cause);

    /**
     * Clean every cached copy of @p blk: Shared with @p keep_line,
     * else Invalid. Returns whether any copy was dirty; the caller
     * writes it back.
     */
    bool dropCopies(Addr blk, bool keep_line);

    /** Record that @p blk became dirty at time @p now (if not yet). */
    void markDirty(Addr blk, Cycles now);

    /** Sample the volatility duration of @p blk, if tracked. */
    void sampleVdur(Addr blk, Cycles now);

    /** Drop flush-queue entries of core @p c that completed by now. */
    void pruneFlushQueue(CoreId c);

    /** Shared flush path for clflushopt / clwb. */
    void flushBlock(CoreId c, Addr addr, bool keep_line);

    MachineConfig cfg;
    PersistBackend *backend;

    std::vector<Cache> l1s;
    Cache l2;
    std::unordered_map<Addr, DirEntry> dir;

    /**
     * Per-core streaming-load buffers (the fill-buffer coalescing of
     * real non-temporal loads): the last few blocks a core streamed
     * pay the NVMM read once; subsequent word reads of the same block
     * are buffer hits. Timing metadata only -- never holds data and
     * is never a coherence participant.
     */
    static constexpr unsigned streamBufEntries = 12;
    std::vector<std::vector<Addr>> streamBuf;

    /** A line being assembled by streaming stores. */
    struct WcLine
    {
        Addr blk;
        std::uint64_t mask;  ///< bit i: byte i of the line written
    };

    /**
     * Per-core write-combining buffers, oldest entry first: the
     * store-side twin of streamBuf. Unlike streamBuf they carry
     * state that matters -- which bytes are pending -- so a crash
     * discards them and any cached access drains the line first.
     */
    static constexpr unsigned wcBufEntries = 10;
    std::vector<std::vector<WcLine>> wcBuf;
    unsigned wcLines = 0;  ///< entries across all cores

    std::vector<Cycles> clk;
    std::vector<std::vector<Cycles>> flushQ;  ///< per-core completions

    /** Per-core arrival times of prefetches holding an MSHR. */
    std::vector<std::vector<Cycles>> prefetchQ;

    /**
     * L2-resident lines a prefetch installed that no demand access
     * has touched yet, with their arrival times. Only clean L2 lines
     * with no L1 copy can be here: the first demand access takes the
     * line out, and an L2 eviction or flush erases it.
     */
    std::unordered_map<Addr, Cycles> prefetched;

    Cycles writePortFreeAt = 0;
    Cycles nextCleanAt = 0;

    std::unordered_map<Addr, Cycles> dirtySince;

    /** NVMM writes per block (wear tracking; reset with stats). */
    std::unordered_map<Addr, std::uint64_t> blockWrites;

    /** NVMM reads per block (reset with stats). */
    std::unordered_map<Addr, std::uint64_t> blockReads;

    /** execCycles() at the last resetStats(); snapshot reports the
     *  cycles of the current stats epoch. */
    Cycles statsBaseline = 0;

    MachineStats s;
};

} // namespace lp::sim

#endif // LP_SIM_MACHINE_HH
