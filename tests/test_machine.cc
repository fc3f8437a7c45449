/**
 * @file
 * Unit tests for the simulated machine: hit/miss timing, writeback
 * and durability plumbing, flush/fence semantics, streaming loads
 * and write-combined streaming stores, software prefetch and its
 * MSHR bound, MESI-lite coherence,
 * volatility-duration tracking, and crash behaviour.
 */

#include <gtest/gtest.h>

#include "pmem/arena.hh"
#include "sim/machine.hh"

namespace lp::sim
{
namespace
{

MachineConfig
tinyConfig()
{
    MachineConfig cfg;
    cfg.numCores = 2;
    cfg.l1 = {1024, 2, 2};       // 8 sets x 2 ways
    cfg.l2 = {4096, 4, 11};      // 16 sets x 4 ways
    return cfg;
}

struct Fixture
{
    explicit Fixture(const MachineConfig &cfg = tinyConfig())
        : arena(1 << 20), m(cfg, &arena)
    {
        data = arena.alloc<double>(4096);
    }

    Addr addr(int i) const { return arena.addrOf(&data[i]); }

    pmem::PersistentArena arena;
    Machine m;
    double *data;
};

/** Allocating and streaming loads and stores on core 0, with fences. */
void
runStreamingMix(Fixture &f)
{
    for (int i = 0; i < 1024; i += 3) {
        f.data[i] = i;
        f.m.writeStream(0, f.addr(i), 8);
        if (i % 7 == 0)
            f.m.write(0, f.addr((i * 13) % 1024), 8);
        if (i % 5 == 0)
            f.m.readStream(0, f.addr((i * 29) % 1024), 8);
        if (i % 11 == 0)
            f.m.read(0, f.addr((i * 31) % 1024), 8);
        if (i % 64 == 0)
            f.m.sfence(0);
    }
}

/**
 * Prefetches, loads, stores, streaming stores and flushes from both
 * cores over four times the tiny L2, so some prefetched lines are
 * evicted unused and others are still in flight when loaded.
 */
void
runPrefetchMix(Fixture &f)
{
    constexpr int kWords = 2048;
    for (int i = 0; i < kWords; i += 5) {
        const CoreId c = (i / 5) % 2;
        f.m.prefetch(c, f.addr((i * 37 + 640) % kWords));
        f.m.prefetch(c, f.addr((i * 7919) % kWords));
        f.m.read(c, f.addr((i * 37) % kWords), 8);
        if (i % 3 == 0)
            f.m.write(c, f.addr((i * 11) % kWords), 8);
        if (i % 4 == 0)
            f.m.writeStream(c, f.addr((i * 13) % kWords), 8);
        if (i % 50 == 0)
            f.m.clflushopt(c, f.addr((i * 7919) % kWords));
        if (i % 64 == 0)
            f.m.sfence(c);
    }
}

TEST(Machine, ColdReadCostsL1L2AndNvmm)
{
    Fixture f;
    const Cycles before = f.m.coreCycles(0);
    f.m.read(0, f.addr(0), 8);
    const Cycles cost = f.m.coreCycles(0) - before;
    const MachineConfig cfg = tinyConfig();
    EXPECT_EQ(cost, cfg.l1.latency + cfg.l2.latency +
                    cfg.nvmmReadCycles());
    EXPECT_EQ(f.m.machineStats().nvmmReads.value(), 1u);
    EXPECT_EQ(f.m.machineStats().l1Misses.value(), 1u);
    EXPECT_EQ(f.m.machineStats().l2Misses.value(), 1u);
}

TEST(Machine, WarmReadCostsL1Only)
{
    Fixture f;
    f.m.read(0, f.addr(0), 8);
    const Cycles before = f.m.coreCycles(0);
    f.m.read(0, f.addr(0), 8);
    EXPECT_EQ(f.m.coreCycles(0) - before, tinyConfig().l1.latency);
    EXPECT_EQ(f.m.machineStats().l1Misses.value(), 1u);
}

TEST(Machine, StreamReadDoesNotInstall)
{
    Fixture f;
    const MachineConfig cfg = tinyConfig();

    // Cold streaming read: full miss cost, but nothing installed --
    // a later allocating read of the same block misses again.
    const Cycles before = f.m.coreCycles(0);
    f.m.readStream(0, f.addr(0), 8);
    EXPECT_EQ(f.m.coreCycles(0) - before,
              cfg.l1.latency + cfg.l2.latency + cfg.nvmmReadCycles());
    EXPECT_EQ(f.m.machineStats().streamLoads.value(), 1u);
    EXPECT_EQ(f.m.machineStats().nvmmReads.value(), 1u);
    f.m.read(0, f.addr(0), 8);
    EXPECT_EQ(f.m.machineStats().l2Misses.value(), 2u);
    EXPECT_EQ(f.m.machineStats().nvmmReads.value(), 2u);
}

TEST(Machine, StreamReadCoalescesInFillBuffer)
{
    Fixture f;
    // The block's remaining words ride the first word's NVMM read.
    f.m.readStream(0, f.addr(0), 8);
    const Cycles before = f.m.coreCycles(0);
    f.m.readStream(0, f.addr(1), 8);
    EXPECT_EQ(f.m.coreCycles(0) - before, tinyConfig().l1.latency);
    EXPECT_EQ(f.m.machineStats().nvmmReads.value(), 1u);
}

TEST(Machine, StreamReadHitsCachedCopy)
{
    Fixture f;
    // A cache-dirty line must satisfy the streaming read (a scrub's
    // checksum covers the eventual durable content), at L1-hit cost.
    f.m.write(0, f.addr(0), 8);
    const auto readsAfterFill = f.m.machineStats().nvmmReads.value();
    const Cycles before = f.m.coreCycles(0);
    f.m.readStream(0, f.addr(0), 8);
    EXPECT_EQ(f.m.coreCycles(0) - before, tinyConfig().l1.latency);
    EXPECT_EQ(f.m.machineStats().nvmmReads.value(), readsAfterFill);
    EXPECT_EQ(f.m.totalDirtyLines(), 1u);
}

TEST(Machine, StraddlingAccessTouchesBothBlocks)
{
    Fixture f;
    // 8 bytes starting 4 bytes before a block boundary.
    f.m.read(0, f.addr(8) - 4, 8);
    EXPECT_EQ(f.m.machineStats().l1Accesses.value(), 2u);
}

TEST(Machine, StoreMakesLineDirtyAndEvictionPersists)
{
    Fixture f;
    f.data[0] = 42.0;
    f.m.write(0, f.addr(0), 8);
    EXPECT_EQ(f.m.totalDirtyLines(), 1u);
    EXPECT_EQ(f.m.machineStats().nvmmWrites.value(), 0u);
    EXPECT_DOUBLE_EQ(f.arena.peekDurable(&f.data[0]), 0.0);

    // Touch enough distinct blocks to evict block 0 from the L2
    // (L2 = 64 lines; walk far more).
    for (int i = 8; i < 8 * 200; i += 8)
        f.m.read(0, f.addr(i), 8);

    EXPECT_GE(f.m.machineStats().evictionWrites.value(), 1u);
    EXPECT_DOUBLE_EQ(f.arena.peekDurable(&f.data[0]), 42.0);
}

TEST(Machine, ClflushoptPersistsAndInvalidates)
{
    Fixture f;
    f.data[0] = 7.0;
    f.m.write(0, f.addr(0), 8);
    f.m.clflushopt(0, f.addr(0));
    f.m.sfence(0);
    EXPECT_DOUBLE_EQ(f.arena.peekDurable(&f.data[0]), 7.0);
    EXPECT_EQ(f.m.machineStats().flushWrites.value(), 1u);
    EXPECT_EQ(f.m.totalDirtyLines(), 0u);
    // Line was invalidated: the next read misses in the L1.
    const auto misses_before = f.m.machineStats().l1Misses.value();
    f.m.read(0, f.addr(0), 8);
    EXPECT_EQ(f.m.machineStats().l1Misses.value(), misses_before + 1);
}

TEST(Machine, ClwbPersistsButKeepsLine)
{
    Fixture f;
    f.data[0] = 9.0;
    f.m.write(0, f.addr(0), 8);
    f.m.clwb(0, f.addr(0));
    f.m.sfence(0);
    EXPECT_DOUBLE_EQ(f.arena.peekDurable(&f.data[0]), 9.0);
    // Line still resident: next read hits.
    const auto misses_before = f.m.machineStats().l1Misses.value();
    f.m.read(0, f.addr(0), 8);
    EXPECT_EQ(f.m.machineStats().l1Misses.value(), misses_before);
}

TEST(Machine, FlushOfCleanLineWritesNothing)
{
    Fixture f;
    f.m.read(0, f.addr(0), 8);
    f.m.clflushopt(0, f.addr(0));
    f.m.sfence(0);
    EXPECT_EQ(f.m.machineStats().nvmmWrites.value(), 0u);
    EXPECT_EQ(f.m.machineStats().cleanFlushes.value(), 1u);
}

TEST(Machine, SfenceStallsForOutstandingFlushes)
{
    Fixture f;
    f.data[0] = 1.0;
    f.m.write(0, f.addr(0), 8);
    const Cycles before = f.m.coreCycles(0);
    f.m.clflushopt(0, f.addr(0));
    f.m.sfence(0);
    // The fence must wait roughly an NVMM write latency.
    EXPECT_GE(f.m.coreCycles(0) - before,
              tinyConfig().nvmmWriteCycles());
    EXPECT_GE(f.m.machineStats().fenceStallCycles.value(), 1u);
}

TEST(Machine, SfenceWithNoFlushesIsCheap)
{
    Fixture f;
    const Cycles before = f.m.coreCycles(0);
    f.m.sfence(0);
    EXPECT_LE(f.m.coreCycles(0) - before, 2u);
}

TEST(Machine, BackToBackFlushesOverlap)
{
    // clflushopt is weakly ordered: N flushes + 1 fence must cost far
    // less than N * (flush + fence).
    Fixture f;
    const int n = 16;
    for (int i = 0; i < n; ++i) {
        f.data[8 * i] = i;
        f.m.write(0, f.addr(8 * i), 8);
    }
    const Cycles start = f.m.coreCycles(0);
    for (int i = 0; i < n; ++i)
        f.m.clflushopt(0, f.addr(8 * i));
    f.m.sfence(0);
    const Cycles overlapped = f.m.coreCycles(0) - start;

    // Serialized bound: n * (write latency), roughly.
    const Cycles serialized =
        static_cast<Cycles>(n) * tinyConfig().nvmmWriteCycles();
    EXPECT_LT(overlapped, serialized / 2);
}

TEST(Machine, FullStreamedLineCostsOneWriteAndNoRead)
{
    Fixture f;
    for (int i = 0; i < 8; ++i) {
        f.data[i] = i + 1;
        f.m.writeStream(0, f.addr(i), 8);
    }
    const MachineStats &st = f.m.machineStats();
    EXPECT_EQ(st.streamStores.value(), 8u);
    EXPECT_EQ(st.nvmmReads.value(), 0u);
    EXPECT_EQ(st.nvmmWrites.value(), 1u);
    EXPECT_EQ(st.streamWrites.value(), 1u);
    EXPECT_EQ(f.m.pendingStreamLines(), 0u);
    EXPECT_EQ(f.m.totalDirtyLines(), 0u);
    EXPECT_DOUBLE_EQ(f.arena.peekDurable(&f.data[7]), 8.0);
}

TEST(Machine, PartialStreamedLineDrainsAtSfence)
{
    Fixture f;
    f.data[0] = 3.0;
    f.m.writeStream(0, f.addr(0), 8);
    f.m.writeStream(0, f.addr(1), 8);
    EXPECT_EQ(f.m.pendingStreamLines(), 1u);
    EXPECT_EQ(f.m.machineStats().nvmmWrites.value(), 0u);
    EXPECT_DOUBLE_EQ(f.arena.peekDurable(&f.data[0]), 0.0);
    f.m.sfence(0);
    EXPECT_EQ(f.m.pendingStreamLines(), 0u);
    EXPECT_EQ(f.m.machineStats().streamWrites.value(), 1u);
    EXPECT_EQ(f.m.machineStats().nvmmReads.value(), 0u);
    EXPECT_DOUBLE_EQ(f.arena.peekDurable(&f.data[0]), 3.0);
}

TEST(Machine, SfenceWaitsForStreamedLineLikeAFlush)
{
    // A dirty line flushed by clflushopt and a line filled by
    // streaming stores reach the write port alike; sfence waits out
    // the NVMM write either way.
    const auto stall = [](bool streamed) {
        Fixture f;
        if (streamed) {
            for (int i = 0; i < 8; ++i)
                f.m.writeStream(0, f.addr(i), 8);
        } else {
            f.m.write(0, f.addr(0), 8);
            f.m.clflushopt(0, f.addr(0));
        }
        const Cycles issued = f.m.coreCycles(0);
        f.m.sfence(0);
        EXPECT_GE(f.m.machineStats().fenceStallCycles.value(), 1u);
        return f.m.coreCycles(0) - issued;
    };
    const Cycles flushStall = stall(false);
    const Cycles streamStall = stall(true);
    EXPECT_GE(streamStall, tinyConfig().nvmmWriteCycles());
    EXPECT_GE(flushStall, tinyConfig().nvmmWriteCycles());
    EXPECT_LE(streamStall > flushStall ? streamStall - flushStall
                                       : flushStall - streamStall,
              tinyConfig().l1.latency);
}

TEST(Machine, LoadOfPendingStreamedLineDrainsItFirst)
{
    Fixture f;
    f.data[0] = 5.0;
    f.m.writeStream(0, f.addr(0), 8);
    f.m.read(1, f.addr(0), 8);  // any core's load
    EXPECT_EQ(f.m.pendingStreamLines(), 0u);
    EXPECT_EQ(f.m.machineStats().streamWrites.value(), 1u);
    EXPECT_DOUBLE_EQ(f.arena.peekDurable(&f.data[0]), 5.0);
    // The load then misses like any uncached load.
    EXPECT_EQ(f.m.machineStats().nvmmReads.value(), 1u);
}

TEST(Machine, StreamedStoreWritesBackDirtyCachedCopyFirst)
{
    Fixture f;
    f.data[0] = 1.0;
    f.m.write(0, f.addr(0), 8);
    f.data[1] = 2.0;
    f.m.writeStream(0, f.addr(1), 8);
    // The dirty copy left for NVMM and the cache dropped the line.
    EXPECT_EQ(f.m.machineStats().nvmmWrites.value(), 1u);
    EXPECT_EQ(f.m.totalDirtyLines(), 0u);
    EXPECT_EQ(f.m.pendingStreamLines(), 1u);
    EXPECT_DOUBLE_EQ(f.arena.peekDurable(&f.data[0]), 1.0);
    const auto misses = f.m.machineStats().l1Misses.value();
    f.m.read(0, f.addr(0), 8);
    EXPECT_EQ(f.m.machineStats().l1Misses.value(), misses + 1);
}

TEST(Machine, StreamBufferOverflowDrainsOldestPartialLine)
{
    Fixture f;
    // One word into each of eleven lines: the eleventh pushes the
    // first out as a partial write.
    for (int line = 0; line < 11; ++line) {
        f.data[8 * line] = line + 1;
        f.m.writeStream(0, f.addr(8 * line), 8);
    }
    EXPECT_EQ(f.m.pendingStreamLines(), 10u);
    EXPECT_EQ(f.m.machineStats().streamWrites.value(), 1u);
    EXPECT_DOUBLE_EQ(f.arena.peekDurable(&f.data[0]), 1.0);
    EXPECT_DOUBLE_EQ(f.arena.peekDurable(&f.data[8]), 0.0);
    f.m.drainDirty();
    EXPECT_EQ(f.m.pendingStreamLines(), 0u);
    EXPECT_EQ(f.m.machineStats().drainWrites.value(), 10u);
    EXPECT_DOUBLE_EQ(f.arena.peekDurable(&f.data[80]), 11.0);
}

TEST(Machine, LoadOfPrefetchedLineWaitsOnlyForTheRest)
{
    Fixture f;
    const MachineConfig cfg = tinyConfig();
    const Cycles issued = f.m.coreCycles(0);
    f.m.prefetch(0, f.addr(0));
    EXPECT_EQ(f.m.coreCycles(0) - issued, 1u);
    EXPECT_EQ(f.m.machineStats().nvmmReads.value(), 1u);
    f.m.tick(0, 400);  // 100 cycles of other work
    const Cycles before = f.m.coreCycles(0);
    f.m.read(0, f.addr(0), 8);
    // The load completes when the line arrives, not a full miss
    // after it was issued.
    const Cycles arrival =
        issued + cfg.l2.latency + cfg.nvmmReadCycles();
    EXPECT_EQ(f.m.coreCycles(0), arrival);
    EXPECT_EQ(f.m.machineStats().prefetchWaitCycles.value(),
              arrival - (before + cfg.l1.latency + cfg.l2.latency));
    // One NVMM read in all; the demand access is an L2 hit.
    EXPECT_EQ(f.m.machineStats().nvmmReads.value(), 1u);
    EXPECT_EQ(f.m.machineStats().l2Accesses.value(), 1u);
    EXPECT_EQ(f.m.machineStats().l2Misses.value(), 0u);
    EXPECT_EQ(f.m.machineStats().prefetchUnused.value(), 0u);
}

TEST(Machine, EveryL2HitPathWaitsForAnInFlightLine)
{
    const MachineConfig cfg = tinyConfig();
    for (int op = 0; op < 3; ++op) {
        Fixture f;
        const Cycles issued = f.m.coreCycles(0);
        f.m.prefetch(0, f.addr(0));
        if (op == 0)
            f.m.read(0, f.addr(0), 8);
        else if (op == 1)
            f.m.write(0, f.addr(0), 8);
        else
            f.m.readStream(0, f.addr(0), 8);
        EXPECT_EQ(f.m.coreCycles(0),
                  issued + cfg.l2.latency + cfg.nvmmReadCycles())
            << "op " << op;
        EXPECT_EQ(f.m.machineStats().nvmmReads.value(), 1u);
    }
}

TEST(Machine, ArrivedPrefetchIsAnOrdinaryL2Hit)
{
    Fixture f;
    const MachineConfig cfg = tinyConfig();
    f.m.prefetch(0, f.addr(0));
    f.m.tick(0, 4 * 1000);
    const Cycles before = f.m.coreCycles(0);
    f.m.read(0, f.addr(0), 8);
    EXPECT_EQ(f.m.coreCycles(0) - before,
              cfg.l1.latency + cfg.l2.latency);
    EXPECT_EQ(f.m.machineStats().prefetchWaitCycles.value(), 0u);
}

TEST(Machine, PrefetchBeyondTheMshrsStallsForTheOldest)
{
    Fixture f;
    const MachineConfig cfg = tinyConfig();
    const Cycles issued = f.m.coreCycles(0);
    for (unsigned i = 0; i < kMshrsPerCore; ++i)
        f.m.prefetch(0, f.addr(8 * static_cast<int>(i)));
    EXPECT_EQ(f.m.coreCycles(0) - issued, Cycles{kMshrsPerCore});
    EXPECT_EQ(f.m.machineStats().mshrFullEvents.value(), 0u);
    // The 17th waits until the first prefetch's line arrives.
    f.m.prefetch(0, f.addr(8 * static_cast<int>(kMshrsPerCore)));
    EXPECT_EQ(f.m.coreCycles(0),
              issued + cfg.l2.latency + cfg.nvmmReadCycles() + 1);
    EXPECT_EQ(f.m.machineStats().mshrFullEvents.value(), 1u);
    EXPECT_EQ(f.m.machineStats().nvmmReads.value(),
              kMshrsPerCore + 1u);
    EXPECT_EQ(f.m.machineStats().prefetches.value(),
              kMshrsPerCore + 1u);
}

TEST(Machine, PrefetchOfCachedLineCostsOneCycleAndNoRead)
{
    Fixture f;
    f.m.read(0, f.addr(0), 8);
    for (CoreId c : {0, 1}) {  // in core 0's L1; in the L2 for both
        const Cycles before = f.m.coreCycles(c);
        f.m.prefetch(c, f.addr(0));
        EXPECT_EQ(f.m.coreCycles(c) - before, 1u);
    }
    EXPECT_EQ(f.m.machineStats().nvmmReads.value(), 1u);
    EXPECT_EQ(f.m.machineStats().prefetches.value(), 2u);
    // Nothing left in flight: core 1's load is an ordinary L2 hit.
    const Cycles before = f.m.coreCycles(1);
    f.m.read(1, f.addr(0), 8);
    EXPECT_EQ(f.m.coreCycles(1) - before,
              tinyConfig().l1.latency + tinyConfig().l2.latency);
}

TEST(Machine, PrefetchedLineEvictedBeforeUseIsReadAgain)
{
    Fixture f;
    const MachineConfig cfg = tinyConfig();
    // Four more lines of the same L2 set push the prefetched line out.
    const int setStride = 8 * static_cast<int>(cfg.l2.numSets());
    f.m.prefetch(0, f.addr(0));
    for (unsigned w = 1; w <= cfg.l2.assoc; ++w)
        f.m.read(0, f.addr(setStride * static_cast<int>(w)), 8);
    EXPECT_EQ(f.m.machineStats().prefetchUnused.value(), 1u);
    const auto reads = f.m.machineStats().nvmmReads.value();
    const Cycles before = f.m.coreCycles(0);
    f.m.read(0, f.addr(0), 8);
    EXPECT_EQ(f.m.coreCycles(0) - before,
              cfg.l1.latency + cfg.l2.latency + cfg.nvmmReadCycles());
    EXPECT_EQ(f.m.machineStats().nvmmReads.value(), reads + 1);
    EXPECT_EQ(f.m.machineStats().prefetchWaitCycles.value(), 0u);
}

TEST(Machine, PrefetchedLineFlushedBeforeUseLeavesNoState)
{
    Fixture f;
    const MachineConfig cfg = tinyConfig();
    f.m.prefetch(0, f.addr(0));
    f.m.clflushopt(0, f.addr(0));
    EXPECT_EQ(f.m.machineStats().prefetchUnused.value(), 1u);
    EXPECT_EQ(f.m.machineStats().nvmmWrites.value(), 0u);  // clean
    f.m.sfence(0);
    const Cycles before = f.m.coreCycles(0);
    f.m.read(0, f.addr(0), 8);
    EXPECT_EQ(f.m.coreCycles(0) - before,
              cfg.l1.latency + cfg.l2.latency + cfg.nvmmReadCycles());
    EXPECT_EQ(f.m.machineStats().prefetchWaitCycles.value(), 0u);
}

TEST(Machine, PrefetchOfPendingStreamedLineDrainsIt)
{
    Fixture f;
    f.data[0] = 5.0;
    f.m.writeStream(0, f.addr(0), 8);
    f.m.prefetch(1, f.addr(0));  // any core's prefetch
    EXPECT_EQ(f.m.pendingStreamLines(), 0u);
    EXPECT_EQ(f.m.machineStats().streamWrites.value(), 1u);
    EXPECT_DOUBLE_EQ(f.arena.peekDurable(&f.data[0]), 5.0);
    // Then it reads the line like any other uncached prefetch.
    EXPECT_EQ(f.m.machineStats().nvmmReads.value(), 1u);
}

TEST(Machine, CrashClearsInFlightPrefetches)
{
    Fixture f;
    for (unsigned i = 0; i < kMshrsPerCore; ++i)
        f.m.prefetch(0, f.addr(8 * static_cast<int>(i)));
    f.m.powerFail();
    // No MSHR stays busy and no line stays in flight.
    const Cycles before = f.m.coreCycles(0);
    f.m.prefetch(0, f.addr(8 * static_cast<int>(kMshrsPerCore)));
    EXPECT_EQ(f.m.coreCycles(0) - before, 1u);
    f.m.read(0, f.addr(0), 8);
    EXPECT_EQ(f.m.machineStats().prefetchWaitCycles.value(), 0u);
    EXPECT_EQ(f.m.machineStats().l2Misses.value(), 1u);
}

TEST(Machine, TickAccountsIssueWidth)
{
    Fixture f;
    const Cycles before = f.m.coreCycles(0);
    f.m.tick(0, 8);  // issue width 4 -> 2 cycles
    EXPECT_EQ(f.m.coreCycles(0) - before, 2u);
    EXPECT_EQ(f.m.machineStats().computeOps.value(), 8u);
}

TEST(Machine, CoherenceInvalidatesRemoteSharer)
{
    Fixture f;
    f.m.read(0, f.addr(0), 8);
    f.m.read(1, f.addr(0), 8);  // both L1s share the line
    f.data[0] = 5.0;
    f.m.write(0, f.addr(0), 8); // upgrade: invalidate core 1
    EXPECT_GE(f.m.machineStats().invalidationsSent.value(), 1u);
    // Core 1 must now miss.
    const auto misses = f.m.machineStats().l1Misses.value();
    f.m.read(1, f.addr(0), 8);
    EXPECT_EQ(f.m.machineStats().l1Misses.value(), misses + 1);
}

TEST(Machine, CoherenceSuppliesDirtyDataCacheToCache)
{
    Fixture f;
    f.data[0] = 3.0;
    f.m.write(0, f.addr(0), 8);  // core 0 holds it Modified
    f.m.read(1, f.addr(0), 8);   // core 1 reads: C2C transfer
    EXPECT_EQ(f.m.machineStats().cacheToCache.value(), 1u);
    // No NVMM write was needed for the transfer.
    EXPECT_EQ(f.m.machineStats().nvmmWrites.value(), 0u);
    // The dirtiness lives on in the L2: a crash would lose it, but a
    // drain persists it.
    f.m.drainDirty();
    EXPECT_DOUBLE_EQ(f.arena.peekDurable(&f.data[0]), 3.0);
}

TEST(Machine, WriteToRemoteDirtyLineTakesOwnership)
{
    Fixture f;
    f.data[0] = 1.0;
    f.m.write(0, f.addr(0), 8);
    f.data[0] = 2.0;
    f.m.write(1, f.addr(0), 8);  // core 1 takes ownership
    f.m.drainDirty();
    EXPECT_DOUBLE_EQ(f.arena.peekDurable(&f.data[0]), 2.0);
}

TEST(Machine, CrashLosesDirtyCachedData)
{
    Fixture f;
    f.data[0] = 10.0;
    f.m.write(0, f.addr(0), 8);
    f.m.powerFail();
    EXPECT_DOUBLE_EQ(f.data[0], 0.0);  // never persisted
    EXPECT_EQ(f.m.totalDirtyLines(), 0u);
}

TEST(Machine, CrashKeepsFlushedData)
{
    Fixture f;
    f.data[0] = 11.0;
    f.m.write(0, f.addr(0), 8);
    f.m.clflushopt(0, f.addr(0));
    // No fence: clflushopt hands the line to the ADR domain at issue,
    // so it survives anyway (the fence only orders visibility).
    f.m.powerFail();
    EXPECT_DOUBLE_EQ(f.data[0], 11.0);
}

TEST(Machine, FlushAndFencePersistFromEveryCoreWithEitherFlush)
{
    // write + clflushopt/clwb + sfence is durable whichever core
    // issues it, and survives a crash.
    for (const bool keep_line : {false, true}) {
        Fixture f;
        const int cores = tinyConfig().numCores;
        for (CoreId c = 0; c < cores; ++c) {
            f.data[8 * c] = 20.0 + c;
            f.m.write(c, f.addr(8 * c), 8);
            if (keep_line)
                f.m.clwb(c, f.addr(8 * c));
            else
                f.m.clflushopt(c, f.addr(8 * c));
            f.m.sfence(c);
        }
        EXPECT_EQ(f.m.machineStats().flushWrites.value(),
                  static_cast<std::uint64_t>(cores));
        EXPECT_EQ(f.m.totalDirtyLines(), 0u);
        f.m.powerFail();
        for (CoreId c = 0; c < cores; ++c)
            EXPECT_DOUBLE_EQ(f.data[8 * c], 20.0 + c)
                << "clwb=" << keep_line << " core " << c;
    }
}

TEST(Machine, DrainPersistsEverythingAndCleansLines)
{
    Fixture f;
    for (int i = 0; i < 64; ++i) {
        f.data[i] = i;
        f.m.write(0, f.addr(i), 8);
    }
    f.m.drainDirty();
    EXPECT_EQ(f.m.totalDirtyLines(), 0u);
    for (int i = 0; i < 64; ++i)
        EXPECT_DOUBLE_EQ(f.arena.peekDurable(&f.data[i]), i);
    // Lines stay resident (drain writes back without evicting).
    const auto misses = f.m.machineStats().l1Misses.value();
    f.m.read(0, f.addr(0), 8);
    EXPECT_EQ(f.m.machineStats().l1Misses.value(), misses);
}

TEST(Machine, VolatilityDurationTracked)
{
    Fixture f;
    f.data[0] = 1.0;
    f.m.write(0, f.addr(0), 8);
    f.m.tick(0, 4000);  // let time pass
    f.m.clflushopt(0, f.addr(0));
    f.m.sfence(0);
    EXPECT_GE(f.m.machineStats().maxVdur.value(), 1000u);
    EXPECT_EQ(f.m.machineStats().avgVdur.count(), 1u);
}

TEST(Machine, SyncAllCoresActsAsBarrier)
{
    Fixture f;
    f.m.tick(0, 4000);
    EXPECT_LT(f.m.coreCycles(1), f.m.coreCycles(0));
    f.m.syncAllCores();
    EXPECT_EQ(f.m.coreCycles(1), f.m.coreCycles(0));
    EXPECT_EQ(f.m.execCycles(), f.m.coreCycles(0));
}

TEST(Machine, SnapshotContainsCoreCounters)
{
    Fixture f;
    f.m.read(0, f.addr(0), 8);
    auto snap = f.m.snapshot();
    EXPECT_EQ(snap.at("loads"), 1.0);
    EXPECT_EQ(snap.at("nvmm_reads"), 1.0);
    EXPECT_GT(snap.at("exec_cycles"), 0.0);
}

TEST(Machine, ResetStatsZeroesCountersButKeepsCaches)
{
    Fixture f;
    f.m.read(0, f.addr(0), 8);
    f.m.resetStats();
    EXPECT_EQ(f.m.machineStats().loads.value(), 0u);
    // Cache contents survived: the re-read hits.
    f.m.read(0, f.addr(0), 8);
    EXPECT_EQ(f.m.machineStats().l1Misses.value(), 0u);
}

TEST(Machine, InclusionL2EvictionBackInvalidatesL1)
{
    Fixture f;
    f.data[0] = 1.0;
    f.m.write(0, f.addr(0), 8);
    // Keep block 0 hot in the L1 (hits do not refresh L2 LRU) while
    // streaming a large footprint: the L2 eventually evicts block 0
    // while the L1 still holds it, forcing a back-invalidation.
    for (int i = 8; i < 8 * 400; i += 8) {
        f.m.read(0, f.addr(0), 8);
        f.m.read(0, f.addr(i), 8);
    }
    EXPECT_GE(f.m.machineStats().backInvalidations.value(), 1u);
    // The dirty data was not lost: it reached NVMM on eviction.
    EXPECT_DOUBLE_EQ(f.arena.peekDurable(&f.data[0]), 1.0);
}

TEST(Machine, CountsEveryIssuedOperation)
{
    // One call is one instruction, whatever it hits or straddles;
    // streaming loads and stores count among loads and stores too.
    Fixture f;
    for (int i = 0; i < 40; ++i) {
        f.m.read(i % 2, f.addr(3 * i), 8);
        if (i % 2 == 0)
            f.m.write(0, f.addr(5 * i), 8);
        if (i % 4 == 0)
            f.m.readStream(1, f.addr(7 * i), 8);
        if (i % 5 == 0)
            f.m.writeStream(0, f.addr(8 * i), 8);
        if (i % 8 == 0)
            f.m.clflushopt(0, f.addr(5 * i));
        if (i % 10 == 0)
            f.m.clwb(1, f.addr(3 * i));
        f.m.tick(i % 2, 3);
    }
    f.m.read(0, f.addr(8) - 4, 8);
    f.m.sfence(0);
    f.m.sfence(1);
    const auto snap = f.m.snapshot();
    EXPECT_EQ(snap.at("loads"), 40.0 + 10.0 + 1.0);
    EXPECT_EQ(snap.at("stream_loads"), 10.0);
    EXPECT_EQ(snap.at("stores"), 20.0 + 8.0);
    EXPECT_EQ(snap.at("stream_stores"), 8.0);
    EXPECT_EQ(snap.at("flush_instrs"), 5.0 + 4.0);
    EXPECT_EQ(snap.at("fences"), 2.0);
    EXPECT_EQ(snap.at("compute_ops"), 120.0);
    EXPECT_EQ(snap.at("prefetches"), 0.0);
}

TEST(Machine, StreamingMixIsRepeatable)
{
    // A second machine fed the same operations reproduces every
    // counter, cycles included.
    Fixture a;
    runStreamingMix(a);
    Fixture b;
    runStreamingMix(b);
    const auto snap = a.m.snapshot();
    ASSERT_GT(snap.at("stream_writes"), 0.0);
    ASSERT_GT(snap.at("stream_loads"), 0.0);
    EXPECT_EQ(snap, b.m.snapshot());
}

TEST(Machine, PrefetchMixIsRepeatable)
{
    Fixture a;
    runPrefetchMix(a);
    Fixture b;
    runPrefetchMix(b);
    const auto snap = a.m.snapshot();
    ASSERT_GT(snap.at("prefetches"), 0.0);
    ASSERT_GT(snap.at("prefetch_wait_cycles"), 0.0);
    ASSERT_GT(snap.at("prefetch_unused"), 0.0);
    EXPECT_EQ(snap, b.m.snapshot());
}

TEST(Machine, BiggerL2ChangesOnlyCacheBehaviour)
{
    // The same operations into a sixteen times bigger L2: the issued
    // counts match, the L2 misses less and NVMM sees no more writes.
    MachineConfig big = tinyConfig();
    big.l2 = {64 * 1024, 8, 11};
    Fixture small_l2;
    runPrefetchMix(small_l2);
    Fixture big_l2(big);
    runPrefetchMix(big_l2);
    const auto s = small_l2.m.snapshot();
    const auto b = big_l2.m.snapshot();
    for (const char *op : {"loads", "stores", "stream_stores",
                           "prefetches", "flush_instrs", "fences",
                           "compute_ops"})
        EXPECT_EQ(b.at(op), s.at(op)) << op;
    EXPECT_LT(b.at("l2_misses"), s.at("l2_misses"));
    EXPECT_LE(b.at("nvmm_writes"), s.at("nvmm_writes"));
}

TEST(Machine, NvmmLatencyChangesTimingButNotTraffic)
{
    // On one core the block traffic does not depend on time: slower
    // NVMM stretches the run but reads and writes the same blocks.
    MachineConfig slow = tinyConfig();
    slow.nvmmReadNs *= 2;
    slow.nvmmWriteNs *= 2;
    Fixture fast_f;
    runStreamingMix(fast_f);
    Fixture slow_f(slow);
    runStreamingMix(slow_f);
    const auto fast = fast_f.m.snapshot();
    const auto slowed = slow_f.m.snapshot();
    for (const char *c : {"l1_misses", "l2_misses", "nvmm_reads",
                          "nvmm_writes", "eviction_writes",
                          "stream_writes"})
        EXPECT_EQ(slowed.at(c), fast.at(c)) << c;
    EXPECT_GT(slowed.at("exec_cycles"), fast.at("exec_cycles"));
    EXPECT_EQ(slow_f.m.blockWriteCounts(), fast_f.m.blockWriteCounts());
    EXPECT_EQ(slow_f.m.blockReadCounts(), fast_f.m.blockReadCounts());
}

} // namespace
} // namespace lp::sim
