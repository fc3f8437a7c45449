/**
 * @file
 * Persistency-semantics litmus tests: small, pointed scenarios
 * pinning down what the machine guarantees about durability order
 * (Section II-A's PMEM rules and the ADR platform assumption). These
 * are the contracts every scheme in the library is built on.
 */

#include <gtest/gtest.h>

#include "kernels/env.hh"
#include "pmem/arena.hh"
#include "sim/machine.hh"

namespace lp::sim
{
namespace
{

using kernels::SimEnv;

struct Litmus
{
    Litmus()
        : arena(1 << 20), m(config(), &arena)
    {
        x = arena.alloc<double>(8);   // one full block
        y = arena.alloc<double>(1);   // different block than x
        z = arena.alloc<double>(1);
        arena.persistAll();
    }

    static MachineConfig
    config()
    {
        MachineConfig cfg;
        cfg.numCores = 2;
        cfg.l1 = {1024, 2, 2};
        cfg.l2 = {4096, 4, 11};
        return cfg;
    }

    SimEnv
    env(CoreId c = 0)
    {
        return SimEnv(m, arena, c);
    }

    void
    crash()
    {
        m.powerFail();
    }

    pmem::PersistentArena arena;
    Machine m;
    double *x;
    double *y;
    double *z;
};

TEST(Litmus, StoreAloneIsNotDurable)
{
    // ST x -- crash: x reverts. The foundational LP observation.
    Litmus l;
    auto e = l.env();
    e.st(l.x, 1.0);
    l.crash();
    EXPECT_DOUBLE_EQ(*l.x, 0.0);
}

TEST(Litmus, StoreFlushIsDurableEvenWithoutFence)
{
    // ST x; CLFLUSHOPT x -- crash: durable. Under ADR the flush
    // hands the line to the persistence domain at issue; the fence
    // only orders *later* stores, it is not what makes x durable.
    Litmus l;
    auto e = l.env();
    e.st(l.x, 1.0);
    e.clflushopt(l.x);
    l.crash();
    EXPECT_DOUBLE_EQ(*l.x, 1.0);
}

TEST(Litmus, FlushCoversWholeBlockNotJustTheStore)
{
    // Two stores to different words of one block, one flush of the
    // first word: both become durable (flush granularity is the
    // block -- the coalescing EP forfeits and LP exploits).
    Litmus l;
    auto e = l.env();
    e.st(&l.x[0], 1.0);
    e.st(&l.x[5], 2.0);
    e.clflushopt(&l.x[0]);
    e.sfence();
    l.crash();
    EXPECT_DOUBLE_EQ(l.x[0], 1.0);
    EXPECT_DOUBLE_EQ(l.x[5], 2.0);
}

TEST(Litmus, UnflushedNeighborBlockIsIndependent)
{
    // ST x; ST y; CLFLUSHOPT x; crash: x durable, y not. Durability
    // is per cache block, never transitive.
    Litmus l;
    auto e = l.env();
    e.st(l.x, 1.0);
    e.st(l.y, 2.0);
    e.clflushopt(l.x);
    e.sfence();
    l.crash();
    EXPECT_DOUBLE_EQ(*l.x, 1.0);
    EXPECT_DOUBLE_EQ(*l.y, 0.0);
}

TEST(Litmus, EpochOrdering)
{
    // ST x; FLUSH x; SFENCE; ST y -- the paper's durable-barrier
    // pattern: y can never be durable while x is not ("epoch"
    // ordering). We verify the strong half: after the fence, x is
    // durable even though y is lost.
    Litmus l;
    auto e = l.env();
    e.st(l.x, 1.0);
    e.clflushopt(l.x);
    e.sfence();
    e.st(l.y, 2.0);
    l.crash();
    EXPECT_DOUBLE_EQ(*l.x, 1.0);
    EXPECT_DOUBLE_EQ(*l.y, 0.0);
}

TEST(Litmus, NaturalEvictionIsAValidPersistPath)
{
    // The LP premise: no flush at all -- capacity pressure alone
    // eventually persists a dirty block.
    Litmus l;
    auto e = l.env();
    e.st(l.x, 7.0);
    double *filler = l.arena.alloc<double>(8 * 400);
    for (int i = 0; i < 8 * 400; i += 8)
        e.ld(&filler[i]);
    l.crash();
    EXPECT_DOUBLE_EQ(*l.x, 7.0);
}

TEST(Litmus, RewriteAfterFlushRevertsToFlushedValue)
{
    // ST x=1; FLUSH; SFENCE; ST x=2 -- crash: x holds 1 (the flushed
    // version), not 0 and not 2.
    Litmus l;
    auto e = l.env();
    e.st(l.x, 1.0);
    e.clflushopt(l.x);
    e.sfence();
    e.st(l.x, 2.0);
    l.crash();
    EXPECT_DOUBLE_EQ(*l.x, 1.0);
}

TEST(Litmus, ClwbKeepsWorkingSetWarm)
{
    // clwb persists like clflushopt but the next load still hits.
    Litmus l;
    auto e = l.env();
    e.st(l.x, 3.0);
    e.clwb(l.x);
    e.sfence();
    const auto misses = l.m.machineStats().l1Misses.value();
    EXPECT_DOUBLE_EQ(e.ld(l.x), 3.0);
    EXPECT_EQ(l.m.machineStats().l1Misses.value(), misses);
    l.crash();
    EXPECT_DOUBLE_EQ(*l.x, 3.0);
}

TEST(Litmus, RemoteDirtyLineFlushedByAnotherCore)
{
    // Core 0 dirties x; core 1 flushes it: durable. clflushopt
    // operates on the coherence domain, not one core's cache.
    Litmus l;
    auto e0 = l.env(0);
    auto e1 = l.env(1);
    e0.st(l.x, 4.0);
    e1.clflushopt(l.x);
    e1.sfence();
    l.crash();
    EXPECT_DOUBLE_EQ(*l.x, 4.0);
}

TEST(Litmus, CacheToCacheTransferDoesNotPersist)
{
    // Core 0 dirties x; core 1 reads it (C2C supply). Sharing is not
    // persistence: a crash still loses x.
    Litmus l;
    auto e0 = l.env(0);
    auto e1 = l.env(1);
    e0.st(l.x, 5.0);
    EXPECT_DOUBLE_EQ(e1.ld(l.x), 5.0);
    l.crash();
    EXPECT_DOUBLE_EQ(*l.x, 0.0);
}

TEST(Litmus, DrainMakesEverythingDurableInPlace)
{
    Litmus l;
    auto e = l.env();
    e.st(l.x, 1.0);
    e.st(l.y, 2.0);
    e.st(l.z, 3.0);
    l.m.drainDirty();
    l.crash();
    EXPECT_DOUBLE_EQ(*l.x, 1.0);
    EXPECT_DOUBLE_EQ(*l.y, 2.0);
    EXPECT_DOUBLE_EQ(*l.z, 3.0);
}

TEST(Litmus, PendingStreamedStoreIsLostAtCrash)
{
    // ST.NT x -- crash: a line still in the write-combining buffer
    // is as volatile as a dirty cache line.
    Litmus l;
    auto e = l.env();
    e.stStream(l.x, 1.0);
    l.crash();
    EXPECT_DOUBLE_EQ(*l.x, 0.0);
    EXPECT_EQ(l.m.pendingStreamLines(), 0u);
}

TEST(Litmus, StreamedStoreSfenceIsDurable)
{
    // ST.NT x; SFENCE -- crash: durable, with no flush.
    Litmus l;
    auto e = l.env();
    e.stStream(l.x, 1.0);
    e.sfence();
    l.crash();
    EXPECT_DOUBLE_EQ(*l.x, 1.0);
}

TEST(Litmus, LoadSeesPendingStreamedStore)
{
    // ST.NT x; LD x: the load returns the new value; draining the
    // line to let it do so makes it durable.
    Litmus l;
    auto e = l.env();
    e.stStream(l.x, 4.0);
    EXPECT_DOUBLE_EQ(e.ld(l.x), 4.0);
    l.crash();
    EXPECT_DOUBLE_EQ(*l.x, 4.0);
}

TEST(Litmus, StreamedStoreOverDirtyLineKeepsItsOtherBytes)
{
    // ST x[0]; ST.NT x[1] -- crash: the cached store was written
    // back before the line went to the write-combining buffer; the
    // pending streamed word is lost.
    Litmus l;
    auto e = l.env();
    e.st(&l.x[0], 1.0);
    e.stStream(&l.x[1], 2.0);
    l.crash();
    EXPECT_DOUBLE_EQ(l.x[0], 1.0);
    EXPECT_DOUBLE_EQ(l.x[1], 0.0);
}

TEST(Litmus, PrefetchChangesNothingDurable)
{
    // ST x; PREFETCH x; PREFETCH y -- crash: the prefetches wrote
    // nothing, so the unflushed store is lost and y is untouched.
    Litmus l;
    auto e = l.env();
    e.st(l.x, 1.0);
    e.prefetch(l.x);
    e.prefetch(l.y);
    EXPECT_EQ(l.m.machineStats().nvmmWrites.value(), 0u);
    l.crash();
    EXPECT_DOUBLE_EQ(*l.x, 0.0);
    EXPECT_DOUBLE_EQ(*l.y, 0.0);
    EXPECT_DOUBLE_EQ(l.arena.peekDurable(l.y), 0.0);
}

TEST(Litmus, CrashIsRepeatable)
{
    // Crashing twice without intervening writes is a no-op the
    // second time (restore is idempotent).
    Litmus l;
    auto e = l.env();
    e.st(l.x, 1.0);
    e.clflushopt(l.x);
    e.sfence();
    l.crash();
    l.crash();
    EXPECT_DOUBLE_EQ(*l.x, 1.0);
}

} // namespace
} // namespace lp::sim
