/**
 * @file
 * Tests for the Eager Persistency range helpers: every block
 * overlapping a range must be flushed, regardless of alignment.
 */

#include <gtest/gtest.h>

#include "ep/pmem_ops.hh"
#include "kernels/env.hh"
#include "pmem/arena.hh"
#include "sim/machine.hh"

namespace lp::ep
{
namespace
{

using kernels::SimEnv;

struct Fixture
{
    Fixture()
        : arena(1 << 20), machine(config(), &arena)
    {
        data = arena.alloc<double>(256);
    }

    static sim::MachineConfig
    config()
    {
        sim::MachineConfig cfg;
        cfg.numCores = 1;
        cfg.l1 = {2048, 4, 2};
        cfg.l2 = {8192, 4, 11};
        return cfg;
    }

    /** Dirty a run of doubles through the cache. */
    void
    dirty(SimEnv &env, int first, int count)
    {
        for (int i = first; i < first + count; ++i)
            env.st(&data[i], 1.0 + i);
    }

    pmem::PersistentArena arena;
    sim::Machine machine;
    double *data;
};

TEST(PmemOps, FlushRangeCoversAllBlocks)
{
    Fixture f;
    SimEnv env(f.machine, f.arena, 0);
    f.dirty(env, 0, 64);  // 8 blocks
    flushRange(env, f.data, 64 * sizeof(double));
    env.sfence();
    EXPECT_EQ(f.machine.machineStats().flushWrites.value(), 8u);
    for (int i = 0; i < 64; ++i)
        EXPECT_DOUBLE_EQ(f.arena.peekDurable(&f.data[i]), 1.0 + i);
}

TEST(PmemOps, UnalignedRangeStillCoversEveryBlock)
{
    Fixture f;
    SimEnv env(f.machine, f.arena, 0);
    // Dirty doubles 3..20: blocks 0, 1, 2 (data is block-aligned).
    f.dirty(env, 3, 18);
    flushRange(env, &f.data[3], 18 * sizeof(double));
    env.sfence();
    EXPECT_EQ(f.machine.totalDirtyLines(), 0u);
    for (int i = 3; i < 21; ++i)
        EXPECT_DOUBLE_EQ(f.arena.peekDurable(&f.data[i]), 1.0 + i);
}

TEST(PmemOps, SingleByteRangeFlushesOneBlock)
{
    Fixture f;
    SimEnv env(f.machine, f.arena, 0);
    f.dirty(env, 0, 1);
    flushRange(env, f.data, 1);
    env.sfence();
    EXPECT_EQ(f.machine.machineStats().flushInstrs.value(), 1u);
}

TEST(PmemOps, ZeroLengthRangeFlushesItsBlock)
{
    // A zero-byte range still names one block (defensive contract).
    Fixture f;
    SimEnv env(f.machine, f.arena, 0);
    flushRange(env, f.data, 0);
    EXPECT_EQ(f.machine.machineStats().flushInstrs.value(), 1u);
}

TEST(PmemOps, PersistRangeIsDurableOnReturn)
{
    Fixture f;
    SimEnv env(f.machine, f.arena, 0);
    f.dirty(env, 0, 16);
    persistRange(env, f.data, 16 * sizeof(double));
    // No separate fence: persistRange includes it.
    f.machine.powerFail();
    for (int i = 0; i < 16; ++i)
        EXPECT_DOUBLE_EQ(f.data[i], 1.0 + i);
}

TEST(PmemOps, PersistObjectPersistsExactlyTheObject)
{
    Fixture f;
    SimEnv env(f.machine, f.arena, 0);
    f.dirty(env, 0, 16);  // blocks 0 and 1 dirty
    persistObject(env, &f.data[0]);
    EXPECT_DOUBLE_EQ(f.arena.peekDurable(&f.data[0]), 1.0);
    // Block 1 (doubles 8..15) was not flushed.
    EXPECT_DOUBLE_EQ(f.arena.peekDurable(&f.data[8]), 0.0);
}

} // namespace
} // namespace lp::ep
