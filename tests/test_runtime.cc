/**
 * @file
 * Tests for the LpRegion runtime: lazy vs. eager commits, digest
 * computation through the simulated environment, crash visibility.
 */

#include <gtest/gtest.h>

#include "kernels/env.hh"
#include "lp/checksum_table.hh"
#include "lp/runtime.hh"
#include "pmem/arena.hh"
#include "sim/machine.hh"

namespace lp::core
{
namespace
{

using kernels::NativeEnv;
using kernels::SimEnv;

struct Fixture
{
    Fixture()
        : arena(1 << 20), machine(config(), &arena),
          table(arena, 16)
    {
        arena.persistAll();
    }

    static sim::MachineConfig
    config()
    {
        sim::MachineConfig cfg;
        cfg.numCores = 1;
        cfg.l1 = {1024, 2, 2};
        cfg.l2 = {4096, 4, 11};
        return cfg;
    }

    pmem::PersistentArena arena;
    sim::Machine machine;
    ChecksumTable table;
};

TEST(LpRegion, DigestMatchesPlainAccumulator)
{
    Fixture f;
    SimEnv env(f.machine, f.arena, 0);
    LpRegion region(f.table, ChecksumKind::Modular);
    region.reset(env);
    region.update(env, 1.5);
    region.update(env, -2.25);

    ChecksumAcc plain(ChecksumKind::Modular);
    plain.add(1.5);
    plain.add(-2.25);
    EXPECT_EQ(region.digest(), plain.value());
}

TEST(LpRegion, LazyCommitWritesEntryButDoesNotPersist)
{
    Fixture f;
    SimEnv env(f.machine, f.arena, 0);
    LpRegion region(f.table, ChecksumKind::Modular);
    region.reset(env);
    region.update(env, 3.0);
    region.commit(env, 5);
    EXPECT_EQ(f.table.stored(5), region.digest());
    // Not durable yet: a crash reverts it to the sentinel.
    f.machine.powerFail();
    EXPECT_TRUE(f.table.neverCommitted(5));
}

TEST(LpRegion, EagerCommitSurvivesCrash)
{
    Fixture f;
    SimEnv env(f.machine, f.arena, 0);
    LpRegion region(f.table, ChecksumKind::Modular);
    region.reset(env);
    region.update(env, 4.0);
    region.commitEager(env, 2);
    const std::uint64_t digest = region.digest();
    f.machine.powerFail();
    EXPECT_EQ(f.table.stored(2), digest);
}

TEST(LpRegion, LazyCommitPersistsViaNaturalEviction)
{
    Fixture f;
    SimEnv env(f.machine, f.arena, 0);
    LpRegion region(f.table, ChecksumKind::Modular);
    region.reset(env);
    region.update(env, 8.0);
    region.commit(env, 0);
    const std::uint64_t digest = region.digest();
    // Stream a large footprint to evict the table entry's block.
    double *junk = f.arena.alloc<double>(8192);
    for (int i = 0; i < 8192; i += 8)
        env.ld(&junk[i]);
    f.machine.powerFail();
    EXPECT_EQ(f.table.stored(0), digest);
}

TEST(LpRegion, ResetBetweenRegionsIsolatesDigests)
{
    Fixture f;
    SimEnv env(f.machine, f.arena, 0);
    LpRegion region(f.table, ChecksumKind::Modular);
    region.reset(env);
    region.update(env, 1.0);
    region.commit(env, 0);
    region.reset(env);
    region.update(env, 1.0);
    region.commit(env, 1);
    // Same content per region -> same digest.
    EXPECT_EQ(f.table.stored(0), f.table.stored(1));

    region.reset(env);
    region.update(env, 2.0);
    region.commit(env, 3);
    EXPECT_NE(f.table.stored(3), f.table.stored(0));
}

TEST(LpRegion, UpdateChargesComputeTime)
{
    Fixture f;
    SimEnv env(f.machine, f.arena, 0);
    LpRegion cheap(f.table, ChecksumKind::Parity);
    LpRegion costly(f.table, ChecksumKind::Adler32);

    const Cycles t0 = f.machine.coreCycles(0);
    cheap.reset(env);
    for (int i = 0; i < 1000; ++i)
        cheap.update(env, i);
    const Cycles parity_cost = f.machine.coreCycles(0) - t0;

    const Cycles t1 = f.machine.coreCycles(0);
    costly.reset(env);
    for (int i = 0; i < 1000; ++i)
        costly.update(env, i);
    const Cycles adler_cost = f.machine.coreCycles(0) - t1;

    EXPECT_GT(adler_cost, 2 * parity_cost);
}

TEST(LpRegion, WorksWithNativeEnv)
{
    pmem::PersistentArena arena(1 << 16);
    ChecksumTable table(arena, 4);
    NativeEnv env;
    LpRegion region(table, ChecksumKind::ModularParity);
    region.reset(env);
    region.update(env, 6.5);
    region.updateWord(env, 77);
    region.commit(env, 1);
    EXPECT_EQ(table.stored(1), region.digest());
}

TEST(LpRegion, RegionCommitTriggersCrashHook)
{
    Fixture f;
    pmem::CrashController crash;
    crash.armAfterRegions(2);
    SimEnv env(f.machine, f.arena, 0, &crash);
    LpRegion region(f.table, ChecksumKind::Modular);

    region.reset(env);
    region.commit(env, 0);  // first commit: no crash
    region.reset(env);
    EXPECT_THROW(region.commit(env, 1), pmem::CrashException);
    EXPECT_FALSE(crash.armed());
}

} // namespace
} // namespace lp::core
