/**
 * @file
 * Tests for the keyed (collision-handling) checksum table: claiming,
 * probing, collision separation,
 * idempotence, durability, and the full-table failure mode.
 */

#include <gtest/gtest.h>

#include <set>

#include "base/rng.hh"
#include "lp/keyed_table.hh"
#include "pmem/arena.hh"

namespace lp::core
{
namespace
{

TEST(KeyedTable, RoundsSizeToPowerOfTwo)
{
    pmem::PersistentArena arena(1 << 16);
    KeyedChecksumTable t(arena, 100);
    EXPECT_EQ(t.size(), 128u);
    KeyedChecksumTable t2(arena, 0);
    EXPECT_EQ(t2.size(), 2u);
}

TEST(KeyedTable, ClaimIsIdempotent)
{
    pmem::PersistentArena arena(1 << 16);
    KeyedChecksumTable t(arena, 16);
    const auto s1 = t.claimSlot(42);
    const auto s2 = t.claimSlot(42);
    EXPECT_EQ(s1, s2);
    EXPECT_EQ(t.occupancy(), 1u);
}

TEST(KeyedTable, DistinctKeysGetDistinctSlots)
{
    pmem::PersistentArena arena(1 << 16);
    KeyedChecksumTable t(arena, 64);
    std::set<std::size_t> slots;
    for (std::uint64_t k = 1; k <= 40; ++k)
        slots.insert(t.claimSlot(k));
    EXPECT_EQ(slots.size(), 40u);
    EXPECT_EQ(t.occupancy(), 40u);
}

TEST(KeyedTable, FindBeforeClaimIsNpos)
{
    pmem::PersistentArena arena(1 << 16);
    KeyedChecksumTable t(arena, 16);
    EXPECT_EQ(t.findSlot(7), KeyedChecksumTable::npos);
    t.claimSlot(7);
    EXPECT_NE(t.findSlot(7), KeyedChecksumTable::npos);
}

TEST(KeyedTable, CollidingKeysProbeApart)
{
    pmem::PersistentArena arena(1 << 16);
    KeyedChecksumTable t(arena, 8);
    // With only 8 buckets, dense keys must collide; all must still
    // resolve to unique slots with intact digests.
    for (std::uint64_t k = 0; k < 7; ++k) {
        const auto s = t.claimSlot(k * 1000);
        *t.digestPtr(s) = k;
    }
    for (std::uint64_t k = 0; k < 7; ++k) {
        const auto s = t.findSlot(k * 1000);
        ASSERT_NE(s, KeyedChecksumTable::npos);
        EXPECT_EQ(t.storedDigest(s), k);
        EXPECT_EQ(t.storedKey(s), k * 1000);
    }
}

TEST(KeyedTable, MatchesChecksDigest)
{
    pmem::PersistentArena arena(1 << 16);
    KeyedChecksumTable t(arena, 16);
    const auto s = t.claimSlot(5);
    *t.digestPtr(s) = 0x1234;
    EXPECT_TRUE(t.matches(5, 0x1234));
    EXPECT_FALSE(t.matches(5, 0x9999));
    EXPECT_FALSE(t.matches(6, 0x1234));  // never claimed
}

TEST(KeyedTable, UnpersistedClaimRevertsOnCrash)
{
    pmem::PersistentArena arena(1 << 16);
    KeyedChecksumTable t(arena, 16);
    arena.persistAll();  // empty table durable
    const auto s = t.claimSlot(9);
    *t.digestPtr(s) = 77;
    arena.crashRestore();
    // The claim never persisted: recovery sees "never committed".
    EXPECT_EQ(t.findSlot(9), KeyedChecksumTable::npos);
}

TEST(KeyedTable, PersistedSlotSurvivesCrash)
{
    pmem::PersistentArena arena(1 << 16);
    KeyedChecksumTable t(arena, 16);
    arena.persistAll();
    const auto s = t.claimSlot(9);
    *t.digestPtr(s) = 77;
    // Key and digest share a block (16B slot, 64B block aligned
    // pairs): persist the slot's block.
    arena.persistBlock(blockAlign(arena.addrOf(t.keyPtr(s))));
    arena.crashRestore();
    ASSERT_EQ(t.findSlot(9), s);
    EXPECT_TRUE(t.matches(9, 77));
}

TEST(KeyedTable, RandomizedClaimFindAgree)
{
    pmem::PersistentArena arena(1 << 20);
    KeyedChecksumTable t(arena, 1024);
    Rng rng(55);
    std::set<std::uint64_t> keys;
    while (keys.size() < 600)
        keys.insert(rng.next64() >> 1);  // avoid emptyKey
    for (auto k : keys)
        *t.digestPtr(t.claimSlot(k)) = k ^ 0xabc;
    for (auto k : keys)
        EXPECT_TRUE(t.matches(k, k ^ 0xabc));
    EXPECT_EQ(t.occupancy(), 600u);
}

TEST(KeyedTableDeathTest, OverLoadFactorIsFatal)
{
    pmem::PersistentArena arena(1 << 16);
    KeyedChecksumTable t(arena, 8);  // 8 slots, claim limit 7/8 = 7
    for (std::uint64_t k = 1; k <= 7; ++k)
        t.claimSlot(k);
    // The 8th distinct key would fill the table completely; the
    // load-factor guard refuses with a sizing hint instead of letting
    // probe chains degrade toward a full-table infinite probe.
    EXPECT_EXIT(t.claimSlot(99), ::testing::ExitedWithCode(1),
                "load-factor");
}

TEST(KeyedTable, GuardResyncsAfterCrashRestore)
{
    pmem::PersistentArena arena(1 << 16);
    KeyedChecksumTable t(arena, 8);
    arena.persistAll();  // empty table durable
    for (std::uint64_t k = 1; k <= 7; ++k)
        t.claimSlot(k);
    // None of the claims persisted; after the crash the table is
    // empty again and the volatile claim counter must not make the
    // guard fire spuriously.
    arena.crashRestore();
    for (std::uint64_t k = 10; k <= 16; ++k)
        t.claimSlot(k);
    EXPECT_EQ(t.occupancy(), 7u);
}

TEST(KeyedTableDeathTest, ReservedKeyPanics)
{
    pmem::PersistentArena arena(1 << 16);
    KeyedChecksumTable t(arena, 4);
    EXPECT_DEATH(t.claimSlot(KeyedChecksumTable::emptyKey),
                 "reserved");
}

} // namespace
} // namespace lp::core
