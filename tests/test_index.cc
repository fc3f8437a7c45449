/**
 * @file
 * Tests for lp::index::OrderedIndex and its KvStore integration:
 * ordered-set semantics against std::set under a randomized op
 * stream, lowerBound/first cursor behavior, erase-frees memory
 * accounting, and end-to-end KvStore::scan on every backend --
 * cross-shard merge order, staged-delete visibility, scan/snapshot
 * agreement, and flat index memory under put/delete churn.
 */

#include <gtest/gtest.h>

#include <map>
#include <random>
#include <set>
#include <vector>

#include "index/ordered_index.hh"
#include "kernels/env.hh"
#include "store/kv_store.hh"

namespace lp
{
namespace
{

using index::OrderedIndex;
using index::OrderedIndexNode;

/** Collect every key by walking the bottom level. */
std::vector<std::uint64_t>
allKeys(const OrderedIndex &idx)
{
    std::vector<std::uint64_t> out;
    for (auto c = idx.first(); c.valid(); c.advance())
        out.push_back(c.key());
    return out;
}

TEST(OrderedIndex, MatchesStdSetUnderRandomOps)
{
    OrderedIndex idx;
    std::set<std::uint64_t> model;
    std::mt19937_64 rng(20260807);

    for (int i = 0; i < 20000; ++i) {
        const std::uint64_t key = rng() % 4096;
        if (rng() % 3 == 0) {
            idx.erase(key);
            model.erase(key);
        } else {
            idx.insert(key);
            model.insert(key);
        }
        ASSERT_EQ(idx.entries(), model.size());
    }

    const auto keys = allKeys(idx);
    ASSERT_EQ(keys.size(), model.size());
    auto it = model.begin();
    for (const std::uint64_t k : keys) {
        EXPECT_EQ(k, *it);
        ++it;
    }
    for (std::uint64_t k = 0; k < 4096; k += 17)
        EXPECT_EQ(idx.contains(k), model.count(k) == 1) << k;
}

TEST(OrderedIndex, LowerBoundSemantics)
{
    OrderedIndex idx;
    for (const std::uint64_t k : {10u, 20u, 30u, 40u})
        idx.insert(k);

    ASSERT_TRUE(idx.first().valid());
    EXPECT_EQ(idx.first().key(), 10u);

    EXPECT_EQ(idx.lowerBound(0).key(), 10u);    // before everything
    EXPECT_EQ(idx.lowerBound(10).key(), 10u);   // exact hit
    EXPECT_EQ(idx.lowerBound(11).key(), 20u);   // between keys
    EXPECT_EQ(idx.lowerBound(40).key(), 40u);   // last key
    EXPECT_FALSE(idx.lowerBound(41).valid());   // past the end

    auto c = idx.lowerBound(15);
    std::vector<std::uint64_t> walked;
    for (; c.valid(); c.advance())
        walked.push_back(c.key());
    EXPECT_EQ(walked, (std::vector<std::uint64_t>{20, 30, 40}));
}

TEST(OrderedIndex, DuplicateInsertAndAbsentEraseAreNoops)
{
    OrderedIndex idx;
    idx.insert(7);
    const std::uint64_t bytes = idx.residentBytes();
    idx.insert(7);
    EXPECT_EQ(idx.entries(), 1u);
    EXPECT_EQ(idx.residentBytes(), bytes);  // no second node allocated

    idx.erase(123456);  // absent
    EXPECT_EQ(idx.entries(), 1u);
    EXPECT_EQ(idx.residentBytes(), bytes);
}

TEST(OrderedIndex, EraseFreesImmediatelyAccounting)
{
    OrderedIndex idx;
    const std::uint64_t headBytes = idx.residentBytes();
    EXPECT_EQ(headBytes, sizeof(OrderedIndexNode));

    for (std::uint64_t k = 0; k < 100; ++k)
        idx.insert(k);
    EXPECT_EQ(idx.residentBytes(),
              headBytes + 100 * sizeof(OrderedIndexNode));

    // Erase frees the node at once: no retired memory lingers.
    for (std::uint64_t k = 0; k < 100; k += 2)
        idx.erase(k);
    EXPECT_EQ(idx.entries(), 50u);
    EXPECT_EQ(idx.residentBytes(),
              headBytes + 50 * sizeof(OrderedIndexNode));
    for (std::uint64_t k = 0; k < 100; ++k)
        EXPECT_EQ(idx.contains(k), k % 2 == 1) << k;

    idx.clear();
    EXPECT_EQ(idx.entries(), 0u);
    EXPECT_EQ(idx.residentBytes(), headBytes);
    EXPECT_FALSE(idx.first().valid());

    // The index must stay usable after clear().
    idx.insert(5);
    EXPECT_TRUE(idx.contains(5));
}

} // namespace
} // namespace lp

namespace lp::store
{
namespace
{

const Backend kBackends[] = {Backend::Lp, Backend::EagerPerOp,
                             Backend::Wal};

class ScanBackends : public ::testing::TestWithParam<Backend>
{
};

StoreConfig
scanConfig()
{
    StoreConfig cfg;
    cfg.capacity = 2048;
    cfg.shards = 4;  // scans must merge across all of them
    cfg.batchOps = 8;
    cfg.foldBatches = 4;
    return cfg;
}

TEST_P(ScanBackends, ScanMergesShardsInKeyOrder)
{
    const StoreConfig scfg = scanConfig();
    pmem::PersistentArena arena(storeArenaBytes(scfg));
    KvStore<kernels::NativeEnv> store(arena, scfg, GetParam());
    arena.persistAll();
    kernels::NativeEnv env;

    std::map<std::uint64_t, std::uint64_t> golden;
    std::mt19937_64 rng(7);
    for (int i = 0; i < 600; ++i) {
        const std::uint64_t k = rng() % 100000;
        store.put(env, k, k + 1);
        golden[k] = k + 1;
    }

    // Full scan (limit beyond size) equals the golden map in order.
    const auto full = store.scan(env, 0, golden.size() + 8);
    ASSERT_EQ(full.size(), golden.size());
    auto it = golden.begin();
    for (const auto &[k, v] : full) {
        EXPECT_EQ(k, it->first);
        EXPECT_EQ(v, it->second);
        ++it;
    }

    // Bounded scans from arbitrary starts: correct slice of golden.
    for (const std::uint64_t start : {0ull, 5000ull, 99999ull}) {
        const auto out = store.scan(env, start, 10);
        auto g = golden.lower_bound(start);
        for (const auto &[k, v] : out) {
            ASSERT_NE(g, golden.end());
            EXPECT_EQ(k, g->first);
            EXPECT_EQ(v, g->second);
            ++g;
        }
        const std::size_t left =
            std::size_t(std::distance(golden.lower_bound(start),
                                      golden.end()));
        EXPECT_EQ(out.size(), std::min<std::size_t>(10, left));
    }

    // Start past every key: legal, empty.
    EXPECT_TRUE(store.scan(env, maxUserKey, 5).empty());
}

TEST_P(ScanBackends, ScanSeesStagedMutationsLikeGet)
{
    const StoreConfig scfg = scanConfig();
    pmem::PersistentArena arena(storeArenaBytes(scfg));
    KvStore<kernels::NativeEnv> store(arena, scfg, GetParam());
    arena.persistAll();
    kernels::NativeEnv env;

    for (std::uint64_t k = 100; k < 110; ++k)
        store.put(env, k, k);
    store.checkpoint(env);

    // Staged, not yet folded: a scan must still see the new value
    // and must not see the deleted key -- exactly like get().
    store.put(env, 105, 9999);
    store.del(env, 107);

    const auto out = store.scan(env, 100, 100);
    std::map<std::uint64_t, std::uint64_t> seen(out.begin(), out.end());
    EXPECT_EQ(seen.at(105), 9999u);
    EXPECT_EQ(seen.count(107), 0u);
    EXPECT_EQ(out.size(), 9u);
    for (const auto &[k, v] : out)
        EXPECT_EQ(store.get(env, k), std::optional<std::uint64_t>(v));
}

TEST_P(ScanBackends, RecoveryRebuildAgreesWithPointGets)
{
    const StoreConfig scfg = scanConfig();
    pmem::PersistentArena arena(storeArenaBytes(scfg));
    KvStore<kernels::NativeEnv> store(arena, scfg, GetParam());
    arena.persistAll();
    kernels::NativeEnv env;

    std::mt19937_64 rng(13);
    for (int i = 0; i < 400; ++i)
        store.put(env, rng() % 50000, std::uint64_t(i));
    for (int i = 0; i < 50; ++i)
        store.del(env, rng() % 50000);
    store.checkpoint(env);
    const auto before = store.scan(env, 0, 4096);

    // recover() clears and rebuilds every shard's index from the
    // durable table; the rebuilt scan must match byte for byte.
    store.recover(env);
    const auto after = store.scan(env, 0, 4096);
    EXPECT_EQ(before, after);

    std::uint64_t entries = 0;
    for (int s = 0; s < scfg.shards; ++s) {
        entries += store.indexEntries(s);
        EXPECT_GT(store.indexBytes(s), 0u);
    }
    EXPECT_EQ(entries, after.size());
    for (const auto &[k, v] : after)
        EXPECT_EQ(store.get(env, k), std::optional<std::uint64_t>(v));
}

/**
 * Long put/delete churn with no checkpoint in between: every erased
 * key's node must be freed on the spot, so each shard's index holds
 * exactly its head plus one node per live key. 64 keys keep the slot
 * table far from its tombstone limit.
 */
TEST_P(ScanBackends, PutDelChurnKeepsIndexBytesFlat)
{
    const StoreConfig scfg = scanConfig();
    pmem::PersistentArena arena(storeArenaBytes(scfg));
    KvStore<kernels::NativeEnv> store(arena, scfg, GetParam());
    arena.persistAll();
    kernels::NativeEnv env;

    constexpr std::uint64_t kKeys = 64;
    for (int round = 0; round < 5000; ++round) {
        for (std::uint64_t k = 0; k < kKeys; ++k)
            store.put(env, k, std::uint64_t(round));
        for (std::uint64_t k = 0; k < kKeys; ++k)
            store.del(env, k);
    }
    for (std::uint64_t k = 0; k < kKeys; k += 2)
        store.put(env, k, k);

    std::uint64_t entries = 0;
    for (int s = 0; s < scfg.shards; ++s) {
        entries += store.indexEntries(s);
        EXPECT_EQ(store.indexBytes(s),
                  (store.indexEntries(s) + 1) *
                      sizeof(index::OrderedIndexNode))
            << "shard " << s;
    }
    EXPECT_EQ(entries, kKeys / 2);
    EXPECT_EQ(store.scan(env, 0, 2 * kKeys).size(), kKeys / 2);
}

INSTANTIATE_TEST_SUITE_P(AllBackends, ScanBackends,
                         ::testing::ValuesIn(kBackends),
                         [](const auto &info) {
                             return backendName(info.param);
                         });

} // namespace
} // namespace lp::store
