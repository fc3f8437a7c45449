/**
 * @file
 * Tests for lp::index::OrderedIndex and its KvStore integration:
 * ordered-set semantics against std::set under a randomized op
 * stream, lowerBound cursor behavior across leaf boundaries,
 * leaf splits and emptied leaves, erase-frees memory accounting and
 * the dense layout's bytes per key, the shared cursor merge, and
 * end-to-end KvStore::scan on every backend --
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
constexpr std::uint64_t kLeaf = OrderedIndex::leafKeys;

/** Collect every key by walking a cursor from the smallest. */
std::vector<std::uint64_t>
allKeys(const OrderedIndex &idx)
{
    std::vector<std::uint64_t> out;
    for (auto c = idx.lowerBound(0); c.valid(); c.advance())
        out.push_back(c.key());
    return out;
}

/** Whether @p key is in @p idx. */
bool
has(const OrderedIndex &idx, std::uint64_t key)
{
    const auto c = idx.lowerBound(key);
    return c.valid() && c.key() == key;
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
        EXPECT_EQ(has(idx, k), model.count(k) == 1) << k;
}

TEST(OrderedIndex, LowerBoundSemantics)
{
    OrderedIndex idx;
    for (const std::uint64_t k : {10u, 20u, 30u, 40u})
        idx.insert(k);

    ASSERT_TRUE(idx.lowerBound(0).valid());
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
    EXPECT_EQ(idx.residentBytes(), 0u);  // no leaf, no leaf array

    // Ascending keys pack whole leaves: 2 * kLeaf + 1 keys take three
    // of them, so the bytes pin one leaf's size.
    for (std::uint64_t k = 0; k < 2 * kLeaf; ++k)
        idx.insert(k);
    const std::uint64_t twoLeaves = idx.residentBytes();
    idx.insert(2 * kLeaf);
    const std::uint64_t threeLeaves = idx.residentBytes();
    const std::uint64_t leafBytes = kLeaf * sizeof(std::uint64_t);
    EXPECT_GE(threeLeaves, twoLeaves + leafBytes);

    // Erasing the last leaf's only key frees that leaf at once.
    idx.erase(2 * kLeaf);
    EXPECT_EQ(idx.residentBytes(), threeLeaves - leafBytes);

    // Erase frees as it goes: three keys in four out folds the two
    // quarter-full leaves into one, then the rest frees it.
    for (std::uint64_t k = 0; k < 2 * kLeaf; ++k)
        if (k % 4 != 3)
            idx.erase(k);
    EXPECT_EQ(idx.entries(), kLeaf / 2);
    EXPECT_EQ(idx.residentBytes(), threeLeaves - 2 * leafBytes);
    for (std::uint64_t k = 0; k < 2 * kLeaf; ++k)
        EXPECT_EQ(has(idx, k), k % 4 == 3) << k;
    for (std::uint64_t k = 3; k < 2 * kLeaf; k += 4)
        idx.erase(k);
    EXPECT_EQ(idx.entries(), 0u);
    EXPECT_EQ(idx.residentBytes(), 0u);

    // clear() returns to the empty base, and the index stays usable.
    for (std::uint64_t k = 0; k < 100; ++k)
        idx.insert(k * 7);
    idx.clear();
    EXPECT_EQ(idx.entries(), 0u);
    EXPECT_EQ(idx.residentBytes(), 0u);
    EXPECT_FALSE(idx.lowerBound(0).valid());
    idx.insert(5);
    EXPECT_TRUE(has(idx, 5));
}

/**
 * A full leaf splits on the next insert wherever the key lands (its
 * front, its middle, past its end), and a leaf emptied by erase goes
 * away -- the first, a middle and the last -- without losing order.
 */
TEST(OrderedIndex, LeafSplitAndEmptyLeafBoundaries)
{
    for (const std::uint64_t extra : {std::uint64_t(0), kLeaf + 1,
                                      2 * kLeaf + 1}) {
        OrderedIndex idx;
        std::set<std::uint64_t> model;
        for (std::uint64_t k = 1; k <= kLeaf; ++k) {
            idx.insert(2 * k);  // exactly one full leaf: 2..2*kLeaf
            model.insert(2 * k);
        }
        const std::uint64_t oneLeaf = idx.residentBytes();
        idx.insert(extra);
        model.insert(extra);
        EXPECT_GT(idx.residentBytes(), oneLeaf) << "no split at " << extra;
        EXPECT_EQ(allKeys(idx),
                  std::vector<std::uint64_t>(model.begin(), model.end()));
        for (const std::uint64_t k : model)
            EXPECT_TRUE(has(idx, k)) << k;
        EXPECT_FALSE(has(idx, 3));
    }

    // Three full leaves from an ascending load, then empty each one.
    OrderedIndex idx;
    for (std::uint64_t k = 0; k < 3 * kLeaf; ++k)
        idx.insert(k);
    const auto eraseLeaf = [&](std::uint64_t leaf) {
        for (std::uint64_t k = leaf * kLeaf; k < (leaf + 1) * kLeaf; ++k)
            idx.erase(k);
    };
    eraseLeaf(1);  // a middle leaf
    EXPECT_EQ(idx.lowerBound(kLeaf).key(), 2 * kLeaf);
    eraseLeaf(0);  // the first leaf: the next one takes every low key
    EXPECT_EQ(idx.lowerBound(0).key(), 2 * kLeaf);
    idx.insert(7);
    idx.insert(kLeaf + 3);
    EXPECT_EQ(idx.lowerBound(0).key(), 7u);
    EXPECT_EQ(idx.lowerBound(8).key(), kLeaf + 3);
    idx.erase(7);
    idx.erase(kLeaf + 3);
    eraseLeaf(2);  // the last leaf: nothing left
    EXPECT_EQ(idx.entries(), 0u);
    EXPECT_FALSE(idx.lowerBound(0).valid());
    EXPECT_EQ(idx.residentBytes(), 0u);
}

/**
 * Thinning leaves out must fold them together: rounds of 256 random
 * inserts, each thinned back to 16 keys, would otherwise leave one
 * sparse leaf per split behind. Neighbours always hold more than half
 * a leaf, so 16 keys sit in one leaf.
 */
TEST(OrderedIndex, ThinnedLeavesFoldTogether)
{
    OrderedIndex idx;
    std::set<std::uint64_t> model;
    std::mt19937_64 rng(3);
    for (int round = 0; round < 200; ++round) {
        for (int j = 0; j < 256; ++j) {
            const std::uint64_t k = rng() % 1000000;
            idx.insert(k);
            model.insert(k);
        }
        while (model.size() > 16) {
            auto it = model.begin();
            std::advance(it, std::ptrdiff_t(rng() % model.size()));
            idx.erase(*it);
            model.erase(it);
        }
        // One leaf, plus the reference array sized for the peak.
        ASSERT_LE(idx.residentBytes(), kLeaf * 8 + 32 * 24)
            << "round " << round;
    }
    EXPECT_EQ(allKeys(idx),
              std::vector<std::uint64_t>(model.begin(), model.end()));
}

/** A cursor walks on from one leaf into the next, and off the end. */
TEST(OrderedIndex, CursorCrossesLeaves)
{
    OrderedIndex idx;
    std::set<std::uint64_t> model;
    std::mt19937_64 rng(29);
    while (model.size() < 10 * kLeaf) {
        const std::uint64_t k = rng() % 100000;
        idx.insert(k);
        model.insert(k);
    }
    // Past the last key of whatever leaf lowerBound lands in.
    for (const std::uint64_t start : {0ull, 33333ull, 99000ull}) {
        std::vector<std::uint64_t> walked;
        for (auto c = idx.lowerBound(start); c.valid(); c.advance())
            walked.push_back(c.key());
        EXPECT_EQ(walked, std::vector<std::uint64_t>(
                              model.lower_bound(start), model.end()))
            << "from " << start;
    }
    // lowerBound between the last key of one leaf and the first of
    // the next resolves to the next leaf's first key.
    const std::uint64_t last = *model.rbegin();
    EXPECT_FALSE(idx.lowerBound(last + 1).valid());
    for (auto it = model.begin(); std::next(it) != model.end(); ++it) {
        if (*std::next(it) > *it + 1) {
            ASSERT_EQ(idx.lowerBound(*it + 1).key(), *std::next(it));
        }
    }
}

/** 8192 random keys (a loaded perfbench shard) cost at most 16 B each. */
TEST(OrderedIndex, RandomKeysCostAtMostSixteenBytesEach)
{
    OrderedIndex idx;
    std::mt19937_64 rng(8192);
    while (idx.entries() < 8192)
        idx.insert(rng());
    EXPECT_LE(idx.residentBytes(), 16 * idx.entries());
    EXPECT_GE(idx.residentBytes(), 8 * idx.entries());
}

/**
 * mergeCursors yields the union of disjoint sorted runs in order,
 * stops after the limit of accepted keys, and does not count the
 * keys its taker refuses.
 */
TEST(OrderedIndex, MergeCursorsTakesOnlyAcceptedKeys)
{
    OrderedIndex a, b;
    for (std::uint64_t k = 0; k < 3 * kLeaf; ++k)
        (k % 3 == 0 ? a : b).insert(k);
    std::vector<OrderedIndex::Cursor> cur{a.lowerBound(10),
                                          b.lowerBound(10)};
    std::vector<std::uint64_t> kept;
    std::size_t offered = 0;
    index::mergeCursors(cur, 50, [&](std::size_t from, std::uint64_t k) {
        EXPECT_EQ(from, k % 3 == 0 ? 0u : 1u);
        ++offered;
        if (k % 5 == 0)
            return false;
        kept.push_back(k);
        return true;
    });
    ASSERT_EQ(kept.size(), 50u);
    std::uint64_t want = 10;
    for (const std::uint64_t k : kept) {
        if (want % 5 == 0)
            ++want;
        EXPECT_EQ(k, want++);
    }
    EXPECT_EQ(offered, kept.back() - 10 + 1);  // 10..last, once each
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
 * key's leaf space must be freed on the spot, so after each round's
 * puts each shard's index holds exactly what the first round's did.
 * 64 keys keep the slot table far from its tombstone limit.
 */
TEST_P(ScanBackends, PutDelChurnKeepsIndexBytesFlat)
{
    const StoreConfig scfg = scanConfig();
    pmem::PersistentArena arena(storeArenaBytes(scfg));
    KvStore<kernels::NativeEnv> store(arena, scfg, GetParam());
    arena.persistAll();
    kernels::NativeEnv env;

    constexpr std::uint64_t kKeys = 64;
    std::vector<std::uint64_t> loaded;
    for (int round = 0; round < 5000; ++round) {
        for (std::uint64_t k = 0; k < kKeys; ++k)
            store.put(env, k, std::uint64_t(round));
        for (int s = 0; s < scfg.shards; ++s) {
            if (round == 0)
                loaded.push_back(store.indexBytes(s));
            ASSERT_EQ(store.indexBytes(s), loaded[std::size_t(s)])
                << "shard " << s << " round " << round;
        }
        for (std::uint64_t k = 0; k < kKeys; ++k)
            store.del(env, k);
    }
    for (std::uint64_t k = 0; k < kKeys; k += 2)
        store.put(env, k, k);

    std::uint64_t entries = 0;
    for (int s = 0; s < scfg.shards; ++s) {
        entries += store.indexEntries(s);
        EXPECT_LE(store.indexBytes(s), loaded[std::size_t(s)])
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
