/**
 * @file
 * Tests for write-ahead-logging durable transactions (Figure 2):
 * commit durability, abort/undo after a crash at every protocol step.
 * A WalTx built with clwb leaves its log and status lines cached, and
 * a crash after any of its stores recovers the same image as one
 * built with clflushopt.
 */

#include <gtest/gtest.h>

#include <vector>

#include "ep/wal.hh"
#include "kernels/env.hh"
#include "pmem/arena.hh"
#include "pmem/crash.hh"
#include "sim/machine.hh"

namespace lp::ep
{
namespace
{

using kernels::SimEnv;

const WriteBack kWriteBacks[] = {WriteBack::Clflushopt, WriteBack::Clwb};

const char *
name(WriteBack wb)
{
    return wb == WriteBack::Clwb ? "clwb" : "clflushopt";
}

struct Fixture
{
    Fixture()
        : arena(1 << 20), machine(config(), &arena),
          log(arena, 64)
    {
        data = arena.alloc<double>(64);
        for (int i = 0; i < 64; ++i)
            data[i] = i;
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

    SimEnv
    env(pmem::CrashController *crash = nullptr)
    {
        return SimEnv(machine, arena, 0, crash);
    }

    void
    crash()
    {
        machine.powerFail();
    }

    pmem::PersistentArena arena;
    sim::Machine machine;
    WalArea log;
    double *data;
};

TEST(Wal, CommittedTransactionIsDurable)
{
    for (const WriteBack wb : kWriteBacks) {
        SCOPED_TRACE(name(wb));
        Fixture f;
        auto env = f.env();
        WalTx<SimEnv> tx(env, f.log, wb);
        tx.logWord(&f.data[0]);
        tx.logWord(&f.data[1]);
        tx.seal();
        env.st(&f.data[0], 100.0);
        env.st(&f.data[1], 101.0);
        tx.commit();

        // clwb keeps the log, count and status lines cached clean;
        // clflushopt dropped them, so reading them back misses.
        const auto reads = f.machine.machineStats().nvmmReads.value();
        env.ld(&f.log.entries()[0].addr);
        env.ld(f.log.count());
        env.ld(f.log.status());
        const auto reread =
            f.machine.machineStats().nvmmReads.value() - reads;
        if (wb == WriteBack::Clwb)
            EXPECT_EQ(reread, 0u);
        else
            EXPECT_GT(reread, 0u);

        f.crash();
        EXPECT_DOUBLE_EQ(f.data[0], 100.0);
        EXPECT_DOUBLE_EQ(f.data[1], 101.0);
        EXPECT_FALSE(f.log.interrupted());
    }
}

TEST(Wal, CrashBeforeSealLeavesOldData)
{
    Fixture f;
    auto env = f.env();
    WalTx<SimEnv> tx(env, f.log, WriteBack::Clflushopt);
    tx.logWord(&f.data[0]);
    // Crash before seal: no data was modified yet, status is idle.
    f.crash();
    EXPECT_FALSE(f.log.interrupted());
    EXPECT_DOUBLE_EQ(f.data[0], 0.0);
}

TEST(Wal, CrashAfterSealUndoRestoresPreImages)
{
    Fixture f;
    auto env = f.env();
    WalTx<SimEnv> tx(env, f.log, WriteBack::Clflushopt);
    // data[0] and data[8] live in different cache blocks, so the
    // flush below persists only the first.
    tx.logWord(&f.data[0]);
    tx.logWord(&f.data[8]);
    tx.seal();
    env.st(&f.data[0], 100.0);
    env.st(&f.data[8], 101.0);
    // Force part of the mutated data durable to create a
    // half-updated durable image, then crash without committing.
    env.clflushopt(&f.data[0]);
    env.sfence();
    f.crash();

    ASSERT_TRUE(f.log.interrupted());
    EXPECT_DOUBLE_EQ(f.data[0], 100.0);  // persisted early
    EXPECT_DOUBLE_EQ(f.data[8], 8.0);    // reverted naturally

    auto env2 = f.env();
    EXPECT_TRUE(applyUndo(env2, f.log));
    EXPECT_DOUBLE_EQ(f.data[0], 0.0);    // undone
    EXPECT_DOUBLE_EQ(f.data[8], 8.0);
    EXPECT_FALSE(f.log.interrupted());

    // The undo itself is durable.
    f.crash();
    EXPECT_DOUBLE_EQ(f.data[0], 0.0);
    EXPECT_FALSE(f.log.interrupted());
}

/**
 * A crash after every store of a transaction, then undo: the
 * recovered image is all-old or all-new, and the same whichever
 * write-back instruction the transaction used.
 */
TEST(Wal, CrashAtEveryStoreRecoversTheSameImageWithEitherWriteBack)
{
    // The constructor's store, three per logged word, the two status
    // stores and the four data stores, plus one run that completes.
    constexpr std::uint64_t kStores = 1 + 3 * 4 + 2 + 4;
    for (std::uint64_t at = 1; at <= kStores + 1; ++at) {
        SCOPED_TRACE(at);
        std::vector<std::vector<double>> images;
        for (const WriteBack wb : kWriteBacks) {
            SCOPED_TRACE(name(wb));
            Fixture f;
            pmem::CrashController crash;
            crash.armAfterStores(at);
            auto env = f.env(&crash);
            bool crashed = false;
            try {
                WalTx<SimEnv> tx(env, f.log, wb);
                for (int i : {0, 8, 16, 24})
                    tx.logWord(&f.data[i]);
                tx.seal();
                for (int i : {0, 8, 16, 24})
                    env.st(&f.data[i], 100.0 + i);
                tx.commit();
            } catch (const pmem::CrashException &) {
                crashed = true;
            }
            EXPECT_EQ(crashed, at <= kStores);
            crash.disarm();
            f.crash();
            auto env2 = f.env();
            applyUndo(env2, f.log);
            f.crash();
            EXPECT_FALSE(f.log.interrupted());
            std::vector<double> image(f.data, f.data + 32);
            const bool old = image[8] == 8.0;
            for (int i : {0, 8, 16, 24})
                EXPECT_DOUBLE_EQ(image[i], old ? double(i) : 100.0 + i);
            images.push_back(std::move(image));
        }
        EXPECT_EQ(images[0], images[1]);
    }
}

TEST(Wal, ApplyUndoOnIdleLogIsNoOp)
{
    Fixture f;
    auto env = f.env();
    EXPECT_FALSE(applyUndo(env, f.log));
}

TEST(Wal, TransactionReuseResetsCount)
{
    Fixture f;
    auto env = f.env();
    {
        WalTx<SimEnv> tx(env, f.log, WriteBack::Clflushopt);
        tx.logWord(&f.data[0]);
        tx.seal();
        env.st(&f.data[0], 5.0);
        tx.commit();
    }
    {
        WalTx<SimEnv> tx(env, f.log, WriteBack::Clflushopt);
        tx.logWord(&f.data[1]);
        tx.seal();
        env.st(&f.data[1], 6.0);
        tx.commit();
    }
    EXPECT_EQ(*f.log.count(), 1u);
    f.crash();
    EXPECT_DOUBLE_EQ(f.data[0], 5.0);
    EXPECT_DOUBLE_EQ(f.data[1], 6.0);
}

TEST(Wal, FourFencesPerTransaction)
{
    Fixture f;
    auto env = f.env();
    const auto fences_before =
        f.machine.machineStats().fences.value();
    WalTx<SimEnv> tx(env, f.log, WriteBack::Clflushopt);
    tx.logWord(&f.data[0]);
    tx.seal();
    env.st(&f.data[0], 9.0);
    tx.commit();
    EXPECT_EQ(f.machine.machineStats().fences.value(),
              fences_before + 4);
}

TEST(WalDeathTest, OverflowPanics)
{
    Fixture f;
    auto env = f.env();
    WalTx<SimEnv> tx(env, f.log, WriteBack::Clflushopt);
    for (int i = 0; i < 64; ++i)
        tx.logWord(&f.data[i]);
    EXPECT_DEATH(tx.logWord(&f.data[0]), "overflow");
}

} // namespace
} // namespace lp::ep
