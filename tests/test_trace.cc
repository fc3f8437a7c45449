/**
 * @file
 * Tests for trace record/replay: a replayed trace must reproduce the
 * recorded run's statistics exactly; traces round-trip through
 * files; replay into different configurations is the supported
 * design-space workflow.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "kernels/env.hh"
#include "kernels/harness.hh"
#include "kernels/tmm.hh"
#include "pmem/arena.hh"
#include "sim/machine.hh"
#include "sim/trace.hh"

namespace lp::sim
{
namespace
{

using kernels::KernelParams;
using kernels::SimContext;
using kernels::TmmWorkload;
using kernels::Scheme;

MachineConfig
smallConfig()
{
    MachineConfig cfg;
    cfg.numCores = 4;
    cfg.l1 = {4 * 1024, 4, 2};
    cfg.l2 = {16 * 1024, 4, 11};
    return cfg;
}

KernelParams
smallParams()
{
    KernelParams p;
    p.n = 32;
    p.bsize = 8;
    p.threads = 4;
    return p;
}

/** Record a tmm+LP run; returns the trace and the run's snapshot. */
TraceBuffer
recordRun(stats::Snapshot &snap_out)
{
    SimContext ctx(smallConfig(),
                   kernels::arenaBytesFor(kernels::KernelId::Tmm,
                                          smallParams()));
    TraceBuffer trace;
    ctx.machine.setTraceRecorder(&trace);
    TmmWorkload w(smallParams(), ctx);
    w.run(Scheme::Lp);
    snap_out = ctx.machine.snapshot();
    return trace;
}

TEST(Trace, RecordsEveryOperation)
{
    stats::Snapshot snap;
    const TraceBuffer trace = recordRun(snap);
    EXPECT_GT(trace.size(), 1000u);
    // Loads + stores + ticks dominate; fences are zero under LP.
    std::size_t reads = 0;
    std::size_t writes = 0;
    std::size_t fences = 0;
    for (const auto &r : trace.entries()) {
        reads += r.op == TraceOp::Read;
        writes += r.op == TraceOp::Write;
        fences += r.op == TraceOp::Fence;
    }
    EXPECT_EQ(static_cast<double>(reads), snap.at("loads"));
    EXPECT_EQ(static_cast<double>(writes), snap.at("stores"));
    EXPECT_EQ(fences, 0u);
}

TEST(Trace, ReplayReproducesStatsExactly)
{
    stats::Snapshot recorded;
    const TraceBuffer trace = recordRun(recorded);

    Machine replay_machine(smallConfig(), nullptr);
    trace.replayInto(replay_machine);
    const auto replayed = replay_machine.snapshot();

    // Every counter, including cycle-exact execution time, matches.
    EXPECT_EQ(recorded, replayed);
}

TEST(Trace, ReplayReproducesStreamingOpsExactly)
{
    pmem::PersistentArena arena(1 << 20);
    auto *buf = arena.alloc<std::uint64_t>(1024);
    Machine m(smallConfig(), &arena);
    TraceBuffer trace;
    m.setTraceRecorder(&trace);
    kernels::SimEnv env(m, arena, 1);
    for (std::uint64_t i = 0; i < 1024; i += 3) {
        env.stStream(&buf[i], i);
        if (i % 7 == 0)
            env.st(&buf[(i * 13) % 1024], i);
        if (i % 5 == 0)
            env.ldStream(&buf[(i * 29) % 1024]);
        if (i % 11 == 0)
            env.ld(&buf[(i * 31) % 1024]);
        if (i % 64 == 0)
            env.sfence();
    }
    const auto recorded = m.snapshot();
    ASSERT_GT(recorded.at("stream_writes"), 0.0);
    ASSERT_GT(recorded.at("stream_loads"), 0.0);

    Machine replay_machine(smallConfig(), nullptr);
    trace.replayInto(replay_machine);
    EXPECT_EQ(recorded, replay_machine.snapshot());
}

TEST(Trace, ReplayReproducesPrefetchesExactly)
{
    // A footprint four times the L2, so some prefetched lines are
    // evicted unused and others are still in flight when loaded.
    pmem::PersistentArena arena(1 << 20);
    auto *buf = arena.alloc<std::uint64_t>(8192);
    Machine m(smallConfig(), &arena);
    TraceBuffer trace;
    m.setTraceRecorder(&trace);
    kernels::SimEnv env(m, arena, 2);
    for (std::uint64_t i = 0; i < 8192; i += 5) {
        env.prefetch(&buf[(i * 37 + 640) % 8192]);
        env.prefetch(&buf[(i * 7919) % 8192]);
        env.ld(&buf[(i * 37) % 8192]);
        if (i % 3 == 0)
            env.st(&buf[(i * 11) % 8192], i);
        if (i % 4 == 0)
            env.stStream(&buf[(i * 13) % 8192], i);
        if (i % 50 == 0)
            env.clflushopt(&buf[(i * 7919) % 8192]);
        if (i % 64 == 0)
            env.sfence();
    }
    const auto recorded = m.snapshot();
    ASSERT_GT(recorded.at("prefetches"), 0.0);
    ASSERT_GT(recorded.at("prefetch_wait_cycles"), 0.0);
    ASSERT_GT(recorded.at("prefetch_unused"), 0.0);

    Machine replay_machine(smallConfig(), nullptr);
    trace.replayInto(replay_machine);
    EXPECT_EQ(recorded, replay_machine.snapshot());
}

TEST(Trace, ReplayIntoDifferentCacheChangesOnlyCacheStats)
{
    stats::Snapshot recorded;
    const TraceBuffer trace = recordRun(recorded);

    MachineConfig big = smallConfig();
    big.l2 = {256 * 1024, 8, 11};
    Machine m(big, nullptr);
    trace.replayInto(m);
    const auto replayed = m.snapshot();

    // Same instruction stream...
    EXPECT_EQ(replayed.at("loads"), recorded.at("loads"));
    EXPECT_EQ(replayed.at("stores"), recorded.at("stores"));
    EXPECT_EQ(replayed.at("compute_ops"), recorded.at("compute_ops"));
    // ...but a bigger L2 misses less and writes less.
    EXPECT_LT(replayed.at("l2_misses"), recorded.at("l2_misses"));
    EXPECT_LE(replayed.at("nvmm_writes"), recorded.at("nvmm_writes"));
}

TEST(Trace, FileRoundTrip)
{
    stats::Snapshot snap;
    const TraceBuffer trace = recordRun(snap);
    const std::string path = "/tmp/lazyper_trace_test.bin";
    trace.save(path);
    const TraceBuffer loaded = TraceBuffer::load(path);
    ASSERT_EQ(loaded.size(), trace.size());

    Machine m(smallConfig(), nullptr);
    loaded.replayInto(m);
    EXPECT_EQ(m.snapshot(), snap);
    std::remove(path.c_str());
}

TEST(Trace, ManualRecordingApi)
{
    TraceBuffer t;
    t.read(0, 128, 8);
    t.write(1, 256, 8);
    t.flush(0, 128);
    t.clwb(1, 256);
    t.fence(0);
    t.tick(2, 100);
    ASSERT_EQ(t.size(), 6u);
    EXPECT_EQ(t.entries()[0].op, TraceOp::Read);
    EXPECT_EQ(t.entries()[1].core, 1);
    EXPECT_EQ(t.entries()[5].arg, 100u);
    t.clear();
    EXPECT_TRUE(t.empty());
}

TEST(Trace, ReplayDrivesDurability)
{
    // A replayed write + flush persists in the replay machine's own
    // backend.
    pmem::PersistentArena arena(1 << 16);
    Machine m(smallConfig(), &arena);
    double *d = arena.alloc<double>(1);
    *d = 5.0;  // volatile view set up front (replay is value-blind)

    TraceBuffer t;
    t.write(0, arena.addrOf(d), 8);
    t.flush(0, arena.addrOf(d));
    t.fence(0);
    t.replayInto(m);
    EXPECT_DOUBLE_EQ(arena.peekDurable(d), 5.0);
}

TEST(TraceDeathTest, LoadRejectsGarbageFile)
{
    const std::string path = "/tmp/lazyper_not_a_trace.bin";
    FILE *f = std::fopen(path.c_str(), "wb");
    std::fputs("definitely not a trace", f);
    std::fclose(f);
    EXPECT_EXIT((void)TraceBuffer::load(path),
                ::testing::ExitedWithCode(1), "not a lazyper trace");
    std::remove(path.c_str());
}

} // namespace
} // namespace lp::sim
