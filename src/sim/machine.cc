#include "sim/machine.hh"

#include <algorithm>

#include "base/logging.hh"

namespace lp::sim
{

Machine::Machine(const MachineConfig &config, PersistBackend *be)
    : cfg(config), backend(be), l2(config.l2)
{
    LP_ASSERT(cfg.numCores >= 1 && cfg.numCores <= 32,
              "unsupported core count");
    l1s.reserve(cfg.numCores);
    for (int i = 0; i < cfg.numCores; ++i)
        l1s.emplace_back(cfg.l1);
    clk.assign(cfg.numCores, 0);
    streamBuf.resize(cfg.numCores);
    wcBuf.resize(cfg.numCores);
    flushQ.resize(cfg.numCores);
    prefetchQ.resize(cfg.numCores);
    nextCleanAt = cfg.cleanerPeriodCycles;
}

void
Machine::read(CoreId c, Addr addr, unsigned size)
{
    ++s.loads;
    const Addr first = blockAlign(addr);
    const Addr last = blockAlign(addr + size - 1);
    for (Addr blk = first; blk <= last; blk += blockBytes)
        accessBlock(c, blk, false);
}

void
Machine::write(CoreId c, Addr addr, unsigned size)
{
    ++s.stores;
    const Addr first = blockAlign(addr);
    const Addr last = blockAlign(addr + size - 1);
    for (Addr blk = first; blk <= last; blk += blockBytes)
        accessBlock(c, blk, true);
}

void
Machine::readStream(CoreId c, Addr addr, unsigned size)
{
    ++s.loads;
    ++s.streamLoads;
    const Addr first = blockAlign(addr);
    const Addr last = blockAlign(addr + size - 1);
    for (Addr blk = first; blk <= last; blk += blockBytes) {
        maybeClean(c);
        flushWcLine(blk);
        ++s.l1Accesses;
        Cycles cost = cfg.l1.latency;
        if (Line *line = l1s[c].find(blk)) {
            l1s[c].touch(*line);
        } else {
            ++s.l1Misses;
            ++s.l2Accesses;
            if (Line *l2l = l2.find(blk)) {
                cost += cfg.l2.latency;
                cost += awaitPrefetch(blk, clk[c] + cost);
                l2.touch(*l2l);
            } else {
                auto &buf = streamBuf[c];
                const bool buffered =
                    std::find(buf.begin(), buf.end(), blk) != buf.end();
                if (!buffered) {
                    // Read straight from NVMM; no install, no victim.
                    // The block parks in the stream buffer so the
                    // region's remaining words coalesce onto this one
                    // NVMM read, as NT fill buffers do.
                    ++s.l2Misses;
                    noteNvmmRead(blk);
                    cost += cfg.l2.latency + cfg.nvmmReadCycles();
                    if (buf.size() >= streamBufEntries)
                        buf.erase(buf.begin());
                    buf.push_back(blk);
                }
            }
        }
        clk[c] += cost;
    }
}

void
Machine::writeStream(CoreId c, Addr addr, unsigned size,
                     const std::function<void()> &store)
{
    ++s.stores;
    ++s.streamStores;
    const Addr end = addr + size;
    const Addr first = blockAlign(addr);
    const Addr last = blockAlign(end - 1);
    auto &buf = wcBuf[c];
    const auto entryOf = [&buf](Addr blk) {
        std::size_t i = 0;
        while (i < buf.size() && buf[i].blk != blk)
            ++i;
        return i;
    };
    // Every line the store touches gets a buffer entry before the
    // bytes change, so a cached copy is written back as it was.
    for (Addr blk = first; blk <= last; blk += blockBytes) {
        maybeClean(c);
        if (entryOf(blk) < buf.size())
            continue;
        if (dropCopies(blk, false))
            sendToNvmm(c, blk, WritebackCause::Stream);
        auto &rb = streamBuf[c];
        rb.erase(std::remove(rb.begin(), rb.end(), blk), rb.end());
        if (buf.size() >= wcBufEntries)
            flushWcEntry(c, 0);  // overflow: the oldest leaves
        buf.push_back({blk, 0});
        ++wcLines;
    }
    if (store)
        store();
    for (Addr blk = first; blk <= last; blk += blockBytes) {
        const std::size_t i = entryOf(blk);
        const Addr lo = std::max(addr, blk) - blk;
        const Addr hi = std::min(end, blk + blockBytes) - blk;
        buf[i].mask |= hi - lo == blockBytes
                           ? ~0ull
                           : ((1ull << (hi - lo)) - 1) << lo;
        if (buf[i].mask == ~0ull)
            flushWcEntry(c, i);
        clk[c] += cfg.l1.latency;
    }
}

void
Machine::flushWcEntry(CoreId c, std::size_t i)
{
    auto &buf = wcBuf[c];
    const Addr blk = buf[i].blk;
    buf.erase(buf.begin() + static_cast<std::ptrdiff_t>(i));
    --wcLines;
    sendToNvmm(c, blk, WritebackCause::Stream);
}

void
Machine::flushWcLine(Addr blk)
{
    if (wcLines == 0)
        return;
    for (CoreId core = 0; core < cfg.numCores; ++core) {
        auto &buf = wcBuf[core];
        for (std::size_t i = 0; i < buf.size(); ++i) {
            if (buf[i].blk == blk) {
                flushWcEntry(core, i);
                return;
            }
        }
    }
}

void
Machine::prefetch(CoreId c, Addr addr)
{
    ++s.prefetches;
    maybeClean(c);
    const Addr blk = blockAlign(addr);
    flushWcLine(blk);
    // The L2 is inclusive, so a line cached anywhere is in it.
    if (!l2.find(blk)) {
        auto &q = prefetchQ[c];
        std::erase_if(q, [now = clk[c]](Cycles t) { return t <= now; });
        if (q.size() >= kMshrsPerCore) {
            // Every MSHR is busy: wait for the oldest fill (arrivals
            // are in issue order).
            ++s.mshrFullEvents;
            clk[c] = q.front();
            q.erase(q.begin());
        }
        noteNvmmRead(blk);
        Line &victim = l2.victimFor(blk);
        if (victim.valid())
            evictL2Victim(c, victim);
        l2.install(victim, blk, LineState::Shared);
        const Cycles arrival =
            clk[c] + cfg.l2.latency + cfg.nvmmReadCycles();
        q.push_back(arrival);
        prefetched[blk] = arrival;
    }
    clk[c] += 1;  // issue slot of the prefetch instruction
}

Cycles
Machine::awaitPrefetch(Addr blk, Cycles done)
{
    if (prefetched.empty())
        return 0;
    const auto it = prefetched.find(blk);
    if (it == prefetched.end())
        return 0;
    const Cycles wait = it->second > done ? it->second - done : 0;
    prefetched.erase(it);
    s.prefetchWaitCycles += wait;
    return wait;
}

void
Machine::dropPrefetch(Addr blk)
{
    if (!prefetched.empty() && prefetched.erase(blk) != 0)
        ++s.prefetchUnused;
}

void
Machine::sendToNvmm(CoreId c, Addr blk, WritebackCause cause)
{
    pruneFlushQueue(c);
    const Cycles grant = grantWritePort(clk[c] + cfg.l2.latency);
    flushQ[c].push_back(grant + cfg.nvmmWriteCycles());
    writebackToNvmm(c, blk, cause);
}

void
Machine::tick(CoreId c, std::uint64_t n)
{
    s.computeOps += n;
    clk[c] += (n + kIssueWidth - 1) / kIssueWidth;
    maybeClean(c);
}

void
Machine::accessBlock(CoreId c, Addr blk, bool is_write)
{
    maybeClean(c);
    flushWcLine(blk);
    ++s.l1Accesses;
    Cycles cost = cfg.l1.latency;

    Line *line = l1s[c].find(blk);
    if (line) {
        if (is_write && line->state != LineState::Modified) {
            if (line->state == LineState::Shared) {
                invalidateOtherSharers(blk, c);
                cost += cfg.l2.latency;  // upgrade round-trip
                ++s.upgrades;
            }
            line->state = LineState::Modified;
            auto &de = dir[blk];
            de.owner = c;
            de.sharers |= bit(c);
            markDirty(blk, clk[c]);
        }
        l1s[c].touch(*line);
    } else {
        ++s.l1Misses;
        // Hazard proxies (Table VI): a miss that finds the MC write
        // port backlogged contends with write traffic (FUR); a deep
        // backlog stands in for MSHR exhaustion.
        const Cycles backlog =
            writePortFreeAt > clk[c] ? writePortFreeAt - clk[c] : 0;
        if (!is_write && backlog > 0)
            ++s.loadPortConflicts;
        if (backlog >= static_cast<Cycles>(kMshrsPerCore) *
                           kMcWritePortCycles / 2)
            ++s.mshrFullEvents;
        pruneFlushQueue(c);
        if (flushQ[c].size() >= kMshrsPerCore)
            ++s.mshrFullEvents;
        cost += handleL1Miss(c, blk, is_write);
        if (is_write)
            markDirty(blk, clk[c]);
    }
    clk[c] += cost;
}

Cycles
Machine::handleL1Miss(CoreId c, Addr blk, bool is_write)
{
    Cycles cost = 0;

    // Service dirty data held by a peer L1 (MESI-lite).
    {
        auto it = dir.find(blk);
        if (it != dir.end() && it->second.owner >= 0 &&
            it->second.owner != c) {
            const CoreId owner = it->second.owner;
            Line *ol = l1s[owner].find(blk);
            LP_ASSERT(ol && ol->state == LineState::Modified,
                      "directory owner without a Modified line");
            // Dirty data merges into the (inclusive) L2.
            Line *l2l = l2.find(blk);
            LP_ASSERT(l2l, "inclusion violated on C2C transfer");
            l2l->state = LineState::Modified;
            ++s.cacheToCache;
            cost += cfg.l2.latency;
            if (is_write) {
                ol->state = LineState::Invalid;
                it->second.sharers &= ~bit(owner);
            } else {
                ol->state = LineState::Shared;
            }
            it->second.owner = -1;
        } else if (is_write && it != dir.end() &&
                   (it->second.sharers & ~bit(c)) != 0) {
            invalidateOtherSharers(blk, c);
        } else if (!is_write && it != dir.end()) {
            // A read fill demotes peer Exclusive copies to Shared so
            // a later write-hit there goes through the upgrade path.
            std::uint32_t others = it->second.sharers & ~bit(c);
            for (CoreId core = 0; others != 0; ++core, others >>= 1) {
                if (!(others & 1u))
                    continue;
                if (Line *l = l1s[core].find(blk)) {
                    if (l->state == LineState::Exclusive)
                        l->state = LineState::Shared;
                }
            }
        }
    }

    // L2 lookup.
    ++s.l2Accesses;
    Line *l2l = l2.find(blk);
    if (l2l) {
        cost += cfg.l2.latency;
        cost += awaitPrefetch(blk, clk[c] + cfg.l1.latency + cost);
        l2.touch(*l2l);
    } else {
        ++s.l2Misses;
        noteNvmmRead(blk);
        cost += cfg.l2.latency + cfg.nvmmReadCycles();
        Line &victim = l2.victimFor(blk);
        if (victim.valid())
            evictL2Victim(c, victim);
        l2.install(victim, blk, LineState::Shared);
    }

    // L1 fill.
    Line &v1 = l1s[c].victimFor(blk);
    if (v1.valid())
        evictL1Victim(c, v1);

    auto &de = dir[blk];  // re-lookup: map may have rehashed above
    const bool others = (de.sharers & ~bit(c)) != 0;
    const LineState ns = is_write ? LineState::Modified
                       : others  ? LineState::Shared
                                 : LineState::Exclusive;
    l1s[c].install(v1, blk, ns);
    de.sharers |= bit(c);
    if (is_write)
        de.owner = c;
    return cost;
}

void
Machine::invalidateOtherSharers(Addr blk, CoreId except)
{
    auto it = dir.find(blk);
    if (it == dir.end())
        return;
    std::uint32_t others = it->second.sharers & ~bit(except);
    for (CoreId core = 0; others != 0; ++core, others >>= 1) {
        if (others & 1u) {
            l1s[core].invalidate(blk);
            ++s.invalidationsSent;
        }
    }
    it->second.sharers &= bit(except);
    if (it->second.owner != except)
        it->second.owner = -1;
}

void
Machine::evictL1Victim(CoreId c, Line &victim)
{
    const Addr blk = victim.blockAddr;
    if (victim.state == LineState::Modified) {
        Line *l2l = l2.find(blk);
        LP_ASSERT(l2l, "inclusion violated on L1 eviction");
        l2l->state = LineState::Modified;
    }
    auto it = dir.find(blk);
    if (it != dir.end()) {
        it->second.sharers &= ~bit(c);
        if (it->second.owner == c)
            it->second.owner = -1;
        if (it->second.sharers == 0)
            dir.erase(it);
    }
    victim.state = LineState::Invalid;
}

void
Machine::evictL2Victim(CoreId c, Line &victim)
{
    const Addr blk = victim.blockAddr;
    bool dirty = (victim.state == LineState::Modified);

    auto it = dir.find(blk);
    if (it != dir.end()) {
        std::uint32_t sharers = it->second.sharers;
        for (CoreId core = 0; sharers != 0; ++core, sharers >>= 1) {
            if (sharers & 1u) {
                if (Line *l = l1s[core].find(blk)) {
                    if (l->state == LineState::Modified)
                        dirty = true;
                    l->state = LineState::Invalid;
                }
                ++s.backInvalidations;
            }
        }
        dir.erase(it);
    }
    dropPrefetch(blk);

    if (dirty) {
        grantWritePort(clk[c]);
        writebackToNvmm(c, blk, WritebackCause::Eviction);
    }
    victim.state = LineState::Invalid;
}

Cycles
Machine::grantWritePort(Cycles ready)
{
    const Cycles grant = std::max(writePortFreeAt, ready);
    const Cycles backlog_limit =
        static_cast<Cycles>(kMcWriteQueue) * kMcWritePortCycles;
    if (writePortFreeAt > ready && writePortFreeAt - ready > backlog_limit)
        ++s.mcQueueFullEvents;
    writePortFreeAt = grant + kMcWritePortCycles;
    return grant;
}

void
Machine::writebackToNvmm(CoreId c, Addr blk, WritebackCause cause)
{
    if (backend)
        backend->persistBlock(blk);
    ++s.nvmmWrites;
    ++blockWrites[blk];
    switch (cause) {
      case WritebackCause::Eviction: ++s.evictionWrites; break;
      case WritebackCause::Flush:    ++s.flushWrites;    break;
      case WritebackCause::Cleaner:  ++s.cleanerWrites;  break;
      case WritebackCause::Drain:    ++s.drainWrites;    break;
      case WritebackCause::Stream:   ++s.streamWrites;   break;
    }
    sampleVdur(blk, clk[c]);
}

void
Machine::markDirty(Addr blk, Cycles now)
{
    dirtySince.try_emplace(blk, now);
}

void
Machine::sampleVdur(Addr blk, Cycles now)
{
    auto it = dirtySince.find(blk);
    if (it == dirtySince.end())
        return;
    const Cycles dur = now > it->second ? now - it->second : 0;
    s.maxVdur.sample(dur);
    s.avgVdur.sample(static_cast<double>(dur));
    dirtySince.erase(it);
}

void
Machine::pruneFlushQueue(CoreId c)
{
    auto &q = flushQ[c];
    const Cycles now = clk[c];
    q.erase(std::remove_if(q.begin(), q.end(),
                           [now](Cycles t) { return t <= now; }),
            q.end());
}

bool
Machine::dropCopies(Addr blk, bool keep_line)
{
    bool dirty = false;

    // All L1 copies.
    auto it = dir.find(blk);
    if (it != dir.end()) {
        std::uint32_t sharers = it->second.sharers;
        for (CoreId core = 0; sharers != 0; ++core, sharers >>= 1) {
            if (!(sharers & 1u))
                continue;
            if (Line *l = l1s[core].find(blk)) {
                if (l->state == LineState::Modified)
                    dirty = true;
                l->state = keep_line ? LineState::Shared
                                     : LineState::Invalid;
            }
        }
        if (keep_line) {
            it->second.owner = -1;
        } else {
            dir.erase(it);
        }
    }

    // The L2 copy.
    if (Line *l2l = l2.find(blk)) {
        if (l2l->state == LineState::Modified)
            dirty = true;
        l2l->state = keep_line ? LineState::Shared : LineState::Invalid;
        if (!keep_line)
            dropPrefetch(blk);
    }
    return dirty;
}

void
Machine::flushBlock(CoreId c, Addr addr, bool keep_line)
{
    maybeClean(c);
    ++s.flushInstrs;
    const Addr blk = blockAlign(addr);
    flushWcLine(blk);
    const bool dirty = dropCopies(blk, keep_line);

    pruneFlushQueue(c);
    if (flushQ[c].size() >= kLsqEntries) {
        // LSQ full of pending flushes: stall until the oldest drains.
        ++s.lsqFullEvents;
        const Cycles oldest =
            *std::min_element(flushQ[c].begin(), flushQ[c].end());
        if (oldest > clk[c]) {
            s.fenceStallCycles += oldest - clk[c];
            clk[c] = oldest;
        }
        pruneFlushQueue(c);
    }
    if (flushQ[c].size() >= kMshrsPerCore)
        ++s.mshrFullEvents;

    if (dirty) {
        sendToNvmm(c, blk, WritebackCause::Flush);
    } else {
        ++s.cleanFlushes;
        flushQ[c].push_back(clk[c] + cfg.l2.latency);
    }
    clk[c] += 1;  // issue slot of the flush instruction
}

void
Machine::clflushopt(CoreId c, Addr addr)
{
    flushBlock(c, addr, false);
}

void
Machine::clwb(CoreId c, Addr addr)
{
    flushBlock(c, addr, true);
}

void
Machine::sfence(CoreId c)
{
    ++s.fences;
    while (!wcBuf[c].empty())
        flushWcEntry(c, 0);
    auto &q = flushQ[c];
    if (!q.empty()) {
        const Cycles done = *std::max_element(q.begin(), q.end());
        if (done > clk[c]) {
            const Cycles stall = done - clk[c];
            s.fenceStallCycles += stall;
            s.fuiSlotsLost += stall * kIssueWidth;
            clk[c] = done;
        }
        q.clear();
    }
    clk[c] += 1;
}

void
Machine::maybeClean(CoreId c)
{
    if (cfg.cleanerPeriodCycles == 0)
        return;
    if (clk[c] < nextCleanAt)
        return;
    // Write back (but keep) dirty blocks. The hardware spaces these
    // writes out in time (like DRAM refresh), so no core-cycle cost
    // is charged; only the NVMM writes count. With
    // cleanerDecayCycles set, only blocks dirty at least that long
    // are cleaned (decay policy); otherwise everything is (the
    // paper's Section VI-A sweep).
    const Cycles now = clk[c];
    auto old_enough = [&](Addr blk) {
        if (cfg.cleanerDecayCycles == 0)
            return true;
        auto it = dirtySince.find(blk);
        return it != dirtySince.end() &&
               now - it->second >= cfg.cleanerDecayCycles;
    };

    std::vector<Addr> dirty_blocks;
    for (auto &l1 : l1s) {
        l1.forEachValid([&](Line &l) {
            if (l.state == LineState::Modified &&
                old_enough(l.blockAddr)) {
                dirty_blocks.push_back(l.blockAddr);
                l.state = LineState::Exclusive;
                auto it = dir.find(l.blockAddr);
                if (it != dir.end())
                    it->second.owner = -1;
            }
        });
    }
    l2.forEachValid([&](Line &l) {
        if (l.state == LineState::Modified &&
            old_enough(l.blockAddr)) {
            dirty_blocks.push_back(l.blockAddr);
            l.state = LineState::Shared;
        }
    });
    std::sort(dirty_blocks.begin(), dirty_blocks.end());
    dirty_blocks.erase(
        std::unique(dirty_blocks.begin(), dirty_blocks.end()),
        dirty_blocks.end());
    for (Addr blk : dirty_blocks)
        writebackToNvmm(c, blk, WritebackCause::Cleaner);
    nextCleanAt = clk[c] + cfg.cleanerPeriodCycles;
}

void
Machine::loseVolatileState()
{
    for (auto &l1 : l1s)
        l1.reset();
    l2.reset();
    dir.clear();
    for (auto &q : flushQ)
        q.clear();
    for (auto &q : prefetchQ)
        q.clear();
    prefetched.clear();
    for (auto &buf : streamBuf)
        buf.clear();
    for (auto &buf : wcBuf)
        buf.clear();
    wcLines = 0;
    dirtySince.clear();
}

void
Machine::drainDirty(WritebackCause cause)
{
    std::vector<Addr> dirty_blocks;
    for (auto &l1 : l1s) {
        l1.forEachValid([&](Line &l) {
            if (l.state == LineState::Modified) {
                dirty_blocks.push_back(l.blockAddr);
                l.state = LineState::Exclusive;
                auto it = dir.find(l.blockAddr);
                if (it != dir.end())
                    it->second.owner = -1;
            }
        });
    }
    l2.forEachValid([&](Line &l) {
        if (l.state == LineState::Modified) {
            dirty_blocks.push_back(l.blockAddr);
            l.state = LineState::Shared;
        }
    });
    for (auto &buf : wcBuf) {
        for (const WcLine &w : buf)
            dirty_blocks.push_back(w.blk);
        buf.clear();
    }
    wcLines = 0;
    std::sort(dirty_blocks.begin(), dirty_blocks.end());
    dirty_blocks.erase(
        std::unique(dirty_blocks.begin(), dirty_blocks.end()),
        dirty_blocks.end());
    for (Addr blk : dirty_blocks)
        writebackToNvmm(0, blk, cause);
}

void
Machine::syncAllCores()
{
    const Cycles m = execCycles();
    std::fill(clk.begin(), clk.end(), m);
}

Cycles
Machine::execCycles() const
{
    Cycles m = 0;
    for (Cycles t : clk)
        m = std::max(m, t);
    return m;
}

unsigned
Machine::totalDirtyLines() const
{
    unsigned n = l2.dirtyLines();
    for (const auto &l1 : l1s)
        n += l1.dirtyLines();
    return n;
}

stats::Snapshot
Machine::snapshot() const
{
    stats::Snapshot snap;
    snap["loads"] = static_cast<double>(s.loads.value());
    snap["stream_loads"] = static_cast<double>(s.streamLoads.value());
    snap["stores"] = static_cast<double>(s.stores.value());
    snap["stream_stores"] = static_cast<double>(s.streamStores.value());
    snap["compute_ops"] = static_cast<double>(s.computeOps.value());
    snap["l1_accesses"] = static_cast<double>(s.l1Accesses.value());
    snap["l1_misses"] = static_cast<double>(s.l1Misses.value());
    snap["l2_accesses"] = static_cast<double>(s.l2Accesses.value());
    snap["l2_misses"] = static_cast<double>(s.l2Misses.value());
    snap["nvmm_reads"] = static_cast<double>(s.nvmmReads.value());
    snap["nvmm_writes"] = static_cast<double>(s.nvmmWrites.value());
    snap["eviction_writes"] =
        static_cast<double>(s.evictionWrites.value());
    snap["flush_writes"] = static_cast<double>(s.flushWrites.value());
    snap["cleaner_writes"] =
        static_cast<double>(s.cleanerWrites.value());
    snap["drain_writes"] = static_cast<double>(s.drainWrites.value());
    snap["stream_writes"] = static_cast<double>(s.streamWrites.value());
    snap["flush_instrs"] = static_cast<double>(s.flushInstrs.value());
    snap["clean_flushes"] = static_cast<double>(s.cleanFlushes.value());
    snap["fences"] = static_cast<double>(s.fences.value());
    snap["upgrades"] = static_cast<double>(s.upgrades.value());
    snap["invalidations_sent"] =
        static_cast<double>(s.invalidationsSent.value());
    snap["cache_to_cache"] = static_cast<double>(s.cacheToCache.value());
    snap["back_invalidations"] =
        static_cast<double>(s.backInvalidations.value());
    snap["mshr_full_events"] =
        static_cast<double>(s.mshrFullEvents.value());
    snap["lsq_full_events"] =
        static_cast<double>(s.lsqFullEvents.value());
    snap["load_port_conflicts"] =
        static_cast<double>(s.loadPortConflicts.value());
    snap["fui_slots_lost"] =
        static_cast<double>(s.fuiSlotsLost.value());
    snap["mc_queue_full_events"] =
        static_cast<double>(s.mcQueueFullEvents.value());
    snap["fence_stall_cycles"] =
        static_cast<double>(s.fenceStallCycles.value());
    snap["prefetches"] = static_cast<double>(s.prefetches.value());
    snap["prefetch_wait_cycles"] =
        static_cast<double>(s.prefetchWaitCycles.value());
    snap["prefetch_unused"] =
        static_cast<double>(s.prefetchUnused.value());
    snap["max_vdur"] = static_cast<double>(s.maxVdur.value());
    snap["avg_vdur"] = s.avgVdur.mean();
    snap["exec_cycles"] =
        static_cast<double>(execCycles() - statsBaseline);
    const WearSummary wear = wearSummary();
    snap["wear_blocks_written"] =
        static_cast<double>(wear.blocksWritten);
    snap["wear_max_block_writes"] =
        static_cast<double>(wear.maxBlockWrites);
    snap["wear_hot_spot_factor"] = wear.hotSpotFactor;
    return snap;
}

void
Machine::resetStats()
{
    s = MachineStats{};
    statsBaseline = execCycles();
    // Volatility tracking restarts too: blocks dirtied before the
    // measurement window would otherwise inflate vdur samples.
    dirtySince.clear();
    blockWrites.clear();
    blockReads.clear();
}

WearSummary
Machine::wearSummary() const
{
    WearSummary w;
    for (const auto &[blk, count] : blockWrites) {
        (void)blk;
        ++w.blocksWritten;
        w.totalWrites += count;
        if (count > w.maxBlockWrites)
            w.maxBlockWrites = count;
    }
    if (w.blocksWritten > 0) {
        w.meanWritesPerBlock =
            static_cast<double>(w.totalWrites) /
            static_cast<double>(w.blocksWritten);
        w.hotSpotFactor = static_cast<double>(w.maxBlockWrites) /
                          w.meanWritesPerBlock;
    }
    return w;
}

} // namespace lp::sim
