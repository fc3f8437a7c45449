/**
 * @file
 * Memory-trace recording and replay.
 *
 * A TraceBuffer captures the exact operation stream a workload
 * drives into the Machine (reads, writes, their streaming variants,
 * prefetches, flushes, fences, compute ticks, per core). Because the
 * simulator's behaviour depends only on that stream -- never on data
 * values -- replaying a trace into a fresh machine reproduces every
 * statistic bit-for-bit, and replaying it into machines with
 * *different* configurations sweeps the design space (cache sizes,
 * NVMM latencies, cleaner settings) without re-executing the kernel:
 * the gem5 "trace CPU" workflow.
 *
 * Records are fixed 16-byte entries; traces serialize to a flat file
 * with a small header.
 */

#ifndef LP_SIM_TRACE_HH
#define LP_SIM_TRACE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "base/types.hh"

namespace lp::sim
{

class Machine;

/** Operation kinds a trace can carry. */
enum class TraceOp : std::uint8_t
{
    Read,
    Write,
    Flush,   ///< clflushopt
    Clwb,
    Fence,
    Tick,
    ReadStream,   ///< non-allocating load
    WriteStream,  ///< non-allocating (write-combined) store
    Prefetch,     ///< software prefetch into the L2
};

/** One fixed-size trace record. */
struct TraceRecord
{
    TraceOp op;
    std::uint8_t core;
    std::uint16_t size;   ///< access size (Read/Write)
    std::uint32_t pad = 0;
    std::uint64_t arg;    ///< address, or instruction count for Tick
};

static_assert(sizeof(TraceRecord) == 16);

/** An in-memory operation trace with file serialization. */
class TraceBuffer
{
  public:
    /// @name Recording
    /// @{
    void
    read(CoreId c, Addr a, unsigned size)
    {
        append({TraceOp::Read, narrowCore(c),
                static_cast<std::uint16_t>(size), 0, a});
    }

    void
    write(CoreId c, Addr a, unsigned size)
    {
        append({TraceOp::Write, narrowCore(c),
                static_cast<std::uint16_t>(size), 0, a});
    }

    void
    readStream(CoreId c, Addr a, unsigned size)
    {
        append({TraceOp::ReadStream, narrowCore(c),
                static_cast<std::uint16_t>(size), 0, a});
    }

    void
    writeStream(CoreId c, Addr a, unsigned size)
    {
        append({TraceOp::WriteStream, narrowCore(c),
                static_cast<std::uint16_t>(size), 0, a});
    }

    void
    prefetch(CoreId c, Addr a)
    {
        append({TraceOp::Prefetch, narrowCore(c), 0, 0, a});
    }

    void
    flush(CoreId c, Addr a)
    {
        append({TraceOp::Flush, narrowCore(c), 0, 0, a});
    }

    void
    clwb(CoreId c, Addr a)
    {
        append({TraceOp::Clwb, narrowCore(c), 0, 0, a});
    }

    void
    fence(CoreId c)
    {
        append({TraceOp::Fence, narrowCore(c), 0, 0, 0});
    }

    void
    tick(CoreId c, std::uint64_t n)
    {
        append({TraceOp::Tick, narrowCore(c), 0, 0, n});
    }
    /// @}

    /** Feed every record into @p machine, in order. */
    void replayInto(Machine &machine) const;

    std::size_t size() const { return records.size(); }
    bool empty() const { return records.empty(); }
    void clear() { records.clear(); }

    const std::vector<TraceRecord> &entries() const
    {
        return records;
    }

    /** Serialize to @p path; fatal() on I/O failure. */
    void save(const std::string &path) const;

    /** Deserialize from @p path; fatal() on I/O or format error. */
    static TraceBuffer load(const std::string &path);

  private:
    static std::uint8_t
    narrowCore(CoreId c)
    {
        return static_cast<std::uint8_t>(c);
    }

    void append(const TraceRecord &r) { records.push_back(r); }

    std::vector<TraceRecord> records;
};

} // namespace lp::sim

#endif // LP_SIM_TRACE_HH
