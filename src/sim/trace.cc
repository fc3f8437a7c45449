#include "sim/trace.hh"

#include <cstring>
#include <fstream>

#include "base/logging.hh"
#include "sim/machine.hh"

namespace lp::sim
{

namespace
{

/** File magic: "LPTR" + format version 1. */
constexpr std::uint64_t traceMagic = 0x3154504cull;  // "LPT1"

} // namespace

void
TraceBuffer::replayInto(Machine &machine) const
{
    for (const TraceRecord &r : records) {
        const CoreId c = r.core;
        switch (r.op) {
          case TraceOp::Read:
            machine.read(c, r.arg, r.size);
            break;
          case TraceOp::Write:
            machine.write(c, r.arg, r.size);
            break;
          case TraceOp::Flush:
            machine.clflushopt(c, r.arg);
            break;
          case TraceOp::Clwb:
            machine.clwb(c, r.arg);
            break;
          case TraceOp::Fence:
            machine.sfence(c);
            break;
          case TraceOp::Tick:
            machine.tick(c, r.arg);
            break;
          case TraceOp::ReadStream:
            machine.readStream(c, r.arg, r.size);
            break;
          case TraceOp::WriteStream:
            machine.writeStream(c, r.arg, r.size);
            break;
          case TraceOp::Prefetch:
            machine.prefetch(c, r.arg);
            break;
        }
    }
}

void
TraceBuffer::save(const std::string &path) const
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out)
        fatal("cannot open trace file for writing: " + path);
    const std::uint64_t magic = traceMagic;
    const std::uint64_t count = records.size();
    out.write(reinterpret_cast<const char *>(&magic), sizeof(magic));
    out.write(reinterpret_cast<const char *>(&count), sizeof(count));
    out.write(reinterpret_cast<const char *>(records.data()),
              static_cast<std::streamsize>(count *
                                           sizeof(TraceRecord)));
    if (!out)
        fatal("short write to trace file: " + path);
}

TraceBuffer
TraceBuffer::load(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        fatal("cannot open trace file: " + path);
    std::uint64_t magic = 0;
    std::uint64_t count = 0;
    in.read(reinterpret_cast<char *>(&magic), sizeof(magic));
    in.read(reinterpret_cast<char *>(&count), sizeof(count));
    if (!in || magic != traceMagic)
        fatal("not a lazyper trace file: " + path);
    TraceBuffer buf;
    buf.records.resize(count);
    in.read(reinterpret_cast<char *>(buf.records.data()),
            static_cast<std::streamsize>(count *
                                         sizeof(TraceRecord)));
    if (!in)
        fatal("truncated trace file: " + path);
    return buf;
}

} // namespace lp::sim
