/**
 * @file
 * Spans for the traced run: the benchmark's own client-side spans
 * (kept in memory, written as Chrome trace JSON at the end) and a
 * reader for the server's Chrome trace file (ServerConfig::traceOut).
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench
{

/** One complete span: a named [ts, ts + dur) interval on a track. */
struct Span
{
    std::string name;
    std::uint32_t tid = 0;
    std::uint64_t tsNs = 0;
    std::uint64_t durNs = 0;
    std::uint64_t arg = 0;  ///< request id, epoch, ... (per span kind)

    std::uint64_t endNs() const { return tsNs + durNs; }
};

/**
 * Read every complete ("X") span of a trace file written by
 * obs::TraceCollector, plus the total events its rings dropped.
 * False when the file cannot be read.
 */
bool readServerTrace(const std::string &path, std::vector<Span> &out,
                     std::uint64_t &dropped);

/** Write @p spans as Chrome trace JSON (one "client" track). */
bool writeClientTrace(const std::string &path,
                      const std::vector<Span> &spans);

/**
 * Self time of each span named @p parent: its duration minus the
 * spans named in @p children that lie wholly inside it on the same
 * track (the work done on its behalf, e.g. the epoch commit inside a
 * commit wait). Only parents starting in [@p from, @p to) count.
 */
std::vector<std::uint64_t>
selfTimes(const std::vector<Span> &spans, const std::string &parent,
          const std::vector<std::string> &children, std::uint64_t from,
          std::uint64_t to);

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
