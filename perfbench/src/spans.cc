#include "perfbench/src/spans.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>

namespace perfbench
{

bool
readServerTrace(const std::string &path, std::vector<Span> &out,
                std::uint64_t &dropped)
{
    std::ifstream in(path);
    if (!in)
        return false;
    dropped = 0;
    std::string line;
    // obs::TraceCollector writes one event per line; complete spans
    // have a fixed field order, so a format scan is an exact parse.
    while (std::getline(in, line)) {
        if (line.compare(0, 9, "{\"ph\":\"X\"") == 0) {
            unsigned tid = 0;
            double tsUs = 0, durUs = 0;
            char name[64] = {};
            unsigned long long arg = 0;
            if (std::sscanf(line.c_str(),
                            "{\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                            "\"ts\":%lf,\"dur\":%lf,\"name\":\"%63[^\"]\","
                            "\"args\":{\"v\":%llu}}",
                            &tid, &tsUs, &durUs, name, &arg) == 5)
                out.push_back(Span{name, tid,
                                   std::uint64_t(std::llround(tsUs * 1e3)),
                                   std::uint64_t(std::llround(durUs * 1e3)),
                                   arg});
            continue;
        }
        const std::size_t at = line.find("\"dropped_");
        if (at != std::string::npos) {
            const std::size_t colon = line.find(':', at);
            if (colon != std::string::npos)
                dropped += std::strtoull(line.c_str() + colon + 1,
                                         nullptr, 10);
        }
    }
    return true;
}

bool
writeClientTrace(const std::string &path, const std::vector<Span> &spans)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    std::fputs("{\"traceEvents\": [\n{\"ph\":\"M\",\"pid\":2,\"tid\":1,"
               "\"name\":\"thread_name\",\"args\":{\"name\":\"client\"}}",
               f);
    for (const Span &s : spans)
        std::fprintf(f,
                     ",\n{\"ph\":\"X\",\"pid\":2,\"tid\":%u,\"ts\":%.3f,"
                     "\"dur\":%.3f,\"name\":\"%s\",\"args\":{\"v\":%llu}}",
                     s.tid, double(s.tsNs) / 1e3, double(s.durNs) / 1e3,
                     s.name.c_str(),
                     static_cast<unsigned long long>(s.arg));
    std::fputs("\n]}\n", f);
    return std::fclose(f) == 0;
}

std::vector<std::uint64_t>
selfTimes(const std::vector<Span> &spans, const std::string &parent,
          const std::vector<std::string> &children, std::uint64_t from,
          std::uint64_t to)
{
    // Children per track, by start time.
    std::map<std::uint32_t, std::vector<const Span *>> kids;
    for (const Span &s : spans)
        if (std::find(children.begin(), children.end(), s.name) !=
            children.end())
            kids[s.tid].push_back(&s);
    for (auto &[tid, v] : kids)
        std::sort(v.begin(), v.end(), [](const Span *a, const Span *b) {
            return a->tsNs < b->tsNs;
        });

    std::vector<std::uint64_t> out;
    for (const Span &p : spans) {
        if (p.name != parent || p.tsNs < from || p.tsNs >= to)
            continue;
        std::uint64_t covered = 0;
        const auto it = kids.find(p.tid);
        if (it != kids.end()) {
            const auto &v = it->second;
            auto k = std::lower_bound(
                v.begin(), v.end(), p.tsNs,
                [](const Span *s, std::uint64_t t) { return s->tsNs < t; });
            for (; k != v.end() && (*k)->tsNs < p.endNs(); ++k)
                if ((*k)->endNs() <= p.endNs())
                    covered += (*k)->durNs;
        }
        out.push_back(p.durNs > covered ? p.durNs - covered : 0);
    }
    return out;
}

} // namespace perfbench
