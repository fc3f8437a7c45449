/**
 * @file
 * lpbench: one command for the perfbench workloads.
 *
 *   lpbench --workload served_update|served_read_scan
 *           --seed N --seconds S --trace 0|1 --work-dir DIR
 *           [--git-sha SHA] [--inject-wrong]
 *
 * Prints progress lines, a provenance line, and as its last line one
 * JSON object {"correct", "attempted", "failed", "metrics"}. Exits 0
 * only when every output was verified correct.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>

#include "perfbench/src/common.hh"
#include "perfbench/src/served.hh"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench
{

void
Report::fail(const std::string &why)
{
    correct = false;
    std::fprintf(stderr, "verification failed: %s\n", why.c_str());
}

std::vector<std::uint64_t>
values(const std::vector<Sample> &v)
{
    std::vector<std::uint64_t> out;
    out.reserve(v.size());
    for (const Sample &s : v)
        out.push_back(s.ns);
    return out;
}

double
peakRssMiB()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line))
        if (line.compare(0, 6, "VmHWM:") == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    return 0.0;
}

} // namespace perfbench

namespace
{

int
usage()
{
    std::fprintf(stderr,
                 "usage: lpbench --workload served_update|"
                 "served_read_scan --seed N --seconds S "
                 "--trace 0|1 --work-dir DIR [--git-sha SHA] "
                 "[--inject-wrong]\n");
    return 2;
}

/** JSON string literal of a name made of safe characters. */
std::string
quoted(const std::string &s)
{
    return "\"" + s + "\"";
}

} // namespace

int
main(int argc, char **argv)
{
    perfbench::Options opt;
    std::string gitSha = "unknown";
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const auto value = [&]() -> std::string {
            return i + 1 < argc ? argv[++i] : "";
        };
        if (a == "--workload")
            opt.workload = value();
        else if (a == "--seed")
            opt.seed = std::strtoull(value().c_str(), nullptr, 10);
        else if (a == "--seconds")
            opt.seconds = std::atof(value().c_str());
        else if (a == "--trace")
            opt.trace = value() == "1";
        else if (a == "--work-dir")
            opt.workDir = value();
        else if (a == "--git-sha")
            gitSha = value();
        else if (a == "--inject-wrong")
            opt.injectWrong = true;
        else
            return usage();
    }
    if (opt.seconds <= 0)
        return usage();

    perfbench::Report r;
    if (opt.workload == "served_update")
        r = perfbench::runServedUpdate(opt);
    else if (opt.workload == "served_read_scan")
        r = perfbench::runServedReadScan(opt);
    else
        return usage();

    std::string prov =
        "{\"git_sha\": " + quoted(gitSha) +
        ", \"nproc\": " +
        std::to_string(std::thread::hardware_concurrency()) +
        ", \"build_type\": " + quoted(PERFBENCH_BUILD_TYPE) +
        ", \"workload\": " + quoted(opt.workload) +
        ", \"seed\": " + std::to_string(opt.seed) +
        ", \"run_seconds\": " + std::to_string(opt.seconds) +
        ", \"trace\": " + (opt.trace ? "1" : "0");
    for (const auto &[k, v] : r.provenance) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.17g", v);
        prov += ", " + quoted(k) + ": " + buf;
    }
    std::printf("provenance: %s}\n", prov.c_str());

    std::string out = "{\"correct\": ";
    out += r.correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(r.attempted);
    out += ", \"failed\": " + std::to_string(r.failed);
    out += ", \"metrics\": {";
    bool first = true;
    for (const perfbench::Metric &m : r.metrics) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.17g",
                      std::isfinite(m.value) ? m.value : 0.0);
        out += first ? "" : ", ";
        out += quoted(m.name) + ": {\"value\": " + buf +
               ", \"unit\": " + quoted(m.unit) + "}";
        first = false;
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
    return r.correct ? 0 : 1;
}
