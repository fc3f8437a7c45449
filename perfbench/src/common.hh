/**
 * @file
 * Shared pieces of the perfbench harness: the named-metric report,
 * exact percentiles over raw samples, and the run-wide options.
 *
 * Percentiles are computed from every recorded sample (sorted), never
 * from log-bucketed histograms: a bucket midpoint can read identically
 * on every run, which hides real run-to-run movement.
 */

#ifndef PERFBENCH_COMMON_HH
#define PERFBENCH_COMMON_HH

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench
{

/** Command-line options every workload receives. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;

    /** Scratch directory for shard files and trace output. */
    std::string workDir = ".";

    /**
     * Corrupt one expected value before verification: the run must
     * then report correct=false (the smoke test's negative check).
     */
    bool injectWrong = false;
};

/** One reported metric. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** Outcome of one workload run: verification plus named metrics. */
struct Report
{
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> metrics;

    /** Run parameters recorded with the result (offered rate...). */
    std::vector<std::pair<std::string, double>> provenance;

    void
    add(const std::string &name, double value, const std::string &unit)
    {
        metrics.push_back(Metric{name, value, unit});
    }

    /** Record a verification failure with a one-line reason. */
    void fail(const std::string &why);
};

/** Exact quantile @p q of @p v (sorted in place); 0 when empty. */
inline double
quantile(std::vector<std::uint64_t> &v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    // Linear interpolation between the two closest ranks.
    const double pos = q * double(v.size() - 1);
    const std::size_t lo = std::size_t(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = pos - double(lo);
    return double(v[lo]) * (1.0 - frac) + double(v[hi]) * frac;
}

/** One timed event: when it was due (ns clock) and what it took. */
struct Sample
{
    std::uint64_t atNs = 0;
    std::uint64_t ns = 0;
};

/** The plain values of @p v. */
std::vector<std::uint64_t> values(const std::vector<Sample> &v);

inline double
mean(const std::vector<std::uint64_t> &v)
{
    if (v.empty())
        return 0.0;
    double s = 0.0;
    for (const std::uint64_t x : v)
        s += double(x);
    return s / double(v.size());
}

/** a / b, 0 when b is 0. */
inline double
ratio(double a, double b)
{
    return b == 0.0 ? 0.0 : a / b;
}

/** Peak resident set size of this process, in MiB (VmHWM). */
double peakRssMiB();

} // namespace perfbench

#endif // PERFBENCH_COMMON_HH
