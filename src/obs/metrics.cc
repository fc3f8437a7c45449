#include "obs/metrics.hh"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <sstream>

namespace lp::obs
{

namespace
{

/** Integers print exactly; everything else gets shortest-round-trip. */
std::string
formatValue(double v)
{
    char buf[40];
    if (v == std::floor(v) && std::fabs(v) < 9.2e18) {
        std::snprintf(buf, sizeof(buf), "%lld",
                      static_cast<long long>(v));
    } else {
        std::snprintf(buf, sizeof(buf), "%.10g", v);
    }
    return buf;
}

std::string
joinLabels(const std::string &labels, const std::string &extra)
{
    if (labels.empty())
        return extra;
    if (extra.empty())
        return labels;
    return labels + "," + extra;
}

} // namespace

void
MetricsText::typeLine(const std::string &name, const char *type)
{
    if (typed_.insert(name).second)
        out_ += "# TYPE " + name + " " + type + "\n";
}

/**
 * `name` or `name{labels}`, appended piecewise: GCC 12 at -O3 reports
 * a false -Wrestrict on `"{" + labels + "}"`.
 */
void
MetricsText::appendName(const std::string &name,
                        const std::string &labels)
{
    out_.append(name);
    if (!labels.empty())
        out_.append(1, '{').append(labels).append(1, '}');
}

void
MetricsText::sample(const std::string &name, const std::string &labels,
                    double v)
{
    appendName(name, labels);
    out_.append(1, ' ').append(formatValue(v)).append(1, '\n');
}

/**
 * Bucket line with an OpenMetrics exemplar suffix: the freshest
 * trace id that landed in this bucket's octave, with the value
 * reconstructed as the octave midpoint (the id is a single atomic
 * word in the histogram, so a concurrent scrape can never see a
 * torn id -- see Histogram::recordExemplar).
 */
void
MetricsText::bucketSample(const std::string &name,
                          const std::string &labels, double v,
                          std::uint64_t exemplarId,
                          double exemplarValue)
{
    appendName(name, labels);
    out_.append(1, ' ').append(formatValue(v));
    if (exemplarId != 0) {
        char ex[64];
        std::snprintf(ex, sizeof(ex),
                      " # {trace_id=\"%016llx\"} ",
                      static_cast<unsigned long long>(exemplarId));
        out_ += ex;
        out_ += formatValue(exemplarValue);
    }
    out_ += "\n";
}

void
MetricsText::counter(const std::string &name,
                     const std::string &labels, double v)
{
    typeLine(name, "counter");
    sample(name, labels, v);
}

void
MetricsText::gauge(const std::string &name, const std::string &labels,
                   double v)
{
    typeLine(name, "gauge");
    sample(name, labels, v);
}

void
MetricsText::histogramScaled(const std::string &name,
                             const std::string &labels,
                             const Histogram &h, double scale)
{
    typeLine(name, "histogram");
    const std::uint64_t total = h.count();
    const std::uint64_t tracked = total - h.overflow();

    std::uint64_t cum = 0;
    std::size_t i = 0;
    int lastK = 0;
    for (int k = Histogram::kSubBits + 1; k <= Histogram::kMaxBit + 1;
         ++k) {
        // Buckets below this index hold values < 2^k exactly.
        const std::size_t boundIdx =
            2 * Histogram::kSub +
            std::size_t(k - Histogram::kSubBits - 1) * Histogram::kSub;
        while (i < boundIdx)
            cum += h.bucketCount(i++);
        char le[48];
        std::snprintf(le, sizeof(le), "le=\"%.10g\"",
                      double(std::uint64_t(1) << k) * scale);
        // This bucket's own octave is [2^(k-1), 2^k) -- exemplar
        // slot k - kSubBits - 1 -- reconstructed at the octave
        // midpoint (the first bucket covers the whole linear region,
        // midpoint 2^kSubBits).
        const std::size_t ex = std::size_t(k - Histogram::kSubBits - 1);
        const double mid =
            k == Histogram::kSubBits + 1
                ? double(std::uint64_t(1) << Histogram::kSubBits)
                : 1.5 * double(std::uint64_t(1) << (k - 1));
        bucketSample(name + "_bucket", joinLabels(labels, le),
                     double(cum), h.exemplar(ex), mid * scale);
        lastK = k;
        if (cum >= tracked)
            break;
    }
    // Overflow saturation: when samples exceeded the trackable range,
    // close the finite series at the 2^(kMaxBit+1) bound so a
    // quantile that lands in the overflow saturates to the trackable
    // max (matching Histogram::percentile) instead of whatever octave
    // the tracked samples happened to stop at.
    if (h.overflow() > 0 && lastK < Histogram::kMaxBit + 1) {
        char le[48];
        std::snprintf(
            le, sizeof(le), "le=\"%.10g\"",
            double(std::uint64_t(1) << (Histogram::kMaxBit + 1)) *
                scale);
        sample(name + "_bucket", joinLabels(labels, le),
               double(tracked));
    }
    bucketSample(name + "_bucket", joinLabels(labels, "le=\"+Inf\""),
                 double(total),
                 h.exemplar(Histogram::kExemplars - 1),
                 double(Histogram::maxTrackable()) * scale);
    sample(name + "_sum", labels, double(h.sum()) * scale);
    sample(name + "_count", labels, double(total));
}

void
MetricsText::histogramNs(const std::string &name,
                         const std::string &labels,
                         const Histogram &h)
{
    histogramScaled(name, labels, h, 1e-9);
}

void
MetricsText::histogramRaw(const std::string &name,
                          const std::string &labels,
                          const Histogram &h)
{
    histogramScaled(name, labels, h, 1.0);
}

bool
parseExposition(const std::string &text, stats::Snapshot &out)
{
    std::istringstream in(text);
    std::string line;
    bool ok = true;
    while (std::getline(in, line)) {
        if (!line.empty() && line.back() == '\r')
            line.pop_back();
        if (line.empty() || line[0] == '#')
            continue;
        // Strip an OpenMetrics exemplar suffix (" # {...} value")
        // before splitting on the last space -- the exemplar's value
        // would otherwise be parsed as the sample.
        const std::size_t ex = line.find(" # ");
        if (ex != std::string::npos)
            line.erase(ex);
        const std::size_t sp = line.find_last_of(' ');
        if (sp == std::string::npos || sp == 0 ||
            sp + 1 >= line.size()) {
            ok = false;
            continue;
        }
        const std::string key = line.substr(0, sp);
        const std::string val = line.substr(sp + 1);
        char *end = nullptr;
        const double v = std::strtod(val.c_str(), &end);
        if (end == val.c_str() || *end != '\0') {
            ok = false;
            continue;
        }
        out[key] = v;
    }
    return ok;
}

double
quantileFromBuckets(const std::map<double, double> &lesToCum, double p)
{
    if (lesToCum.empty())
        return 0.0;
    const double total = lesToCum.rbegin()->second;
    if (total <= 0.0)
        return 0.0;
    const double target = p * total;
    double lastFinite = 0.0;
    for (const auto &[le, cum] : lesToCum) {
        if (std::isinf(le))
            break;
        lastFinite = le;
        if (cum >= target)
            return le;
    }
    return lastFinite;
}

} // namespace lp::obs
