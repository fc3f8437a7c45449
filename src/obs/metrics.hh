/**
 * @file
 * Prometheus text exposition: builder and parser.
 *
 * MetricsText renders counters, gauges, and obs::Histogram bucket
 * series in the Prometheus text format (one "# TYPE" line per metric
 * name, cumulative "le" buckets in seconds plus +Inf/_sum/_count for
 * histograms). The server answers the METRICS protocol op with this
 * text; parseExposition is the inverse used by `lp top` and the
 * integration tests, flattening an exposition back into a
 * stats::Snapshot keyed by `name{labels}`.
 */

#ifndef LP_OBS_METRICS_HH
#define LP_OBS_METRICS_HH

#include <set>
#include <string>

#include "obs/histogram.hh"
#include "stats/stats.hh"

namespace lp::obs
{

class MetricsText
{
  public:
    /** Append `name{labels} v`; @p labels like `shard="0"`, may be empty. */
    void counter(const std::string &name, const std::string &labels,
                 double v);
    void gauge(const std::string &name, const std::string &labels,
               double v);

    /**
     * Append a histogram of nanosecond samples as `<name>_bucket`
     * cumulative octave buckets (le in SECONDS), `<name>_sum`
     * (seconds) and `<name>_count`. Only octaves up to the highest
     * non-empty one are emitted; `le="+Inf"` always equals _count.
     * When the histogram recorded overflow samples (>= 2^48 ns) the
     * finite series is closed at the 2^48 bound so bucket quantiles
     * saturate at the trackable max. Buckets whose octave holds an
     * exemplar trace id carry an OpenMetrics exemplar suffix
     * (`# {trace_id="<16 hex>"} <octave midpoint>`).
     */
    void histogramNs(const std::string &name,
                     const std::string &labels, const Histogram &h);

    /**
     * Like histogramNs but for unitless samples (iovec counts,
     * record counts): le bounds and _sum stay in the recorded
     * units instead of being scaled to seconds.
     */
    void histogramRaw(const std::string &name,
                      const std::string &labels, const Histogram &h);

    const std::string &str() const { return out_; }

  private:
    void histogramScaled(const std::string &name,
                         const std::string &labels,
                         const Histogram &h, double scale);
    void typeLine(const std::string &name, const char *type);
    void appendName(const std::string &name, const std::string &labels);
    void sample(const std::string &name, const std::string &labels,
                double v);
    void bucketSample(const std::string &name,
                      const std::string &labels, double v,
                      std::uint64_t exemplarId, double exemplarValue);

    std::string out_;
    std::set<std::string> typed_;
};

/**
 * Parse a text exposition into @p out, keyed `name{labels}` (or bare
 * `name`). Comment/blank lines are skipped; OpenMetrics exemplar
 * suffixes (" # {...} v") are stripped. False if any remaining line
 * is not `<key> <number>`.
 */
bool parseExposition(const std::string &text, stats::Snapshot &out);

/**
 * Quantile from a parsed `_bucket` series: @p lesToCum maps each
 * bucket's le bound to its cumulative count (+Inf as infinity).
 * Returns the smallest le bound covering fraction @p p, i.e. an
 * upper bound on the quantile. A quantile that lands past the last
 * finite bound (overflow samples, >= 2^48 ns) saturates to that
 * last finite bound -- the trackable max when the exposition came
 * from MetricsText. 0 when empty.
 */
double quantileFromBuckets(
    const std::map<double, double> &lesToCum, double p);

} // namespace lp::obs

#endif // LP_OBS_METRICS_HH
