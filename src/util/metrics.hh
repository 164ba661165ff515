/**
 * @file
 * Structured run metrics for the experiment harnesses.
 *
 * Every sweep driver can report what it did — points run, wall time,
 * simulated cycles per second, channel utilization — into a
 * MetricsRegistry, and every bench/example can serialize that
 * registry as JSON (`--json out.json`) next to its human-readable
 * table, so CI diffs and gates runs mechanically instead of by
 * eyeball.
 *
 * The registry holds four metric kinds under dot-separated names:
 * counters (monotonic integer event counts), gauges (last-value
 * doubles), timers (accumulated wall seconds with an observation
 * count), and histograms (log-scale bucketed distributions with
 * quantile estimation, for request latencies).  All mutation is
 * thread-safe; serialization is deterministic (names sorted, fixed
 * formatting) so two identical runs emit identical bytes.
 */

#ifndef BWWALL_UTIL_METRICS_HH
#define BWWALL_UTIL_METRICS_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace bwwall {

/** Thread-safe registry of named counters, gauges, and timers. */
class MetricsRegistry
{
  public:
    /** Adds `delta` to a counter, creating it at zero first. */
    void addCounter(const std::string &name, std::uint64_t delta = 1);

    /** Sets a gauge to the given value (last write wins). */
    void setGauge(const std::string &name, double value);

    /** Accumulates one timed observation, in seconds. */
    void observeTimer(const std::string &name, double seconds);

    /** Current counter value; 0 when never touched. */
    std::uint64_t counter(const std::string &name) const;

    /** Current gauge value; 0.0 when never set. */
    double gauge(const std::string &name) const;

    /** Accumulated seconds of a timer; 0.0 when never observed. */
    double timerSeconds(const std::string &name) const;

    /** Number of observations of a timer. */
    std::uint64_t timerCount(const std::string &name) const;

    /**
     * Adds one observation to a histogram, creating it on first
     * touch.  Buckets are a fixed geometric ladder (see
     * histogramBucketBounds()) sized for wall times from one
     * microsecond to minutes; values beyond the ladder land in an
     * overflow bucket.
     */
    void observeHistogram(const std::string &name, double value);

    /** Number of observations of a histogram. */
    std::uint64_t histogramCount(const std::string &name) const;

    /** Sum of a histogram's observations. */
    double histogramSum(const std::string &name) const;

    /**
     * Estimated quantile (q in [0, 1]) by linear interpolation
     * within the containing bucket; 0.0 for empty histograms.
     * Overflow observations report the top bucket bound.
     */
    double histogramQuantile(const std::string &name,
                             double q) const;

    /**
     * The shared bucket upper bounds: a geometric ladder from 1e-6
     * by a factor of sqrt(2) up past 100 (54 finite buckets plus
     * overflow).
     */
    static const std::vector<double> &histogramBucketBounds();

    /** True when no metric of any kind has been recorded. */
    bool empty() const;

    /** Discards every metric. */
    void clear();

    /**
     * The registry as a JSON object:
     * {"counters": {...}, "gauges": {...}, "timers":
     * {"name": {"count": N, "seconds": S}, ...}, "histograms":
     * {"name": {"count": N, "sum": S, "p50": ..., "p99": ...,
     * "buckets": [[le, count], ...]}, ...}} (non-empty buckets
     * only).  Formatted under the registry lock, which is held for
     * formatting only: bwwalld renders scrapes on an io shard while
     * compute threads record.
     */
    std::string jsonText() const;

    /** Writes jsonText() to @p os. */
    void writeJson(std::ostream &os) const;

    /** writeJson into a file; fatal when the file cannot be written. */
    void writeJsonFile(const std::string &path) const;

    /**
     * The registry as plain text, one metric per line
     * (`counter NAME VALUE`, `gauge NAME VALUE`, `timer NAME COUNT
     * SECONDS`, `histogram NAME COUNT SUM P50 P99`), sorted by name
     * within each kind — the server's /metrics text format.
     */
    std::string text() const;

  private:
    struct TimerCell
    {
        std::uint64_t count = 0;
        double seconds = 0.0;
    };

    struct HistogramCell
    {
        /** One slot per finite bound plus a trailing overflow slot. */
        std::vector<std::uint64_t> buckets;
        std::uint64_t count = 0;
        double sum = 0.0;
    };

    static double quantileOf(const HistogramCell &cell, double q);

    mutable std::mutex mutex_;
    std::map<std::string, std::uint64_t> counters_;
    std::map<std::string, double> gauges_;
    std::map<std::string, TimerCell> timers_;
    std::map<std::string, HistogramCell> histograms_;
};

/**
 * RAII timer: observes the elapsed wall time into the registry's
 * named timer on destruction.
 */
class ScopedTimer
{
  public:
    ScopedTimer(MetricsRegistry &registry, std::string name)
        : registry_(registry), name_(std::move(name)),
          start_(std::chrono::steady_clock::now())
    {}

    ~ScopedTimer()
    {
        const auto elapsed =
            std::chrono::steady_clock::now() - start_;
        registry_.observeTimer(
            name_,
            std::chrono::duration<double>(elapsed).count());
    }

    ScopedTimer(const ScopedTimer &) = delete;
    ScopedTimer &operator=(const ScopedTimer &) = delete;

  private:
    MetricsRegistry &registry_;
    std::string name_;
    std::chrono::steady_clock::time_point start_;
};

} // namespace bwwall

#endif // BWWALL_UTIL_METRICS_HH
