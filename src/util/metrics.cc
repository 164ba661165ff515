#include "util/metrics.hh"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <limits>
#include <sstream>
#include <string_view>

#include "util/logging.hh"
#include "util/number_text.hh"

namespace bwwall {

namespace {

/** Escapes a string for inclusion in a JSON string literal. */
std::string
jsonEscape(const std::string &text)
{
    std::string out;
    out.reserve(text.size());
    for (const char c : text) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\r':
            out += "\\r";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                std::ostringstream hex;
                hex << "\\u" << std::hex << std::setw(4)
                    << std::setfill('0') << static_cast<int>(c);
                out += hex.str();
            } else {
                out += c;
            }
        }
    }
    return out;
}

/** Appends the pieces of one metric line: text, counts, values. */
void
appendPiece(std::string &out, std::string_view text)
{
    out += text;
}

void
appendPiece(std::string &out, std::uint64_t count)
{
    out += std::to_string(count);
}

/** JSON has no infinity or NaN, so those values print as null. */
void
appendPiece(std::string &out, double value)
{
    appendDoubleText(out, value, "null");
}

template <typename... Pieces>
void
appendAll(std::string &out, const Pieces &...pieces)
{
    (appendPiece(out, pieces), ...);
}

} // namespace

void
MetricsRegistry::addCounter(const std::string &name,
                            std::uint64_t delta)
{
    std::lock_guard<std::mutex> lock(mutex_);
    counters_[name] += delta;
}

void
MetricsRegistry::setGauge(const std::string &name, double value)
{
    std::lock_guard<std::mutex> lock(mutex_);
    gauges_[name] = value;
}

void
MetricsRegistry::observeTimer(const std::string &name, double seconds)
{
    std::lock_guard<std::mutex> lock(mutex_);
    TimerCell &cell = timers_[name];
    ++cell.count;
    cell.seconds += seconds;
}

std::uint64_t
MetricsRegistry::counter(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second;
}

double
MetricsRegistry::gauge(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = gauges_.find(name);
    return it == gauges_.end() ? 0.0 : it->second;
}

double
MetricsRegistry::timerSeconds(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = timers_.find(name);
    return it == timers_.end() ? 0.0 : it->second.seconds;
}

std::uint64_t
MetricsRegistry::timerCount(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = timers_.find(name);
    return it == timers_.end() ? 0 : it->second.count;
}

const std::vector<double> &
MetricsRegistry::histogramBucketBounds()
{
    static const std::vector<double> bounds = [] {
        std::vector<double> ladder;
        for (double bound = 1e-6; bound <= 141.0;
             bound *= std::sqrt(2.0))
            ladder.push_back(bound);
        return ladder;
    }();
    return bounds;
}

void
MetricsRegistry::observeHistogram(const std::string &name,
                                  double value)
{
    const std::vector<double> &bounds = histogramBucketBounds();
    const auto slot = static_cast<std::size_t>(
        std::lower_bound(bounds.begin(), bounds.end(), value) -
        bounds.begin());
    std::lock_guard<std::mutex> lock(mutex_);
    HistogramCell &cell = histograms_[name];
    if (cell.buckets.empty())
        cell.buckets.assign(bounds.size() + 1, 0);
    ++cell.buckets[slot];
    ++cell.count;
    cell.sum += value;
}

std::uint64_t
MetricsRegistry::histogramCount(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = histograms_.find(name);
    return it == histograms_.end() ? 0 : it->second.count;
}

double
MetricsRegistry::histogramSum(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = histograms_.find(name);
    return it == histograms_.end() ? 0.0 : it->second.sum;
}

double
MetricsRegistry::quantileOf(const HistogramCell &cell, double q)
{
    if (cell.count == 0)
        return 0.0;
    const std::vector<double> &bounds = histogramBucketBounds();
    const double clamped = std::min(std::max(q, 0.0), 1.0);
    const double rank =
        clamped * static_cast<double>(cell.count);
    double cumulative = 0.0;
    for (std::size_t slot = 0; slot < cell.buckets.size();
         ++slot) {
        const double in_bucket =
            static_cast<double>(cell.buckets[slot]);
        if (in_bucket == 0.0)
            continue;
        if (cumulative + in_bucket >= rank) {
            if (slot >= bounds.size())
                return bounds.back(); // overflow bucket
            const double hi = bounds[slot];
            const double lo = slot == 0 ? 0.0 : bounds[slot - 1];
            const double fraction =
                (rank - cumulative) / in_bucket;
            return lo + (hi - lo) * fraction;
        }
        cumulative += in_bucket;
    }
    return bounds.back();
}

double
MetricsRegistry::histogramQuantile(const std::string &name,
                                   double q) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = histograms_.find(name);
    return it == histograms_.end() ? 0.0
                                   : quantileOf(it->second, q);
}

bool
MetricsRegistry::empty() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return counters_.empty() && gauges_.empty() &&
           timers_.empty() && histograms_.empty();
}

void
MetricsRegistry::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    counters_.clear();
    gauges_.clear();
    timers_.clear();
    histograms_.clear();
}

std::string
MetricsRegistry::jsonText() const
{
    std::string out = "{\n  \"counters\": {";
    {
        std::lock_guard<std::mutex> lock(mutex_);
        bool first = true;
        const auto member = [&](const std::string &name) {
            appendAll(out, first ? "\n    \"" : ",\n    \"",
                      jsonEscape(name), "\": ");
            first = false;
        };
        // Closes the current section and opens @p next.
        const auto section = [&](const char *next) {
            appendAll(out, first ? "}" : "\n  }", next);
            first = true;
        };
        for (const auto &[name, value] : counters_) {
            member(name);
            appendAll(out, value);
        }
        section(",\n  \"gauges\": {");
        for (const auto &[name, value] : gauges_) {
            member(name);
            appendAll(out, value);
        }
        section(",\n  \"timers\": {");
        for (const auto &[name, cell] : timers_) {
            member(name);
            appendAll(out, "{\"count\": ", cell.count,
                      ", \"seconds\": ", cell.seconds, "}");
        }
        section(",\n  \"histograms\": {");
        const std::vector<double> &bounds = histogramBucketBounds();
        for (const auto &[name, cell] : histograms_) {
            member(name);
            appendAll(out, "{\"count\": ", cell.count, ", \"sum\": ",
                      cell.sum, ", \"p50\": ", quantileOf(cell, 0.50),
                      ", \"p99\": ", quantileOf(cell, 0.99),
                      ", \"buckets\": [");
            const char *separator = "[";
            for (std::size_t slot = 0; slot < cell.buckets.size();
                 ++slot) {
                if (cell.buckets[slot] == 0)
                    continue;
                const double le = slot < bounds.size()
                                      ? bounds[slot]
                                      : std::numeric_limits<
                                            double>::infinity();
                appendAll(out, separator, le, ", ",
                          cell.buckets[slot], "]");
                separator = ", [";
            }
            out += "]}";
        }
        section("\n}\n");
    }
    return out;
}

void
MetricsRegistry::writeJson(std::ostream &os) const
{
    os << jsonText();
}

std::string
MetricsRegistry::text() const
{
    std::string out;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (const auto &[name, value] : counters_)
            appendAll(out, "counter ", name, " ", value, "\n");
        for (const auto &[name, value] : gauges_)
            appendAll(out, "gauge ", name, " ", value, "\n");
        for (const auto &[name, cell] : timers_)
            appendAll(out, "timer ", name, " ", cell.count, " ",
                      cell.seconds, "\n");
        for (const auto &[name, cell] : histograms_)
            appendAll(out, "histogram ", name, " ", cell.count, " ",
                      cell.sum, " ", quantileOf(cell, 0.50), " ",
                      quantileOf(cell, 0.99), "\n");
    }
    return out;
}

void
MetricsRegistry::writeJsonFile(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        fatal("cannot write metrics file '", path, "'");
    writeJson(out);
    out.flush();
    if (!out)
        fatal("failed writing metrics file '", path, "'");
}

} // namespace bwwall
