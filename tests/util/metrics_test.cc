/**
 * @file
 * Unit tests for the run-metrics registry: accumulation semantics,
 * deterministic JSON serialization, string escaping, file output,
 * and thread-safety of concurrent updates.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <thread>
#include <vector>

#include "server/json.hh"
#include "util/metrics.hh"

namespace bwwall {
namespace {

TEST(MetricsRegistryTest, StartsEmpty)
{
    MetricsRegistry metrics;
    EXPECT_TRUE(metrics.empty());
    EXPECT_EQ(metrics.counter("absent"), 0u);
    EXPECT_DOUBLE_EQ(metrics.gauge("absent"), 0.0);
    EXPECT_DOUBLE_EQ(metrics.timerSeconds("absent"), 0.0);
    EXPECT_EQ(metrics.timerCount("absent"), 0u);
}

TEST(MetricsRegistryTest, CountersAccumulate)
{
    MetricsRegistry metrics;
    metrics.addCounter("sweep.points");
    metrics.addCounter("sweep.points", 41);
    EXPECT_EQ(metrics.counter("sweep.points"), 42u);
    EXPECT_FALSE(metrics.empty());
}

TEST(MetricsRegistryTest, GaugesLastWriteWins)
{
    MetricsRegistry metrics;
    metrics.setGauge("speedup", 1.5);
    metrics.setGauge("speedup", 3.25);
    EXPECT_DOUBLE_EQ(metrics.gauge("speedup"), 3.25);
}

TEST(MetricsRegistryTest, TimersAccumulateObservations)
{
    MetricsRegistry metrics;
    metrics.observeTimer("sweep", 0.5);
    metrics.observeTimer("sweep", 0.25);
    EXPECT_DOUBLE_EQ(metrics.timerSeconds("sweep"), 0.75);
    EXPECT_EQ(metrics.timerCount("sweep"), 2u);
}

TEST(MetricsRegistryTest, ClearDiscardsEverything)
{
    MetricsRegistry metrics;
    metrics.addCounter("a");
    metrics.setGauge("b", 1.0);
    metrics.observeTimer("c", 1.0);
    metrics.clear();
    EXPECT_TRUE(metrics.empty());
}

TEST(MetricsRegistryTest, JsonShapeAndOrdering)
{
    MetricsRegistry metrics;
    metrics.addCounter("z.last", 2);
    metrics.addCounter("a.first", 1);
    metrics.setGauge("ratio", 0.5);
    metrics.observeTimer("run", 1.5);

    std::ostringstream out;
    metrics.writeJson(out);
    EXPECT_EQ(out.str(),
              "{\n"
              "  \"counters\": {\n"
              "    \"a.first\": 1,\n"
              "    \"z.last\": 2\n"
              "  },\n"
              "  \"gauges\": {\n"
              "    \"ratio\": 0.5\n"
              "  },\n"
              "  \"timers\": {\n"
              "    \"run\": {\"count\": 1, \"seconds\": 1.5}\n"
              "  },\n"
              "  \"histograms\": {}\n"
              "}\n");
}

TEST(MetricsRegistryTest, JsonIsDeterministic)
{
    auto build = [] {
        MetricsRegistry metrics;
        metrics.setGauge("pi-ish", 3.141592653589793);
        metrics.addCounter("events", 123456789);
        metrics.observeTimer("t", 0.125);
        std::ostringstream out;
        metrics.writeJson(out);
        return out.str();
    };
    EXPECT_EQ(build(), build());
}

TEST(MetricsRegistryTest, JsonEscapesNames)
{
    MetricsRegistry metrics;
    metrics.addCounter("quote\"back\\slash\nnewline", 1);
    std::ostringstream out;
    metrics.writeJson(out);
    EXPECT_NE(out.str().find("quote\\\"back\\\\slash\\nnewline"),
              std::string::npos);
}

TEST(MetricsRegistryTest, NonFiniteGaugesSerializeAsNull)
{
    MetricsRegistry metrics;
    metrics.setGauge("inf", std::numeric_limits<double>::infinity());
    std::ostringstream out;
    metrics.writeJson(out);
    EXPECT_NE(out.str().find("\"inf\": null"), std::string::npos);
}

TEST(MetricsRegistryTest, WriteJsonFileRoundTrips)
{
    MetricsRegistry metrics;
    metrics.addCounter("written", 7);
    const std::string path =
        testing::TempDir() + "bwwall_metrics_test.json";
    metrics.writeJsonFile(path);

    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::ostringstream content;
    content << in.rdbuf();
    EXPECT_NE(content.str().find("\"written\": 7"),
              std::string::npos);
    std::remove(path.c_str());
}

TEST(MetricsRegistryTest, ScopedTimerObservesOnDestruction)
{
    MetricsRegistry metrics;
    {
        ScopedTimer timer(metrics, "scope");
    }
    EXPECT_EQ(metrics.timerCount("scope"), 1u);
    EXPECT_GE(metrics.timerSeconds("scope"), 0.0);
}

TEST(MetricsRegistryTest, ConcurrentCountersDoNotDropUpdates)
{
    MetricsRegistry metrics;
    const int threads = 8, increments = 10000;
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t) {
        pool.emplace_back([&metrics] {
            for (int i = 0; i < increments; ++i)
                metrics.addCounter("shared");
        });
    }
    for (std::thread &thread : pool)
        thread.join();
    EXPECT_EQ(metrics.counter("shared"),
              static_cast<std::uint64_t>(threads) * increments);
}

TEST(MetricsRegistryTest, HistogramAccumulatesObservations)
{
    MetricsRegistry metrics;
    metrics.observeHistogram("latency", 0.001);
    metrics.observeHistogram("latency", 0.002);
    metrics.observeHistogram("latency", 0.004);
    EXPECT_EQ(metrics.histogramCount("latency"), 3u);
    EXPECT_NEAR(metrics.histogramSum("latency"), 0.007, 1e-12);
    EXPECT_EQ(metrics.histogramCount("absent"), 0u);
    EXPECT_DOUBLE_EQ(metrics.histogramQuantile("absent", 0.5), 0.0);
}

TEST(MetricsRegistryTest, HistogramQuantilesBracketTheSamples)
{
    MetricsRegistry metrics;
    // 99 fast observations and one slow outlier: p50 must stay near
    // the fast cluster, p99 must reach toward the outlier.  The
    // geometric buckets give ~sqrt(2) resolution, so bracket rather
    // than pin the values.
    for (int i = 0; i < 99; ++i)
        metrics.observeHistogram("h", 0.001);
    metrics.observeHistogram("h", 1.0);
    const double p50 = metrics.histogramQuantile("h", 0.50);
    const double p99 = metrics.histogramQuantile("h", 0.99);
    EXPECT_GT(p50, 0.0001);
    EXPECT_LT(p50, 0.01);
    EXPECT_GT(p99, 0.0005);
    EXPECT_LE(p99, 2.0);
    EXPECT_LE(p50, p99);
}

TEST(MetricsRegistryTest, HistogramOverflowClampsToLastBound)
{
    MetricsRegistry metrics;
    metrics.observeHistogram("slow", 1e6); // beyond the ladder
    EXPECT_DOUBLE_EQ(
        metrics.histogramQuantile("slow", 0.5),
        MetricsRegistry::histogramBucketBounds().back());
}

TEST(MetricsRegistryTest, WriteTextListsEveryKind)
{
    MetricsRegistry metrics;
    metrics.addCounter("c", 3);
    metrics.setGauge("g", 1.5);
    metrics.observeTimer("t", 0.5);
    metrics.observeHistogram("h", 0.25);
    const std::string text = metrics.text();
    EXPECT_NE(text.find("counter c 3\n"), std::string::npos);
    EXPECT_NE(text.find("gauge g 1.5\n"), std::string::npos);
    EXPECT_NE(text.find("timer t 1 0.5\n"), std::string::npos);
    EXPECT_NE(text.find("histogram h 1 0.25"), std::string::npos);
}

TEST(MetricsRegistryTest, JsonReportIsParseableWithOddNames)
{
    MetricsRegistry metrics;
    metrics.addCounter("server.endpoint./v1/traffic.requests", 2);
    metrics.addCounter("quote\"back\\slash\nnewline", 1);
    metrics.setGauge("inf", std::numeric_limits<double>::infinity());
    metrics.observeTimer("t", 0.125);
    metrics.observeHistogram("h", 0.003);
    std::ostringstream out;
    metrics.writeJson(out);

    JsonValue report;
    std::string error;
    ASSERT_TRUE(JsonValue::parse(out.str(), &report, &error))
        << error;
    const JsonValue *counters = report.find("counters");
    ASSERT_NE(counters, nullptr);
    const JsonValue *endpoint =
        counters->find("server.endpoint./v1/traffic.requests");
    ASSERT_NE(endpoint, nullptr);
    EXPECT_DOUBLE_EQ(endpoint->asNumber(), 2.0);
    ASSERT_NE(counters->find("quote\"back\\slash\nnewline"),
              nullptr);
    const JsonValue *histograms = report.find("histograms");
    ASSERT_NE(histograms, nullptr);
    ASSERT_NE(histograms->find("h"), nullptr);
    EXPECT_DOUBLE_EQ(
        histograms->find("h")->find("count")->asNumber(), 1.0);
}

TEST(MetricsRegistryTest, JsonStaysParseableDuringUpdates)
{
    MetricsRegistry metrics;
    std::atomic<bool> done{false};
    std::thread writer([&] {
        for (int i = 0; i < 5000 && !done.load(); ++i) {
            metrics.addCounter("churn");
            metrics.observeHistogram("churn.h", 0.001);
        }
        done.store(true);
    });
    // Serialize concurrently with the updates; every snapshot must
    // be valid JSON (the registry locks around serialization).
    for (int i = 0; i < 50; ++i) {
        std::ostringstream out;
        metrics.writeJson(out);
        JsonValue report;
        std::string error;
        ASSERT_TRUE(JsonValue::parse(out.str(), &report, &error))
            << error;
    }
    done.store(true);
    writer.join();
}

TEST(MetricsRegistryTest, ConcurrentMixedUpdatesStayConsistent)
{
    MetricsRegistry metrics;
    const int threads = 8, updates = 2000;
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t) {
        pool.emplace_back([&metrics, t] {
            for (int i = 0; i < updates; ++i) {
                metrics.addCounter("mixed.count");
                metrics.observeHistogram(
                    "mixed.latency",
                    0.0001 * static_cast<double>(t + 1));
                metrics.setGauge("mixed.last",
                                 static_cast<double>(i));
            }
        });
    }
    for (std::thread &thread : pool)
        thread.join();
    const std::uint64_t expected =
        static_cast<std::uint64_t>(threads) * updates;
    EXPECT_EQ(metrics.counter("mixed.count"), expected);
    EXPECT_EQ(metrics.histogramCount("mixed.latency"), expected);
    EXPECT_GT(metrics.histogramSum("mixed.latency"), 0.0);
}

} // namespace
} // namespace bwwall
