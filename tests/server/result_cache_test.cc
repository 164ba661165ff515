/**
 * @file
 * Tests for the sharded result cache: hit/miss accounting, LRU
 * eviction under the byte budget, error pass-through,
 * the single-flight guarantee (concurrent identical requests
 * compute exactly once), the running byte and entry totals, and
 * tryCompute(), the entry point that never waits.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "server/result_cache.hh"
#include "util/error.hh"
#include "util/fault.hh"
#include "util/metrics.hh"

namespace bwwall {
namespace {

CachedResponse
responseOf(const std::string &body)
{
    CachedResponse response;
    response.body = body;
    return response;
}

TEST(ResultCacheTest, MissComputesThenHitReuses)
{
    MetricsRegistry metrics;
    ResultCache cache(ResultCacheConfig{}, &metrics);
    int computes = 0;
    const auto compute = [&] {
        ++computes;
        return responseOf("r1");
    };

    const ResultCache::Outcome first =
        cache.getOrCompute("k", compute);
    EXPECT_FALSE(first.hit);
    EXPECT_EQ(first.response->body, "r1");

    const ResultCache::Outcome second =
        cache.getOrCompute("k", compute);
    EXPECT_TRUE(second.hit);
    EXPECT_EQ(second.response->body, "r1");
    EXPECT_EQ(computes, 1);
    EXPECT_EQ(metrics.counter("cache.misses"), 1u);
    EXPECT_EQ(metrics.counter("cache.hits"), 1u);
    EXPECT_EQ(cache.entryCount(), 1u);
    EXPECT_GT(cache.sizeBytes(), 0u);
}

TEST(ResultCacheTest, DistinctKeysComputeIndependently)
{
    ResultCache cache(ResultCacheConfig{});
    for (int i = 0; i < 10; ++i) {
        const std::string key = "key" + std::to_string(i);
        const ResultCache::Outcome outcome = cache.getOrCompute(
            key, [&] { return responseOf(key + "-body"); });
        EXPECT_FALSE(outcome.hit);
        EXPECT_EQ(outcome.response->body, key + "-body");
    }
    EXPECT_EQ(cache.entryCount(), 10u);
}

TEST(ResultCacheTest, ByteBudgetEvictsLeastRecentlyUsed)
{
    ResultCacheConfig config;
    config.shardCount = 1; // deterministic LRU order
    config.maxBytes = 4096;
    MetricsRegistry metrics;
    ResultCache cache(config, &metrics);

    const std::string kilobyte(1024, 'x');
    for (int i = 0; i < 4; ++i) {
        cache.getOrCompute("key" + std::to_string(i),
                           [&] { return responseOf(kilobyte); });
    }
    EXPECT_GT(metrics.counter("cache.evictions"), 0u);
    EXPECT_LE(cache.sizeBytes(), config.maxBytes);

    // key0 went in first and was never touched again, so it must
    // have been the one evicted: recomputing it is a miss...
    int recomputes = 0;
    cache.getOrCompute("key0", [&] {
        ++recomputes;
        return responseOf(kilobyte);
    });
    EXPECT_EQ(recomputes, 1);

    // ...while the most recently inserted key is still resident.
    const ResultCache::Outcome last = cache.getOrCompute(
        "key3", [&] { return responseOf(kilobyte); });
    EXPECT_TRUE(last.hit);
}

TEST(ResultCacheTest, TouchingAnEntryProtectsItFromEviction)
{
    ResultCacheConfig config;
    config.shardCount = 1;
    config.maxBytes = 4096;
    ResultCache cache(config);

    const std::string kilobyte(1024, 'x');
    cache.getOrCompute("hot",
                       [&] { return responseOf(kilobyte); });
    for (int i = 0; i < 2; ++i) {
        cache.getOrCompute("cold" + std::to_string(i),
                           [&] { return responseOf(kilobyte); });
        // Re-touch the hot key so it stays at the front of the LRU.
        EXPECT_TRUE(
            cache
                .getOrCompute("hot",
                              [&] { return responseOf("no"); })
                .hit);
    }
    cache.getOrCompute("cold2",
                       [&] { return responseOf(kilobyte); });
    EXPECT_TRUE(cache
                    .getOrCompute("hot",
                                  [&] { return responseOf("no"); })
                    .hit);
}

TEST(ResultCacheTest, ZeroBudgetDisablesStorageButStillServes)
{
    ResultCacheConfig config;
    config.maxBytes = 0;
    ResultCache cache(config);
    int computes = 0;
    for (int i = 0; i < 2; ++i) {
        const ResultCache::Outcome outcome = cache.getOrCompute(
            "k", [&] {
                ++computes;
                return responseOf("body");
            });
        EXPECT_FALSE(outcome.hit);
        EXPECT_EQ(outcome.response->body, "body");
    }
    EXPECT_EQ(computes, 2);
    EXPECT_EQ(cache.entryCount(), 0u);
}

TEST(ResultCacheTest, ErrorResponsesAreNeverCached)
{
    ResultCache cache(ResultCacheConfig{});
    int computes = 0;
    const auto failing = [&] {
        ++computes;
        CachedResponse response;
        response.status = 400;
        response.body = "bad";
        return response;
    };
    EXPECT_EQ(cache.getOrCompute("k", failing).response->status,
              400);
    EXPECT_EQ(cache.getOrCompute("k", failing).response->status,
              400);
    EXPECT_EQ(computes, 2);
    EXPECT_EQ(cache.entryCount(), 0u);
}

TEST(ResultCacheTest, ExceptionsPropagateAndAreNotCached)
{
    ResultCache cache(ResultCacheConfig{});
    EXPECT_THROW(cache.getOrCompute(
                     "k",
                     []() -> CachedResponse {
                         throw std::runtime_error("boom");
                     }),
                 std::runtime_error);
    // The flight is gone; the key computes fresh afterwards.
    const ResultCache::Outcome retry = cache.getOrCompute(
        "k", [] { return responseOf("recovered"); });
    EXPECT_FALSE(retry.hit);
    EXPECT_EQ(retry.response->body, "recovered");
}

TEST(ResultCacheTest, InvalidateAllDropsEverything)
{
    ResultCache cache(ResultCacheConfig{});
    cache.getOrCompute("a", [] { return responseOf("1"); });
    cache.getOrCompute("b", [] { return responseOf("2"); });
    EXPECT_EQ(cache.entryCount(), 2u);
    cache.invalidateAll();
    EXPECT_EQ(cache.entryCount(), 0u);
    EXPECT_EQ(cache.sizeBytes(), 0u);
    EXPECT_FALSE(
        cache.getOrCompute("a", [] { return responseOf("1"); })
            .hit);
}

TEST(ResultCacheTest, SingleFlightComputesExactlyOnce)
{
    MetricsRegistry metrics;
    ResultCache cache(ResultCacheConfig{}, &metrics);

    // Gate the compute so every thread is in getOrCompute before
    // the owner finishes: the joiners must all share one flight.
    std::mutex gate_mutex;
    std::condition_variable gate_cv;
    std::atomic<int> waiting{0};
    bool release = false;
    std::atomic<int> computes{0};
    const int threads = 8;

    const auto compute = [&] {
        computes.fetch_add(1);
        std::unique_lock<std::mutex> lock(gate_mutex);
        gate_cv.wait(lock, [&] { return release; });
        return responseOf("shared");
    };

    std::vector<std::thread> pool;
    std::vector<ResultCache::Outcome> outcomes(threads);
    for (int t = 0; t < threads; ++t) {
        pool.emplace_back([&, t] {
            waiting.fetch_add(1);
            outcomes[static_cast<std::size_t>(t)] =
                cache.getOrCompute("k", compute);
        });
    }
    // Wait until every thread has entered, then open the gate.
    while (waiting.load() < threads)
        std::this_thread::yield();
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    {
        std::lock_guard<std::mutex> lock(gate_mutex);
        release = true;
    }
    gate_cv.notify_all();
    for (std::thread &thread : pool)
        thread.join();

    EXPECT_EQ(computes.load(), 1);
    int shared_flights = 0, hits = 0;
    for (const ResultCache::Outcome &outcome : outcomes) {
        ASSERT_NE(outcome.response, nullptr);
        EXPECT_EQ(outcome.response->body, "shared");
        shared_flights += outcome.sharedFlight ? 1 : 0;
        hits += outcome.hit ? 1 : 0;
    }
    // One owner computed; everyone else joined the flight or (if
    // they arrived after completion) hit the cache.
    EXPECT_EQ(shared_flights + hits, threads - 1);
    EXPECT_EQ(metrics.counter("cache.misses"), 1u);
}

TEST(ResultCacheTest, ExceptionReachesEveryFlightWaiter)
{
    ResultCache cache(ResultCacheConfig{});
    std::mutex gate_mutex;
    std::condition_variable gate_cv;
    std::atomic<int> waiting{0};
    bool release = false;
    const int threads = 4;

    const auto compute = [&]() -> CachedResponse {
        std::unique_lock<std::mutex> lock(gate_mutex);
        gate_cv.wait(lock, [&] { return release; });
        throw std::runtime_error("shared failure");
    };

    std::atomic<int> caught{0};
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t) {
        pool.emplace_back([&] {
            waiting.fetch_add(1);
            try {
                cache.getOrCompute("k", compute);
            } catch (const std::runtime_error &) {
                caught.fetch_add(1);
            }
        });
    }
    while (waiting.load() < threads)
        std::this_thread::yield();
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    {
        std::lock_guard<std::mutex> lock(gate_mutex);
        release = true;
    }
    gate_cv.notify_all();
    for (std::thread &thread : pool)
        thread.join();
    EXPECT_EQ(caught.load(), threads);
    EXPECT_EQ(cache.entryCount(), 0u);
}

/** A counted byte size: key + body + content type + overhead. */
std::size_t
entryBytesOf(const std::string &key, const std::string &body)
{
    return key.size() + body.size() +
           std::string("application/json").size() + 128;
}

TEST(ResultCacheTest, RunningTotalsTrackInsertEvictAndInvalidate)
{
    ResultCacheConfig config;
    config.shardCount = 1;
    // Room for two of the entries below, not three.
    config.maxBytes = 2 * entryBytesOf("a", "11") + 10;
    MetricsRegistry metrics;
    ResultCache cache(config, &metrics);
    const auto expect_totals = [&](std::size_t entries,
                                   std::size_t bytes) {
        EXPECT_EQ(cache.entryCount(), entries);
        EXPECT_EQ(cache.sizeBytes(), bytes);
        EXPECT_EQ(metrics.gauge("cache.entries"),
                  static_cast<double>(entries));
        EXPECT_EQ(metrics.gauge("cache.bytes"),
                  static_cast<double>(bytes));
    };

    cache.getOrCompute("a", [] { return responseOf("11"); });
    cache.getOrCompute("b", [] { return responseOf("22"); });
    expect_totals(2, 2 * entryBytesOf("a", "11"));
    // Inserting "c" evicts "a".
    cache.getOrCompute("c", [] { return responseOf("3"); });
    EXPECT_EQ(metrics.counter("cache.evictions"), 1u);
    expect_totals(2, entryBytesOf("b", "22") + entryBytesOf("c", "3"));

    cache.invalidateAll();
    expect_totals(0, 0);

    // Sixteen shards add up the same way.
    ResultCacheConfig wide;
    wide.shardCount = 16;
    ResultCache spread(wide);
    std::size_t bytes = 0;
    for (int i = 0; i < 100; ++i) {
        const std::string key = "key" + std::to_string(i);
        spread.getOrCompute(key, [&] { return responseOf(key); });
        bytes += entryBytesOf(key, key);
    }
    EXPECT_EQ(spread.entryCount(), 100u);
    EXPECT_EQ(spread.sizeBytes(), bytes);
    spread.invalidateAll();
    EXPECT_EQ(spread.entryCount(), 0u);
    EXPECT_EQ(spread.sizeBytes(), 0u);
}

TEST(ResultCacheTest, TryComputeDeclinesAHeldFlightAndCountsNothing)
{
    MetricsRegistry metrics;
    ResultCache cache(ResultCacheConfig{}, &metrics);
    std::mutex gate_mutex;
    std::condition_variable gate_cv;
    bool release = false;
    std::thread owner([&] {
        cache.getOrCompute("k", [&] {
            std::unique_lock<std::mutex> lock(gate_mutex);
            gate_cv.wait(lock, [&] { return release; });
            return responseOf("owner");
        });
    });
    while (metrics.counter("cache.misses") == 0)
        std::this_thread::yield();

    const std::string before = metrics.text();
    bool computed = false;
    const std::optional<ResultCache::Outcome> declined =
        cache.tryCompute("k", [&] {
            computed = true;
            return responseOf("second");
        });
    EXPECT_FALSE(declined.has_value());
    EXPECT_FALSE(computed);
    EXPECT_EQ(metrics.text(), before);

    {
        std::lock_guard<std::mutex> lock(gate_mutex);
        release = true;
    }
    gate_cv.notify_all();
    owner.join();
    // The flight's own answer landed; an entry declines too.
    EXPECT_EQ(cache.getFresh("k")->body, "owner");
    const std::string settled = metrics.text();
    EXPECT_FALSE(cache.tryCompute("k", [] { return responseOf("x"); }));
    EXPECT_EQ(metrics.text(), settled);
    EXPECT_EQ(metrics.counter("cache.misses"), 1u);
}

/**
 * One run of claimed misses through getOrCompute() or tryCompute():
 * a success, a non-200, a throw, the injected "cache.compute" fault,
 * and evictions.  Returns each call's
 * result, then the counters, gauges and totals it left.
 */
std::string
claimedMissTranscript(bool try_compute)
{
    ResultCacheConfig config;
    config.shardCount = 1;
    config.maxBytes = 2 * entryBytesOf("a", "A") + 10;
    MetricsRegistry metrics;
    ResultCache cache(config, &metrics);
    std::ostringstream out;
    const auto call = [&](const std::string &key,
                          const ResultCache::Compute &compute) {
        out << key << ": ";
        try {
            ResultCache::Outcome outcome;
            if (try_compute) {
                std::optional<ResultCache::Outcome> claimed =
                    cache.tryCompute(key, compute);
                if (!claimed) {
                    out << "declined\n";
                    return;
                }
                outcome = std::move(*claimed);
            } else {
                outcome = cache.getOrCompute(key, compute);
            }
            out << outcome.response->status << ' '
                << outcome.response->body << " hit=" << outcome.hit
                << " shared=" << outcome.sharedFlight << '\n';
        } catch (const Errored &e) {
            out << "errored " << e.what() << '\n';
        } catch (const std::exception &e) {
            out << "threw " << e.what() << '\n';
        }
    };

    call("a", [] { return responseOf("A"); });
    call("b", [] {
        CachedResponse failed = responseOf("B");
        failed.status = 500;
        return failed;
    });
    call("c", []() -> CachedResponse {
        throw std::runtime_error("boom");
    });
    {
        ScopedFaultInjection faults("cache.compute=nth:1", &metrics);
        call("d", [] { return responseOf("D"); });
    }
    call("e", [] { return responseOf("E"); });
    call("f", [] { return responseOf("F"); });
    out << metrics.text() << "entries " << cache.entryCount()
        << " bytes " << cache.sizeBytes() << '\n';
    return out.str();
}

TEST(ResultCacheTest, TryComputeMatchesGetOrComputeOnAClaimedMiss)
{
    const std::string reference = claimedMissTranscript(false);
    EXPECT_EQ(claimedMissTranscript(true), reference);
    // The run did exercise every branch.
    for (const char *seen :
         {"a: 200 A hit=0", "b: 500 B", "c: threw boom",
          "d: errored", "injected fault 'cache.compute'",
          "f: 200 F hit=0", "cache.evictions", "cache.misses 6",
          "entries 2"})
        EXPECT_NE(reference.find(seen), std::string::npos)
            << seen << " in\n"
            << reference;
}

TEST(ResultCacheTest, ConcurrentDistinctKeysDoNotCorruptShards)
{
    ResultCacheConfig config;
    config.shardCount = 4;
    ResultCache cache(config);
    const int threads = 8, keys = 200;
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t) {
        pool.emplace_back([&] {
            for (int i = 0; i < keys; ++i) {
                const std::string key =
                    "key" + std::to_string(i);
                const ResultCache::Outcome outcome =
                    cache.getOrCompute(key, [&] {
                        return responseOf(key + "-v");
                    });
                ASSERT_EQ(outcome.response->body, key + "-v");
            }
        });
    }
    for (std::thread &thread : pool)
        thread.join();
    EXPECT_EQ(cache.entryCount(), static_cast<std::size_t>(keys));
}

} // namespace
} // namespace bwwall
