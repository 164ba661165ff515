/**
 * @file
 * Sharded memoization cache for model-query responses.
 *
 * Every bwwalld endpoint is a pure function of its canonicalized
 * request, so the serving hot path is a lookup and a cached answer
 * never goes out of date: requests hash to one of N independently
 * locked shards, each shard keeps an LRU list under a byte budget
 * (its only eviction), and *single-flight* deduplication
 * guarantees that concurrent identical requests compute the answer
 * exactly once — late arrivals block on the in-flight computation
 * and share its result instead of piling onto the thread pool with
 * duplicate sweeps.  A caller that must never
 * block (bwwalld's io shard) uses tryCompute() instead, which
 * computes a plain miss through the same leader path but declines
 * where getOrCompute() would wait.
 *
 * Only status-200 responses are cached; errors are shared with the
 * waiters of the flight that produced them but never stored.
 */

#ifndef BWWALL_SERVER_RESULT_CACHE_HH
#define BWWALL_SERVER_RESULT_CACHE_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <condition_variable>
#include <exception>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

namespace bwwall {

class MetricsRegistry;

/** One cacheable response body. */
struct CachedResponse
{
    /** HTTP status; only 200 responses are stored. */
    int status = 200;

    std::string contentType = "application/json";
    std::string body;
};

/** Sizing of a ResultCache. */
struct ResultCacheConfig
{
    /** Independently locked shards (rounded up to at least 1). */
    std::size_t shardCount = 16;

    /** Total byte budget across shards (0 disables storage). */
    std::size_t maxBytes = 64u << 20;
};

/** Sharded LRU + single-flight response cache. */
class ResultCache
{
  public:
    using Compute = std::function<CachedResponse()>;

    /**
     * @param config Sizing; the byte budget is split evenly across
     *               shards.
     * @param metrics Optional sink for "cache.*" counters/gauges.
     */
    explicit ResultCache(const ResultCacheConfig &config,
                         MetricsRegistry *metrics = nullptr);

    /** How a response was obtained. */
    struct Outcome
    {
        std::shared_ptr<const CachedResponse> response;

        /** Served from the cache without computing. */
        bool hit = false;

        /** Joined another request's in-flight computation. */
        bool sharedFlight = false;
    };

    /**
     * Returns the cached response for `key`, or computes it.  When
     * an identical request is already computing, blocks until that
     * flight finishes and shares its result (exactly one compute()
     * runs per key at a time).  Exceptions from compute() propagate
     * to the computing caller and every waiter, and nothing is
     * cached.
     */
    Outcome getOrCompute(const std::string &key,
                         const Compute &compute);

    /**
     * getOrCompute() for a caller that must never wait: computes
     * on this thread only when `key` has no entry and no flight in
     * progress.
     * Otherwise it declines — std::nullopt, nothing counted,
     * nothing touched — and the caller hands the key to
     * getOrCompute() elsewhere.  A
     * claimed miss runs getOrCompute()'s own leader path: the same
     * counters, insert, injected "cache.compute" fault, and
     * exceptions (which propagate here and to every flight waiter).
     */
    std::optional<Outcome> tryCompute(const std::string &key,
                                      const Compute &compute);

    /**
     * The entry for `key`, counted and promoted exactly like a
     * getOrCompute() hit, or nullptr for a missing entry, which is
     * left uncounted for the getOrCompute() that follows.  Never
     * computes or blocks on a flight.
     */
    std::shared_ptr<const CachedResponse>
    getFresh(const std::string &key);

    /** Cached bytes across all shards (a running total). */
    std::size_t sizeBytes() const { return totalBytes_.load(); }

    /** Cached entries across all shards (a running total). */
    std::size_t entryCount() const { return totalEntries_.load(); }

    /** Drops every cached entry (in-flight computations finish). */
    void invalidateAll();

    std::size_t shardCount() const { return shards_.size(); }

  private:
    /** One request's in-progress computation. */
    struct Flight
    {
        std::mutex mutex;
        std::condition_variable cv;
        bool done = false;
        std::shared_ptr<const CachedResponse> response;
        std::exception_ptr error;
    };

    struct Entry
    {
        std::shared_ptr<const CachedResponse> response;
        std::list<std::string>::iterator lruIt;
        std::size_t bytes = 0;
    };

    struct Shard
    {
        mutable std::mutex mutex;
        std::unordered_map<std::string, Entry> entries;
        /** Front = most recently used key. */
        std::list<std::string> lru;
        std::unordered_map<std::string, std::shared_ptr<Flight>>
            flights;
        std::size_t bytes = 0;
    };

    Shard &shardFor(const std::string &key);

    /**
     * Under the shard lock: the entry's response, promoted to most
     * recently used and counted as a hit.
     */
    std::shared_ptr<const CachedResponse>
    hitLocked(Shard &shard, Entry &entry);

    /**
     * The flight owner's half of getOrCompute() and tryCompute():
     * counts the miss, runs compute() (or the injected
     * "cache.compute" fault), caches a 200, and releases the
     * flight's waiters.
     */
    Outcome lead(Shard &shard, const std::string &key,
                 const std::shared_ptr<Flight> &flight,
                 const Compute &compute);

    /** Sets the cache.bytes and cache.entries gauges. */
    void publishGauges();

    /** Inserts under the shard lock, evicting LRU entries as needed. */
    void insertLocked(Shard &shard, const std::string &key,
                      std::shared_ptr<const CachedResponse> response);

    /** Removes one entry under the shard lock. */
    void eraseLocked(Shard &shard,
                     std::unordered_map<std::string,
                                        Entry>::iterator it);

    std::size_t shardBudget_ = 0;
    std::vector<std::unique_ptr<Shard>> shards_;
    MetricsRegistry *metrics_ = nullptr;

    /**
     * Sums of every shard's bytes and entry count, kept by
     * insertLocked(), eraseLocked() and invalidateAll() under the
     * shard lock, so the gauges never lock every shard.
     */
    std::atomic<std::size_t> totalBytes_{0};
    std::atomic<std::size_t> totalEntries_{0};
};

} // namespace bwwall

#endif // BWWALL_SERVER_RESULT_CACHE_HH
