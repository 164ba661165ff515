#include "server/result_cache.hh"

#include <algorithm>

#include "trace/hashing.hh"
#include "util/error.hh"
#include "util/fault.hh"
#include "util/metrics.hh"

namespace bwwall {

namespace {

/** Fixed accounting overhead per entry (map node, list node, ptr). */
constexpr std::size_t kEntryOverhead = 128;

std::size_t
entryBytes(const std::string &key, const CachedResponse &response)
{
    return key.size() + response.body.size() +
           response.contentType.size() + kEntryOverhead;
}

std::uint64_t
hashKey(const std::string &key)
{
    // FNV-1a over the bytes, finished with the SplitMix64 mixer so
    // shard selection stays uniform even for near-identical keys.
    std::uint64_t h = 1469598103934665603ULL;
    for (const char c : key) {
        h ^= static_cast<unsigned char>(c);
        h *= 1099511628211ULL;
    }
    return mix64(h);
}

} // namespace

ResultCache::ResultCache(const ResultCacheConfig &config,
                         MetricsRegistry *metrics)
    : metrics_(metrics)
{
    const std::size_t shards = std::max<std::size_t>(
        config.shardCount, 1);
    shardBudget_ = config.maxBytes / shards;
    shards_.reserve(shards);
    for (std::size_t i = 0; i < shards; ++i)
        shards_.push_back(std::make_unique<Shard>());
}

ResultCache::Shard &
ResultCache::shardFor(const std::string &key)
{
    return *shards_[hashKey(key) % shards_.size()];
}

void
ResultCache::eraseLocked(
    Shard &shard,
    std::unordered_map<std::string, Entry>::iterator it)
{
    shard.bytes -= it->second.bytes;
    totalBytes_ -= it->second.bytes;
    totalEntries_ -= 1;
    shard.lru.erase(it->second.lruIt);
    shard.entries.erase(it);
}

void
ResultCache::insertLocked(
    Shard &shard, const std::string &key,
    std::shared_ptr<const CachedResponse> response)
{
    const std::size_t bytes = entryBytes(key, *response);
    if (shardBudget_ == 0 || bytes > shardBudget_)
        return; // would never fit; serve uncached
    while (shard.bytes + bytes > shardBudget_ &&
           !shard.lru.empty()) {
        const auto victim = shard.entries.find(shard.lru.back());
        eraseLocked(shard, victim);
        if (metrics_ != nullptr)
            metrics_->addCounter("cache.evictions");
    }
    shard.lru.push_front(key);
    Entry entry;
    entry.response = std::move(response);
    entry.lruIt = shard.lru.begin();
    entry.bytes = bytes;
    shard.bytes += bytes;
    totalBytes_ += bytes;
    totalEntries_ += 1;
    shard.entries.emplace(key, std::move(entry));
}

std::shared_ptr<const CachedResponse>
ResultCache::hitLocked(Shard &shard, Entry &entry)
{
    shard.lru.splice(shard.lru.begin(), shard.lru, entry.lruIt);
    if (metrics_ != nullptr)
        metrics_->addCounter("cache.hits");
    return entry.response;
}

std::shared_ptr<const CachedResponse>
ResultCache::getFresh(const std::string &key)
{
    Shard &shard = shardFor(key);
    std::lock_guard<std::mutex> lock(shard.mutex);
    const auto it = shard.entries.find(key);
    if (it == shard.entries.end())
        return nullptr;
    return hitLocked(shard, it->second);
}

ResultCache::Outcome
ResultCache::getOrCompute(const std::string &key,
                          const Compute &compute)
{
    Shard &shard = shardFor(key);
    std::shared_ptr<Flight> flight;
    bool owner = false;
    {
        std::unique_lock<std::mutex> lock(shard.mutex);
        const auto it = shard.entries.find(key);
        if (it != shard.entries.end())
            return {hitLocked(shard, it->second), true, false};
        // The thread that registers the flight owns the compute;
        // everyone else joins it and waits for the result.
        const auto in_flight = shard.flights.find(key);
        if (in_flight != shard.flights.end()) {
            flight = in_flight->second;
        } else {
            flight = std::make_shared<Flight>();
            shard.flights.emplace(key, flight);
            owner = true;
        }
    }

    if (!owner) {
        std::unique_lock<std::mutex> lock(flight->mutex);
        flight->cv.wait(lock, [&] { return flight->done; });
        if (metrics_ != nullptr)
            metrics_->addCounter("cache.single_flight_joined");
        if (flight->error)
            std::rethrow_exception(flight->error);
        return {flight->response, false, true};
    }
    return lead(shard, key, flight, compute);
}

std::optional<ResultCache::Outcome>
ResultCache::tryCompute(const std::string &key, const Compute &compute)
{
    Shard &shard = shardFor(key);
    std::shared_ptr<Flight> flight;
    {
        std::lock_guard<std::mutex> lock(shard.mutex);
        // An entry is a hit, not a miss; joining a flight would wait.
        if (shard.entries.count(key) != 0 ||
            shard.flights.count(key) != 0)
            return std::nullopt;
        flight = std::make_shared<Flight>();
        shard.flights.emplace(key, flight);
    }
    return lead(shard, key, flight, compute);
}

ResultCache::Outcome
ResultCache::lead(Shard &shard, const std::string &key,
                  const std::shared_ptr<Flight> &flight,
                  const Compute &compute)
{
    if (metrics_ != nullptr)
        metrics_->addCounter("cache.misses");

    std::shared_ptr<const CachedResponse> response;
    std::exception_ptr error;
    try {
        if (FAULT_POINT("cache.compute")) {
            throw Errored(ErrorCategory::Faulted,
                          "injected fault 'cache.compute'");
        }
        response =
            std::make_shared<const CachedResponse>(compute());
    } catch (...) {
        error = std::current_exception();
    }

    {
        std::lock_guard<std::mutex> lock(shard.mutex);
        shard.flights.erase(key);
        if (error == nullptr && response->status == 200)
            insertLocked(shard, key, response);
    }
    {
        std::lock_guard<std::mutex> lock(flight->mutex);
        flight->response = response;
        flight->error = error;
        flight->done = true;
    }
    flight->cv.notify_all();
    publishGauges();

    if (error)
        std::rethrow_exception(error);
    return {std::move(response), false, false};
}

void
ResultCache::publishGauges()
{
    if (metrics_ == nullptr)
        return;
    metrics_->setGauge("cache.bytes", static_cast<double>(sizeBytes()));
    metrics_->setGauge("cache.entries",
                       static_cast<double>(entryCount()));
}

void
ResultCache::invalidateAll()
{
    for (const auto &shard : shards_) {
        std::lock_guard<std::mutex> lock(shard->mutex);
        totalBytes_ -= shard->bytes;
        totalEntries_ -= shard->entries.size();
        shard->entries.clear();
        shard->lru.clear();
        shard->bytes = 0;
    }
    publishGauges();
}

} // namespace bwwall
