#include "server/result_cache.hh"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include "trace/hashing.hh"
#include "util/error.hh"
#include "util/fault.hh"
#include "util/metrics.hh"

namespace bwwall {

namespace {

/** Fixed accounting overhead per entry (map node, list node, ptr). */
constexpr std::size_t kEntryOverhead = 128;

/** Snapshot file magic (8 bytes) and format version. */
constexpr char kSnapshotMagic[8] = {'B', 'W', 'W', 'L',
                                    'C', 'A', 'C', 'H'};
constexpr std::uint32_t kSnapshotVersion = 1;

/** FNV-1a over @p bytes, finished with mix64 (the checksum). */
std::uint64_t
snapshotChecksum(const std::string &bytes)
{
    std::uint64_t h = 1469598103934665603ULL;
    for (const char c : bytes) {
        h ^= static_cast<unsigned char>(c);
        h *= 1099511628211ULL;
    }
    return mix64(h);
}

void
putU32(std::string *out, std::uint32_t value)
{
    char raw[sizeof value];
    std::memcpy(raw, &value, sizeof value);
    out->append(raw, sizeof value);
}

void
putU64(std::string *out, std::uint64_t value)
{
    char raw[sizeof value];
    std::memcpy(raw, &value, sizeof value);
    out->append(raw, sizeof value);
}

/** Bounds-checked little reader over a loaded snapshot payload. */
struct SnapshotReader
{
    const std::string &bytes;
    std::size_t at = 0;

    bool
    read(void *out, std::size_t n)
    {
        if (bytes.size() - at < n)
            return false;
        std::memcpy(out, bytes.data() + at, n);
        at += n;
        return true;
    }

    bool
    readU32(std::uint32_t *out)
    {
        return read(out, sizeof *out);
    }

    bool
    readU64(std::uint64_t *out)
    {
        return read(out, sizeof *out);
    }

    bool
    readString(std::string *out, std::size_t n)
    {
        if (bytes.size() - at < n)
            return false;
        out->assign(bytes.data() + at, n);
        at += n;
        return true;
    }
};

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
    // A snapshot loaded into a warm cache may repeat a key.
    const auto existing = shard.entries.find(key);
    if (existing != shard.entries.end())
        eraseLocked(shard, existing);
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
    shard.entries.insert_or_assign(key, std::move(entry));
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

bool
ResultCache::saveSnapshot(const std::string &path,
                          std::string *error) const
{
    // Serialize least-recently-used first, so re-inserting in file
    // order on load rebuilds the same LRU ranking.
    std::string payload;
    std::uint64_t entries = 0;
    putU64(&payload, 0); // patched below
    for (const auto &shard : shards_) {
        std::lock_guard<std::mutex> lock(shard->mutex);
        for (auto it = shard->lru.rbegin();
             it != shard->lru.rend(); ++it) {
            const Entry &entry = shard->entries.at(*it);
            const CachedResponse &response = *entry.response;
            putU32(&payload,
                   static_cast<std::uint32_t>(it->size()));
            putU32(&payload,
                   static_cast<std::uint32_t>(response.status));
            putU32(&payload,
                   static_cast<std::uint32_t>(
                       response.contentType.size()));
            putU64(&payload, response.body.size());
            payload.append(*it);
            payload.append(response.contentType);
            payload.append(response.body);
            ++entries;
        }
    }
    std::memcpy(payload.data() + 0, &entries, sizeof entries);

    std::string wire(kSnapshotMagic, sizeof kSnapshotMagic);
    putU32(&wire, kSnapshotVersion);
    putU64(&wire, payload.size());
    putU64(&wire, snapshotChecksum(payload));
    wire.append(payload);

    // Atomic replace: a crash mid-write leaves the old snapshot.
    const std::string tmp = path + ".tmp";
    const int fd = ::open(tmp.c_str(),
                          O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0) {
        if (error != nullptr)
            *error = "open '" + tmp +
                     "': " + std::strerror(errno);
        return false;
    }
    std::size_t written = 0;
    bool ok = true;
    while (ok && written < wire.size()) {
        const ssize_t n = ::write(fd, wire.data() + written,
                                  wire.size() - written);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            if (error != nullptr)
                *error = "write '" + tmp +
                         "': " + std::strerror(errno);
            ok = false;
        } else {
            written += static_cast<std::size_t>(n);
        }
    }
    if (ok && ::fsync(fd) != 0) {
        if (error != nullptr)
            *error = "fsync '" + tmp +
                     "': " + std::strerror(errno);
        ok = false;
    }
    ::close(fd);
    if (ok && std::rename(tmp.c_str(), path.c_str()) != 0) {
        if (error != nullptr)
            *error = "rename '" + tmp + "' -> '" + path +
                     "': " + std::strerror(errno);
        ok = false;
    }
    if (!ok) {
        ::unlink(tmp.c_str());
        return false;
    }
    if (metrics_ != nullptr)
        metrics_->addCounter("cache.persist.saved", entries);
    return true;
}

bool
ResultCache::loadSnapshot(const std::string &path,
                          std::string *error)
{
    const auto discard = [&](const std::string &reason) {
        if (metrics_ != nullptr)
            metrics_->addCounter("cache.persist.discarded");
        if (error != nullptr)
            *error = reason;
        return false;
    };

    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) {
        if (errno == ENOENT)
            return true; // fresh boot: nothing to restore
        return discard("open '" + path +
                       "': " + std::strerror(errno));
    }
    std::string wire;
    char chunk[1 << 16];
    for (;;) {
        const ssize_t n = ::read(fd, chunk, sizeof chunk);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            ::close(fd);
            return discard("read '" + path +
                           "': " + std::strerror(errno));
        }
        if (n == 0)
            break;
        wire.append(chunk, static_cast<std::size_t>(n));
    }
    ::close(fd);

    // Validate everything before trusting anything: header, then
    // declared size, then checksum, then a full structural parse.
    SnapshotReader header{wire};
    char magic[sizeof kSnapshotMagic];
    std::uint32_t version = 0;
    std::uint64_t payload_size = 0;
    std::uint64_t checksum = 0;
    if (!header.read(magic, sizeof magic) ||
        std::memcmp(magic, kSnapshotMagic, sizeof magic) != 0)
        return discard("not a cache snapshot (bad magic)");
    if (!header.readU32(&version) ||
        version != kSnapshotVersion)
        return discard("snapshot version " +
                       std::to_string(version) +
                       " != " + std::to_string(kSnapshotVersion));
    if (!header.readU64(&payload_size) ||
        !header.readU64(&checksum))
        return discard("truncated snapshot header");
    if (wire.size() - header.at != payload_size)
        return discard("truncated snapshot payload (" +
                       std::to_string(wire.size() - header.at) +
                       " of " + std::to_string(payload_size) +
                       " bytes)");
    const std::string payload = wire.substr(header.at);
    if (snapshotChecksum(payload) != checksum)
        return discard("snapshot checksum mismatch");

    SnapshotReader reader{payload};
    std::uint64_t entries = 0;
    if (!reader.readU64(&entries))
        return discard("truncated snapshot payload");
    struct Parsed
    {
        std::string key;
        std::shared_ptr<const CachedResponse> response;
    };
    std::vector<Parsed> parsed;
    for (std::uint64_t i = 0; i < entries; ++i) {
        std::uint32_t key_len = 0, status = 0, ct_len = 0;
        std::uint64_t body_len = 0;
        if (!reader.readU32(&key_len) ||
            !reader.readU32(&status) ||
            !reader.readU32(&ct_len) ||
            !reader.readU64(&body_len))
            return discard("truncated snapshot entry " +
                           std::to_string(i));
        if (status != 200) {
            // Only 200s are ever stored; anything else means the
            // payload is not what the checksum claims it is.
            return discard("snapshot entry " + std::to_string(i) +
                           " has status " +
                           std::to_string(status));
        }
        Parsed entry;
        auto response = std::make_shared<CachedResponse>();
        response->status = static_cast<int>(status);
        if (!reader.readString(&entry.key, key_len) ||
            !reader.readString(&response->contentType, ct_len) ||
            !reader.readString(&response->body,
                               static_cast<std::size_t>(
                                   body_len)))
            return discard("truncated snapshot entry " +
                           std::to_string(i));
        entry.response = std::move(response);
        parsed.push_back(std::move(entry));
    }
    if (reader.at != payload.size())
        return discard("trailing bytes after snapshot entries");

    std::uint64_t loaded = 0;
    for (Parsed &entry : parsed) {
        Shard &shard = shardFor(entry.key);
        std::lock_guard<std::mutex> lock(shard.mutex);
        insertLocked(shard, entry.key,
                     std::move(entry.response));
        ++loaded;
    }
    if (metrics_ != nullptr)
        metrics_->addCounter("cache.persist.loaded", loaded);
    publishGauges();
    return true;
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
