#include "server/cluster.hh"

#include <algorithm>
#include <cstdio>

#include "server/http_client.hh"
#include "server/json.hh"
#include "server/model_service.hh"
#include "util/fault.hh"
#include "util/metrics.hh"

namespace bwwall {

namespace {

/**
 * Idle connections kept per peer; a burst of more concurrent
 * exchanges than this connects afresh and drops the extras after.
 */
constexpr std::size_t kPoolDepth = 4;

/** Splits "host:port"; false unless both halves are usable. */
bool
splitHostPort(const std::string &peer, std::string *host,
              std::uint16_t *port)
{
    const std::size_t colon = peer.rfind(':');
    if (colon == std::string::npos || colon == 0 ||
        colon + 1 == peer.size())
        return false;
    unsigned long value = 0;
    for (std::size_t i = colon + 1; i < peer.size(); ++i) {
        const char c = peer[i];
        if (c < '0' || c > '9')
            return false;
        value = value * 10 + static_cast<unsigned long>(c - '0');
        if (value > 65535)
            return false;
    }
    if (value == 0)
        return false;
    *host = peer.substr(0, colon);
    *port = static_cast<std::uint16_t>(value);
    return true;
}

} // namespace

bool
parsePeerList(const std::string &text,
              std::vector<std::string> *out, std::string *error)
{
    out->clear();
    std::size_t start = 0;
    while (start <= text.size()) {
        std::size_t end = text.find(',', start);
        if (end == std::string::npos)
            end = text.size();
        const std::string entry =
            text.substr(start, end - start);
        start = end + 1;
        if (entry.empty()) {
            if (text.empty() && out->empty())
                return true;
            *error = "empty peer entry in '" + text + "'";
            return false;
        }
        std::string host;
        std::uint16_t port = 0;
        if (!splitHostPort(entry, &host, &port)) {
            *error = "peer '" + entry +
                     "' is not host:port with a port in 1..65535";
            return false;
        }
        if (std::find(out->begin(), out->end(), entry) !=
            out->end()) {
            *error = "duplicate peer '" + entry + "'";
            return false;
        }
        out->push_back(entry);
        if (end == text.size())
            break;
    }
    return true;
}

Cluster::Cluster(ClusterConfig config, MetricsRegistry *metrics)
    : config_(std::move(config)), metrics_(metrics)
{
    if (config_.peerFailureThreshold == 0)
        config_.peerFailureThreshold = 1;
    healthConfig_.failureThreshold = config_.peerFailureThreshold;
    healthConfig_.cooldownSeconds = 1.0;
    healthConfig_.cooldownGrowth = 2.0;
    healthConfig_.maxCooldownSeconds = 30.0;
    // Jitter keeps a fleet of nodes from re-probing one dead peer
    // in lockstep; the stream is seeded from the shared map seed so
    // runs stay reproducible.
    healthConfig_.jitter = 0.1;
    healthConfig_.seed = rendezvousMix(config_.seed);
    nodes_ = config_.peers;
    std::sort(nodes_.begin(), nodes_.end());
    nodes_.erase(std::unique(nodes_.begin(), nodes_.end()),
                 nodes_.end());
    if (nodes_.empty())
        throw BadRequest("cluster peer list is empty");
    for (const std::string &node : nodes_) {
        std::string host;
        std::uint16_t port = 0;
        if (!splitHostPort(node, &host, &port))
            throw BadRequest("peer '" + node +
                             "' is not host:port");
    }
    if (!config_.self.empty() &&
        std::find(nodes_.begin(), nodes_.end(), config_.self) ==
            nodes_.end())
        throw BadRequest("--self '" + config_.self +
                         "' is not in the peer list");
    if (config_.peerAttempts == 0)
        config_.peerAttempts = 1;
    if (metrics_ != nullptr) {
        metrics_->setGauge(
            "cluster.nodes",
            static_cast<double>(nodes_.size()));
        metrics_->setGauge("cluster.enabled",
                           enabled() ? 1.0 : 0.0);
    }
    pools_.resize(nodes_.size());
    if (metrics_ != nullptr)
        metrics_->setGauge("cluster.health.peers_down", 0.0);
    bool has_remote = false;
    for (const std::string &node : nodes_)
        has_remote = has_remote || node != config_.self;
    if (config_.probeIntervalMs > 0 && has_remote)
        prober_ = std::thread(&Cluster::proberLoop, this);
}

Cluster::~Cluster()
{
    {
        std::lock_guard<std::mutex> lock(proberMutex_);
        proberStop_ = true;
    }
    proberCv_.notify_all();
    if (prober_.joinable())
        prober_.join();
}

void
Cluster::count(const char *name) const
{
    if (metrics_ != nullptr)
        metrics_->addCounter(name);
}

Cluster::ClientPool *
Cluster::poolFor(const std::string &peer)
{
    const auto it =
        std::lower_bound(nodes_.begin(), nodes_.end(), peer);
    if (it == nodes_.end() || *it != peer)
        return nullptr;
    return &pools_[static_cast<std::size_t>(it - nodes_.begin())];
}

std::unique_ptr<HttpClient>
Cluster::acquireClient(const std::string &peer)
{
    std::uint64_t sequence = 0;
    std::unique_ptr<HttpClient> client;
    {
        std::lock_guard<std::mutex> lock(poolMutex_);
        sequence = ++clientSequence_;
        ClientPool *pool = poolFor(peer);
        if (pool != nullptr && !pool->empty()) {
            client = std::move(pool->back());
            pool->pop_back();
        }
    }
    if (client != nullptr)
        return client;
    std::string host;
    std::uint16_t port = 0;
    if (!splitHostPort(peer, &host, &port))
        return nullptr;
    client = std::make_unique<HttpClient>(host, port);
    client->setConnectTimeoutMs(config_.connectTimeoutMs);
    // Bound the read too: a SIGSTOPped peer accepts the connect
    // but never answers, and without this the exchange would hold
    // its caller until the caller's own client gave up.
    client->setReadTimeoutMs(config_.peerDeadlineMs);
    HttpRetryPolicy policy;
    policy.maxAttempts = config_.peerAttempts;
    policy.initialBackoffMs = 10.0;
    policy.maxBackoffMs = 100.0;
    // Deterministic per-client jitter stream; the lifetime budget
    // is sized never to throttle a storm.
    policy.seed = rendezvousMix(config_.seed ^ sequence);
    policy.budget = 1u << 20;
    // Model-query POSTs are safe to retry: they are pure, and the
    // owner's single-flight cache dedupes re-sent work.
    policy.retryPosts = true;
    // But a refused connect is not worth a second try within one
    // exchange — the peer's process is gone; the caller fails over
    // or computes locally, and the breaker/prober handle
    // reinstatement.
    policy.failFastOnRefused = true;
    client->setRetryPolicy(policy);
    return client;
}

void
Cluster::releaseClient(const std::string &peer,
                       std::unique_ptr<HttpClient> client)
{
    std::lock_guard<std::mutex> lock(poolMutex_);
    ClientPool *pool = poolFor(peer);
    if (pool != nullptr && pool->size() < kPoolDepth)
        pool->push_back(std::move(client));
}

bool
Cluster::exchange(const std::string &peer,
                  const HttpClient::Request &request,
                  HttpClientResponse *out, std::string *error,
                  HttpClient::FailureKind *failure)
{
    std::unique_ptr<HttpClient> client = acquireClient(peer);
    if (client == nullptr) {
        if (error != nullptr)
            *error = "peer '" + peer + "' is not host:port";
        if (failure != nullptr)
            *failure = HttpClient::FailureKind::Other;
        return false;
    }
    const std::uint64_t connects_before = client->connects();
    const std::uint64_t stale_before = client->staleDropped();
    const bool transported = client->perform(request, out, error);
    if (metrics_ != nullptr) {
        if (client->connects() != connects_before)
            metrics_->addCounter("cluster.upstream.connects",
                                 client->connects() - connects_before);
        if (client->staleDropped() != stale_before)
            metrics_->addCounter("cluster.upstream.stale_dropped",
                                 client->staleDropped() - stale_before);
    }
    if (failure != nullptr)
        *failure = client->lastFailureKind();
    // Only a connection that just carried a whole exchange and is
    // still open goes back: a transport error leaves it unusable,
    // and a Connection: close answer has already closed it.
    if (transported && client->connected())
        releaseClient(peer, std::move(client));
    return transported;
}

Breaker &
Cluster::healthFor(const std::string &peer)
{
    const auto it = health_.find(peer);
    if (it != health_.end())
        return it->second;
    BreakerConfig config = healthConfig_;
    config.seed = rendezvousMix(
        healthConfig_.seed ^ rendezvousHash(peer, config_.seed));
    return health_.try_emplace(peer, config).first->second;
}

void
Cluster::noteHealthEventLocked(const std::string &peer,
                               BreakerEvent event)
{
    switch (event) {
      case BreakerEvent::Opened:
      case BreakerEvent::Reopened: {
        // An ejected peer's idle connections lead to a process that
        // is dead, wedged, or about to restart: close them now
        // rather than trip over them after reinstatement.
        ClientPool idle;
        {
            std::lock_guard<std::mutex> lock(poolMutex_);
            if (ClientPool *pool = poolFor(peer))
                idle.swap(*pool);
        }
        count("cluster.health.ejections");
        break;
      }
      case BreakerEvent::Closed:
        count("cluster.health.reinstatements");
        break;
      case BreakerEvent::None:
        return;
    }
    if (metrics_ == nullptr)
        return;
    double down = 0.0;
    for (const auto &entry : health_)
        if (entry.second.state() != BreakerState::Closed)
            down += 1.0;
    metrics_->setGauge("cluster.health.peers_down", down);
}

bool
Cluster::peerAvailable(const std::string &peer)
{
    std::lock_guard<std::mutex> lock(healthMutex_);
    Breaker &breaker = healthFor(peer);
    if (config_.probeIntervalMs > 0) {
        // The prober owns reinstatement: a down peer stays skipped
        // until a probe succeeds, so no request ever spends its
        // deadline rediscovering a known-dead peer.
        return breaker.state() == BreakerState::Closed;
    }
    // No prober: fills themselves drive recovery through the
    // breaker's own half-open trial.
    return breaker.allow(Breaker::Clock::now());
}

void
Cluster::notePeerSuccess(const std::string &peer)
{
    std::lock_guard<std::mutex> lock(healthMutex_);
    noteHealthEventLocked(peer, healthFor(peer).recordSuccess(
        Breaker::Clock::now()));
}

void
Cluster::notePeerFailure(const std::string &peer)
{
    std::lock_guard<std::mutex> lock(healthMutex_);
    noteHealthEventLocked(peer, healthFor(peer).recordFailure(
        Breaker::Clock::now()));
}

BreakerState
Cluster::peerState(const std::string &peer) const
{
    std::lock_guard<std::mutex> lock(healthMutex_);
    const auto it = health_.find(peer);
    return it == health_.end() ? BreakerState::Closed
                               : it->second.state();
}

void
Cluster::probePeersOnce()
{
    for (const std::string &node : nodes_) {
        if (node == config_.self)
            continue;
        std::string host;
        std::uint16_t port = 0;
        if (!splitHostPort(node, &host, &port))
            continue;
        // A fresh connection per probe: the point is to test the
        // peer's accept path now, not to reuse a socket that may
        // have been healthy a minute ago.
        HttpClient client(host, port);
        client.setConnectTimeoutMs(config_.probeTimeoutMs);
        client.setReadTimeoutMs(config_.probeTimeoutMs);
        count("cluster.health.probes");
        HttpClientResponse response;
        const bool healthy =
            client.perform({.target = "/healthz"}, &response) &&
            response.status == 200;
        if (!healthy)
            count("cluster.health.probe_failures");
        const auto now = Breaker::Clock::now();
        std::lock_guard<std::mutex> lock(healthMutex_);
        Breaker &breaker = healthFor(node);
        noteHealthEventLocked(node, healthy ? breaker.reset(now)
                                      : breaker.trip(now));
    }
}

void
Cluster::proberLoop()
{
    const auto interval =
        std::chrono::milliseconds(config_.probeIntervalMs);
    std::unique_lock<std::mutex> lock(proberMutex_);
    while (!proberStop_) {
        // Wait first: probing the instant the daemon boots would
        // eject peers that are a rolling restart behind us, only
        // to reinstate them one interval later.
        if (proberCv_.wait_for(lock, interval,
                               [this] { return proberStop_; }))
            break;
        lock.unlock();
        probePeersOnce();
        lock.lock();
    }
}

bool
Cluster::fillFromPeer(const std::string &peer,
                      const std::string &path,
                      const std::string &body,
                      double remainingSeconds, HttpResponse *out)
{
    count("cluster.peer_fill.attempts");
    if (!peerAvailable(peer)) {
        // Known-down owner: straight to the local compute without
        // burning any of the caller's remaining deadline.
        count("cluster.peer_fill.peer_down");
        return false;
    }
    double deadline_ms =
        static_cast<double>(config_.peerDeadlineMs);
    if (remainingSeconds >= 0.0)
        deadline_ms =
            std::min(deadline_ms, remainingSeconds * 1000.0);
    if (deadline_ms < 1.0) {
        // The caller's budget is already gone; computing locally
        // at least leaves the answer cached for its retry.
        count("cluster.peer_fill.skipped");
        return false;
    }
    if (FAULT_POINT("cluster.peer_fill")) {
        count("cluster.peer_fill.errors");
        return false;
    }

    HttpClient::Request request;
    request.method = "POST";
    request.target = path;
    request.headers[kPeerFillHeader] = std::string("1");
    request.body = body;
    request.deadlineMs = deadline_ms;
    HttpClientResponse response;
    std::string error;
    HttpClient::FailureKind failure = HttpClient::FailureKind::None;
    if (!exchange(peer, request, &response, &error, &failure)) {
        notePeerFailure(peer);
        // An outright refusal means nobody is listening — a crash
        // or restart, not load — and perform() gave up without
        // burning a retry attempt (failFastOnRefused).
        count(failure == HttpClient::FailureKind::ConnectRefused
                  ? "cluster.peer_fill.refused"
                  : "cluster.peer_fill.errors");
        return false;
    }
    notePeerSuccess(peer);
    if (response.status != 200) {
        // The owner refused (shed, deadline, error); fall back to
        // a local compute.
        count("cluster.peer_fill.rejected");
        return false;
    }
    count("cluster.peer_fill.hits");
    out->status = response.status;
    out->body = response.body;
    const auto type = response.headers.find("content-type");
    if (type != response.headers.end())
        out->contentType = type->second;
    out->headers[kPeerFilledHeader] = std::string("1");
    return true;
}

JsonValue
Cluster::statusJson() const
{
    JsonValue payload = JsonValue::makeObject();
    payload.set("kind", JsonValue("cluster"));
    payload.set("enabled", JsonValue(enabled()));
    payload.set("self", JsonValue(config_.self));
    char seed_hex[19];
    std::snprintf(seed_hex, sizeof(seed_hex), "0x%016llx",
                  static_cast<unsigned long long>(config_.seed));
    payload.set("seed", JsonValue(std::string(seed_hex)));
    JsonValue members = JsonValue::makeArray();
    for (const std::string &node : nodes_)
        members.append(JsonValue(node));
    payload.set("nodes", members);
    payload.set("node_count",
                JsonValue(static_cast<double>(nodes_.size())));
    payload.set(
        "peer_deadline_ms",
        JsonValue(static_cast<double>(config_.peerDeadlineMs)));
    payload.set(
        "peer_probe_interval_ms",
        JsonValue(static_cast<double>(config_.probeIntervalMs)));
    {
        JsonValue health = JsonValue::makeObject();
        std::lock_guard<std::mutex> lock(healthMutex_);
        for (const std::string &node : nodes_) {
            if (node == config_.self)
                continue;
            JsonValue entry = JsonValue::makeObject();
            const auto it = health_.find(node);
            const BreakerState state =
                it == health_.end() ? BreakerState::Closed
                                    : it->second.state();
            const unsigned failures =
                it == health_.end()
                    ? 0
                    : it->second.consecutiveFailures();
            entry.set("state",
                      JsonValue(std::string(
                          breakerStateName(state))));
            entry.set("consecutive_failures",
                      JsonValue(static_cast<double>(failures)));
            health.set(node, entry);
        }
        payload.set("health", health);
    }
    if (metrics_ != nullptr) {
        JsonValue stats = JsonValue::makeObject();
        static const char *const kStats[] = {
            "cluster.requests.owned",
            "cluster.requests.remote",
            "cluster.peer_fill.attempts",
            "cluster.peer_fill.hits",
            "cluster.peer_fill.rejected",
            "cluster.peer_fill.errors",
            "cluster.peer_fill.skipped",
            "cluster.peer_fill.received",
            "cluster.peer_fill.refused",
            "cluster.peer_fill.peer_down",
            "cluster.local_fallback_computes",
            "cluster.health.probes",
            "cluster.health.probe_failures",
            "cluster.health.ejections",
            "cluster.health.reinstatements",
            "cluster.upstream.connects",
            "cluster.upstream.stale_dropped",
        };
        for (const char *name : kStats)
            stats.set(name,
                      JsonValue(static_cast<double>(
                          metrics_->counter(name))));
        payload.set("stats", stats);
    }
    return payload;
}

} // namespace bwwall
