#include "server/server.hh"

#include <algorithm>
#include <optional>

#include "server/json.hh"
#include "server/model_service.hh"
#include "server/routes.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"

namespace bwwall {

namespace {

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/** "2xx" / "4xx" / "5xx" classification for the counters. */
const char *
statusClass(int status)
{
    if (status < 300)
        return "2xx";
    if (status < 500)
        return "4xx";
    return "5xx";
}

/** Event-loop shards when --io-shards is 0: cores, capped at 8. */
unsigned
resolveIoShards(unsigned requested)
{
    if (requested != 0)
        return requested;
    return std::min(resolveJobs(0), 8u);
}

} // namespace

/**
 * One admitted model query's parsed body and cache key: worked out
 * once, on the io shard, and handed to the compute pool with the
 * request whenever the shard does not answer it.
 */
struct BwwallServer::ModelQuery final : HttpReactor::Prepared
{
    JsonValue body;
    std::string key;

    /** Another node's fill RPC (X-BWWall-Peer-Fill). */
    bool peerFill = false;

    /**
     * Seconds after parsing that the caller's answer is due: the
     * stricter of --deadline-ms and X-BWWall-Deadline-Ms (0 = none).
     */
    double deadline = 0.0;

    bool
    pastDeadline(std::chrono::steady_clock::time_point received) const
    {
        return deadline > 0.0 && secondsSince(received) > deadline;
    }
};

BwwallServer::BwwallServer(ServerConfig config)
    : config_(std::move(config))
{
    ResultCacheConfig cache_config;
    cache_config.shardCount = config_.cacheShards;
    cache_config.maxBytes = config_.cacheBytes;
    cache_ = std::make_unique<ResultCache>(cache_config,
                                           &metrics_);
    IngestConfig ingest_config;
    ingest_config.maxSessions = config_.maxIngestSessions;
    ingest_config.maxSessionBytes = config_.maxSessionBytes;
    ingest_config.ttlSeconds = config_.ingestTtlSeconds;
    ingest_ = std::make_unique<IngestSessionManager>(ingest_config,
                                                     &metrics_);
    if (config_.trace) {
        // Standby unless traceAll: only threads inside a
        // ScopedThreadTrace (the per-request opt-in) record.
        recorder_ = std::make_unique<TraceRecorder>();
        recorder_->install(config_.traceAll);
    }
    if (!config_.cluster.peers.empty())
        configureCluster(config_.cluster);
}

void
BwwallServer::configureCluster(ClusterConfig config)
{
    auto cluster =
        std::make_shared<Cluster>(std::move(config), &metrics_);
    std::lock_guard<std::mutex> lock(clusterMutex_);
    cluster_ = std::move(cluster);
}

BwwallServer::~BwwallServer()
{
    stop();
}

void
BwwallServer::start()
{
    if (started_.exchange(true))
        panic("BwwallServer::start called twice");

    const unsigned threads = resolveJobs(config_.threads);
    const unsigned shards = resolveIoShards(config_.ioShards);
    metrics_.setGauge("server.threads",
                      static_cast<double>(threads));
    metrics_.setGauge("server.io_shards",
                      static_cast<double>(shards));

    ReactorConfig reactor_config;
    reactor_config.bindAddress = config_.bindAddress;
    reactor_config.port = config_.port;
    reactor_config.ioShards = shards;
    reactor_config.computeThreads = threads;
    reactor_config.maxConnections = config_.maxConnections;
    reactor_config.maxInflight = config_.maxInflight;
    reactor_config.idleTimeoutMs = config_.idleTimeoutMs;
    reactor_config.maxBodyBytes = config_.maxBodyBytes;
    reactor_ = std::make_unique<HttpReactor>(
        reactor_config, &metrics_,
        [this](const HttpRequest &request,
               Clock::time_point received, unsigned inflight,
               HttpReactor::Prepared *prepared) {
            return dispatch(request, received, inflight,
                            static_cast<ModelQuery *>(prepared));
        },
        [this](const HttpRequest &request) {
            return requestTraced(request);
        },
        [](const HttpRequest &request) {
            // Only streaming-flagged routes' POST bodies stream;
            // everything else buffers as before.
            const Route *route = findRoute(request.path);
            return route != nullptr && route->streaming &&
                   request.method == "POST";
        },
        [this](const HttpRequest &request,
               HttpResponse *refusal) {
            // Shard-thread append admission: map lookups only.
            metrics_.addCounter("server.requests");
            requestCount_.fetch_add(1, std::memory_order_relaxed);
            const Route *route = findRoute(request.path);
            if (route == nullptr || !route->streaming) {
                *refusal = httpErrorResponse(
                    404, "unknown path '" + request.path + "'");
                return std::unique_ptr<HttpStreamSink>();
            }
            const std::string endpoint =
                std::string("server.endpoint.") + route->path;
            metrics_.addCounter(endpoint + ".requests");
            return ingest_->openAppend(
                routePathParam(*route, request.path), refusal);
        },
        [this](const HttpRequest &request,
               Clock::time_point received, unsigned inflight,
               HttpResponse *response,
               std::unique_ptr<HttpReactor::Prepared> *prepared) {
            return answerInline(request, received, inflight,
                                response, prepared);
        });
    reactor_->start();
    inform("bwwalld listening on ", config_.bindAddress, ":",
           reactor_->port(), " (", threads, " worker",
           threads == 1 ? "" : "s", ")");
}

bool
BwwallServer::requestTraced(const HttpRequest &request) const
{
    if (recorder_ == nullptr)
        return false;
    if (config_.traceAll)
        return true;
    const auto header = request.headers.find("x-bwwall-trace");
    return header != request.headers.end() &&
           header->second != "0";
}

HttpResponse
BwwallServer::handleTrace() const
{
    if (recorder_ == nullptr) {
        return httpErrorResponse(
            404, "tracing is disabled; start bwwalld with --trace");
    }
    HttpResponse response;
    response.body = recorder_->chromeTraceJson();
    response.body += '\n';
    return response;
}

HttpResponse
BwwallServer::handleCluster() const
{
    HttpResponse response;
    const std::shared_ptr<Cluster> cluster = clusterSnapshot();
    if (cluster == nullptr) {
        JsonValue payload = JsonValue::makeObject();
        payload.set("kind", JsonValue("cluster"));
        payload.set("enabled", JsonValue(false));
        payload.set("nodes", JsonValue::makeArray());
        payload.set("node_count", JsonValue(0.0));
        response.body = payload.dump();
    } else {
        response.body = cluster->statusJson().dump();
    }
    response.body += '\n';
    return response;
}

HttpResponse
BwwallServer::handleMetrics(const HttpRequest &request) const
{
    HttpResponse response;
    if (request.query.find("format=json") != std::string::npos) {
        response.body = metrics_.jsonText();
    } else {
        response.body = metrics_.text();
        response.contentType = "text/plain";
    }
    return response;
}

HttpResponse
BwwallServer::shedResponse()
{
    metrics_.addCounter("server.shed");
    HttpResponse shed = httpErrorResponseFor(
        {ErrorCategory::Overload,
         "shed by overload control; retry later"});
    shed.headers["Retry-After"] = std::string(kRetryAfterSeconds);
    return shed;
}

bool
BwwallServer::prepareModelQuery(const HttpRequest &request,
                                const Route &route,
                                unsigned inflight,
                                Clock::time_point received,
                                ModelQuery *query,
                                HttpResponse *answer)
{
    if (!admit(route, inflight, config_.maxInflight)) {
        *answer = shedResponse();
        return true;
    }

    std::string parse_error;
    bool parsed = false;
    {
        Span parse_span("server.parse");
        parsed = JsonValue::parse(request.body.empty()
                                      ? "{}"
                                      : request.body,
                                  &query->body, &parse_error);
    }
    if (!parsed) {
        *answer = httpErrorResponseFor(
            {ErrorCategory::InvalidInput,
             "malformed JSON body: " + parse_error});
        return true;
    }
    if (!query->body.isObject()) {
        *answer = httpErrorResponseFor(
            {ErrorCategory::InvalidInput,
             "request body must be a JSON object"});
        return true;
    }

    const double server_deadline =
        static_cast<double>(config_.deadlineMs) / 1000.0;
    const double client = clientDeadlineMs(request) / 1000.0;
    query->deadline = client > 0.0 && (server_deadline == 0.0 ||
                                       client < server_deadline)
                          ? client
                          : server_deadline;
    query->key = canonicalCacheKey(request.path, query->body);
    query->peerFill =
        request.headers.count(kPeerFillHeaderLower) != 0;
    if (query->peerFill)
        metrics_.addCounter("cluster.peer_fill.received");

    // Only a hit is answered here; a miss goes on to the compute
    // step (answerInline() runs a Cheap miss itself).
    std::shared_ptr<const CachedResponse> hit;
    {
        Span cache_span("server.cache");
        hit = cache_->getFresh(query->key);
    }
    if (hit == nullptr)
        return false;
    traceInstant("server.cache_hit");
    if (query->pastDeadline(received)) {
        *answer = deadlineExceeded();
    } else {
        metrics_.addCounter("server.inline_hits");
        *answer = cachedResponse(*hit, false);
    }
    return true;
}

bool
BwwallServer::answerInline(
    const HttpRequest &request, Clock::time_point received,
    unsigned inflight, HttpResponse *response,
    std::unique_ptr<HttpReactor::Prepared> *prepared)
{
    const Route *route = findRoute(request.path);
    if (route == nullptr) {
        *response = httpErrorResponse(
            404, "unknown path '" + request.path + "'");
    } else if (!routeAllowsMethod(*route, request.method)) {
        *response = httpErrorResponse(405, route->methodHint);
    } else {
        switch (route->handler) {
          case RouteHandler::Health:
            // A HEAD answer carries the status and no body.
            if (request.method != "HEAD")
                response->body = "{\"status\":\"ok\"}\n";
            break;
          case RouteHandler::Metrics:
            *response = handleMetrics(request);
            break;
          case RouteHandler::Cluster:
            *response = handleCluster();
            break;
          case RouteHandler::ModelQuery: {
            auto query = std::make_unique<ModelQuery>();
            if (prepareModelQuery(request, *route, inflight,
                                  received, query.get(), response))
                break;
            // A Cheap miss computes in microseconds: the shard runs
            // it unless that would wait on a flight or a peer.
            if (route->cost != RouteCost::Cheap ||
                !handleModelQuery(request, received, *query, true,
                                  response)) {
                *prepared = std::move(query);
                return false;
            }
            metrics_.addCounter("server.inline_computes");
            break;
          }
          case RouteHandler::Trace:
          case RouteHandler::IngestCreate:
          case RouteHandler::IngestSession:
            return false; // the compute pool's work
        }
    }
    recordRequest(request, route, received, *response);
    return true;
}

HttpResponse
BwwallServer::deadlineExceeded()
{
    // The answer is computed (and cached for the retry), but this
    // caller's deadline has already passed.
    metrics_.addCounter("server.deadline_exceeded");
    return httpErrorResponse(
        504, "deadline exceeded; result cached for retry");
}

HttpResponse
BwwallServer::cachedResponse(const CachedResponse &cached,
                             bool peer_filled)
{
    HttpResponse response;
    response.status = cached.status;
    response.contentType = cached.contentType;
    response.body = cached.body;
    if (peer_filled)
        response.headers[kPeerFilledHeader] = std::string("1");
    return response;
}

bool
BwwallServer::handleModelQuery(const HttpRequest &request,
                               Clock::time_point received,
                               ModelQuery &query, bool on_shard,
                               HttpResponse *response)
{
    try {
        // Cluster mode (docs/CLUSTER.md): on a local miss for a
        // key another node owns, ask the owner once before
        // computing.  The fill runs inside the single-flight
        // compute slot, so concurrent identical requests here
        // still collapse to one RPC, and the owner's own
        // single-flight makes the cluster-wide compute count one.
        // The loop-prevention rule: a request already marked
        // X-BWWall-Peer-Fill is answered locally, never
        // re-forwarded.
        const std::shared_ptr<Cluster> cluster =
            clusterSnapshot();
        const bool clustered = cluster != nullptr && cluster->enabled();
        const bool owned = clustered && cluster->selfOwns(query.key);
        const bool fills = clustered && !owned && !query.peerFill;
        if (on_shard && fills)
            return false; // a peer fill is network I/O
        bool peer_filled = false;
        const auto compute = [&] {
            if (owned) {
                // Counted whether the miss arrived directly or as
                // a fill RPC, so owned + fallbacks is the exact
                // cluster-wide compute count.
                metrics_.addCounter("cluster.requests.owned");
            } else if (query.peerFill && clustered) {
                // Loop prevention: a fill for a key we do not own
                // (membership disagreement) computes locally,
                // never re-forwards.
                metrics_.addCounter("cluster.local_fallback_computes");
            } else if (fills) {
                metrics_.addCounter("cluster.requests.remote");
                Span fill_span("server.peer_fill");
                HttpResponse filled;
                const double remaining =
                    query.deadline > 0.0
                        ? query.deadline - secondsSince(received)
                        : -1.0;
                if (cluster->fillFromPeer(
                        cluster->owner(query.key), request.path,
                        query.key.substr(request.path.size() + 1),
                        remaining, &filled)) {
                    peer_filled = true;
                    CachedResponse cached;
                    cached.status = filled.status;
                    cached.contentType = filled.contentType;
                    cached.body = filled.body;
                    return cached;
                }
                metrics_.addCounter("cluster.local_fallback_computes");
            }
            Span compute_span("server.compute");
            return executeModelQuery(request.path, query.body);
        };
        Span cache_span("server.cache");
        ResultCache::Outcome outcome;
        if (on_shard) {
            // Never wait on the shard: a held flight goes to the pool,
            // which joins it.
            std::optional<ResultCache::Outcome> claimed =
                cache_->tryCompute(query.key, compute);
            if (!claimed)
                return false;
            outcome = std::move(*claimed);
        } else {
            outcome = cache_->getOrCompute(query.key, compute);
        }
        traceInstant(outcome.hit ? "server.cache_hit"
                                 : "server.cache_miss");
        *response = query.pastDeadline(received)
                        ? deadlineExceeded()
                        : cachedResponse(*outcome.response, peer_filled);
    } catch (const BadRequest &e) {
        *response = httpErrorResponseFor(
            {ErrorCategory::InvalidInput, e.what()});
    } catch (const Errored &e) {
        metrics_.addCounter("server.handler_errors");
        *response = httpErrorResponseFor(e.error());
    } catch (const std::exception &e) {
        metrics_.addCounter("server.handler_errors");
        *response = httpErrorResponseFor(
            {ErrorCategory::Faulted,
             std::string("internal error: ") + e.what()});
    }
    return true;
}

HttpResponse
BwwallServer::handleIngestCreate(const HttpRequest &request)
{
    JsonValue body;
    std::string parse_error;
    if (!JsonValue::parse(request.body.empty() ? "{}"
                                               : request.body,
                          &body, &parse_error))
        return httpErrorResponseFor(
            {ErrorCategory::InvalidInput,
             "malformed JSON body: " + parse_error});
    if (!body.isObject())
        return httpErrorResponseFor(
            {ErrorCategory::InvalidInput,
             "request body must be a JSON object"});
    try {
        return ingest_->create(body);
    } catch (const BadRequest &e) {
        return httpErrorResponseFor(
            {ErrorCategory::InvalidInput, e.what()});
    } catch (const std::exception &e) {
        metrics_.addCounter("server.handler_errors");
        return httpErrorResponseFor(
            {ErrorCategory::Faulted,
             std::string("internal error: ") + e.what()});
    }
}

HttpResponse
BwwallServer::handleIngestSession(const HttpRequest &request,
                                  const Route &route,
                                  unsigned inflight)
{
    const std::string id = routePathParam(route, request.path);
    try {
        if (request.method == "DELETE")
            return ingest_->finalize(id);
        // GET snapshots go through overload admission.
        if (!admit(route, inflight, config_.maxInflight))
            return shedResponse();
        return ingest_->snapshot(id, false);
    } catch (const Errored &e) {
        metrics_.addCounter("server.handler_errors");
        return httpErrorResponseFor(e.error());
    } catch (const std::exception &e) {
        metrics_.addCounter("server.handler_errors");
        return httpErrorResponseFor(
            {ErrorCategory::Faulted,
             std::string("internal error: ") + e.what()});
    }
}

HttpResponse
BwwallServer::dispatch(const HttpRequest &request,
                       Clock::time_point received,
                       unsigned inflight, ModelQuery *prepared)
{
    // answerInline() answered every request whose route is unknown,
    // whose method is wrong, or whose answer needs no compute.
    const Route &route = *findRoute(request.path);
    HttpResponse response;
    switch (route.handler) {
      case RouteHandler::Trace:
        response = handleTrace();
        break;
      case RouteHandler::ModelQuery:
        handleModelQuery(request, received, *prepared, false,
                         &response);
        break;
      case RouteHandler::IngestCreate:
        response = handleIngestCreate(request);
        break;
      case RouteHandler::IngestSession:
        response = handleIngestSession(request, route, inflight);
        break;
      case RouteHandler::Health:
      case RouteHandler::Metrics:
      case RouteHandler::Cluster:
        panic("route ", route.path, " reached the compute pool");
    }
    recordRequest(request, &route, received, response);
    return response;
}

void
BwwallServer::recordRequest(const HttpRequest &request,
                            const Route *route,
                            Clock::time_point received,
                            const HttpResponse &response)
{
    metrics_.addCounter("server.requests");
    requestCount_.fetch_add(1, std::memory_order_relaxed);
    const double elapsed = secondsSince(received);
    // Pattern routes aggregate under the route's path, and every
    // unmatched path under one "unknown" key, so neither per-id
    // URLs nor probes of random paths can grow the registry
    // without bound.
    const std::string endpoint =
        "server.endpoint." + (route != nullptr
                                  ? std::string(route->path)
                                  : std::string("unknown"));
    metrics_.addCounter(endpoint + ".requests");
    metrics_.observeHistogram(endpoint + ".latency_seconds",
                              elapsed);
    metrics_.addCounter(std::string("server.responses.") +
                        statusClass(response.status));
    if (config_.logRequests)
        inform(request.method, ' ', request.target, " -> ",
               response.status, " (",
               static_cast<int>(elapsed * 1e6), " us)");
}

void
BwwallServer::requestStop()
{
    if (reactor_ != nullptr)
        reactor_->requestStop();
}

void
BwwallServer::join()
{
    if (reactor_ == nullptr)
        return;
    reactor_->join();
    if (drained_.exchange(true))
        return;
    metrics_.setGauge("server.drained", 1.0);
    inform("bwwalld drained: served ", requestCount(),
           " request(s)");
}

void
BwwallServer::stop()
{
    requestStop();
    join();
}

} // namespace bwwall
