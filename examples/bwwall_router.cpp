/**
 * @file
 * bwwall_router: a thin consistent-hash front for a bwwalld
 * cluster (docs/CLUSTER.md).
 *
 * The router holds the same rendezvous shard map as the nodes —
 * built from the same --peers list — and forwards each model query
 * to the node that owns its canonical cache key, so a fleet of
 * clients needs no cluster awareness at all.  It is deliberately
 * stateless: no cache, no model code, one upstream exchange per
 * request over the pooled keep-alive connections peer fills use
 * too.  When the owner is unreachable it walks the key's
 * rendezvous failover order (the exact map the surviving nodes
 * agree on among themselves), so killing a node mid-storm costs
 * retries, not errors.
 *
 * Endpoints:
 *   POST /v1/{traffic,solve,sweep,batch}  forwarded to the owner
 *   GET  /v1/cluster   the router's own shard-map view
 *   GET  /healthz      local liveness ("kind":"router"; HEAD answers
 *                      the status with no body)
 *   GET  /metrics      local router.* counters
 *   wrong method       405 on any of the routes above
 *   anything else      404 (the router fronts model queries only)
 *
 * Examples:
 *   bwwall_router --port 8090 \
 *       --peers 127.0.0.1:8081,127.0.0.1:8082,127.0.0.1:8083
 *   curl -s -X POST localhost:8090/v1/solve -d '{"alpha":0.5}'
 */

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <arpa/inet.h>
#include <atomic>
#include <csignal>
#include <cstring>
#include <iostream>
#include <list>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "server/cluster.hh"
#include "server/http.hh"
#include "server/http_client.hh"
#include "server/json.hh"
#include "server/model_service.hh"
#include "util/cli.hh"
#include "util/error.hh"
#include "util/logging.hh"
#include "util/metrics.hh"

using namespace bwwall;

namespace {

/** Everything the connection threads share. */
struct Router
{
    /** Declared first so it outlives the cluster's prober thread. */
    MetricsRegistry metrics;
    std::unique_ptr<Cluster> cluster;
    bool logRequests = false;
};

/** One client connection and the thread serving it. */
struct Connection
{
    int fd = -1;
    std::atomic<bool> done{false};
    std::thread thread;
};

/**
 * The standard {"error","category","status"} taxonomy body at an
 * arbitrary status, for router-local refusals (404, 405, parse
 * errors) whose statuses have no ErrorCategory of their own —
 * clients parse one error shape everywhere.
 */
HttpResponse
taxonomyError(int status, const char *category,
              const std::string &message)
{
    JsonValue body = JsonValue::makeObject();
    body.set("error", JsonValue(message));
    body.set("category", JsonValue(std::string(category)));
    body.set("status", JsonValue(static_cast<double>(status)));
    HttpResponse response;
    response.status = status;
    response.body = body.dump();
    response.body += '\n';
    return response;
}

/**
 * Forwards @p request to the owner of its canonical key, walking
 * the rendezvous failover order while nodes are unreachable.
 */
HttpResponse
routeModelQuery(Router &router, const HttpRequest &request)
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

    // The same key the nodes shard and cache on, so router and
    // cluster agree on ownership by construction.
    const std::string key =
        canonicalCacheKey(request.path, body);
    Cluster &cluster = *router.cluster;

    // The rendezvous walk, up nodes first: a node the health layer
    // has marked down is demoted to last resort (never dropped —
    // with every node down, trying one beats refusing outright),
    // so requests stop spending connect timeouts rediscovering a
    // dead node on every walk.
    const std::vector<std::size_t> preference =
        cluster.preferenceOrder(key);
    const std::size_t owner_index = preference.front();
    std::vector<std::size_t> order;
    std::vector<std::size_t> demoted;
    for (const std::size_t index : preference) {
        if (cluster.peerAvailable(cluster.nodes()[index]))
            order.push_back(index);
        else
            demoted.push_back(index);
    }
    if (!demoted.empty())
        router.metrics.addCounter("router.skipped_down",
                                  demoted.size());
    order.insert(order.end(), demoted.begin(), demoted.end());

    HttpClient::Request upstream;
    upstream.method = "POST";
    upstream.target = request.path;
    // The canonical body is the key after its "path\n" prefix.
    upstream.body = key.substr(request.path.size() + 1);
    // The trace opt-in rides through unchanged.  The client's
    // deadline only tightens each node's budget: the client stops
    // waiting then, so neither the router nor the node should
    // wait longer.
    const auto trace = request.headers.find("x-bwwall-trace");
    if (trace != request.headers.end())
        upstream.headers[trace->first] = trace->second;
    upstream.deadlineMs =
        static_cast<double>(cluster.config().peerDeadlineMs);
    const double client_ms = clientDeadlineMs(request);
    if (client_ms > 0.0)
        upstream.deadlineMs = std::min(upstream.deadlineMs, client_ms);

    std::string last_error;
    for (const std::size_t index : order) {
        const std::string &node = cluster.nodes()[index];
        // A refused connect fails the node over immediately; the
        // health layer remembers it for the next walk.
        HttpClientResponse response;
        if (cluster.exchange(node, upstream, &response,
                             &last_error)) {
            // 5xx still answers the client (the node spoke), but
            // counts against its health so a sick node is demoted.
            if (response.status >= 500)
                cluster.notePeerFailure(node);
            else
                cluster.notePeerSuccess(node);
            if (index != owner_index)
                router.metrics.addCounter("router.failovers");
            router.metrics.addCounter("router.forwarded");
            HttpResponse out;
            out.status = response.status;
            out.body = response.body;
            const auto type =
                response.headers.find("content-type");
            if (type != response.headers.end())
                out.contentType = type->second;
            out.headers["X-BWWall-Routed-To"] = node;
            return out;
        }
        cluster.notePeerFailure(node);
        router.metrics.addCounter("router.node_unreachable");
    }
    router.metrics.addCounter("router.upstream_failures");
    return httpErrorResponseFor(
        {ErrorCategory::Io,
         "no cluster node reachable: " + last_error});
}

HttpResponse
dispatch(Router &router, const HttpRequest &request)
{
    router.metrics.addCounter("router.requests");
    const bool control = request.path == "/healthz" ||
                         request.path == "/metrics" ||
                         request.path == "/v1/cluster";
    if (control && request.method != "GET") {
        // A HEAD probe answers the status alone: a body here would
        // be read as the start of the next keep-alive response.
        if (request.path == "/healthz" && request.method == "HEAD")
            return HttpResponse();
        return taxonomyError(405, "invalid_input",
                             "use GET " + request.path);
    }
    if (request.path == "/healthz") {
        JsonValue payload = JsonValue::makeObject();
        payload.set("status", JsonValue("ok"));
        payload.set("kind", JsonValue("router"));
        HttpResponse response;
        response.body = payload.dump();
        response.body += '\n';
        return response;
    }
    if (request.path == "/metrics") {
        HttpResponse response;
        response.contentType = "text/plain";
        response.body = router.metrics.text();
        return response;
    }
    if (request.path == "/v1/cluster") {
        HttpResponse response;
        response.body = router.cluster->statusJson().dump();
        response.body += '\n';
        return response;
    }
    if (isModelQueryPath(request.path)) {
        if (request.method != "POST")
            return taxonomyError(
                405, "invalid_input",
                "model queries are POST requests");
        return routeModelQuery(router, request);
    }
    return taxonomyError(
        404, "invalid_input",
        "unknown path '" + request.path +
            "' (the router fronts model queries)");
}

/** Writes all of @p wire to @p fd; false on a dead peer. */
bool
sendAll(int fd, const std::string &wire)
{
    std::size_t sent = 0;
    while (sent < wire.size()) {
        const ssize_t n =
            send(fd, wire.data() + sent, wire.size() - sent,
                 MSG_NOSIGNAL);
        if (n <= 0)
            return false;
        sent += static_cast<std::size_t>(n);
    }
    return true;
}

/**
 * One keep-alive connection: parse, dispatch, respond, repeat,
 * until the client closes or the drain shuts its read side.  The
 * fd stays open for the reaper, so a drain never shuts down a
 * reused descriptor.
 */
void
serveConnection(Router &router, int fd)
{
    HttpLimits limits;
    HttpParser parser(limits);
    char buffer[16 << 10];
    for (;;) {
        HttpRequest request;
        const HttpParseStatus status = parser.poll(&request);
        if (status == HttpParseStatus::NeedMore) {
            const ssize_t n =
                recv(fd, buffer, sizeof(buffer), 0);
            if (n <= 0)
                break;
            parser.append(buffer, static_cast<std::size_t>(n));
            continue;
        }
        HttpResponse response;
        bool close_after = false;
        if (status == HttpParseStatus::Ok) {
            response = dispatch(router, request);
            close_after = !request.keepAlive;
            if (router.logRequests)
                inform(request.method, ' ', request.target,
                       " -> ", response.status);
        } else {
            response = taxonomyError(
                status == HttpParseStatus::TooLarge ? 413 : 400,
                "invalid_input", "malformed request");
            close_after = true;
        }
        response.close = close_after;
        if (!sendAll(fd, serializeHttpResponse(response)) ||
            close_after)
            break;
    }
}

} // namespace

int
main(int argc, char **argv)
{
    std::string bind_address = "127.0.0.1";
    std::uint64_t port = 8090;
    std::string peers;
    Router router;
    ClusterConfig cluster_config;
    cluster_config.peerDeadlineMs = 10000;
    cluster_config.probeIntervalMs = 1000;

    CliParser parser("bwwall_router",
                     "consistent-hash router fronting a bwwalld "
                     "cluster (no cache, no model code)");
    parser.addOption("--bind", &bind_address, "ADDR",
                     "bind address");
    parser.addOption("--port", &port, "PORT",
                     "TCP port (0 = ephemeral)");
    parser.addOption("--peers", &peers, "LIST",
                     "cluster membership as host:port,host:port,"
                     "... (the same list every node was started "
                     "with)");
    parser.addOption("--peer-deadline-ms", &cluster_config.peerDeadlineMs,
                     "MS",
                     "total upstream budget per forwarded "
                     "request");
    parser.addOption("--peer-attempts", &cluster_config.peerAttempts, "N",
                     "attempts per node before failing over");
    parser.addOption("--connect-timeout-ms", &cluster_config.connectTimeoutMs,
                     "MS", "per-attempt connect() bound");
    parser.addOption("--peer-probe-interval-ms",
                     &cluster_config.probeIntervalMs, "MS",
                     "background /healthz probe cadence; a node "
                     "whose probe fails is demoted in the walk "
                     "until one succeeds (0 = off)");
    parser.addOption("--peer-failure-threshold",
                     &cluster_config.peerFailureThreshold, "N",
                     "consecutive forward failures that demote a "
                     "node");
    parser.addFlag("--log-requests", &router.logRequests,
                   "log one line per routed request");
    parser.parseOrExit(argc, argv);

    if (port > 65535)
        parser.usageError("--port must be at most 65535");
    if (peers.empty())
        parser.usageError("--peers is required");

    std::string peer_error;
    if (!parsePeerList(peers, &cluster_config.peers,
                       &peer_error))
        parser.usageError("--peers: " + peer_error);
    try {
        router.cluster = std::make_unique<Cluster>(
            cluster_config, &router.metrics);
    } catch (const BadRequest &e) {
        parser.usageError(e.what());
    }

    // Route SIGINT/SIGTERM to sigwait below (bwwalld's pattern).
    sigset_t signals;
    sigemptyset(&signals);
    sigaddset(&signals, SIGINT);
    sigaddset(&signals, SIGTERM);
    pthread_sigmask(SIG_BLOCK, &signals, nullptr);

    const int listen_fd =
        socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (listen_fd < 0)
        panic("socket: ", std::strerror(errno));
    const int enable = 1;
    setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &enable,
               sizeof(enable));
    sockaddr_in address{};
    address.sin_family = AF_INET;
    address.sin_port = htons(static_cast<std::uint16_t>(port));
    if (inet_pton(AF_INET, bind_address.c_str(),
                  &address.sin_addr) != 1)
        parser.usageError("--bind: unusable address '" +
                          bind_address + "'");
    if (bind(listen_fd,
             reinterpret_cast<const sockaddr *>(&address),
             sizeof(address)) != 0)
        panic("bind ", bind_address, ":", port, ": ",
              std::strerror(errno));
    if (listen(listen_fd, 128) != 0)
        panic("listen: ", std::strerror(errno));
    socklen_t address_len = sizeof(address);
    getsockname(listen_fd,
                reinterpret_cast<sockaddr *>(&address),
                &address_len);

    std::atomic<bool> stopping{false};
    std::list<Connection> connections;
    std::mutex connections_mutex;
    // Joins finished connection threads; the caller holds the lock.
    const auto reap = [&connections] {
        connections.remove_if([](Connection &connection) {
            if (!connection.done.load())
                return false;
            connection.thread.join();
            close(connection.fd);
            return true;
        });
    };
    std::thread acceptor([&] {
        for (;;) {
            const int fd = accept(listen_fd, nullptr, nullptr);
            if (fd < 0) {
                if (stopping.load())
                    break;
                continue;
            }
            const int nodelay = 1;
            setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &nodelay,
                       sizeof(nodelay));
            std::lock_guard<std::mutex> lock(connections_mutex);
            reap();
            Connection &connection = connections.emplace_back();
            connection.fd = fd;
            connection.thread = std::thread([&router, &connection] {
                serveConnection(router, connection.fd);
                connection.done.store(true);
            });
        }
    });

    // Machine-readable port line for scripts driving --port 0.
    std::cout << "bwwall_router listening on " << bind_address
              << ":" << ntohs(address.sin_port) << " ("
              << router.cluster->nodeCount() << " node"
              << (router.cluster->nodeCount() == 1 ? "" : "s")
              << ")" << std::endl;

    int signal_number = 0;
    sigwait(&signals, &signal_number);
    inform("received ",
           signal_number == SIGTERM ? "SIGTERM" : "SIGINT",
           "; draining");
    stopping.store(true);
    shutdown(listen_fd, SHUT_RDWR);
    close(listen_fd);
    acceptor.join();
    {
        // Wake idle keep-alive readers; a request in flight still
        // gets its answer on the open write side.
        std::lock_guard<std::mutex> lock(connections_mutex);
        for (Connection &connection : connections)
            shutdown(connection.fd, SHUT_RD);
        for (Connection &connection : connections) {
            connection.thread.join();
            close(connection.fd);
        }
    }
    inform("bwwall_router drained: routed ",
           router.metrics.counter("router.forwarded"),
           " request(s)");
    return 0;
}
