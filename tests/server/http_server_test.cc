/**
 * @file
 * Integration tests for BwwallServer: a real server on an ephemeral
 * loopback port, driven through HttpClient.  Covers the golden
 * byte-identity guarantee (server responses == direct library
 * calls), protocol errors, caching and single-flight behaviour over
 * the wire, /metrics, graceful shutdown, and which requests the io
 * shard answers itself (every request that needs no compute:
 * admitted hits, control routes, errors, sheds) versus hands to the
 * compute pool (misses it cannot compute without waiting).
 */

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstring>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "server/http.hh"
#include "server/http_client.hh"
#include "server/json.hh"
#include "server/model_service.hh"
#include "server/server.hh"
#include "util/fault.hh"

namespace bwwall {
namespace {

/** Starts a server on port 0 and tears it down with the fixture. */
class HttpServerTest : public testing::Test
{
  protected:
    void
    SetUp() override
    {
        ServerConfig config;
        config.port = 0;
        config.threads = 4;
        config.maxBodyBytes = 16u << 10;
        server_ = std::make_unique<BwwallServer>(config);
        server_->start();
        client_ = std::make_unique<HttpClient>("127.0.0.1",
                                               server_->port());
    }

    void
    TearDown() override
    {
        client_.reset();
        if (server_)
            server_->stop();
    }

    HttpClientResponse
    post(const std::string &path, const std::string &body)
    {
        HttpClientResponse response;
        std::string error;
        EXPECT_TRUE(
            client_->perform(
                {.method = "POST", .target = path, .body = body},
                &response, &error))
            << error;
        return response;
    }

    HttpClientResponse
    get(const std::string &path)
    {
        HttpClientResponse response;
        std::string error;
        EXPECT_TRUE(client_->perform({.target = path}, &response, &error))
            << error;
        return response;
    }

    std::unique_ptr<BwwallServer> server_;
    std::unique_ptr<HttpClient> client_;
};

TEST_F(HttpServerTest, HealthzReportsOk)
{
    const HttpClientResponse response = get("/healthz");
    EXPECT_EQ(response.status, 200);
    EXPECT_EQ(response.body, "{\"status\":\"ok\"}\n");
    EXPECT_EQ(response.headers.at("content-type"),
              "application/json");
}

TEST_F(HttpServerTest, ServerResponseIsByteIdenticalToLibrary)
{
    const std::string text =
        "{\"cores\":16,\"alpha\":0.5,\"total_ceas\":32,"
        "\"techniques\":[{\"label\":\"CC\"}]}";
    const HttpClientResponse wire = post("/v1/traffic", text);
    EXPECT_EQ(wire.status, 200);

    JsonValue parsed_request;
    ASSERT_TRUE(JsonValue::parse(text, &parsed_request));
    const CachedResponse direct =
        executeModelQuery("/v1/traffic", parsed_request);
    EXPECT_EQ(wire.body, direct.body); // the golden guarantee

    // And the cached second serving is byte-identical too.
    const HttpClientResponse again = post("/v1/traffic", text);
    EXPECT_EQ(again.body, direct.body);
}

TEST_F(HttpServerTest, BatchMatchesSingleRequestsOverTheWire)
{
    // N requests issued singly...
    const std::vector<std::pair<std::string, std::string>>
        singles = {
            {"/v1/traffic",
             "{\"cores\":16,\"alpha\":0.5,\"total_ceas\":32}"},
            {"/v1/traffic",
             "{\"cores\":64,\"alpha\":0.5,\"total_ceas\":32}"},
            {"/v1/solve",
             "{\"alpha\":0.5,\"total_ceas\":32}"},
            {"/v1/sweep",
             "{\"kind\":\"scaling\",\"generations\":3}"},
        };
    std::vector<HttpClientResponse> responses;
    for (const auto &[path, text] : singles) {
        responses.push_back(post(path, text));
        ASSERT_EQ(responses.back().status, 200);
    }

    // ...must be byte-identical to the same N in one batch body.
    std::string batch = "{\"requests\":[";
    for (std::size_t i = 0; i < singles.size(); ++i) {
        batch += std::string(i == 0 ? "" : ",") +
                 "{\"path\":\"" + singles[i].first +
                 "\",\"body\":" + singles[i].second + "}";
    }
    batch += "]}";
    const HttpClientResponse wire = post("/v1/batch", batch);
    ASSERT_EQ(wire.status, 200);

    JsonValue payload;
    std::string error;
    ASSERT_TRUE(JsonValue::parse(wire.body, &payload, &error))
        << error;
    EXPECT_EQ(payload.find("kind")->asString(), "batch");
    const JsonValue *entries = payload.find("responses");
    ASSERT_NE(entries, nullptr);
    ASSERT_EQ(entries->items().size(), singles.size());
    for (std::size_t i = 0; i < singles.size(); ++i) {
        const JsonValue &entry = entries->items()[i];
        EXPECT_DOUBLE_EQ(entry.find("status")->asNumber(),
                         200.0);
        EXPECT_EQ(entry.find("body")->dump() + "\n",
                  responses[i].body)
            << singles[i].first << " " << singles[i].second;
    }

    // The batch itself is served from the cache on a replay.
    const std::uint64_t misses =
        server_->metrics().counter("cache.misses");
    const HttpClientResponse again = post("/v1/batch", batch);
    EXPECT_EQ(again.body, wire.body);
    EXPECT_EQ(server_->metrics().counter("cache.misses"),
              misses);
}

TEST_F(HttpServerTest, WhitespaceInsensitiveRequestsHitTheCache)
{
    post("/v1/solve", "{\"alpha\":0.5,\"total_ceas\":32}");
    const std::uint64_t misses_before =
        server_->metrics().counter("cache.misses");
    post("/v1/solve",
         "{ \"total_ceas\" : 32.0 , \"alpha\" : 0.5 }");
    EXPECT_EQ(server_->metrics().counter("cache.misses"),
              misses_before);
    EXPECT_GE(server_->metrics().counter("cache.hits"), 1u);
}

TEST_F(HttpServerTest, MalformedJsonIsAStructured400)
{
    const HttpClientResponse response =
        post("/v1/traffic", "{\"cores\":16,");
    EXPECT_EQ(response.status, 400);
    JsonValue payload;
    ASSERT_TRUE(JsonValue::parse(response.body, &payload));
    ASSERT_NE(payload.find("error"), nullptr);
    EXPECT_NE(payload.find("error")->asString().find(
                  "malformed JSON"),
              std::string::npos);
    EXPECT_DOUBLE_EQ(payload.find("status")->asNumber(), 400.0);
}

TEST_F(HttpServerTest, BadRequestsAndUnknownPathsMapToStatuses)
{
    EXPECT_EQ(post("/v1/traffic", "{}").status, 400);
    EXPECT_EQ(post("/v1/traffic", "[1,2]").status, 400);
    EXPECT_EQ(post("/v1/nope", "{}").status, 404);
    EXPECT_EQ(get("/v1/traffic").status, 405);
    EXPECT_EQ(post("/healthz", "{}").status, 405);
}

TEST_F(HttpServerTest, UnknownPathsShareOneMetricKey)
{
    const auto registry_lines = [&] {
        const std::string dump = server_->metrics().text();
        return std::count(dump.begin(), dump.end(), '\n');
    };
    // One 404 first, so its shared keys (server.endpoint.unknown.*,
    // server.responses.4xx) already exist.
    ASSERT_EQ(get("/not-a-route").status, 404);
    const auto before = registry_lines();

    std::mt19937_64 rng(16);
    for (int i = 0; i < 10000; ++i) {
        const std::string path =
            "/probe/" + std::to_string(rng()) + "/" +
            std::to_string(i);
        ASSERT_EQ(get(path).status, 404) << path;
    }
    EXPECT_EQ(registry_lines(), before);
    EXPECT_EQ(server_->metrics().counter(
                  "server.endpoint.unknown.requests"),
              10001u);
}

TEST_F(HttpServerTest, OversizedBodiesAreRejectedWith413)
{
    const std::string huge(32u << 10, 'x');
    const HttpClientResponse response =
        post("/v1/traffic", "{\"pad\":\"" + huge + "\"}");
    EXPECT_EQ(response.status, 413);
}

TEST_F(HttpServerTest, KeepAliveServesManyRequestsPerConnection)
{
    // The fixture's client connects lazily, so the very first
    // request opens the one and only connection.
    for (int i = 0; i < 20; ++i)
        EXPECT_EQ(get("/healthz").status, 200);
    EXPECT_EQ(server_->metrics().counter("server.connections"),
              1u);
}

TEST_F(HttpServerTest, MetricsExposeTextAndJson)
{
    post("/v1/solve", "{\"total_ceas\":32}");
    const HttpClientResponse text = get("/metrics");
    EXPECT_EQ(text.status, 200);
    EXPECT_EQ(text.headers.at("content-type"), "text/plain");
    EXPECT_NE(text.body.find("counter server.requests "),
              std::string::npos);
    EXPECT_NE(
        text.body.find(
            "histogram server.endpoint./v1/solve.latency_seconds"),
        std::string::npos);

    const HttpClientResponse json =
        get("/metrics?format=json");
    EXPECT_EQ(json.status, 200);
    JsonValue report;
    std::string error;
    ASSERT_TRUE(JsonValue::parse(json.body, &report, &error))
        << error;
    const JsonValue *counters = report.find("counters");
    ASSERT_NE(counters, nullptr);
    ASSERT_NE(counters->find(
                  "server.endpoint./v1/solve.requests"),
              nullptr);
    EXPECT_GE(counters
                  ->find("server.endpoint./v1/solve.requests")
                  ->asNumber(),
              1.0);
}

TEST_F(HttpServerTest, ConcurrentIdenticalSweepsComputeOnce)
{
    const std::string sweep =
        "{\"kind\":\"miss_curve\",\"estimator\":\"stack\","
        "\"size_kib\":64,\"warm\":1000,\"accesses\":5000,"
        "\"seed\":99}";
    const std::uint64_t misses_before =
        server_->metrics().counter("cache.misses");

    const int threads = 6;
    std::vector<std::thread> pool;
    std::vector<std::string> bodies(threads);
    std::atomic<int> failures{0};
    for (int t = 0; t < threads; ++t) {
        pool.emplace_back([&, t] {
            HttpClient client("127.0.0.1", server_->port());
            HttpClientResponse response;
            std::string error;
            if (!client.perform(
                {.method = "POST", .target = "/v1/sweep", .body = sweep},
                &response, &error) ||
                response.status != 200) {
                failures.fetch_add(1);
                return;
            }
            bodies[static_cast<std::size_t>(t)] = response.body;
        });
    }
    for (std::thread &thread : pool)
        thread.join();
    ASSERT_EQ(failures.load(), 0);
    for (int t = 1; t < threads; ++t)
        EXPECT_EQ(bodies[static_cast<std::size_t>(t)], bodies[0]);
    EXPECT_EQ(server_->metrics().counter("cache.misses"),
              misses_before + 1);
}

TEST_F(HttpServerTest, GracefulStopFinishesAndRefusesReconnect)
{
    EXPECT_EQ(get("/healthz").status, 200);
    const std::uint64_t served = server_->requestCount();
    server_->stop();
    EXPECT_GE(server_->requestCount(), served);
    EXPECT_DOUBLE_EQ(server_->metrics().gauge("server.drained"),
                     1.0);

    // The listener is closed: a fresh connection must fail.
    HttpClient late("127.0.0.1", server_->port());
    HttpClientResponse response;
    std::string error;
    EXPECT_FALSE(late.perform({.target = "/healthz"}, &response, &error));
}

TEST(HttpServerTraceTest, TraceEndpointIs404WhenTracingIsOff)
{
    ServerConfig config;
    config.port = 0;
    config.threads = 2;
    BwwallServer server(config);
    server.start();
    EXPECT_EQ(server.traceRecorder(), nullptr);

    {
        HttpClient client("127.0.0.1", server.port());
        HttpClientResponse response;
        std::string error;
        ASSERT_TRUE(client.perform({.target = "/v1/trace"}, &response, &error))
            << error;
        EXPECT_EQ(response.status, 404);
    }
    server.stop();
}

TEST(HttpServerTraceTest, OptedInRequestRoundTripsThroughV1Trace)
{
    ServerConfig config;
    config.port = 0;
    config.threads = 2;
    config.trace = true; // standby: only opted-in requests record
    BwwallServer server(config);
    server.start();
    ASSERT_NE(server.traceRecorder(), nullptr);

    // unique_ptr so the keep-alive connection can be closed before
    // server.stop() (which otherwise waits out the idle timeout).
    auto client = std::make_unique<HttpClient>("127.0.0.1",
                                               server.port());
    HttpClientResponse response;
    std::string error;

    // A plain request records nothing.
    ASSERT_TRUE(client->perform(
        {.method = "POST", .target = "/v1/solve",
         .body = "{\"alpha\":0.5,\"total_ceas\":32}"},
        &response, &error))
        << error;
    EXPECT_EQ(response.status, 200);
    EXPECT_TRUE(server.traceRecorder()->collect().empty());

    // An X-BWWall-Trace request records its lifecycle; a distinct
    // body forces a cache miss, so server.compute must appear.  A
    // /v1/solve miss is Cheap: the io shard computes it, so every
    // span lands on the shard's lane and none is server.prepare.
    ASSERT_TRUE(client->perform(
        {.method = "POST", .target = "/v1/solve",
         .headers = {{"X-BWWall-Trace", "1"}},
         .body = "{\"alpha\":0.4,\"total_ceas\":32}"},
        &response, &error))
        << error;
    EXPECT_EQ(response.status, 200);
    std::map<std::string, std::uint32_t> lanes;
    for (const TraceEvent &event : server.traceRecorder()->collect()) {
        if (event.kind == TraceEvent::Kind::Span)
            lanes[event.name] = event.tid;
    }
    for (const char *name : {"server.request", "server.parse",
                             "server.cache", "server.compute",
                             "server.serialize"}) {
        ASSERT_EQ(lanes.count(name), 1u) << name;
        EXPECT_EQ(lanes[name], lanes["server.request"]) << name;
    }
    EXPECT_EQ(lanes.count("server.prepare"), 0u);
    // Both solve misses, the plain one and the traced one.
    EXPECT_EQ(server.metrics().counter("server.inline_computes"), 2u);

    // An Expensive miss (/v1/batch) still crosses to the pool: the
    // io shard records its share as server.prepare.
    ASSERT_TRUE(client->perform(
        {.method = "POST", .target = "/v1/batch",
         .headers = {{"X-BWWall-Trace", "1"}},
         .body = "{\"requests\":[{\"path\":\"/v1/solve\","
                 "\"body\":{\"alpha\":0.3,\"total_ceas\":32}}]}"},
        &response, &error))
        << error;
    EXPECT_EQ(response.status, 200);
    EXPECT_EQ(server.metrics().counter("server.inline_computes"), 2u);

    // The export is strict-parser-clean Chrome JSON containing the
    // request lifecycle spans.
    ASSERT_TRUE(client->perform({.target = "/v1/trace"}, &response, &error))
        << error;
    EXPECT_EQ(response.status, 200);
    EXPECT_EQ(response.headers.at("content-type"),
              "application/json");
    JsonValue trace;
    ASSERT_TRUE(JsonValue::parse(response.body, &trace, &error))
        << error;
    const JsonValue *events = trace.find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_TRUE(events->isArray());

    std::set<std::string> names;
    for (const JsonValue &event : events->items()) {
        const JsonValue *name = event.find("name");
        if (name != nullptr)
            names.insert(name->asString());
    }
    EXPECT_EQ(names.count("server.request"), 1u);
    EXPECT_EQ(names.count("server.parse"), 1u);
    EXPECT_EQ(names.count("server.cache"), 1u);
    EXPECT_EQ(names.count("server.compute"), 1u);
    EXPECT_EQ(names.count("server.cache_miss"), 1u);
    // The io shard's share of the batch it sent on to the pool.
    EXPECT_EQ(names.count("server.prepare"), 1u);

    // An opted-in cache hit records the hit marker, not a compute.
    ASSERT_TRUE(client->perform(
        {.method = "POST", .target = "/v1/solve",
         .headers = {{"X-BWWall-Trace", "1"}},
         .body = "{\"alpha\":0.4,\"total_ceas\":32}"},
        &response, &error))
        << error;
    EXPECT_EQ(response.status, 200);
    bool hit = false;
    for (const TraceEvent &event :
         server.traceRecorder()->collect()) {
        if (std::string(event.name) == "server.cache_hit")
            hit = true;
    }
    EXPECT_TRUE(hit);

    // Only GET is allowed on /v1/trace.
    ASSERT_TRUE(
        client->perform(
            {.method = "POST", .target = "/v1/trace", .body = "{}"},
            &response, &error))
        << error;
    EXPECT_EQ(response.status, 405);
    client.reset();
    server.stop();
}

TEST(HttpServerTraceTest, TraceAllRecordsEveryRequest)
{
    ServerConfig config;
    config.port = 0;
    config.threads = 2;
    config.trace = true;
    config.traceAll = true;
    BwwallServer server(config);
    server.start();

    {
        HttpClient client("127.0.0.1", server.port());
        HttpClientResponse response;
        std::string error;
        ASSERT_TRUE(client.perform({.target = "/healthz"}, &response, &error))
            << error;
        EXPECT_EQ(response.status, 200);
    }
    bool request_span = false;
    for (const TraceEvent &event :
         server.traceRecorder()->collect()) {
        if (std::string(event.name) == "server.request")
            request_span = true;
    }
    EXPECT_TRUE(request_span);
    server.stop();
}

TEST(HttpErrorResponseTest, ShapesAStructuredBody)
{
    const HttpResponse response =
        httpErrorResponse(503, "at capacity");
    EXPECT_EQ(response.status, 503);
    JsonValue payload;
    ASSERT_TRUE(JsonValue::parse(response.body, &payload));
    EXPECT_EQ(payload.find("error")->asString(), "at capacity");
    EXPECT_DOUBLE_EQ(payload.find("status")->asNumber(), 503.0);
}

// ---- Robustness: fault injection, overload, retries ----

/** The category field of a structured error body. */
std::string
errorCategoryOf(const std::string &body)
{
    JsonValue payload;
    if (!JsonValue::parse(body, &payload))
        return "";
    const JsonValue *category = payload.find("category");
    return category != nullptr ? category->asString() : "";
}

TEST_F(HttpServerTest, InjectedComputeFaultIsA500ThenRecovers)
{
    ScopedFaultInjection faults("cache.compute=nth:1",
                                &server_->metrics());
    const HttpClientResponse faulted =
        post("/v1/solve", "{\"alpha\":0.5,\"total_ceas\":32}");
    EXPECT_EQ(faulted.status, 500);
    EXPECT_EQ(errorCategoryOf(faulted.body), "faulted");

    // Errors are never cached: the retry recomputes and succeeds.
    const HttpClientResponse retried =
        post("/v1/solve", "{\"alpha\":0.5,\"total_ceas\":32}");
    EXPECT_EQ(retried.status, 200);
    EXPECT_GE(server_->metrics().counter(
                  "faults.fired.cache.compute"),
              1u);
}

TEST_F(HttpServerTest, InjectedSolverFaultIsA424NonConvergence)
{
    ScopedFaultInjection faults("model.solve=nth:1");
    const HttpClientResponse faulted =
        post("/v1/solve", "{\"alpha\":0.5,\"total_ceas\":32}");
    EXPECT_EQ(faulted.status, 424);
    EXPECT_EQ(errorCategoryOf(faulted.body), "non_convergence");
    EXPECT_EQ(post("/v1/solve",
                   "{\"alpha\":0.5,\"total_ceas\":32}")
                  .status,
              200);
}

TEST_F(HttpServerTest, ShortWritesPreserveByteIdentity)
{
    // One clean request for the reference bytes, then force the
    // server's send path to dribble single-byte chunks.
    const HttpClientResponse reference = get("/healthz");
    ASSERT_EQ(reference.status, 200);

    ScopedFaultInjection faults("http.write.short=prob:1");
    const HttpClientResponse dribbled = get("/healthz");
    EXPECT_EQ(dribbled.status, 200);
    EXPECT_EQ(dribbled.body, reference.body);
    EXPECT_EQ(dribbled.headers.at("content-type"),
              reference.headers.at("content-type"));
}

TEST_F(HttpServerTest, ShortWritesDoNotWaitForDelayedAcks)
{
    // Every response goes out one byte per send().  Without
    // TCP_NODELAY on the accepted socket, Nagle holds each
    // response's tail until the client's delayed ACK (about 40 ms),
    // so ten keep-alive requests would take about 400 ms.
    ScopedFaultInjection faults("http.write.short=prob:1");
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < 10; ++i)
        ASSERT_EQ(get("/healthz").status, 200) << "request " << i;
    EXPECT_LT(std::chrono::steady_clock::now() - start,
              std::chrono::milliseconds(200));
}

TEST_F(HttpServerTest, DroppedAcceptIsSurvivedByAReconnect)
{
    ScopedFaultInjection faults("server.accept=nth:1",
                                &server_->metrics());
    // The server closes the first accepted connection; the client's
    // stale-connection retry opens a second one and succeeds.
    EXPECT_EQ(get("/healthz").status, 200);
    EXPECT_EQ(faultFiredCount("server.accept"), 1u);
}

TEST_F(HttpServerTest, ClientDeadlineHeaderYieldsA504)
{
    HttpClientResponse response;
    std::string error;
    // A microscopic budget expires during any real compute; the
    // result is still cached for a later retry.
    ASSERT_TRUE(client_->perform(
        {.method = "POST", .target = "/v1/sweep",
         .headers = {{"X-BWWall-Deadline-Ms", "0.01"}},
         .body = "{\"kind\":\"scaling\",\"generations\":3}"},
        &response, &error))
        << error;
    EXPECT_EQ(response.status, 504);
    EXPECT_GE(server_->metrics().counter(
                  "server.deadline_exceeded"),
              1u);

    // Without the budget header the same query serves fine.
    const HttpClientResponse retry = post(
        "/v1/sweep", "{\"kind\":\"scaling\",\"generations\":3}");
    EXPECT_EQ(retry.status, 200);
}

TEST(HttpServerOverloadTest, PressedSweepShedsWhileTrafficIsServed)
{
    ServerConfig config;
    config.port = 0;
    config.threads = 2;
    // A request counts itself in flight, so at a cap of one every
    // request arrives at full pressure, past the expensive mark.
    config.maxInflight = 1;
    BwwallServer server(config);
    server.start();
    {
        HttpClient client("127.0.0.1", server.port());
        HttpClientResponse response;
        std::string error;

        // The sweep sheds with a Retry-After hint...
        ASSERT_TRUE(client.perform(
            {.method = "POST", .target = "/v1/sweep",
             .body = "{\"kind\":\"scaling\",\"generations\":2}"},
            &response, &error))
            << error;
        EXPECT_EQ(response.status, 503);
        EXPECT_EQ(errorCategoryOf(response.body), "overload");
        EXPECT_EQ(response.headers.at("retry-after"), "1");
        EXPECT_EQ(server.metrics().counter("server.shed"), 1u);

        // ...while the cheap endpoint keeps serving.
        ASSERT_TRUE(client.perform(
            {.method = "POST", .target = "/v1/traffic",
             .body = "{\"cores\":8,\"alpha\":0.5,\"total_ceas\":32}"},
            &response, &error))
            << error;
        EXPECT_EQ(response.status, 200);
        EXPECT_EQ(server.metrics().counter("server.shed"), 1u);
    }
    server.stop();
}

TEST(HttpServerOverloadTest, PressedIngestSnapshotShedsButFinalizeServes)
{
    ServerConfig config;
    config.port = 0;
    config.threads = 2;
    // Every request arrives at full pressure (see above): session
    // creation is a control route and serves, a GET snapshot is
    // Expensive and sheds, and a finalize bypasses admission.
    config.maxInflight = 1;
    BwwallServer server(config);
    server.start();
    {
        HttpClient client("127.0.0.1", server.port());
        HttpClientResponse response;
        std::string error;
        ASSERT_TRUE(client.perform({.method = "POST",
                                    .target = "/v1/trace/ingest",
                                    .body = "{\"format\":\"text\"}"},
                                   &response, &error))
            << error;
        ASSERT_EQ(response.status, 200) << response.body;
        JsonValue created;
        ASSERT_TRUE(JsonValue::parse(response.body, &created, &error))
            << error;
        const std::string target =
            "/v1/trace/ingest/" + created.find("id")->asString();

        ASSERT_TRUE(client.perform({.target = target}, &response,
                                   &error))
            << error;
        EXPECT_EQ(response.status, 503);
        EXPECT_EQ(errorCategoryOf(response.body), "overload");
        EXPECT_EQ(response.headers.at("retry-after"), "1");
        EXPECT_EQ(server.metrics().counter("server.shed"), 1u);

        ASSERT_TRUE(client.perform({.method = "DELETE",
                                    .target = target},
                                   &response, &error))
            << error;
        EXPECT_EQ(response.status, 200) << response.body;
        EXPECT_EQ(server.metrics().counter("server.shed"), 1u);
    }
    server.stop();
}

/** A server whose idle sweep closes connections after ~100 ms. */
class HttpClientReuseTest : public testing::Test
{
  protected:
    void
    SetUp() override
    {
        ServerConfig config;
        config.port = 0;
        config.threads = 2;
        config.idleTimeoutMs = 100;
        server_ = std::make_unique<BwwallServer>(config);
        server_->start();
    }

    void
    TearDown() override
    {
        server_->stop();
    }

    /**
     * Outwaits the idle sweep (timeout plus one 250 ms sweep
     * period): it writes an unsolicited 408 into every idle
     * connection and closes it.
     */
    static void
    outwaitIdleSweep()
    {
        std::this_thread::sleep_for(std::chrono::milliseconds(700));
    }

    std::unique_ptr<BwwallServer> server_;
};

TEST_F(HttpClientReuseTest, PlainClientOutlivesTheIdleSweep)
{
    HttpClient client("127.0.0.1", server_->port());
    HttpClientResponse response;
    std::string error;
    ASSERT_TRUE(client.perform({.target = "/healthz"}, &response, &error))
        << error;
    ASSERT_EQ(response.status, 200);

    // The sweep's 408 is no answer to the next request: the peek
    // before reuse finds it and the request goes out afresh.
    outwaitIdleSweep();
    ASSERT_TRUE(client.perform({.target = "/healthz"}, &response, &error))
        << error;
    EXPECT_EQ(response.status, 200) << response.body;
    EXPECT_EQ(client.staleDropped(), 1u);
    EXPECT_EQ(client.connects(), 2u);
}

TEST_F(HttpClientReuseTest, StreamedAppendOutlivesTheIdleSweep)
{
    HttpClient client("127.0.0.1", server_->port());
    HttpClientResponse response;
    std::string error;
    ASSERT_TRUE(client.perform({.method = "POST",
                                .target = "/v1/trace/ingest",
                                .body = "{\"format\":\"text\"}"},
                               &response, &error))
        << error;
    ASSERT_EQ(response.status, 200) << response.body;
    JsonValue created;
    ASSERT_TRUE(JsonValue::parse(response.body, &created, &error))
        << error;
    const std::string target =
        "/v1/trace/ingest/" + created.find("id")->asString();

    // A streamed body cannot be resent, so only the peek before
    // reuse keeps it off the swept connection.
    outwaitIdleSweep();
    const std::string records = "R 64\nW 128\n";
    HttpClient::Request append{.method = "POST", .target = target};
    append.bodyProvider = [&records, sent = false](
                              char *buffer, std::size_t cap) mutable {
        if (sent || cap < records.size())
            return std::size_t{0};
        sent = true;
        std::memcpy(buffer, records.data(), records.size());
        return records.size();
    };
    ASSERT_TRUE(client.perform(append, &response, &error)) << error;
    EXPECT_EQ(response.status, 200) << response.body;
    EXPECT_EQ(client.staleDropped(), 1u);
}

TEST(HttpClientTimeoutTest, ConnectTimeoutBoundsUnreachableHosts)
{
    // A loopback listener with a full accept queue drops every
    // further SYN, so a connect to it hangs -- the case the timeout
    // exists for -- without leaving the machine.  backlog 0 holds
    // one connection; the fillers are never accepted.
    const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(listener, 0);
    sockaddr_in address{};
    address.sin_family = AF_INET;
    address.sin_port = 0;
    ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &address.sin_addr),
              1);
    ASSERT_EQ(::bind(listener,
                     reinterpret_cast<const sockaddr *>(&address),
                     sizeof(address)),
              0);
    ASSERT_EQ(::listen(listener, 0), 0);
    socklen_t length = sizeof(address);
    ASSERT_EQ(::getsockname(listener,
                            reinterpret_cast<sockaddr *>(&address),
                            &length),
              0);
    std::vector<int> fillers;
    for (int i = 0; i < 4; ++i) {
        const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
        ASSERT_GE(fd, 0);
        ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
        ::connect(fd, reinterpret_cast<const sockaddr *>(&address),
                  sizeof(address));
        fillers.push_back(fd);
    }

    HttpClient client("127.0.0.1", ntohs(address.sin_port));
    client.setConnectTimeoutMs(150);
    HttpClientResponse response;
    std::string error;
    const auto start = std::chrono::steady_clock::now();
    EXPECT_FALSE(client.perform({.target = "/healthz"}, &response, &error));
    const double elapsed =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - start)
            .count();
    EXPECT_LT(elapsed, 5.0);
    EXPECT_FALSE(error.empty());
    for (const int fd : fillers)
        ::close(fd);
    ::close(listener);
}

/** One server on a single io shard, and a client, per test. */
class InlineHitTest : public testing::Test
{
  protected:
    void
    start(ServerConfig config)
    {
        config.port = 0;
        config.threads = 2;
        config.ioShards = 1;
        server_ = std::make_unique<BwwallServer>(config);
        server_->start();
        client_ = std::make_unique<HttpClient>("127.0.0.1",
                                               server_->port());
    }

    void
    TearDown() override
    {
        client_.reset();
        if (server_)
            server_->stop();
    }

    HttpClientResponse
    post(const std::string &path, const std::string &body,
         std::map<std::string, std::string> headers = {})
    {
        HttpClientResponse response;
        std::string error;
        EXPECT_TRUE(client_->perform({.method = "POST",
                                      .target = path,
                                      .headers = std::move(headers),
                                      .body = body},
                                     &response, &error))
            << error;
        return response;
    }

    std::uint64_t
    counter(const std::string &name)
    {
        return server_->metrics().counter(name);
    }

    std::unique_ptr<BwwallServer> server_;
    std::unique_ptr<HttpClient> client_;
};

const char kSolve[] = "{\"alpha\":0.5,\"total_ceas\":32}";

TEST_F(InlineHitTest, HitRaisesEachCounterByExactlyOne)
{
    start({});
    ASSERT_EQ(post("/v1/solve", kSolve).status, 200); // the miss
    EXPECT_EQ(counter("server.inline_hits"), 0u);
    const std::uint64_t hits = counter("cache.hits");
    const std::uint64_t endpoint =
        counter("server.endpoint./v1/solve.requests");
    const std::uint64_t requests = counter("server.requests");

    const HttpClientResponse hit = post("/v1/solve", kSolve);
    EXPECT_EQ(hit.status, 200);
    EXPECT_EQ(counter("server.inline_hits"), 1u);
    EXPECT_EQ(counter("cache.hits") - hits, 1u);
    EXPECT_EQ(counter("server.endpoint./v1/solve.requests") -
                  endpoint,
              1u);
    EXPECT_EQ(counter("server.requests") - requests, 1u);
    EXPECT_EQ(counter("cache.misses"), 1u);
}

TEST_F(InlineHitTest, TracedInlineHitRecordsItsFourSpans)
{
    ServerConfig config;
    config.trace = true; // standby: only opted-in requests record
    start(config);
    ASSERT_EQ(post("/v1/solve", kSolve).status, 200);
    ASSERT_TRUE(server_->traceRecorder()->collect().empty());

    ASSERT_EQ(post("/v1/solve", kSolve, {{"X-BWWall-Trace", "1"}})
                  .status,
              200);
    EXPECT_EQ(counter("server.inline_hits"), 1u);
    std::map<std::string, std::uint32_t> lanes;
    for (const TraceEvent &event :
         server_->traceRecorder()->collect()) {
        if (event.kind == TraceEvent::Kind::Span)
            lanes[event.name] = event.tid;
    }
    for (const char *name : {"server.request", "server.parse",
                             "server.cache", "server.serialize"}) {
        ASSERT_EQ(lanes.count(name), 1u) << name;
        // All on the shard thread that answered it.
        EXPECT_EQ(lanes[name], lanes["server.request"]) << name;
    }
    EXPECT_EQ(lanes.count("server.compute"), 0u);
    EXPECT_EQ(lanes.count("server.prepare"), 0u);
}

TEST_F(InlineHitTest, PressedSweepShedsEvenWhenCached)
{
    ServerConfig config;
    config.maxInflight = 1; // every sweep is past the expensive mark
    start(config);
    // The answer is already cached...
    const std::string sweep =
        "{\"kind\":\"scaling\",\"generations\":8}";
    JsonValue body;
    ASSERT_TRUE(JsonValue::parse(sweep, &body));
    server_->cache().getOrCompute(
        canonicalCacheKey("/v1/sweep", body),
        [&] { return executeModelQuery("/v1/sweep", body); });

    // ...but admission runs before the cache probe, so the pressed
    // sweep sheds instead of being answered as a hit.
    for (int i = 0; i < 2; ++i) {
        const HttpClientResponse response = post("/v1/sweep", sweep);
        EXPECT_EQ(response.status, 503) << "request " << i;
        EXPECT_EQ(response.headers.at("retry-after"), "1");
    }
    EXPECT_EQ(counter("server.inline_hits"), 0u);
    EXPECT_EQ(counter("server.shed"), 2u);
    EXPECT_EQ(counter("cache.hits"), 0u);
}

TEST_F(InlineHitTest, NoComputeRequestsAnswerWhileEveryComputeThreadIsBlocked)
{
    ServerConfig config;
    config.trace = true; // standby: opt-in only
    // Both parked requests and the probe itself are in flight, so
    // pressure is 3/4: past the expensive mark, and under the cap.
    config.maxInflight = 4;
    start(config);

    // Hold the compute of kSolve's key open, then park both compute
    // threads on it: each joins the single flight and waits.
    JsonValue body;
    ASSERT_TRUE(JsonValue::parse(kSolve, &body));
    const std::string key = canonicalCacheKey("/v1/solve", body);
    std::mutex mutex;
    std::condition_variable cv;
    bool release = false;
    std::thread owner([&] {
        server_->cache().getOrCompute(key, [&] {
            std::unique_lock<std::mutex> lock(mutex);
            cv.wait(lock, [&] { return release; });
            return executeModelQuery("/v1/solve", body);
        });
    });
    while (counter("cache.misses") == 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    const auto blocked = [&] {
        return std::async(std::launch::async, [&] {
            HttpClient client("127.0.0.1", server_->port());
            HttpClientResponse response;
            client.perform({.method = "POST",
                            .target = "/v1/solve",
                            .headers = {{"X-BWWall-Trace", "1"}},
                            .body = kSolve},
                           &response);
            return response.status;
        });
    };
    std::future<int> first = blocked();
    std::future<int> second = blocked();
    // Probes in a lambda, so that a failed assertion still releases
    // the held compute below and joins before the futures wait.
    const auto probe_while_blocked = [&] {
        // The shard records "server.prepare" for each just before it
        // queues it; the queue is FIFO, so both compute threads take
        // these two before anything queued later.
        const auto prepared = [&] {
            std::size_t spans = 0;
            for (const TraceEvent &event :
                 server_->traceRecorder()->collect())
                spans += std::strcmp(event.name, "server.prepare") == 0;
            return spans;
        };
        const auto give_up = std::chrono::steady_clock::now() +
                             std::chrono::seconds(10);
        while (prepared() < 2 && std::chrono::steady_clock::now() < give_up)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        ASSERT_EQ(prepared(), 2u);

        struct Probe
        {
            std::string method;
            std::string target;
            std::string body;
            int status;
            const char *endpoint;
        };
        const Probe probes[] = {
            {"GET", "/healthz", "", 200, "/healthz"},
            {"HEAD", "/healthz", "", 200, "/healthz"},
            {"GET", "/metrics", "", 200, "/metrics"},
            {"GET", "/metrics?format=json", "", 200, "/metrics"},
            {"GET", "/v1/cluster", "", 200, "/v1/cluster"},
            {"GET", "/no/such/path", "", 404, "unknown"},
            {"GET", "/v1/solve", "", 405, "/v1/solve"},
            {"POST", "/v1/solve", "{\"alpha\":", 400, "/v1/solve"},
            {"POST", "/v1/solve", "[1,2]", 400, "/v1/solve"},
            {"POST", "/v1/sweep", "{\"kind\":\"scaling\"}", 503,
             "/v1/sweep"},
        };
        client_->setReadTimeoutMs(5000);
        for (const Probe &probe : probes) {
            const std::string endpoint =
                std::string("server.endpoint.") + probe.endpoint +
                ".requests";
            const std::uint64_t requests = counter("server.requests");
            const std::uint64_t endpoint_requests = counter(endpoint);
            const auto sent = std::chrono::steady_clock::now();
            HttpClientResponse response;
            std::string error;
            ASSERT_TRUE(client_->perform({.method = probe.method,
                                          .target = probe.target,
                                          .body = probe.body},
                                         &response, &error))
                << probe.method << ' ' << probe.target << ": " << error;
            const double seconds =
                std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - sent)
                    .count();
            EXPECT_LT(seconds, 1.0) << probe.method << ' ' << probe.target;
            EXPECT_EQ(response.status, probe.status)
                << probe.method << ' ' << probe.target;
            EXPECT_EQ(counter("server.requests") - requests, 1u)
                << probe.method << ' ' << probe.target;
            EXPECT_EQ(counter(endpoint) - endpoint_requests, 1u)
                << probe.method << ' ' << probe.target;
            if (probe.method == "HEAD") {
                EXPECT_TRUE(response.body.empty());
            } else if (probe.target == "/healthz") {
                EXPECT_EQ(response.body, "{\"status\":\"ok\"}\n");
            } else if (probe.target == "/metrics?format=json") {
                JsonValue scrape;
                EXPECT_TRUE(JsonValue::parse(response.body, &scrape));
            } else if (probe.status == 503) {
                EXPECT_EQ(response.headers.count("retry-after"), 1u);
            }
        }
        EXPECT_EQ(counter("server.shed"), 1u);
        EXPECT_EQ(counter("server.inline_hits"), 0u);

        // Every answer came while both compute threads were still held.
        EXPECT_EQ(first.wait_for(std::chrono::seconds(0)),
                  std::future_status::timeout);
        EXPECT_EQ(second.wait_for(std::chrono::seconds(0)),
                  std::future_status::timeout);
    };
    probe_while_blocked();
    {
        std::lock_guard<std::mutex> lock(mutex);
        release = true;
    }
    cv.notify_all();
    owner.join();
    EXPECT_EQ(first.get(), 200);
    EXPECT_EQ(second.get(), 200);
}

/**
 * The io shard computing Cheap misses itself: the same one-shard,
 * two-compute-thread server, plus a held single flight that can park
 * both compute threads.
 */
class InlineComputeTest : public InlineHitTest
{
  protected:
    void
    TearDown() override
    {
        releaseFlight();
        InlineHitTest::TearDown();
    }

    /**
     * Holds the compute of @p path @p text's key open on a test
     * thread, the way a slow compute would, until releaseFlight().
     */
    void
    holdFlight(const std::string &path, const std::string &text)
    {
        ASSERT_TRUE(JsonValue::parse(text, &heldBody_));
        heldPath_ = path;
        const std::string key = canonicalCacheKey(path, heldBody_);
        const std::uint64_t misses = counter("cache.misses");
        holder_ = std::thread([this, key] {
            server_->cache().getOrCompute(key, [this] {
                std::unique_lock<std::mutex> lock(mutex_);
                cv_.wait(lock, [this] { return release_; });
                return executeModelQuery(heldPath_, heldBody_);
            });
        });
        while (counter("cache.misses") == misses)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }

    void
    releaseFlight()
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            release_ = true;
        }
        cv_.notify_all();
        if (holder_.joinable())
            holder_.join();
    }

    /**
     * POSTs @p text to @p path traced, on a connection of its own.
     * The fixture keeps a copy, so a failed assertion returns before
     * any wait: TearDown() releases the flight first.
     */
    std::shared_future<HttpClientResponse>
    postAsync(const std::string &path, const std::string &text)
    {
        const std::uint16_t port = server_->port();
        pending_.push_back(
            std::async(std::launch::async, [port, path, text] {
                HttpClient client("127.0.0.1", port);
                HttpClientResponse response;
                client.perform({.method = "POST",
                                .target = path,
                                .headers = {{"X-BWWall-Trace", "1"}},
                                .body = text},
                               &response);
                return response;
            }).share());
        return pending_.back();
    }

    /** Recorded spans named @p name. */
    std::size_t
    spans(const char *name)
    {
        std::size_t count = 0;
        for (const TraceEvent &event :
             server_->traceRecorder()->collect())
            count += event.kind == TraceEvent::Kind::Span &&
                     std::strcmp(event.name, name) == 0;
        return count;
    }

    /** Waits up to 10 s for @p count server.prepare spans. */
    bool
    awaitPrepared(std::size_t count)
    {
        const auto give_up = std::chrono::steady_clock::now() +
                             std::chrono::seconds(10);
        while (spans("server.prepare") < count &&
               std::chrono::steady_clock::now() < give_up)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        return spans("server.prepare") == count;
    }

    std::vector<std::shared_future<HttpClientResponse>> pending_;
    JsonValue heldBody_;
    std::string heldPath_;
    std::thread holder_;
    std::mutex mutex_;
    std::condition_variable cv_;
    bool release_ = false;
};

const char kTraffic[] = "{\"cores\":16,\"alpha\":0.5,\"total_ceas\":32}";

TEST_F(InlineComputeTest, MissAnswersWhileEveryComputeThreadIsParked)
{
    ServerConfig config;
    config.trace = true; // standby: opt-in only
    start(config);
    holdFlight("/v1/solve", kSolve);
    const auto first = postAsync("/v1/solve", kSolve);
    const auto second = postAsync("/v1/solve", kSolve);
    // Both joined the held flight on the pool: no compute thread is
    // free.
    ASSERT_TRUE(awaitPrepared(2));
    EXPECT_EQ(counter("server.inline_computes"), 0u);

    const std::uint64_t misses = counter("cache.misses");
    client_->setReadTimeoutMs(5000);
    const auto sent = std::chrono::steady_clock::now();
    const HttpClientResponse response =
        post("/v1/traffic", kTraffic, {{"X-BWWall-Trace", "1"}});
    EXPECT_LT(std::chrono::duration<double>(
                  std::chrono::steady_clock::now() - sent)
                  .count(),
              1.0);
    ASSERT_EQ(response.status, 200);
    JsonValue body;
    ASSERT_TRUE(JsonValue::parse(kTraffic, &body));
    const CachedResponse direct = executeModelQuery("/v1/traffic", body);
    EXPECT_EQ(response.body, direct.body);
    EXPECT_EQ(counter("cache.misses") - misses, 1u);
    EXPECT_EQ(counter("server.inline_computes"), 1u);
    // Computed on the shard, never prepared for the pool.
    EXPECT_EQ(spans("server.prepare"), 2u);
    EXPECT_EQ(spans("server.compute"), 1u);
    EXPECT_EQ(first.wait_for(std::chrono::seconds(0)),
              std::future_status::timeout);

    releaseFlight();
    EXPECT_EQ(first.get().status, 200);
    EXPECT_EQ(second.get().status, 200);
    EXPECT_EQ(counter("server.inline_computes"), 1u);
}

TEST_F(InlineComputeTest, MissOnAHeldFlightGoesToThePool)
{
    ServerConfig config;
    config.trace = true;
    start(config);
    holdFlight("/v1/solve", kSolve);
    const auto joined = postAsync("/v1/solve", kSolve);
    // The shard declined the held key, nothing counted, and sent it
    // on: it waits on the pool, not on the shard.
    ASSERT_TRUE(awaitPrepared(1));
    EXPECT_EQ(counter("server.inline_computes"), 0u);
    EXPECT_EQ(counter("cache.misses"), 1u);

    // The shard that sent it on still answers.
    client_->setReadTimeoutMs(5000);
    const auto sent = std::chrono::steady_clock::now();
    HttpClientResponse health;
    std::string error;
    ASSERT_TRUE(client_->perform({.target = "/healthz"}, &health, &error))
        << error;
    EXPECT_EQ(health.status, 200);
    EXPECT_LT(std::chrono::duration<double>(
                  std::chrono::steady_clock::now() - sent)
                  .count(),
              1.0);
    EXPECT_EQ(joined.wait_for(std::chrono::seconds(0)),
              std::future_status::timeout);

    releaseFlight();
    const HttpClientResponse response = joined.get();
    EXPECT_EQ(response.status, 200);
    EXPECT_EQ(response.body, executeModelQuery("/v1/solve", heldBody_).body);
    EXPECT_EQ(counter("cache.single_flight_joined"), 1u);
    EXPECT_EQ(counter("cache.misses"), 1u);
    EXPECT_EQ(counter("server.inline_computes"), 0u);
}

TEST_F(InlineComputeTest, RemoteOwnedMissPeerFillsOnThePool)
{
    ServerConfig config;
    config.trace = true;
    start(config);
    ServerConfig owner_config;
    owner_config.port = 0;
    owner_config.threads = 2;
    BwwallServer owner(owner_config);
    owner.start();
    ClusterConfig cluster;
    const std::string self = "127.0.0.1:" + std::to_string(server_->port());
    const std::string other = "127.0.0.1:" + std::to_string(owner.port());
    cluster.peers = {self, other};
    cluster.peerDeadlineMs = 5000;
    cluster.self = self;
    server_->configureCluster(cluster);
    cluster.self = other;
    owner.configureCluster(cluster);

    // A solve body whose key the other node owns.
    std::string text;
    for (int i = 0; i < 400 && text.empty(); ++i) {
        const std::string candidate =
            "{\"alpha\":0." + std::to_string(100 + i) + "}";
        JsonValue body;
        ASSERT_TRUE(JsonValue::parse(candidate, &body));
        if (server_->clusterSnapshot()->owner(
                canonicalCacheKey("/v1/solve", body)) == other)
            text = candidate;
    }
    ASSERT_FALSE(text.empty());

    const HttpClientResponse filled =
        post("/v1/solve", text, {{"X-BWWall-Trace", "1"}});
    ASSERT_EQ(filled.status, 200);
    EXPECT_EQ(filled.headers.count("x-bwwall-peer-filled"), 1u);
    EXPECT_EQ(counter("cluster.peer_fill.attempts"), 1u);
    EXPECT_EQ(counter("server.inline_computes"), 0u);
    EXPECT_EQ(spans("server.prepare"), 1u);
    EXPECT_EQ(spans("server.peer_fill"), 1u);
    // The owner computed the fill RPC on its own io shard.
    EXPECT_EQ(owner.metrics().counter("server.inline_computes"), 1u);
    EXPECT_EQ(owner.metrics().counter("cluster.requests.owned"), 1u);
    client_.reset();
    owner.stop();
}

} // namespace
} // namespace bwwall
