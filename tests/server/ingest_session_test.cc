/**
 * @file
 * The trace-ingestion endpoints: session lifecycle (404 unknown id,
 * 409 append-after-finalize, 413 byte budget, 503 session cap, TTL
 * expiry) at the manager level, and full HTTP round-trips — chunked
 * and Content-Length appends, live snapshots whose curve is
 * bit-identical to the one-shot estimator, and fault injection.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cache/miss_curve_estimator.hh"
#include "server/http_client.hh"
#include "server/ingest_session.hh"
#include "server/json.hh"
#include "server/model_service.hh"
#include "server/server.hh"
#include "trace/power_law_trace.hh"
#include "trace/trace_io.hh"
#include "util/fault.hh"
#include "util/metrics.hh"
#include "util/units.hh"

namespace bwwall {
namespace {

JsonValue
parsedBody(const std::string &body)
{
    JsonValue value;
    std::string error;
    EXPECT_TRUE(JsonValue::parse(body, &value, &error)) << error;
    return value;
}

std::string
textTrace(std::size_t records, std::uint64_t seed)
{
    PowerLawTraceParams params;
    params.alpha = 0.45;
    params.writeLineFraction = 0.3;
    params.seed = seed;
    params.warmLines = 1 << 10;
    params.maxResidentLines = 1 << 11;
    PowerLawTrace trace(params);
    std::string text;
    for (std::size_t i = 0; i < records; ++i) {
        const MemoryAccess access = trace.next();
        text += access.type == AccessType::Write ? 'W' : 'R';
        text += ' ';
        text += std::to_string(access.address);
        text += '\n';
    }
    return text;
}

// ---------------------------------------------------------------
// Manager-level lifecycle.

class IngestManagerTest : public testing::Test
{
  protected:
    IngestManagerTest()
        : manager_(config(), &metrics_)
    {
    }

    static IngestConfig
    config()
    {
        IngestConfig config;
        config.maxSessions = 2;
        config.maxSessionBytes = 256;
        config.ttlSeconds = 0.0; // tests control expiry explicitly
        return config;
    }

    /** create() with defaults; returns the session id. */
    std::string
    createSession(const std::string &body = "{}")
    {
        const HttpResponse response =
            manager_.create(parsedBody(body));
        EXPECT_EQ(200, response.status) << response.body;
        return parsedBody(response.body).find("id")->asString();
    }

    /** One whole append through the sink interface. */
    HttpResponse
    append(const std::string &id, const std::string &bytes,
           bool *ok = nullptr)
    {
        HttpResponse refusal;
        std::unique_ptr<HttpStreamSink> sink =
            manager_.openAppend(id, &refusal);
        if (sink == nullptr) {
            if (ok != nullptr)
                *ok = false;
            return refusal;
        }
        HttpResponse error;
        if (!sink->onData(bytes.data(), bytes.size(), &error)) {
            if (ok != nullptr)
                *ok = false;
            return error;
        }
        if (ok != nullptr)
            *ok = true;
        return sink->onComplete();
    }

    MetricsRegistry metrics_;
    IngestSessionManager manager_;
};

TEST_F(IngestManagerTest, UnknownSessionIs404)
{
    EXPECT_EQ(404, manager_.snapshot("nope", false).status);
    EXPECT_EQ(404, manager_.finalize("nope").status);
    HttpResponse refusal;
    EXPECT_EQ(nullptr, manager_.openAppend("nope", &refusal));
    EXPECT_EQ(404, refusal.status);
}

TEST_F(IngestManagerTest, AppendAfterFinalizeIs409)
{
    const std::string id = createSession();
    bool ok = false;
    EXPECT_EQ(200, append(id, "R 64\nW 128\n", &ok).status);
    EXPECT_TRUE(ok);

    const HttpResponse final_snapshot = manager_.finalize(id);
    EXPECT_EQ(200, final_snapshot.status);
    EXPECT_EQ("finalized", parsedBody(final_snapshot.body)
                               .find("state")
                               ->asString());

    const HttpResponse refused = append(id, "R 192\n", &ok);
    EXPECT_FALSE(ok);
    EXPECT_EQ(409, refused.status);
    // A second DELETE is also a conflict.
    EXPECT_EQ(409, manager_.finalize(id).status);
    // Snapshots still serve the finalized curve.
    EXPECT_EQ(200, manager_.snapshot(id, false).status);
}

TEST_F(IngestManagerTest, ByteBudgetIs413AndFailsTheSession)
{
    const std::string id = createSession();
    bool ok = false;
    const std::string oversized(512, 'R'); // budget is 256
    const HttpResponse refused = append(id, oversized, &ok);
    EXPECT_FALSE(ok);
    EXPECT_EQ(413, refused.status);

    // The failed session refuses further appends but stays
    // readable until swept.
    EXPECT_EQ(409, append(id, "R 64\n", &ok).status);
    const HttpResponse snapshot = manager_.snapshot(id, false);
    EXPECT_EQ(200, snapshot.status);
    EXPECT_EQ("failed",
              parsedBody(snapshot.body).find("state")->asString());
}

TEST_F(IngestManagerTest, SessionCapIs503)
{
    createSession();
    createSession();
    const HttpResponse full = manager_.create(parsedBody("{}"));
    EXPECT_EQ(503, full.status);
    EXPECT_EQ(1u, full.headers.count("Retry-After"));
}

TEST_F(IngestManagerTest, AbortedAppendFailsTheSession)
{
    const std::string id = createSession();
    {
        HttpResponse refusal;
        std::unique_ptr<HttpStreamSink> sink =
            manager_.openAppend(id, &refusal);
        ASSERT_NE(nullptr, sink);
        HttpResponse error;
        ASSERT_TRUE(sink->onData("R 64\n", 5, &error));
        // Destroyed without onComplete(): the peer vanished.
    }
    bool ok = false;
    EXPECT_EQ(409, append(id, "R 64\n", &ok).status);
    EXPECT_EQ(1u, metrics_.counter("ingest.aborts"));
}

TEST_F(IngestManagerTest, ConcurrentAppendIs409)
{
    const std::string id = createSession();
    HttpResponse refusal;
    std::unique_ptr<HttpStreamSink> first =
        manager_.openAppend(id, &refusal);
    ASSERT_NE(nullptr, first);
    EXPECT_EQ(nullptr, manager_.openAppend(id, &refusal));
    EXPECT_EQ(409, refusal.status);
}

TEST_F(IngestManagerTest, BadCreateConfigThrowsBadRequest)
{
    EXPECT_THROW(manager_.create(parsedBody("{\"bogus\":1}")),
                 BadRequest);
    EXPECT_THROW(
        manager_.create(parsedBody("{\"format\":\"yaml\"}")),
        BadRequest);
    EXPECT_THROW(
        manager_.create(parsedBody("{\"sample_rate\":2.0}")),
        BadRequest);
}

TEST_F(IngestManagerTest, DecodeErrorIs400AndFailsTheSession)
{
    const HttpResponse created = manager_.create(
        parsedBody("{\"format\":\"text\"}"));
    const std::string id =
        parsedBody(created.body).find("id")->asString();
    bool ok = false;
    const HttpResponse bad = append(id, "X 0x40\n", &ok);
    EXPECT_FALSE(ok);
    EXPECT_EQ(400, bad.status);
    EXPECT_EQ(409, append(id, "R 64\n", &ok).status);
}

TEST(IngestTtlTest, IdleSessionsExpire)
{
    MetricsRegistry metrics;
    IngestConfig config;
    config.ttlSeconds = 0.05;
    IngestSessionManager manager(config, &metrics);
    const HttpResponse created =
        manager.create(parsedBody("{}"));
    const std::string id =
        parsedBody(created.body).find("id")->asString();
    EXPECT_EQ(200, manager.snapshot(id, false).status);
    std::this_thread::sleep_for(
        std::chrono::milliseconds(120));
    EXPECT_EQ(404, manager.snapshot(id, false).status);
    EXPECT_EQ(0u, manager.activeSessions());
    EXPECT_EQ(1u,
              metrics.counter("ingest.sessions_expired"));
}

TEST(IngestSnapshotTest, DegradedSnapshotDropsResolution)
{
    MetricsRegistry metrics;
    IngestSessionManager manager(IngestConfig{}, &metrics);
    const HttpResponse created = manager.create(parsedBody(
        "{\"size_kib\":64,\"sample_rate\":1.0}"));
    const std::string id =
        parsedBody(created.body).find("id")->asString();
    HttpResponse refusal;
    std::unique_ptr<HttpStreamSink> sink =
        manager.openAppend(id, &refusal);
    ASSERT_NE(nullptr, sink);
    const std::string body = textTrace(20000, 5);
    HttpResponse error;
    ASSERT_TRUE(sink->onData(body.data(), body.size(), &error));
    sink->onComplete();
    sink.reset();

    const JsonValue full =
        parsedBody(manager.snapshot(id, false).body);
    const JsonValue degraded =
        parsedBody(manager.snapshot(id, true).body);
    const std::size_t full_points =
        full.find("points")->items().size();
    const std::size_t degraded_points =
        degraded.find("points")->items().size();
    EXPECT_LT(degraded_points, full_points);
    // The largest capacity survives degradation.
    EXPECT_EQ(full.find("points")
                  ->items()
                  .back()
                  .find("capacity_kib")
                  ->asNumber(),
              degraded.find("points")
                  ->items()
                  .back()
                  .find("capacity_kib")
                  ->asNumber());
    // Degraded snapshots skip the advisor solve.
    EXPECT_NE(nullptr, full.find("advisor"));
    EXPECT_EQ(nullptr, degraded.find("advisor"));
}

// ---------------------------------------------------------------
// Full HTTP round-trips.

class IngestHttpTest : public testing::Test
{
  protected:
    void
    SetUp() override
    {
        ServerConfig config;
        config.port = 0;
        config.threads = 2;
        config.maxSessionBytes = 1u << 20;
        config.maxIngestSessions = 4;
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
    perform(const HttpClient::Request &request)
    {
        HttpClientResponse response;
        std::string error;
        EXPECT_TRUE(client_->perform(request, &response, &error))
            << error;
        return response;
    }

    std::string
    createSession(const std::string &body)
    {
        HttpClientResponse response;
        std::string error;
        EXPECT_TRUE(client_->perform(
            {.method = "POST", .target = "/v1/trace/ingest", .body = body},
            &response, &error))
            << error;
        EXPECT_EQ(200, response.status) << response.body;
        return parsedBody(response.body).find("id")->asString();
    }

    std::unique_ptr<BwwallServer> server_;
    std::unique_ptr<HttpClient> client_;
};

TEST_F(IngestHttpTest, ChunkedAppendsMatchOneShotEstimator)
{
    const std::string id = createSession(
        "{\"size_kib\":64,\"sample_rate\":1.0,\"assoc\":0,"
        "\"format\":\"text\"}");

    // Stream the trace in three chunked appends.
    const std::string text = textTrace(30000, 21);
    const std::size_t third = text.size() / 3;
    std::vector<std::string> parts = {
        text.substr(0, third), text.substr(third, third),
        text.substr(2 * third)};
    // Split on record boundaries? No — arbitrary byte offsets:
    // the decoder must stitch half-lines across appends.
    for (const std::string &part : parts) {
        HttpClient::Request request;
        request.method = "POST";
        request.target = "/v1/trace/ingest/" + id;
        request.bodyProvider =
            [&part, offset = std::size_t{0}](
                char *buffer, std::size_t cap) mutable {
                const std::size_t step = std::min(
                    {cap, std::size_t{1024},
                     part.size() - offset});
                std::memcpy(buffer, part.data() + offset, step);
                offset += step;
                return step;
            };
        const HttpClientResponse response = perform(request);
        ASSERT_EQ(200, response.status) << response.body;
    }

    HttpClientResponse snapshot;
    std::string error;
    ASSERT_TRUE(client_->perform(
        {.target = "/v1/trace/ingest/" + id}, &snapshot, &error))
        << error;
    ASSERT_EQ(200, snapshot.status) << snapshot.body;
    const JsonValue live = parsedBody(snapshot.body);
    EXPECT_EQ(30000, live.find("records")->asNumber());

    // The over-the-wire curve must equal the one-shot estimator
    // over the same records.
    TraceFileData data;
    std::string decode_error;
    StreamingTraceDecoder decoder(
        StreamingTraceDecoder::Format::Text);
    ASSERT_TRUE(decoder
                    .feed(text.data(), text.size(),
                          &data.records)
                    .ok());
    MissCurveSpec spec;
    spec.cache.lineBytes = 64;
    spec.cache.associativity = 0;
    spec.capacities = capacityLadder(4 * kKiB, 64 * kKiB);
    spec.warmupAccesses = 0;
    spec.measuredAccesses = data.records.size();
    spec.kind = MissCurveEstimatorKind::SampledStackDistance;
    spec.sampleRate = 1.0;
    spec.seed = 1;
    FileTraceSource source(std::move(data), "memory", false);
    const MissCurve expected = estimateMissCurve(source, spec);

    const JsonValue *points = live.find("points");
    ASSERT_EQ(expected.points.size(),
              points->items().size());
    for (std::size_t i = 0; i < expected.points.size(); ++i) {
        const JsonValue &row = points->items()[i];
        EXPECT_EQ(expected.points[i].missRate,
                  row.find("miss_rate")->asNumber());
        EXPECT_EQ(expected.points[i].writebackRatio,
                  row.find("writeback_ratio")->asNumber());
        EXPECT_EQ(expected.points[i].trafficBytesPerAccess,
                  row.find("traffic_bytes_per_access")
                      ->asNumber());
    }
}

TEST_F(IngestHttpTest, ContentLengthAppendAlsoStreams)
{
    const std::string id =
        createSession("{\"format\":\"text\"}");
    HttpClientResponse response;
    std::string error;
    // A plain Content-Length POST to the streaming route goes
    // through the same sink path.
    ASSERT_TRUE(client_->perform(
        {.method = "POST", .target = "/v1/trace/ingest/" + id,
         .body = "R 64\nW 128\n"},
        &response, &error))
        << error;
    ASSERT_EQ(200, response.status) << response.body;
    EXPECT_EQ(2, parsedBody(response.body)
                     .find("records")
                     ->asNumber());
}

TEST(IngestShardTest, TwoShardsAppendWhileSweepingExpiry)
{
    // Two connections land on two io shards.  Every append sweeps
    // for expired sessions, reading the other session's last-use
    // stamp while that session's own append writes it — the pair
    // the TSan job checks.
    ServerConfig config;
    config.port = 0;
    config.threads = 2;
    config.ioShards = 2;
    config.ingestTtlSeconds = 60.0;
    BwwallServer server(config);
    server.start();

    constexpr int kAppends = 150;
    std::atomic<int> failures{0};
    std::vector<std::thread> writers;
    for (int w = 0; w < 2; ++w) {
        writers.emplace_back([&] {
            HttpClient client("127.0.0.1", server.port());
            client.setReadTimeoutMs(10000);
            HttpClientResponse response;
            std::string error;
            if (!client.perform(
                {.method = "POST", .target = "/v1/trace/ingest",
                 .body = "{\"format\":\"text\"}"},
                &response, &error) ||
                response.status != 200) {
                failures.fetch_add(1);
                return;
            }
            const std::string path =
                "/v1/trace/ingest/" +
                parsedBody(response.body).find("id")->asString();
            for (int i = 0; i < kAppends; ++i) {
                if (!client.perform(
                    {.method = "POST", .target = path,
                     .body = "R 64\nW 128\n"},
                    &response, &error) ||
                    response.status != 200)
                    failures.fetch_add(1);
            }
        });
    }
    for (std::thread &writer : writers)
        writer.join();
    EXPECT_EQ(failures.load(), 0);
    EXPECT_EQ(server.metrics().counter("ingest.appends"),
              2u * kAppends);
    EXPECT_EQ(server.metrics().counter("ingest.sessions_expired"),
              0u);
    server.stop();
}

TEST_F(IngestHttpTest, LifecycleErrorsOverTheWire)
{
    HttpClientResponse response;
    std::string error;
    // 404 unknown session.
    ASSERT_TRUE(client_->perform(
        {.target = "/v1/trace/ingest/ingest-999"}, &response, &error));
    EXPECT_EQ(404, response.status);

    // 409 append after finalize (fresh connections: refusals
    // close the connection).
    const std::string id =
        createSession("{\"format\":\"text\"}");
    ASSERT_TRUE(client_->perform(
        {.method = "DELETE", .target = "/v1/trace/ingest/" + id},
        &response, &error));
    EXPECT_EQ(200, response.status);
    ASSERT_TRUE(client_->perform(
        {.method = "POST", .target = "/v1/trace/ingest/" + id,
         .body = "R 64\n"},
        &response, &error))
        << error;
    EXPECT_EQ(409, response.status);

    // 405 wrong method on the create route.
    ASSERT_TRUE(client_->perform(
        {.method = "DELETE", .target = "/v1/trace/ingest"},
        &response, &error));
    EXPECT_EQ(405, response.status);

    // 400 malformed create body.
    ASSERT_TRUE(client_->perform(
        {.method = "POST", .target = "/v1/trace/ingest", .body = "{nope"},
        &response, &error));
    EXPECT_EQ(400, response.status);
}

TEST_F(IngestHttpTest, AppendFaultIs500AndFailsTheSession)
{
    const std::string id =
        createSession("{\"format\":\"text\"}");
    ScopedFaultInjection faults("seed=3;ingest.append=nth:1");
    HttpClientResponse response;
    std::string error;
    ASSERT_TRUE(client_->perform(
        {.method = "POST", .target = "/v1/trace/ingest/" + id,
         .body = "R 64\n"},
        &response, &error))
        << error;
    EXPECT_EQ(500, response.status);
    ASSERT_TRUE(client_->perform(
        {.method = "POST", .target = "/v1/trace/ingest/" + id,
         .body = "R 64\n"},
        &response, &error))
        << error;
    EXPECT_EQ(409, response.status);
}

} // namespace
} // namespace bwwall
