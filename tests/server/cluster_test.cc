/**
 * @file
 * Cluster-mode tests: peer-list parsing, Cluster validation, the
 * /v1/cluster endpoint, and the peer-fill protocol over the wire —
 * fills hit the owner's cache, a forwarded request is never
 * re-forwarded (the loop-prevention rule), and a dead owner
 * degrades to a local compute, never an error (docs/CLUSTER.md).
 */

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "server/cluster.hh"
#include "server/http_client.hh"
#include "server/json.hh"
#include "server/model_service.hh"
#include "server/server.hh"
#include "util/metrics.hh"

namespace bwwall {
namespace {

TEST(PeerList, ParsesHostPortLists)
{
    std::vector<std::string> peers;
    std::string error;
    ASSERT_TRUE(parsePeerList(
        "127.0.0.1:8081,127.0.0.1:8082,10.0.0.1:80", &peers,
        &error))
        << error;
    ASSERT_EQ(peers.size(), 3u);
    EXPECT_EQ(peers[0], "127.0.0.1:8081");
    EXPECT_EQ(peers[2], "10.0.0.1:80");
}

TEST(PeerList, RejectsBadEntries)
{
    std::vector<std::string> peers;
    std::string error;
    EXPECT_FALSE(parsePeerList("127.0.0.1", &peers, &error));
    EXPECT_FALSE(parsePeerList("host:", &peers, &error));
    EXPECT_FALSE(parsePeerList(":8081", &peers, &error));
    EXPECT_FALSE(parsePeerList("host:0", &peers, &error));
    EXPECT_FALSE(parsePeerList("host:70000", &peers, &error));
    EXPECT_FALSE(parsePeerList("host:80,,host:81", &peers,
                               &error));
    EXPECT_FALSE(parsePeerList("host:80,host:80", &peers,
                               &error));
    EXPECT_NE(error.find("duplicate"), std::string::npos);
}

TEST(PeerList, EmptyListIsSingleNode)
{
    std::vector<std::string> peers = {"leftover"};
    std::string error;
    ASSERT_TRUE(parsePeerList("", &peers, &error));
    EXPECT_TRUE(peers.empty());
}

TEST(Cluster, ValidatesMembership)
{
    ClusterConfig config;
    config.peers = {"127.0.0.1:8081", "127.0.0.1:8082"};
    config.self = "127.0.0.1:9999";
    EXPECT_THROW(Cluster(config, nullptr), BadRequest);
    config.self = "127.0.0.1:8081";
    EXPECT_NO_THROW(Cluster(config, nullptr));
    config.peers.clear();
    EXPECT_THROW(Cluster(config, nullptr), BadRequest);
}

TEST(Cluster, RouterHasNoSelfAndOwnsNothing)
{
    ClusterConfig config;
    config.peers = {"127.0.0.1:8081", "127.0.0.1:8082"};
    Cluster cluster(config, nullptr);
    EXPECT_FALSE(cluster.enabled());
    EXPECT_FALSE(cluster.selfOwns("any-key"));
    // It still computes the same owner the members do.
    config.self = "127.0.0.1:8081";
    Cluster member(config, nullptr);
    EXPECT_EQ(cluster.owner("any-key"), member.owner("any-key"));
}

TEST(Cluster, StatusJsonShape)
{
    ClusterConfig config;
    config.peers = {"127.0.0.1:8082", "127.0.0.1:8081"};
    config.self = "127.0.0.1:8081";
    Cluster cluster(config, nullptr);
    const JsonValue payload = cluster.statusJson();
    ASSERT_TRUE(payload.isObject());
    EXPECT_EQ(payload.find("kind")->asString(), "cluster");
    EXPECT_TRUE(payload.find("enabled")->asBool());
    // Membership is canonicalized: sorted regardless of input.
    const JsonValue &nodes = *payload.find("nodes");
    ASSERT_EQ(nodes.items().size(), 2u);
    EXPECT_EQ(nodes.items()[0].asString(), "127.0.0.1:8081");
    EXPECT_EQ(payload.find("seed")->asString(),
              "0x4257574c434c5354");
}

TEST(Cluster, PeerHealthOpensAfterThresholdAndGatesFills)
{
    MetricsRegistry metrics;
    ClusterConfig config;
    config.peers = {"127.0.0.1:8081", "127.0.0.1:8082"};
    config.self = "127.0.0.1:8081";
    config.peerFailureThreshold = 3;
    Cluster cluster(config, &metrics);
    const std::string peer = "127.0.0.1:8082";

    EXPECT_TRUE(cluster.peerAvailable(peer));
    cluster.notePeerFailure(peer);
    cluster.notePeerFailure(peer);
    EXPECT_TRUE(cluster.peerAvailable(peer));
    cluster.notePeerFailure(peer);
    EXPECT_EQ(cluster.peerState(peer), BreakerState::Open);
    EXPECT_FALSE(cluster.peerAvailable(peer));
    EXPECT_EQ(metrics.counter("cluster.health.ejections"), 1u);
    EXPECT_EQ(metrics.gauge("cluster.health.peers_down"), 1.0);

    // An out-of-band success (a probe, a router forward) closes
    // the breaker and reinstates the peer immediately.
    cluster.notePeerSuccess(peer);
    EXPECT_EQ(cluster.peerState(peer), BreakerState::Closed);
    EXPECT_TRUE(cluster.peerAvailable(peer));
    EXPECT_EQ(metrics.counter("cluster.health.reinstatements"),
              1u);
    EXPECT_EQ(metrics.gauge("cluster.health.peers_down"), 0.0);
}

TEST(Cluster, StatusJsonReportsPeerHealth)
{
    MetricsRegistry metrics;
    ClusterConfig config;
    config.peers = {"127.0.0.1:8081", "127.0.0.1:8082"};
    config.self = "127.0.0.1:8081";
    config.peerFailureThreshold = 1;
    Cluster cluster(config, &metrics);
    cluster.notePeerFailure("127.0.0.1:8082");

    const JsonValue payload = cluster.statusJson();
    const JsonValue *health = payload.find("health");
    ASSERT_NE(health, nullptr);
    const JsonValue *peer = health->find("127.0.0.1:8082");
    ASSERT_NE(peer, nullptr);
    EXPECT_EQ(peer->find("state")->asString(), "open");
    EXPECT_EQ(peer->find("consecutive_failures")->asNumber(),
              1.0);
    // Self is not a peer of itself.
    EXPECT_EQ(health->find("127.0.0.1:8081"), nullptr);
    EXPECT_EQ(payload.find("peer_probe_interval_ms")->asNumber(),
              0.0);
}

/**
 * Two real servers formed into a cluster after start() (ephemeral
 * ports are only known then), plus a reference single node.
 */
class ClusterWireTest : public testing::Test
{
  protected:
    void
    SetUp() override
    {
        ServerConfig config;
        config.port = 0;
        config.threads = 2;
        config.idleTimeoutMs = idleTimeoutMs_;
        a_ = std::make_unique<BwwallServer>(config);
        b_ = std::make_unique<BwwallServer>(config);
        single_ = std::make_unique<BwwallServer>(config);
        a_->start();
        b_->start();
        single_->start();
        selfA_ = "127.0.0.1:" + std::to_string(a_->port());
        selfB_ = "127.0.0.1:" + std::to_string(b_->port());
        ClusterConfig cluster;
        cluster.peers = {selfA_, selfB_};
        cluster.peerDeadlineMs = 5000;
        cluster.connectTimeoutMs = 200;
        cluster.self = selfA_;
        a_->configureCluster(cluster);
        cluster.self = selfB_;
        b_->configureCluster(cluster);
        clientA_ = std::make_unique<HttpClient>("127.0.0.1",
                                                a_->port());
    }

    void
    TearDown() override
    {
        clientA_.reset();
        if (a_)
            a_->stop();
        if (b_)
            b_->stop();
        if (single_)
            single_->stop();
    }

    /** A solve body whose canonical key the given node owns. */
    std::string
    bodyOwnedBy(const BwwallServer &node, const std::string &self)
    {
        return bodiesOwnedBy(node, self, 1).front();
    }

    /** @p count distinct solve bodies the given node owns. */
    std::vector<std::string>
    bodiesOwnedBy(const BwwallServer &node, const std::string &self,
                  std::size_t count)
    {
        const auto cluster = node.clusterSnapshot();
        std::vector<std::string> bodies;
        for (int i = 0; i < 400 && bodies.size() < count; ++i) {
            const std::string text =
                "{\"alpha\":0." + std::to_string(100 + i) + "}";
            JsonValue body;
            std::string error;
            EXPECT_TRUE(JsonValue::parse(text, &body, &error));
            const std::string key =
                canonicalCacheKey("/v1/solve", body);
            if (cluster->owner(key) == self)
                bodies.push_back(text);
        }
        if (bodies.size() < count) {
            ADD_FAILURE() << "too few keys owned by " << self;
            bodies.resize(count, "{}");
        }
        return bodies;
    }

    HttpClientResponse
    postA(const std::string &body,
          std::map<std::string, std::string> headers = {})
    {
        HttpClientResponse response;
        std::string error;
        EXPECT_TRUE(clientA_->perform({.method = "POST",
                                       .target = "/v1/solve",
                                       .headers = std::move(headers),
                                       .body = body},
                                      &response, &error))
            << error;
        return response;
    }

    /** The nodes' --idle-timeout-ms (the daemon's default). */
    unsigned idleTimeoutMs_ = 5000;
    std::unique_ptr<BwwallServer> a_;
    std::unique_ptr<BwwallServer> b_;
    std::unique_ptr<BwwallServer> single_;
    std::string selfA_;
    std::string selfB_;
    std::unique_ptr<HttpClient> clientA_;
};

TEST_F(ClusterWireTest, PeerFillIsByteIdenticalAndCounted)
{
    const std::string body = bodyOwnedBy(*a_, selfB_);
    const HttpClientResponse filled = postA(body);
    ASSERT_EQ(filled.status, 200);
    EXPECT_EQ(filled.headers.count("x-bwwall-peer-filled"), 1u);
    EXPECT_EQ(a_->metrics().counter("cluster.peer_fill.hits"),
              1u);
    EXPECT_EQ(
        b_->metrics().counter("cluster.peer_fill.received"),
        1u);
    // The owner computed it; the filler did not.
    EXPECT_EQ(a_->metrics().counter(
                  "cluster.local_fallback_computes"),
              0u);

    // Byte identity: the filled answer equals a single-node solve.
    HttpClient single("127.0.0.1", single_->port());
    HttpClientResponse direct;
    std::string error;
    ASSERT_TRUE(
        single.perform(
            {.method = "POST", .target = "/v1/solve", .body = body},
            &direct, &error))
        << error;
    EXPECT_EQ(filled.body, direct.body);

    // The fill landed in A's cache: a repeat is a local hit, no
    // second RPC.
    postA(body);
    EXPECT_EQ(
        a_->metrics().counter("cluster.peer_fill.attempts"),
        1u);
}

TEST_F(ClusterWireTest, FillAnsweredFromTheOwnersCacheIsCounted)
{
    // The owner already holds the key, so its io shard answers the
    // fill RPC as a cache hit; the fill still counts as received.
    const std::string body = bodyOwnedBy(*a_, selfB_);
    HttpClient clientB("127.0.0.1", b_->port());
    HttpClientResponse owned;
    std::string error;
    ASSERT_TRUE(clientB.perform(
        {.method = "POST", .target = "/v1/solve", .body = body},
        &owned, &error))
        << error;
    ASSERT_EQ(owned.status, 200);

    const HttpClientResponse filled = postA(body);
    ASSERT_EQ(filled.status, 200);
    EXPECT_EQ(filled.headers.count("x-bwwall-peer-filled"), 1u);
    EXPECT_EQ(filled.body, owned.body);
    EXPECT_EQ(b_->metrics().counter("server.inline_hits"), 1u);
    EXPECT_EQ(
        b_->metrics().counter("cluster.peer_fill.received"),
        1u);
}

TEST_F(ClusterWireTest, OwnedKeysNeverFill)
{
    const std::string body = bodyOwnedBy(*a_, selfA_);
    const HttpClientResponse response = postA(body);
    ASSERT_EQ(response.status, 200);
    EXPECT_EQ(response.headers.count("x-bwwall-peer-filled"),
              0u);
    EXPECT_EQ(
        a_->metrics().counter("cluster.peer_fill.attempts"),
        0u);
    EXPECT_EQ(a_->metrics().counter("cluster.requests.owned"),
              1u);
}

TEST_F(ClusterWireTest, ForwardedRequestIsNeverReForwarded)
{
    // Send A a request it does NOT own, marked as already
    // forwarded: the loop-prevention rule says A answers locally
    // and must not fill from B, even though B owns the key.
    const std::string body = bodyOwnedBy(*a_, selfB_);
    const HttpClientResponse response =
        postA(body, {{kPeerFillHeader, "1"}});
    ASSERT_EQ(response.status, 200);
    EXPECT_EQ(response.headers.count("x-bwwall-peer-filled"),
              0u);
    EXPECT_EQ(
        a_->metrics().counter("cluster.peer_fill.attempts"),
        0u);
    EXPECT_EQ(
        a_->metrics().counter("cluster.peer_fill.received"),
        1u);
    EXPECT_EQ(
        b_->metrics().counter("cluster.peer_fill.received"),
        0u);
}

TEST_F(ClusterWireTest, DeadOwnerFallsBackToLocalCompute)
{
    const std::string body = bodyOwnedBy(*a_, selfB_);
    // Tighten the fill budget so the test stays fast, then kill
    // the owner: the fill errors and A absorbs the keyspace.
    ClusterConfig cluster;
    cluster.peers = {selfA_, selfB_};
    cluster.self = selfA_;
    cluster.peerDeadlineMs = 300;
    cluster.peerAttempts = 1;
    cluster.connectTimeoutMs = 100;
    a_->configureCluster(cluster);
    b_->stop();
    b_.reset();

    const HttpClientResponse response = postA(body);
    ASSERT_EQ(response.status, 200);
    EXPECT_EQ(response.headers.count("x-bwwall-peer-filled"),
              0u);
    // A dead owner answers ECONNREFUSED, which classifies apart
    // from slow/transport errors and is never retried.
    EXPECT_EQ(
        a_->metrics().counter("cluster.peer_fill.refused"), 1u);
    EXPECT_EQ(
        a_->metrics().counter("cluster.peer_fill.errors"), 0u);
    EXPECT_EQ(a_->metrics().counter(
                  "cluster.local_fallback_computes"),
              1u);

    // Byte identity survives the failure path.
    HttpClient single("127.0.0.1", single_->port());
    HttpClientResponse direct;
    std::string error;
    ASSERT_TRUE(
        single.perform(
            {.method = "POST", .target = "/v1/solve", .body = body},
            &direct, &error))
        << error;
    EXPECT_EQ(response.body, direct.body);
}

TEST_F(ClusterWireTest, RepeatedRefusalsEjectThePeer)
{
    // Distinct bodies B owns, so every request is a fresh fill.
    const std::vector<std::string> bodies =
        bodiesOwnedBy(*a_, selfB_, 5);

    ClusterConfig cluster;
    cluster.peers = {selfA_, selfB_};
    cluster.self = selfA_;
    cluster.peerDeadlineMs = 300;
    cluster.peerAttempts = 1;
    cluster.connectTimeoutMs = 100;
    cluster.peerFailureThreshold = 3;
    a_->configureCluster(cluster);
    b_->stop();
    b_.reset();

    for (const std::string &body : bodies)
        ASSERT_EQ(postA(body).status, 200);
    // Three refused fills open B's breaker; the remaining two are
    // skipped instantly without even attempting a connect.
    EXPECT_EQ(
        a_->metrics().counter("cluster.peer_fill.refused"), 3u);
    EXPECT_EQ(
        a_->metrics().counter("cluster.peer_fill.peer_down"),
        2u);
    EXPECT_EQ(a_->metrics().counter("cluster.health.ejections"),
              1u);
    EXPECT_EQ(a_->clusterSnapshot()->peerState(selfB_),
              BreakerState::Open);
    EXPECT_EQ(a_->metrics().counter(
                  "cluster.local_fallback_computes"),
              5u);
}

TEST_F(ClusterWireTest, ProberEjectsDeadPeerAndReinstates)
{
    ClusterConfig cluster;
    cluster.peers = {selfA_, selfB_};
    cluster.self = selfA_;
    cluster.peerDeadlineMs = 300;
    cluster.connectTimeoutMs = 100;
    cluster.probeIntervalMs = 50;
    cluster.probeTimeoutMs = 100;
    a_->configureCluster(cluster);

    const auto wait_for_state = [&](BreakerState want) {
        for (int i = 0; i < 100; ++i) {
            if (a_->clusterSnapshot()->peerState(selfB_) == want)
                return true;
            std::this_thread::sleep_for(
                std::chrono::milliseconds(20));
        }
        return false;
    };

    // Healthy peer: probes keep it closed.
    ASSERT_TRUE(wait_for_state(BreakerState::Closed));

    const std::uint16_t port_b = b_->port();
    b_->stop();
    b_.reset();
    // Ejection lands within roughly one probe interval.
    ASSERT_TRUE(wait_for_state(BreakerState::Open));
    EXPECT_GE(a_->metrics().counter("cluster.health.ejections"),
              1u);

    // A fill while B is down is skipped, not attempted.
    const std::string body = bodyOwnedBy(*a_, selfB_);
    ASSERT_EQ(postA(body).status, 200);
    EXPECT_GE(
        a_->metrics().counter("cluster.peer_fill.peer_down"),
        1u);

    // Restart B on its old port: the next probe reinstates it.
    ServerConfig config;
    config.port = port_b;
    config.threads = 2;
    b_ = std::make_unique<BwwallServer>(config);
    b_->start();
    ASSERT_TRUE(wait_for_state(BreakerState::Closed));
    EXPECT_GE(
        a_->metrics().counter("cluster.health.reinstatements"),
        1u);
}

TEST_F(ClusterWireTest, FillsReuseOneUpstreamConnection)
{
    const std::vector<std::string> bodies =
        bodiesOwnedBy(*a_, selfB_, 5);
    for (const std::string &body : bodies)
        ASSERT_EQ(postA(body).status, 200);
    EXPECT_EQ(a_->metrics().counter("cluster.peer_fill.hits"),
              5u);
    // Five fills, one pooled keep-alive connection: one connect on
    // A's side, one accept on B's.
    EXPECT_EQ(a_->metrics().counter("cluster.upstream.connects"),
              1u);
    EXPECT_EQ(b_->metrics().counter("server.connections"), 1u);
    EXPECT_EQ(
        a_->metrics().counter("cluster.upstream.stale_dropped"),
        0u);
}

TEST_F(ClusterWireTest, EjectionClosesIdleUpstreamConnections)
{
    const std::vector<std::string> bodies =
        bodiesOwnedBy(*a_, selfB_, 2);
    ASSERT_EQ(postA(bodies[0]).status, 200);
    ASSERT_EQ(a_->metrics().counter("cluster.upstream.connects"),
              1u);

    // Eject B (three failures at the default threshold), then
    // reinstate it: the pooled connection must not survive the
    // ejection, so the next fill connects afresh.
    const auto cluster = a_->clusterSnapshot();
    for (int i = 0; i < 3; ++i)
        cluster->notePeerFailure(selfB_);
    ASSERT_EQ(cluster->peerState(selfB_), BreakerState::Open);
    cluster->notePeerSuccess(selfB_);
    ASSERT_EQ(postA(bodies[1]).status, 200);
    EXPECT_EQ(a_->metrics().counter("cluster.peer_fill.hits"),
              2u);
    EXPECT_EQ(a_->metrics().counter("cluster.upstream.connects"),
              2u);
}

TEST_F(ClusterWireTest, RouterStyleExchangesShareOneConnection)
{
    // A router's Cluster: no self, the same pool and exchange.
    MetricsRegistry metrics;
    ClusterConfig config;
    config.peers = {selfA_, selfB_};
    Cluster router(config, &metrics);
    HttpClient::Request request;
    request.method = "POST";
    request.target = "/v1/solve";
    request.deadlineMs = 5000.0;
    for (const std::string &body : bodiesOwnedBy(*a_, selfB_, 4)) {
        request.body = body;
        HttpClientResponse response;
        std::string error;
        ASSERT_TRUE(router.exchange(selfB_, request, &response, &error))
            << error;
        EXPECT_EQ(response.status, 200);
    }
    EXPECT_EQ(metrics.counter("cluster.upstream.connects"), 1u);
    EXPECT_EQ(b_->metrics().counter("server.connections"), 1u);
}

/**
 * A scripted upstream on an ephemeral port: its first connection
 * answers one request, then answers the next with the 408 and
 * close of an idle sweep that fired as that request arrived; its
 * second connection answers normally.
 */
class SweptUpstream
{
  public:
    SweptUpstream()
    {
        listenFd_ = socket(AF_INET, SOCK_STREAM, 0);
        sockaddr_in address{};
        address.sin_family = AF_INET;
        address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        bind(listenFd_, reinterpret_cast<sockaddr *>(&address),
             sizeof(address));
        listen(listenFd_, 4);
        socklen_t length = sizeof(address);
        getsockname(listenFd_, reinterpret_cast<sockaddr *>(&address),
                    &length);
        peer_ = "127.0.0.1:" + std::to_string(ntohs(address.sin_port));
        thread_ = std::thread([this] { serve(); });
    }

    ~SweptUpstream()
    {
        // Unblocks an accept the exchanges never satisfied.
        shutdown(listenFd_, SHUT_RDWR);
        thread_.join();
        close(listenFd_);
    }

    SweptUpstream(const SweptUpstream &) = delete;
    SweptUpstream &operator=(const SweptUpstream &) = delete;

    const std::string &peer() const { return peer_; }

  private:
    /** Reads one request with a Content-Length body; false on EOF. */
    static bool
    readRequest(int fd)
    {
        std::string data;
        char chunk[4096];
        std::size_t header_end = std::string::npos;
        std::size_t want = 0;
        for (;;) {
            if (header_end == std::string::npos) {
                header_end = data.find("\r\n\r\n");
                if (header_end != std::string::npos) {
                    const std::size_t at =
                        data.find("Content-Length: ");
                    want = header_end + 4 +
                           (at == std::string::npos
                                ? 0
                                : std::stoul(data.substr(at + 16)));
                }
            }
            if (header_end != std::string::npos && data.size() >= want)
                return true;
            const ssize_t n = recv(fd, chunk, sizeof(chunk), 0);
            if (n <= 0)
                return false;
            data.append(chunk, static_cast<std::size_t>(n));
        }
    }

    static void
    answer(int fd, const std::string &status, bool close_after)
    {
        const std::string body = "{}\n";
        const std::string wire =
            "HTTP/1.1 " + status + "\r\nContent-Length: " +
            std::to_string(body.size()) + "\r\n" +
            (close_after ? "Connection: close\r\n" : "") + "\r\n" +
            body;
        send(fd, wire.data(), wire.size(), MSG_NOSIGNAL);
    }

    void
    serve()
    {
        const int first = accept(listenFd_, nullptr, nullptr);
        if (readRequest(first))
            answer(first, "200 OK", false);
        if (readRequest(first))
            answer(first, "408 Request Timeout", true);
        close(first);
        const int second = accept(listenFd_, nullptr, nullptr);
        if (readRequest(second))
            answer(second, "200 OK", false);
        close(second);
    }

    int listenFd_ = -1;
    std::string peer_;
    std::thread thread_;
};

TEST(UpstreamPool, SweepRacingAReusedConnectionIsResentOnce)
{
    SweptUpstream upstream;
    MetricsRegistry metrics;
    ClusterConfig config;
    config.peers = {upstream.peer()};
    Cluster cluster(config, &metrics);
    HttpClient::Request request;
    request.method = "POST";
    request.target = "/v1/solve";
    request.body = "{}";
    request.deadlineMs = 5000.0;
    for (int i = 0; i < 2; ++i) {
        HttpClientResponse response;
        std::string error;
        ASSERT_TRUE(
            cluster.exchange(upstream.peer(), request, &response, &error))
            << error;
        // The second exchange met the sweep's 408 on the reused
        // connection and was answered on a fresh one.
        EXPECT_EQ(response.status, 200) << "exchange " << i;
    }
    EXPECT_EQ(metrics.counter("cluster.upstream.stale_dropped"), 1u);
    EXPECT_EQ(metrics.counter("cluster.upstream.connects"), 2u);
}

/** The cluster with nodes that sweep idle connections at ~100 ms. */
class ClusterIdleSweepTest : public ClusterWireTest
{
  protected:
    void
    SetUp() override
    {
        idleTimeoutMs_ = 100;
        ClusterWireTest::SetUp();
    }
};

TEST_F(ClusterIdleSweepTest, FillAfterTheOwnersIdleSweepStillHits)
{
    const std::vector<std::string> bodies =
        bodiesOwnedBy(*a_, selfB_, 2);
    ASSERT_EQ(postA(bodies[0]).status, 200);
    ASSERT_EQ(a_->metrics().counter("cluster.peer_fill.hits"),
              1u);

    // Outwait B's idle sweep (timeout plus one 250 ms sweep
    // period): it writes an unsolicited 408 into A's pooled
    // connection and closes it.  A's own sweep does the same to the
    // test's connection to A, which the client's reuse rule drops.
    std::this_thread::sleep_for(std::chrono::milliseconds(700));
    const HttpClientResponse response = postA(bodies[1]);
    ASSERT_EQ(response.status, 200);
    EXPECT_EQ(response.headers.count("x-bwwall-peer-filled"), 1u);

    // The stale connection was dropped before reuse, so the fill
    // hit instead of adopting the sweep's 408.
    EXPECT_EQ(a_->metrics().counter("cluster.peer_fill.hits"),
              2u);
    EXPECT_EQ(
        a_->metrics().counter("cluster.peer_fill.rejected"), 0u);
    EXPECT_EQ(a_->metrics().counter(
                  "cluster.local_fallback_computes"),
              0u);
    EXPECT_EQ(
        a_->metrics().counter("cluster.upstream.stale_dropped"),
        1u);
    EXPECT_EQ(a_->metrics().counter("cluster.upstream.connects"),
              2u);
}

TEST_F(ClusterWireTest, ClusterEndpointReportsMembership)
{
    HttpClientResponse response;
    std::string error;
    ASSERT_TRUE(
        clientA_->perform({.target = "/v1/cluster"}, &response, &error))
        << error;
    ASSERT_EQ(response.status, 200);
    JsonValue payload;
    ASSERT_TRUE(
        JsonValue::parse(response.body, &payload, &error))
        << error;
    EXPECT_TRUE(payload.find("enabled")->asBool());
    EXPECT_EQ(payload.find("self")->asString(), selfA_);
    EXPECT_EQ(payload.find("node_count")->asNumber(), 2.0);
    ASSERT_NE(payload.find("stats"), nullptr);
}

TEST(ClusterEndpoint, SingleNodeReportsDisabled)
{
    ServerConfig config;
    config.port = 0;
    config.threads = 1;
    BwwallServer server(config);
    server.start();
    HttpClient client("127.0.0.1", server.port());
    HttpClientResponse response;
    std::string error;
    ASSERT_TRUE(client.perform({.target = "/v1/cluster"}, &response, &error))
        << error;
    ASSERT_EQ(response.status, 200);
    JsonValue payload;
    ASSERT_TRUE(
        JsonValue::parse(response.body, &payload, &error))
        << error;
    EXPECT_FALSE(payload.find("enabled")->asBool());
    EXPECT_EQ(payload.find("node_count")->asNumber(), 0.0);
    server.stop();
}

} // namespace
} // namespace bwwall
