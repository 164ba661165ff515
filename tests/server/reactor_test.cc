/**
 * @file
 * Tests for the epoll reactor under bwwalld: connection capacity
 * beyond the compute-thread count (the property the blocking
 * thread-per-connection server lacked), accept-time connection
 * admission, pipelined request ordering, fast graceful drain with
 * idle keep-alive connections parked, connection churn, and no
 * lost compute wake under multi-shard load.  The
 * TSan shard runs these to check the event-loop -> compute-pool ->
 * write-back handoff.
 */

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "server/http_client.hh"
#include "server/server.hh"

namespace bwwall {
namespace {

std::unique_ptr<BwwallServer>
startServer(ServerConfig config)
{
    config.port = 0;
    auto server = std::make_unique<BwwallServer>(config);
    server->start();
    return server;
}

TEST(ReactorTest, HoldsFarMoreConnectionsThanComputeThreads)
{
    ServerConfig config;
    config.threads = 2;
    config.ioShards = 2;
    auto server = startServer(config);

    // 64 keep-alive connections against 2 compute threads: the
    // blocking server would have parked 62 of these forever.
    constexpr unsigned kFleet = 64;
    std::vector<std::unique_ptr<HttpClient>> fleet;
    for (unsigned i = 0; i < kFleet; ++i) {
        fleet.push_back(std::make_unique<HttpClient>(
            "127.0.0.1", server->port()));
    }
    HttpClientResponse response;
    std::string error;
    for (unsigned round = 0; round < 2; ++round) {
        for (unsigned i = 0; i < kFleet; ++i) {
            ASSERT_TRUE(fleet[i]->perform(
                {"GET", "/healthz", {}, "", {}}, &response, &error))
                << "conn " << i << ": " << error;
            EXPECT_EQ(response.status, 200);
        }
    }
    // Every probe reused its original connection.
    EXPECT_EQ(server->metrics().counter("server.connections"),
              kFleet);
    for (unsigned i = 0; i < kFleet; ++i)
        EXPECT_TRUE(fleet[i]->connected());

    fleet.clear();
    server->stop();
}

TEST(ReactorTest, ConnectionCapShedsAtAccept)
{
    ServerConfig config;
    config.threads = 2;
    config.maxConnections = 2;
    auto server = startServer(config);

    HttpClient first("127.0.0.1", server->port());
    HttpClient second("127.0.0.1", server->port());
    HttpClientResponse response;
    std::string error;
    ASSERT_TRUE(first.perform({"GET", "/healthz", {}, "", {}},
                              &response, &error))
        << error;
    EXPECT_EQ(response.status, 200);
    ASSERT_TRUE(second.perform({"GET", "/healthz", {}, "", {}},
                               &response, &error))
        << error;
    EXPECT_EQ(response.status, 200);

    // The third connection is refused at the doorstep with the
    // same 503 + Retry-After contract as request-level shedding.
    HttpClient third("127.0.0.1", server->port());
    ASSERT_TRUE(third.perform({"GET", "/healthz", {}, "", {}},
                              &response, &error))
        << error;
    EXPECT_EQ(response.status, 503);
    EXPECT_NE(response.body.find("server at capacity"),
              std::string::npos);
    EXPECT_EQ(response.headers.at("retry-after"), "1");
    EXPECT_GE(server->metrics().counter("server.shed"), 1u);

    // The parked connections still serve.
    ASSERT_TRUE(first.perform({"GET", "/healthz", {}, "", {}},
                              &response, &error))
        << error;
    EXPECT_EQ(response.status, 200);

    server->stop();
}

TEST(ReactorTest, PipelinedRequestsAnswerInOrder)
{
    ServerConfig config;
    config.threads = 2;
    auto server = startServer(config);

    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in address{};
    address.sin_family = AF_INET;
    address.sin_port = htons(server->port());
    ASSERT_EQ(
        ::inet_pton(AF_INET, "127.0.0.1", &address.sin_addr), 1);
    ASSERT_EQ(::connect(fd,
                        reinterpret_cast<sockaddr *>(&address),
                        sizeof(address)),
              0);

    // Two requests written back to back before any response is
    // read: distinguishable answers must come back in order.
    const std::string wire =
        "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n"
        "POST /v1/nope HTTP/1.1\r\nHost: t\r\n"
        "Content-Length: 2\r\n\r\n{}";
    ASSERT_EQ(::send(fd, wire.data(), wire.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(wire.size()));

    std::string received;
    char chunk[4096];
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::seconds(10);
    while (std::chrono::steady_clock::now() < deadline) {
        const ssize_t got =
            ::recv(fd, chunk, sizeof(chunk), MSG_DONTWAIT);
        if (got > 0)
            received.append(chunk,
                            static_cast<std::size_t>(got));
        else
            std::this_thread::sleep_for(
                std::chrono::milliseconds(5));
        if (received.find("unknown path") != std::string::npos)
            break;
    }
    ::close(fd);

    const std::size_t ok = received.find("HTTP/1.1 200 OK");
    const std::size_t not_found =
        received.find("HTTP/1.1 404 Not Found");
    ASSERT_NE(ok, std::string::npos) << received;
    ASSERT_NE(not_found, std::string::npos) << received;
    EXPECT_LT(ok, not_found);

    server->stop();
}

TEST(ReactorTest, DrainDoesNotWaitOutIdleConnections)
{
    ServerConfig config;
    config.threads = 2;
    config.idleTimeoutMs = 30000;
    auto server = startServer(config);

    // Park idle keep-alive connections, then stop: the drain must
    // close them immediately instead of waiting out the timeout.
    std::vector<std::unique_ptr<HttpClient>> fleet;
    HttpClientResponse response;
    std::string error;
    for (unsigned i = 0; i < 8; ++i) {
        fleet.push_back(std::make_unique<HttpClient>(
            "127.0.0.1", server->port()));
        ASSERT_TRUE(fleet.back()->perform(
            {"GET", "/healthz", {}, "", {}}, &response, &error))
            << error;
    }
    const auto start = std::chrono::steady_clock::now();
    server->stop();
    const double took =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - start)
            .count();
    EXPECT_LT(took, 5.0);
    EXPECT_DOUBLE_EQ(server->metrics().gauge("server.drained"),
                     1.0);
}

TEST(ReactorTest, ConnectionChurnServesEveryRequest)
{
    ServerConfig config;
    config.threads = 4;
    config.ioShards = 2;
    auto server = startServer(config);

    constexpr unsigned kThreads = 8;
    constexpr unsigned kPerThread = 25;
    std::atomic<unsigned> failures{0};
    std::vector<std::thread> churn;
    for (unsigned t = 0; t < kThreads; ++t) {
        churn.emplace_back([&] {
            for (unsigned i = 0; i < kPerThread; ++i) {
                // A fresh connection per request: the accept ->
                // shard-adopt -> close path under contention.
                HttpClient client("127.0.0.1", server->port());
                HttpClientResponse response;
                std::string error;
                if (!client.perform(
                        {"POST", "/v1/traffic", {},
                         "{\"cores\":16,\"alpha\":0.5,"
                         "\"total_ceas\":32}",
                         {}},
                        &response, &error) ||
                    response.status != 200)
                    failures.fetch_add(1);
            }
        });
    }
    for (std::thread &thread : churn)
        thread.join();
    EXPECT_EQ(failures.load(), 0u);
    EXPECT_EQ(server->metrics().counter("server.connections"),
              kThreads * kPerThread);
    server->stop();
}

TEST(ReactorTest, MultiShardLoadLosesNoComputeWake)
{
    // Several io shards pushing at once can leave the compute
    // queue's head cell claimed but unpublished while a later item
    // and its wake are already visible.  A compute thread that
    // drops its wake on that failed pop strands one item; in this
    // closed loop the last request then never answers.  Every read
    // is bounded, so a stranded request fails instead of hanging.
    ServerConfig config;
    config.threads = 2;
    config.ioShards = 4;
    auto server = startServer(config);

    constexpr unsigned kClients = 8;
    constexpr unsigned kPerClient = 1500;
    std::atomic<unsigned> failures{0};
    std::vector<std::thread> clients;
    for (unsigned t = 0; t < kClients; ++t) {
        clients.emplace_back([&] {
            HttpClient client("127.0.0.1", server->port());
            client.setReadTimeoutMs(2000);
            HttpClientResponse response;
            std::string error;
            for (unsigned i = 0; i < kPerClient; ++i) {
                if (!client.perform({"GET", "/healthz", {}, "", {}},
                                    &response, &error) ||
                    response.status != 200) {
                    failures.fetch_add(1);
                    return;
                }
            }
        });
    }
    for (std::thread &thread : clients)
        thread.join();
    EXPECT_EQ(failures.load(), 0u);
    server->stop();
}

} // namespace
} // namespace bwwall
