/**
 * @file
 * Tests for the epoll reactor under bwwalld: connection capacity
 * beyond the compute-thread count (the property the blocking
 * thread-per-connection server lacked), accept-time connection
 * admission, pipelined request ordering, fast graceful drain with
 * idle keep-alive connections parked, connection churn, no
 * lost compute wake under multi-shard load, cache hits answered on
 * the io shard (a pipelined flood of them, and one queued behind a
 * miss), requests whose FIN arrives with them, a retrying
 * client riding out a 503 + Retry-After, and the heap an idle
 * reactor's queue rings take at start().  The TSan shard
 * runs these to check the event-loop -> compute-pool -> write-back
 * handoff.
 */

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <malloc.h>
#include <netinet/in.h>
#include <pthread.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "server/http_client.hh"
#include "server/reactor.hh"
#include "server/server.hh"
#include "util/metrics.hh"

// glibc's mallinfo2() sees only glibc's own allocator, which the
// address and thread sanitizers replace.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define BWWALL_GLIBC_HEAP_ACCOUNTING 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define BWWALL_GLIBC_HEAP_ACCOUNTING 0
#endif
#endif
#if !defined(BWWALL_GLIBC_HEAP_ACCOUNTING)
#if defined(__GLIBC__) && \
    (__GLIBC__ > 2 || (__GLIBC__ == 2 && __GLIBC_MINOR__ >= 33))
#define BWWALL_GLIBC_HEAP_ACCOUNTING 1
#else
#define BWWALL_GLIBC_HEAP_ACCOUNTING 0
#endif
#endif

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

/**
 * Threads started while this lives get @p bytes of stack (glibc's
 * process-wide default), so stack growth per request fails fast.
 */
class ScopedDefaultThreadStack
{
  public:
    explicit ScopedDefaultThreadStack(std::size_t bytes)
    {
        ::pthread_getattr_default_np(&saved_);
        pthread_attr_t small;
        ::pthread_attr_init(&small);
        ::pthread_attr_setstacksize(&small, bytes);
        ::pthread_setattr_default_np(&small);
        ::pthread_attr_destroy(&small);
    }

    ~ScopedDefaultThreadStack()
    {
        ::pthread_setattr_default_np(&saved_);
        ::pthread_attr_destroy(&saved_);
    }

    ScopedDefaultThreadStack(const ScopedDefaultThreadStack &) = delete;
    ScopedDefaultThreadStack &
    operator=(const ScopedDefaultThreadStack &) = delete;

  private:
    pthread_attr_t saved_;
};

/** A blocking loopback connection to @p port. */
int
connectTo(std::uint16_t port)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return -1;
    sockaddr_in address{};
    address.sin_family = AF_INET;
    address.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &address.sin_addr);
    if (::connect(fd, reinterpret_cast<sockaddr *>(&address),
                  sizeof(address)) != 0) {
        ::close(fd);
        return -1;
    }
    return fd;
}

/** One POST of @p body to @p path, keep-alive, as raw bytes. */
std::string
postWire(const std::string &path, const std::string &body)
{
    return "POST " + path + " HTTP/1.1\r\nHost: t\r\n" +
           "Content-Length: " + std::to_string(body.size()) +
           "\r\n\r\n" + body;
}

/**
 * Reads responses from @p fd until @p count have arrived, the peer
 * closes, or 20 s pass; returns each response's body in order.
 */
std::vector<std::string>
readBodies(int fd, std::size_t count)
{
    std::vector<std::string> bodies;
    std::string buffer;
    std::size_t at = 0;
    char chunk[65536];
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::seconds(20);
    while (bodies.size() < count &&
           std::chrono::steady_clock::now() < deadline) {
        const std::size_t head_end = buffer.find("\r\n\r\n", at);
        if (head_end != std::string::npos) {
            const std::string head =
                buffer.substr(at, head_end - at);
            const std::size_t length_at =
                head.find("Content-Length: ");
            const std::size_t length =
                length_at == std::string::npos
                    ? 0
                    : std::stoul(head.substr(length_at + 16));
            if (buffer.size() >= head_end + 4 + length) {
                bodies.push_back(
                    buffer.substr(head_end + 4, length));
                at = head_end + 4 + length;
                continue;
            }
        }
        const ssize_t got =
            ::recv(fd, chunk, sizeof(chunk), MSG_DONTWAIT);
        if (got > 0)
            buffer.append(chunk, static_cast<std::size_t>(got));
        else if (got == 0)
            break;
        else
            std::this_thread::sleep_for(
                std::chrono::milliseconds(1));
    }
    return bodies;
}

/** The 200 body for POST @p path @p body over a fresh client. */
std::string
fetchBody(std::uint16_t port, const std::string &path,
          const std::string &body)
{
    HttpClient client("127.0.0.1", port);
    HttpClientResponse response;
    std::string error;
    EXPECT_TRUE(client.perform(
        {.method = "POST", .target = path, .body = body}, &response,
        &error))
        << error;
    EXPECT_EQ(response.status, 200) << response.body;
    return response.body;
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

/** True once the peer closes @p fd (recv() returns 0) within 10 s. */
bool
closedByPeer(int fd)
{
    char byte = 0;
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::seconds(10);
    while (std::chrono::steady_clock::now() < deadline) {
        const ssize_t got = ::recv(fd, &byte, 1, MSG_DONTWAIT);
        if (got == 0)
            return true;
        if (got > 0)
            return false; // bytes after the last expected response
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return false;
}

TEST(ReactorTest, RequestAndFinSentTogetherAreAnsweredThenClosed)
{
    // The shard stops reading at a short read and relies on the
    // level-triggered EPOLLIN for what is left: a FIN already queued
    // behind the request must still close the connection, after the
    // answer, whether the shard answers (/healthz, a Cheap miss) or
    // the pool does (a sweep).
    ServerConfig config;
    config.threads = 2;
    config.ioShards = 1;
    auto server = startServer(config);
    const std::string sweep = "{\"kind\":\"scaling\",\"generations\":3}";
    const std::string solve = "{\"alpha\":0.5,\"total_ceas\":32}";
    const std::string healthz = "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n";
    const std::vector<std::tuple<std::string, std::size_t, std::string>>
        cases = {
            {healthz, 1, "{\"status\":\"ok\"}\n"},
            {postWire("/v1/solve", solve), 1, ""},
            {postWire("/v1/sweep", sweep), 1, ""},
            // Pipelined: an inline answer, then a pool one, then FIN.
            {healthz + postWire("/v1/sweep",
                                "{\"kind\":\"scaling\",\"generations\":4}"),
             2, ""},
        };
    for (const auto &[wire, count, first_body] : cases) {
        const int fd = connectTo(server->port());
        ASSERT_GE(fd, 0);
        ASSERT_EQ(::send(fd, wire.data(), wire.size(), MSG_NOSIGNAL),
                  static_cast<ssize_t>(wire.size()));
        ASSERT_EQ(::shutdown(fd, SHUT_WR), 0);
        const std::vector<std::string> bodies = readBodies(fd, count);
        ASSERT_EQ(bodies.size(), count) << wire;
        for (const std::string &body : bodies)
            EXPECT_FALSE(body.empty()) << wire;
        if (!first_body.empty()) {
            EXPECT_EQ(bodies.front(), first_body);
        }
        EXPECT_TRUE(closedByPeer(fd)) << wire;
        ::close(fd);
    }
    EXPECT_EQ(server->metrics().counter("server.malformed_requests"),
              0u);
    EXPECT_EQ(server->metrics().counter("server.inline_computes"), 1u);
    server->stop();
}

TEST(ReactorTest, PipelinedInlineHitsAnswerInOrderWithoutRecursion)
{
    // The shard answers cache hits inline and loops over pipelined
    // follow-ups: thousands of them in one write must come back in
    // order without growing the shard's stack per request.  A slow
    // miss goes first, so the flood piles up in the socket while it
    // computes and the shard then drains it in one go; on 1 MiB
    // stacks, answering by recursion overflows the shard's stack.
    const ScopedDefaultThreadStack small_stacks(1u << 20);
    ServerConfig config;
    config.threads = 2;
    config.ioShards = 1;
    auto server = startServer(config);
    const std::string first = "{\"alpha\":0.5,\"total_ceas\":32}";
    const std::string second = "{\"alpha\":0.4,\"total_ceas\":32}";
    const std::string first_body =
        fetchBody(server->port(), "/v1/solve", first);
    const std::string second_body =
        fetchBody(server->port(), "/v1/solve", second);
    ASSERT_NE(first_body, second_body);
    const std::uint64_t inline_before =
        server->metrics().counter("server.inline_hits");

    constexpr std::size_t kHits = 5000;
    std::string wire = postWire(
        "/v1/sweep", "{\"kind\":\"miss_curve\",\"estimator\":"
                     "\"stack\",\"size_kib\":128,\"warm\":0,"
                     "\"accesses\":60000,\"seed\":5}");
    for (std::size_t i = 0; i < kHits; ++i)
        wire += postWire("/v1/solve", i % 2 == 0 ? first : second);
    const int fd = connectTo(server->port());
    ASSERT_GE(fd, 0);
    // Written from a second thread so the server can flush its
    // answers while the flood is still arriving.
    std::thread writer([&] {
        std::size_t sent = 0;
        while (sent < wire.size()) {
            const ssize_t wrote =
                ::send(fd, wire.data() + sent, wire.size() - sent,
                       MSG_NOSIGNAL);
            if (wrote <= 0)
                return;
            sent += static_cast<std::size_t>(wrote);
        }
    });
    const std::vector<std::string> bodies = readBodies(fd, kHits + 1);
    writer.join();
    ::close(fd);

    ASSERT_EQ(bodies.size(), kHits + 1);
    for (std::size_t i = 0; i < kHits; ++i) {
        ASSERT_EQ(bodies[i + 1],
                  i % 2 == 0 ? first_body : second_body)
            << "response " << i;
    }
    EXPECT_EQ(server->metrics().counter("server.inline_hits") -
                  inline_before,
              kHits);

    // The shard survived and still serves.
    EXPECT_EQ(fetchBody(server->port(), "/v1/solve", first),
              first_body);
    server->stop();
}

TEST(ReactorTest, PipelinedHitWaitsForTheMissAheadOfIt)
{
    ServerConfig config;
    config.threads = 2;
    config.ioShards = 1;
    auto server = startServer(config);
    const std::string hit = "{\"alpha\":0.5,\"total_ceas\":32}";
    const std::string hit_body =
        fetchBody(server->port(), "/v1/solve", hit);
    const std::uint64_t inline_before =
        server->metrics().counter("server.inline_hits");

    // A miss goes to the compute pool; the hit behind it on the
    // same connection must not overtake it on the shard.
    const std::string miss =
        "{\"kind\":\"scaling\",\"generations\":6}";
    const int fd = connectTo(server->port());
    ASSERT_GE(fd, 0);
    const std::string wire =
        postWire("/v1/sweep", miss) + postWire("/v1/solve", hit);
    ASSERT_EQ(::send(fd, wire.data(), wire.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(wire.size()));
    const std::vector<std::string> bodies = readBodies(fd, 2);
    ::close(fd);

    ASSERT_EQ(bodies.size(), 2u);
    EXPECT_EQ(bodies[0], fetchBody(server->port(), "/v1/sweep", miss));
    EXPECT_EQ(bodies[1], hit_body);
    // The hit was still answered on the shard, once the miss
    // finished; the sweep fetched again above is a hit too.
    EXPECT_EQ(server->metrics().counter("server.inline_hits") -
                  inline_before,
              2u);
    server->stop();
}

TEST(ReactorTest, InlineHookThatThrowsIsA500AndTheShardSurvives)
{
    // The hook's contract is no-throw; a violation must cost one
    // request, not the shard thread.
    MetricsRegistry metrics;
    ReactorConfig config;
    HttpReactor reactor(
        config, &metrics,
        [](const HttpRequest &, HttpReactor::Clock::time_point,
           unsigned, HttpReactor::Prepared *) {
            HttpResponse response;
            response.body = "pool";
            return response;
        },
        nullptr, nullptr, nullptr,
        [](const HttpRequest &request, HttpReactor::Clock::time_point,
           unsigned, HttpResponse *response,
           std::unique_ptr<HttpReactor::Prepared> *) {
            if (request.path == "/throw")
                throw std::runtime_error("hook broke");
            if (request.path != "/inline")
                return false;
            response->body = "inline";
            return true;
        });
    reactor.start();
    HttpClient client("127.0.0.1", reactor.port());
    HttpClientResponse response;
    std::string error;
    for (const auto &[path, status, body] :
         std::vector<std::tuple<std::string, int, std::string>>{
             {"/inline", 200, "inline"},
             {"/throw", 500, ""},
             {"/other", 200, "pool"},
             {"/inline", 200, "inline"}}) {
        ASSERT_TRUE(client.perform({.target = path}, &response, &error))
            << path << ": " << error;
        EXPECT_EQ(response.status, status) << path;
        if (!body.empty()) {
            EXPECT_EQ(response.body, body) << path;
        }
    }
    EXPECT_EQ(metrics.counter("server.connection_errors"), 1u);
    reactor.requestStop();
    reactor.join();
}

TEST(ReactorTest, RetryingClientRidesOutA503WithRetryAfter)
{
    // The handler sheds the first request the way every server 503
    // does, then serves: the retrying client must wait out the
    // Retry-After hint and hand its caller the 200.
    MetricsRegistry metrics;
    std::atomic<unsigned> calls{0};
    HttpReactor reactor(
        ReactorConfig{}, &metrics,
        [&calls](const HttpRequest &, HttpReactor::Clock::time_point,
                 unsigned, HttpReactor::Prepared *) {
            if (calls.fetch_add(1) == 0) {
                HttpResponse shed =
                    httpErrorResponse(503, "shed; retry later");
                shed.headers["Retry-After"] = std::string(kRetryAfterSeconds);
                return shed;
            }
            HttpResponse response;
            response.body = "served";
            return response;
        });
    reactor.start();
    HttpClient client("127.0.0.1", reactor.port());
    HttpRetryPolicy policy;
    policy.initialBackoffMs = 10.0;
    policy.maxBackoffMs = 1500.0;
    client.setRetryPolicy(policy);
    HttpClientResponse response;
    std::string error;
    const auto start = std::chrono::steady_clock::now();
    // A POST: a 503 refused the work, so it is safe to retry even
    // without retryPosts.
    ASSERT_TRUE(client.perform(
        {.method = "POST", .target = "/work", .body = "{}"},
        &response, &error))
        << error;
    EXPECT_EQ(response.status, 200);
    EXPECT_EQ(response.body, "served");
    EXPECT_GE(client.retriesUsed(), 1u);
    EXPECT_EQ(calls.load(), 2u);
    // The one-second hint, not the 10 ms backoff, set the wait.
    EXPECT_GE(std::chrono::steady_clock::now() - start,
              std::chrono::milliseconds(900));
    reactor.requestStop();
    reactor.join();
}

TEST(ReactorTest, IdleStartAllocatesUnder128KiB)
{
#if BWWALL_GLIBC_HEAP_ACCOUNTING
    // The queue rings are preallocated at start(): the compute ring
    // and each shard's completion ring have max(1024, maxInflight)
    // cells, the accept inbox 1024.  With pointer-sized payloads the
    // three rings of one shard take about 49 KiB; a whole request
    // (256 B) in each compute-ring cell alone would pass the bound.
    MetricsRegistry metrics;
    ReactorConfig config;
    config.ioShards = 1;
    config.computeThreads = 1;
    HttpReactor reactor(
        config, &metrics,
        [](const HttpRequest &, HttpReactor::Clock::time_point,
           unsigned, HttpReactor::Prepared *) { return HttpResponse{}; });
    const auto heapBytes = [] {
        const struct mallinfo2 info = ::mallinfo2();
        return info.uordblks + info.hblkhd;
    };
    const std::size_t before = heapBytes();
    reactor.start();
    const std::size_t after = heapBytes();
    const std::size_t grew = after > before ? after - before : 0;
    EXPECT_LT(grew, std::size_t{128} << 10)
        << "start() allocated " << grew << " bytes";
    reactor.requestStop();
    reactor.join();
#else
    GTEST_SKIP() << "needs glibc's own allocator (mallinfo2)";
#endif
}

} // namespace
} // namespace bwwall
