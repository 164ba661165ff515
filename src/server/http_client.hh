/**
 * @file
 * Tiny blocking HTTP/1.1 client for bwwalld.
 *
 * Every caller talks to the daemon through it: the bwwall_client
 * example, the cluster's pooled upstream connections (peer fills
 * and the router's forwards), the health prober, the bench load
 * generators, perfbench's harness, and the server tests.
 * Keep-alive by default: one HttpClient is one TCP connection,
 * reconnecting transparently when the server (or a Connection:
 * close response) drops it.
 *
 * The contract is one call: describe the exchange in a Request
 * (method, target, headers, body, deadline) and call perform().
 * Without a retry policy that is one exchange, and any HTTP status
 * is a successful transport; setRetryPolicy() layers retries on
 * every later call.
 *
 * One reuse rule covers every caller.  An idle keep-alive
 * connection is peeked without blocking before it carries a
 * request; a server that has written to it or closed it (bwwalld's
 * idle sweep writes an unsolicited 408, then closes; a restarted
 * server left it at EOF) gets a fresh connection instead.  A 408
 * that still arrives on a reused connection, because the sweep
 * fired between the peek and the send, answers no request of ours:
 * the request is sent once more on a fresh connection.
 *
 * Robustness knobs:
 *  - setConnectTimeoutMs() bounds connect() (non-blocking connect +
 *    poll) so an unreachable server fails fast instead of hanging
 *    in the kernel's SYN retries;
 *  - setReadTimeoutMs() bounds reading one response, so a peer that
 *    accepts the connection but never answers (SIGSTOPped, wedged)
 *    cannot hang the caller;
 *  - Request::deadlineMs bounds the call's total wall clock, and
 *    the server sees the remaining budget as X-BWWall-Deadline-Ms;
 *  - setRetryPolicy() installs an idempotency-aware retry policy:
 *    capped exponential backoff with deterministic jitter, a
 *    lifetime retry budget, and Retry-After awareness;
 *  - lastFailureKind() classifies transport failures (connection
 *    refused vs timed out vs other), and
 *    HttpRetryPolicy::failFastOnRefused turns an outright refusal
 *    into an immediate failure instead of a retried one — the
 *    cluster's peer-health layer keys off both.
 */

#ifndef BWWALL_SERVER_HTTP_CLIENT_HH
#define BWWALL_SERVER_HTTP_CLIENT_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>

namespace bwwall {

/** One parsed client-side response. */
struct HttpClientResponse
{
    int status = 0;
    /** Header fields, names lowercased. */
    std::map<std::string, std::string> headers;
    std::string body;
};

/** The retries HttpClient::setRetryPolicy() turns on. */
struct HttpRetryPolicy
{
    /** Tries per request, the first included (1 = no retries). */
    unsigned maxAttempts = 3;

    /** Backoff before the first retry; doubles per attempt. */
    double initialBackoffMs = 50.0;

    /** Backoff cap (also caps honored Retry-After hints). */
    double maxBackoffMs = 1000.0;

    /** Jitter as a fraction of the backoff, in [0, 1]. */
    double jitter = 0.2;

    /** Deterministic jitter stream (clients are reproducible). */
    std::uint64_t seed = 1;

    /**
     * Lifetime retry budget across all requests on this client: a
     * struggling server gets at most this many extra requests, no
     * matter how many callers retry.
     */
    unsigned budget = 16;

    /**
     * Retry POSTs after transport errors.  Off by default: a POST
     * whose connection died mid-exchange may have been processed.
     * (503/429 responses are always safe to retry — the server
     * explicitly refused the work.)
     */
    bool retryPosts = false;

    /**
     * Give up immediately on an outright connection refusal
     * instead of burning retry attempts on it: a closed port means
     * nobody is listening, and backing off cannot change that
     * within one call's budget.  The refusal is still reported as
     * a transport failure (FailureKind::ConnectRefused) so callers
     * can classify it.  Off by default — a server restarting
     * between attempts is exactly what retries are for.
     */
    bool failFastOnRefused = false;
};

/** One keep-alive connection to an HTTP server. */
class HttpClient
{
  public:
    /**
     * How the last perform() failed, for callers that react
     * differently to "nobody is listening" (connection refused —
     * the peer process is gone) than to "listening but not
     * answering" (timeouts — the peer may be wedged or slow).
     * None after a successful transport.
     */
    enum class FailureKind
    {
        None,
        ConnectRefused, ///< connect() answered ECONNREFUSED
        ConnectTimeout, ///< connect() outlived its bound
        ReadTimeout,    ///< the response outlived the read bound
        Other,          ///< resolve/send/parse/close failures
    };

    /**
     * One exchange to perform().  Every member has a default, so a
     * designated initializer names only what differs:
     * `perform({.target = "/healthz"}, &out)`.
     */
    struct Request
    {
        std::string method = "GET";
        std::string target = "/";

        /**
         * Extra request headers ("X-BWWall-Trace" opts a bwwalld
         * request into span recording — docs/SERVER.md).
         */
        std::map<std::string, std::string> headers{};

        std::string body{};

        /**
         * When set, the request body streams with
         * Transfer-Encoding: chunked: the provider is called
         * repeatedly to fill up to @p cap bytes of @p buffer and
         * returns how many it wrote, with 0 ending the stream
         * (each non-empty fill is one wire chunk); `body` is then
         * ignored.  Streamed requests are sent exactly once — the
         * provider is consumed as it runs, so neither the resend
         * on a fresh connection nor the retry policy applies (the
         * peek before reuse still does).
         */
        std::function<std::size_t(char *buffer, std::size_t cap)>
            bodyProvider{};

        /**
         * Total wall-clock deadline across attempts, milliseconds
         * (0 = none).  Each attempt carries the remaining budget
         * as the X-BWWall-Deadline-Ms header, so the server's own
         * deadline tightens to what the client will wait for.
         */
        double deadlineMs = 0.0;
    };

    HttpClient(std::string host, std::uint16_t port)
        : host_(std::move(host)), port_(port)
    {}

    ~HttpClient();

    HttpClient(const HttpClient &) = delete;
    HttpClient &operator=(const HttpClient &) = delete;

    /**
     * Sends one request and reads the full response, connecting
     * (or reconnecting) as needed.  Returns false with *error set
     * on transport failure.  HTTP error statuses are successful
     * transports — unless a retry policy is set, under which a
     * call fails once the attempts, the budget, or the deadline
     * are exhausted (*out then holds the last response if any
     * attempt transported).
     */
    bool perform(const Request &request, HttpClientResponse *out,
                 std::string *error = nullptr);

    /** Connect timeout, milliseconds (0 = the OS default). */
    void setConnectTimeoutMs(unsigned ms)
    {
        connectTimeoutMs_ = ms;
    }

    /**
     * Bounds reading one response, milliseconds (0 = wait forever,
     * the historical behavior).  Without it a peer that accepts the
     * connection but never answers — a SIGSTOPped process, a
     * wedged event loop — hangs the caller indefinitely; with it
     * the read fails (FailureKind::ReadTimeout) and the connection
     * is dropped, since a half-read response is unusable.
     */
    void setReadTimeoutMs(unsigned ms) { readTimeoutMs_ = ms; }

    /** Classification of the last perform() transport failure. */
    FailureKind lastFailureKind() const
    {
        return lastFailure_;
    }

    /** Retries every later perform() under @p policy. */
    void setRetryPolicy(const HttpRetryPolicy &policy)
    {
        retryPolicy_ = policy;
    }

    /** Retries consumed from the lifetime budget so far. */
    unsigned retriesUsed() const { return retriesUsed_; }

    bool connected() const { return fd_ >= 0; }

    /** Successful connects over this client's life. */
    std::uint64_t connects() const { return connects_; }

    /**
     * Idle connections the reuse rule retired over this client's
     * life: dropped by the peek before reuse, or answered by an
     * idle sweep's 408 and resent.
     */
    std::uint64_t staleDropped() const { return staleDropped_; }

  private:
    /**
     * The peek before reuse: drops an idle connection the server
     * has written to or closed.  True when one was dropped.
     */
    bool dropStaleConnection();

    bool connect(std::string *error);
    bool connectOne(int fd, const void *address,
                    unsigned addressLen, std::string *failure);
    void disconnect();
    bool sendAll(const std::string &wire, std::string *error);
    bool readResponse(HttpClientResponse *out,
                      std::string *error);

    /**
     * One exchange under the reuse rule, with at most one resend
     * on a fresh connection; @p remainingMs (0 = none) becomes the
     * X-BWWall-Deadline-Ms header.
     */
    bool performOnce(const Request &request, double remainingMs,
                     HttpClientResponse *out, std::string *error);

    /** perform() under the retry policy. */
    bool retryLoop(const Request &request,
                   const HttpRetryPolicy &policy,
                   HttpClientResponse *out, std::string *error);

    std::string host_;
    std::uint16_t port_;
    int fd_ = -1;
    unsigned connectTimeoutMs_ = 0;
    unsigned readTimeoutMs_ = 0;
    FailureKind lastFailure_ = FailureKind::None;
    std::optional<HttpRetryPolicy> retryPolicy_;
    unsigned retriesUsed_ = 0;
    std::uint64_t connects_ = 0;
    std::uint64_t staleDropped_ = 0;
    std::uint64_t jitterState_ = 0;
    std::string buffer_;
};

} // namespace bwwall

#endif // BWWALL_SERVER_HTTP_CLIENT_HH
