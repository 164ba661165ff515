/**
 * @file
 * Tiny blocking HTTP/1.1 client for bwwalld.
 *
 * Shared by the bwwall_client example, the perf_server closed-loop
 * load generator, and the server tests, so every consumer talks to
 * the daemon through the same code path.  Keep-alive by default:
 * one HttpClient is one TCP connection, reconnecting transparently
 * when the server (or a Connection: close response) drops it.
 *
 * The API is one entry point: describe the exchange in a Request
 * (method, target, headers, body), tune the attempt in
 * RequestOptions (retry policy, per-call deadline), and call
 * perform().  The older method-per-shape overloads (request, get,
 * post, requestWithRetry) remain as thin wrappers over perform()
 * for one release; new code should call perform() directly.
 *
 * Robustness knobs:
 *  - setConnectTimeoutMs() bounds connect() (non-blocking connect +
 *    poll) so an unreachable server fails fast instead of hanging
 *    in the kernel's SYN retries;
 *  - setReadTimeoutMs() bounds reading one response, so a peer that
 *    accepts the connection but never answers (SIGSTOPped, wedged)
 *    cannot hang the caller;
 *  - RequestOptions::retry layers an idempotency-aware retry policy
 *    on the exchange: capped exponential backoff with deterministic
 *    jitter, a lifetime retry budget, Retry-After awareness, and a
 *    total deadline the server sees via X-BWWall-Deadline-Ms;
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

/** Tuning of HttpClient::requestWithRetry(). */
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
     * Total wall-clock deadline across attempts, milliseconds
     * (0 = none).  The remaining budget rides along as the
     * X-BWWall-Deadline-Ms request header, so the server's own
     * deadline tightens to what the client will actually wait for.
     */
    double totalDeadlineMs = 0.0;

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

    /** One exchange to perform(): the what of a request. */
    struct Request
    {
        std::string method = "GET";
        std::string target = "/";

        /**
         * Extra request headers ("X-BWWall-Trace" opts a bwwalld
         * request into span recording — docs/SERVER.md).
         */
        std::map<std::string, std::string> headers;

        std::string body;

        /**
         * When set, the request body streams with
         * Transfer-Encoding: chunked: the provider is called
         * repeatedly to fill up to @p cap bytes of @p buffer and
         * returns how many it wrote, with 0 ending the stream
         * (each non-empty fill is one wire chunk); `body` is then
         * ignored.  Streamed requests are sent exactly once — the
         * provider is consumed as it runs, so neither the stale
         * keep-alive resend nor RequestOptions::retry applies.
         */
        std::function<std::size_t(char *buffer, std::size_t cap)>
            bodyProvider;
    };

    /** The how of one perform() call. */
    struct RequestOptions
    {
        /**
         * Retry under the client's HttpRetryPolicy (idempotency
         * aware; see setRetryPolicy()).  Off, a transport failure
         * fails the call after the single built-in stale
         * keep-alive reconnect.
         */
        bool retry = false;

        /**
         * Policy override for this call only (implies retry);
         * null uses the client's configured policy.  Not owned;
         * must outlive the call.
         */
        const HttpRetryPolicy *policy = nullptr;

        /**
         * Total wall-clock deadline override for this call,
         * milliseconds; negative defers to the policy's
         * totalDeadlineMs, 0 disables the deadline.
         */
        double deadlineMs = -1.0;
    };

    HttpClient(std::string host, std::uint16_t port)
        : host_(std::move(host)), port_(port)
    {}

    ~HttpClient();

    HttpClient(const HttpClient &) = delete;
    HttpClient &operator=(const HttpClient &) = delete;

    /**
     * Sends one request and reads the full response, applying the
     * options.  Connects (or reconnects) as needed.  Returns false
     * with *error set on transport failure (or, with retry, once
     * the attempts, the budget, or the deadline are exhausted; *out
     * then holds the last response if any attempt transported).
     * HTTP error statuses are successful transports.
     */
    bool perform(const Request &request,
                 const RequestOptions &options,
                 HttpClientResponse *out,
                 std::string *error = nullptr);

    /** perform() with default options (no retry). */
    bool
    perform(const Request &request, HttpClientResponse *out,
            std::string *error = nullptr)
    {
        return perform(request, RequestOptions{}, out, error);
    }

    /** @name Deprecated wrappers (one release): use perform().
     *  @{ */
    bool
    request(const std::string &method, const std::string &target,
            const std::string &body, HttpClientResponse *out,
            std::string *error = nullptr)
    {
        return perform({method, target, {}, body, {}}, out, error);
    }

    bool
    request(const std::string &method, const std::string &target,
            const std::map<std::string, std::string> &headers,
            const std::string &body, HttpClientResponse *out,
            std::string *error = nullptr)
    {
        return perform({method, target, headers, body, {}}, out,
                       error);
    }

    bool
    get(const std::string &target, HttpClientResponse *out,
        std::string *error = nullptr)
    {
        return perform({"GET", target, {}, "", {}}, out, error);
    }

    bool
    post(const std::string &target, const std::string &body,
         HttpClientResponse *out, std::string *error = nullptr)
    {
        return perform({"POST", target, {}, body, {}}, out, error);
    }

    bool
    requestWithRetry(
        const std::string &method, const std::string &target,
        const std::map<std::string, std::string> &headers,
        const std::string &body, HttpClientResponse *out,
        std::string *error = nullptr)
    {
        RequestOptions options;
        options.retry = true;
        return perform({method, target, headers, body, {}}, options,
                       out, error);
    }
    /** @} */

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

    void setRetryPolicy(const HttpRetryPolicy &policy)
    {
        retryPolicy_ = policy;
    }

    /** Retries consumed from the lifetime budget so far. */
    unsigned retriesUsed() const { return retriesUsed_; }

    bool connected() const { return fd_ >= 0; }

    /**
     * Checks an idle keep-alive connection without blocking before
     * it is reused.  A server that has already written to it or
     * closed it (bwwalld's idle sweep writes an unsolicited 408 and
     * then closes) would otherwise hand that stale answer to the
     * next request.  Such a connection is dropped, so the next
     * perform() reconnects; returns true when one was dropped.
     */
    bool dropStaleConnection();

    /** Successful connects over this client's life. */
    std::uint64_t connects() const { return connects_; }

  private:
    bool connect(std::string *error);
    bool connectOne(int fd, const void *address,
                    unsigned addressLen, std::string *failure);
    void disconnect();
    bool sendAll(const std::string &wire, std::string *error);
    bool readResponse(HttpClientResponse *out,
                      std::string *error);

    /** One exchange, no retries (stale keep-alive reconnect only). */
    bool performOnce(const Request &request,
                     HttpClientResponse *out, std::string *error);

    /** The retry loop of perform() with options.retry. */
    bool retryLoop(const Request &request,
                   const HttpRetryPolicy &policy,
                   double deadline_ms, HttpClientResponse *out,
                   std::string *error);

    std::string host_;
    std::uint16_t port_;
    int fd_ = -1;
    unsigned connectTimeoutMs_ = 0;
    unsigned readTimeoutMs_ = 0;
    FailureKind lastFailure_ = FailureKind::None;
    HttpRetryPolicy retryPolicy_;
    unsigned retriesUsed_ = 0;
    std::uint64_t connects_ = 0;
    std::uint64_t jitterState_ = 0;
    std::string buffer_;
};

} // namespace bwwall

#endif // BWWALL_SERVER_HTTP_CLIENT_HH
